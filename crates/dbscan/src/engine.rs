//! `ClusterEngine`: one ergonomic builder façade over every clustering
//! algorithm and every neighbour-search backend in the workspace.
//!
//! Before the redesign each algorithm privately constructed its substrate;
//! the engine decouples the two axes — *which algorithm* ([`Algo`]) and
//! *which backend* ([`IndexKind`]) — validates the combination eagerly with
//! structured [`ConfigError`]s, and exposes three run modes:
//!
//! * [`ClusterEngine::run`] — one-shot clustering;
//! * [`ClusterEngine::session`] — reusable index plus recorded stage-1
//!   neighbour counts, for repeated `minPts` exploration (Section VI-B);
//! * streaming — `ClusterEngine::stream(window_policy)` via the
//!   `EngineStreamExt` extension trait in the `rtdbscan-stream` crate, which
//!   turns the same configuration into a `StreamingClusterer`.
//!
//! # Examples
//!
//! ```
//! use rtcore::geometry::Point3;
//! use rtdbscan::engine::{Algo, ClusterEngine, IndexKind};
//!
//! let points: Vec<Point3> = (0..40).map(|i| Point3::new_2d(0.2 * i as f32, 0.0)).collect();
//!
//! // RT-DBSCAN on the wide batched BVH4 backend (the defaults), eps = 0.5,
//! // minPts = 2.
//! let engine = ClusterEngine::builder()
//!     .algorithm(Algo::Rt)
//!     .index(IndexKind::WideBatched)
//!     .eps(0.5)
//!     .min_pts(2)
//!     .build()
//!     .unwrap();
//! let run = engine.run(&points).unwrap();
//! assert_eq!(run.clustering.num_clusters(), 1);
//!
//! // The same clustering through the grid backend of the CUDA-DClust+
//! // baseline — only the substrate changes.
//! let grid = ClusterEngine::builder()
//!     .algorithm(Algo::Rt)
//!     .index(IndexKind::UniformGrid)
//!     .eps(0.5)
//!     .min_pts(2)
//!     .build()
//!     .unwrap();
//! assert_eq!(grid.run(&points).unwrap().clustering.num_clusters(), 1);
//!
//! // Misconfigurations fail eagerly, naming the offending field.
//! let err = ClusterEngine::builder().eps(0.5).min_pts(2).batch_size(0).build();
//! assert_eq!(err.unwrap_err().field, "batch_size");
//! ```

use crate::classic::ClassicDbscan;
use crate::dclust::CudaDclustPlus;
use crate::fdbscan::Fdbscan;
use crate::labels::Clustering;
use crate::params::DbscanParams;
use crate::rt_dbscan::RtDbscan;
use crate::runner::{
    timed, DbscanAlgorithm, PhaseCounters, PhaseTimings, RunResult, SimulatedBreakdown,
};
use crate::stages;
use crate::GDbscan;
use rtcore::bvh::BuilderKind;
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::{DeviceModel, ExecutionPath, WorkCounters};
use rtcore::index::{GeometryKind, NeighborIndex, NeighborIndexBuilder, ShardingConfig};
use rtcore::Result;
use std::time::Duration;

pub use rtcore::fault::{CancelToken, Deadline, FaultPlan, MemoryBudget};
pub use rtcore::index::{IndexKind, QueryOrder, SimdPolicy};
pub use rtcore::telemetry::TelemetryConfig;

/// Which clustering algorithm the engine runs.  Every variant executes over
/// any [`IndexKind`]; the default backend is the algorithm's native
/// substrate (the one its original implementation privately owned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// RT-DBSCAN (the paper's algorithm): two batched stages over the RT
    /// substrate.  Native backend: [`IndexKind::WideBatched`] with
    /// compaction, the LBVH builder and [`QueryOrder::Morton`] launches.
    /// Stage 1 stops each query once its count reaches `minPts` (an
    /// any-hit program that terminates the ray), flat and sharded: the
    /// labels and core flags are those of exact counting, which
    /// `RtDbscan::default()` and [`ClusterSession`] keep.
    Rt,
    /// FDBSCAN / ArborX baseline: the same two stages on the shader cores.
    /// Native backend: [`IndexKind::BinaryBvh`] with an LBVH builder.
    Fdbscan,
    /// FDBSCAN with the stage-1 early-exit optimisation (Fig 9).
    FdbscanEarlyExit,
    /// G-DBSCAN baseline: materialised ε-graph + BFS.  Native backend:
    /// [`IndexKind::BruteForce`] (the original has no spatial index).
    GDbscan,
    /// CUDA-DClust+ baseline: chain expansion over a grid.  Native backend:
    /// [`IndexKind::UniformGrid`].
    DclustPlus,
    /// The sequential reference implementation (the correctness oracle).
    /// Native backend: [`IndexKind::BinaryBvh`].
    Classic,
}

impl Algo {
    /// Every algorithm, reference last.
    pub const ALL: [Algo; 6] = [
        Algo::Rt,
        Algo::Fdbscan,
        Algo::FdbscanEarlyExit,
        Algo::GDbscan,
        Algo::DclustPlus,
        Algo::Classic,
    ];

    /// The algorithm's report name (matches the pre-redesign entry points).
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Rt => "RT-DBSCAN",
            Algo::Fdbscan => "FDBSCAN",
            Algo::FdbscanEarlyExit => "FDBSCAN-EarlyExit",
            Algo::GDbscan => "G-DBSCAN",
            Algo::DclustPlus => "CUDA-DClust+",
            Algo::Classic => "Classic-DBSCAN",
        }
    }

    /// The backend the algorithm's original implementation owned.  RT-DBSCAN
    /// runs the measured-fastest configuration: the LBVH builder and
    /// Morton-ordered launches, which give the same labels as the
    /// paper-reproduction `RtDbscan::default()` (binned SAH, caller order)
    /// at a fraction of the build and stage-1 time.
    fn native_index(&self) -> NeighborIndexBuilder {
        match self {
            Algo::Rt => NeighborIndexBuilder {
                bvh_builder: BuilderKind::Lbvh,
                query_order: QueryOrder::Morton,
                ..RtDbscan::default().index_builder()
            },
            Algo::Fdbscan | Algo::FdbscanEarlyExit => Fdbscan::default().index_builder(),
            Algo::GDbscan => GDbscan::default().index_builder(),
            Algo::DclustPlus => CudaDclustPlus::default().index_builder(),
            Algo::Classic => ClassicDbscan.index_builder(),
        }
    }

    /// True for the algorithms expressed as the shared two-stage launch
    /// (the only ones a compacting index is meaningful for).
    fn two_stage(&self) -> bool {
        matches!(self, Algo::Rt | Algo::Fdbscan | Algo::FdbscanEarlyExit)
    }
}

/// A structured, eagerly-raised configuration error: the offending field,
/// the value it held, why it was rejected, and (for cross-field conflicts)
/// the field it clashed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The builder field that was rejected.
    pub field: &'static str,
    /// The rejected value, rendered.
    pub value: String,
    /// Why the value was rejected.
    pub reason: String,
    /// The other field this one conflicts with, for cross-field rules.
    pub conflicts_with: Option<&'static str>,
}

impl ConfigError {
    fn invalid(
        field: &'static str,
        value: impl std::fmt::Display,
        reason: impl Into<String>,
    ) -> Self {
        ConfigError {
            field,
            value: value.to_string(),
            reason: reason.into(),
            conflicts_with: None,
        }
    }

    fn conflict(
        field: &'static str,
        value: impl std::fmt::Display,
        conflicts_with: &'static str,
        reason: impl Into<String>,
    ) -> Self {
        ConfigError {
            field,
            value: value.to_string(),
            reason: reason.into(),
            conflicts_with: Some(conflicts_with),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {}: {}", self.field, self.value, self.reason)?;
        if let Some(other) = self.conflicts_with {
            write!(f, " (conflicts with {other})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for rtcore::Error {
    fn from(e: ConfigError) -> Self {
        rtcore::Error::InvalidConfig(e.to_string())
    }
}

/// Typed builder for a [`ClusterEngine`].  Every knob that used to be
/// scattered across the algorithm structs — `min_parallel_launch`,
/// `batch_size`, the BVH builder, compaction, geometry, the device-memory
/// budget, `wide_visit_fraction` — lives here, cross-validated by
/// [`ClusterEngineBuilder::build`].
///
/// # Examples
///
/// ```
/// use rtdbscan::engine::{Algo, ClusterEngine, IndexKind};
/// use rtdbscan::DbscanParams;
///
/// let engine = ClusterEngine::builder()
///     .algorithm(Algo::Rt)
///     .index(IndexKind::WideBatched)
///     .params(DbscanParams::new(0.4, 8).unwrap())
///     .batch_size(256)
///     .wide_visit_fraction(0.3)
///     .build()
///     .unwrap();
/// assert_eq!(engine.algo().name(), "RT-DBSCAN");
///
/// // Cross-field validation names the offending field precisely.
/// let err = ClusterEngine::builder()
///     .algorithm(Algo::Classic)
///     .index(IndexKind::BruteForce)
///     .eps(0.4)
///     .min_pts(8)
///     .batch_size(64) // batching is a wide-backend concept
///     .build()
///     .unwrap_err();
/// assert_eq!(err.field, "batch_size");
/// assert_eq!(err.conflicts_with, Some("index"));
/// ```
#[derive(Debug, Clone)]
pub struct ClusterEngineBuilder {
    algo: Algo,
    eps: Option<f32>,
    min_pts: Option<usize>,
    index: Option<IndexKind>,
    bvh_builder: Option<BuilderKind>,
    max_leaf_size: Option<usize>,
    compaction: Option<bool>,
    geometry: Option<GeometryKind>,
    batch_size: Option<usize>,
    min_parallel_launch: Option<usize>,
    query_order: Option<QueryOrder>,
    simd: Option<SimdPolicy>,
    shard_size: Option<usize>,
    device_memory_bytes: Option<u64>,
    wide_visit_fraction: Option<f64>,
    telemetry: Option<TelemetryConfig>,
    memory_budget: Option<MemoryBudget>,
    fault: Option<FaultPlan>,
    device: DeviceModel,
}

impl Default for ClusterEngineBuilder {
    fn default() -> Self {
        ClusterEngineBuilder {
            algo: Algo::Rt,
            eps: None,
            min_pts: None,
            index: None,
            bvh_builder: None,
            max_leaf_size: None,
            compaction: None,
            geometry: None,
            batch_size: None,
            min_parallel_launch: None,
            query_order: None,
            simd: None,
            shard_size: None,
            device_memory_bytes: None,
            wide_visit_fraction: None,
            telemetry: None,
            memory_budget: None,
            fault: None,
            device: DeviceModel::default(),
        }
    }
}

impl ClusterEngineBuilder {
    /// Which algorithm to run (default [`Algo::Rt`]).
    pub fn algorithm(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Which neighbour-index backend to run it over (default: the
    /// algorithm's native substrate).
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.index = Some(kind);
        self
    }

    /// The DBSCAN search radius ε.
    pub fn eps(mut self, eps: f32) -> Self {
        self.eps = Some(eps);
        self
    }

    /// The DBSCAN density threshold (count of *other* points within ε).
    pub fn min_pts(mut self, min_pts: usize) -> Self {
        self.min_pts = Some(min_pts);
        self
    }

    /// Both DBSCAN parameters at once.
    pub fn params(mut self, params: DbscanParams) -> Self {
        self.eps = Some(params.eps);
        self.min_pts = Some(params.min_pts);
        self
    }

    /// BVH construction algorithm (BVH backends only).
    pub fn bvh_builder(mut self, builder: BuilderKind) -> Self {
        self.bvh_builder = Some(builder);
        self
    }

    /// Maximum primitives per BVH leaf (BVH backends only).
    pub fn max_leaf_size(mut self, max_leaf_size: usize) -> Self {
        self.max_leaf_size = Some(max_leaf_size);
        self
    }

    /// Device-side primitive compaction (BVH backends, two-stage algorithms
    /// only).
    pub fn compaction(mut self, compaction: bool) -> Self {
        self.compaction = Some(compaction);
        self
    }

    /// How ε-spheres are presented to the traversal (BVH backends only).
    pub fn geometry(mut self, geometry: GeometryKind) -> Self {
        self.geometry = Some(geometry);
        self
    }

    /// Rays per packet for the wide batched backend.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Launches smaller than this run sequentially.
    pub fn min_parallel_launch(mut self, min_parallel_launch: usize) -> Self {
        self.min_parallel_launch = Some(min_parallel_launch);
        self
    }

    /// In what order batched launches feed queries into ray packets.
    /// [`QueryOrder::Morton`] sorts query origins along the Z-order curve
    /// before packets are cut and restores caller order on every output;
    /// per-query backends have no packets and simply ignore the knob.
    pub fn query_order(mut self, order: QueryOrder) -> Self {
        self.query_order = Some(order);
        self
    }

    /// SIMD policy for the wide-batched traversal kernels
    /// ([`IndexKind::WideBatched`] only), resolved once per index build;
    /// see [`SimdPolicy`].
    pub fn simd(mut self, simd: SimdPolicy) -> Self {
        self.simd = Some(simd);
        self
    }

    /// Build a **two-level scene**: the Morton-sorted primitives are cut
    /// into shards of at most `shard_size` points, each shard owns a
    /// bottom-level BVH4 scene built in parallel, and a top-level BVH
    /// (TLAS) routes every query to the shards it overlaps.  Both stages
    /// launch through the TLAS exactly as they launch over a flat index, so
    /// the labels are bit-identical to the flat scene's.  Wide-batched
    /// backend only.
    ///
    /// ```
    /// use rtdbscan::prelude::*;
    /// use rtcore::geometry::Point3;
    ///
    /// let points: Vec<Point3> = (0..600)
    ///     .map(|i| Point3::new_2d((i % 40) as f32 * 0.3, (i / 40) as f32 * 0.3))
    ///     .collect();
    /// let sharded = ClusterEngine::builder()
    ///     .algorithm(Algo::Rt)
    ///     .index(IndexKind::WideBatched)
    ///     .shard_size(128)
    ///     .eps(0.5)
    ///     .min_pts(4)
    ///     .build()
    ///     .unwrap();
    /// let flat = ClusterEngine::builder()
    ///     .algorithm(Algo::Rt)
    ///     .index(IndexKind::WideBatched)
    ///     .eps(0.5)
    ///     .min_pts(4)
    ///     .build()
    ///     .unwrap();
    /// let a = sharded.run(&points).unwrap();
    /// let b = flat.run(&points).unwrap();
    /// assert_eq!(a.clustering.core, b.clustering.core);
    /// ```
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = Some(shard_size);
        self
    }

    /// Simulated device-memory budget for the memory-hungry baselines
    /// (G-DBSCAN's graph, CUDA-DClust+'s chain state).
    pub fn device_memory_bytes(mut self, bytes: u64) -> Self {
        self.device_memory_bytes = Some(bytes);
        self
    }

    /// Simulated-cost knob: what fraction of four binary node visits one
    /// wide (BVH4) visit costs, applied to both execution paths of the
    /// engine's device model.  Must lie in `(0, 1]`.
    pub fn wide_visit_fraction(mut self, fraction: f64) -> Self {
        self.wide_visit_fraction = Some(fraction);
        self
    }

    /// The full device cost model used by [`ClusterEngine::simulate`]
    /// (default: the paper's RTX 2060).
    pub fn cost_profile(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Telemetry recording level for every index this engine builds
    /// (default [`TelemetryConfig::Off`], which adds no recorder and keeps
    /// the hot paths bit-identical to a telemetry-free build).
    /// [`TelemetryConfig::Spans`] records phase-scoped spans (build,
    /// collapse, stage launches) plus launch metrics;
    /// [`TelemetryConfig::Profile`] additionally accumulates the per-node
    /// visit heatmap, which requires a BVH backend.
    ///
    /// Inspect the recordings through a session, which keeps the index
    /// (and its recorder) alive after clustering:
    ///
    /// ```
    /// use rtdbscan::prelude::*;
    /// use rtcore::geometry::Point3;
    ///
    /// let points = vec![Point3::new_2d(0.0, 0.0); 32];
    /// let engine = ClusterEngine::builder()
    ///     .algorithm(Algo::Rt)
    ///     .index(IndexKind::WideBatched)
    ///     .eps(0.5)
    ///     .min_pts(4)
    ///     .telemetry(TelemetryConfig::Profile)
    ///     .build()
    ///     .unwrap();
    /// let session = engine.session(&points).unwrap(); // build + stage-1 spans
    /// let _result = session.cluster(4).unwrap();      // the stage-2 span
    /// let telemetry = session.index().telemetry().unwrap();
    /// assert!(telemetry.chrome_trace_json().contains("\"stage1_launch\""));
    /// let heatmap = session.index().heatmap().unwrap(); // Profile only
    /// assert!(heatmap.total_visits() > 0);
    /// ```
    pub fn telemetry(mut self, level: TelemetryConfig) -> Self {
        self.telemetry = Some(level);
        self
    }

    /// Hard ceiling on the bytes the built index may hold resident
    /// (default [`MemoryBudget::Unlimited`]).  An over-budget sharded build
    /// first evicts its coldest shard BLASes to rebuild-on-demand; a build
    /// that still does not fit is refused with
    /// [`rtcore::Error::OverBudget`].
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = Some(budget);
        self
    }

    /// Deterministic fault-injection schedule threaded into every index
    /// this engine builds (default [`FaultPlan::Off`]).  Only a build
    /// compiled with the `fault-inject` feature ever arms a plan; without
    /// the feature every plan behaves as `Off` at zero cost.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Validate the whole configuration and produce the engine.
    ///
    /// Every rejection is a [`ConfigError`] naming the offending field; a
    /// cross-field clash also names the field it conflicts with.
    pub fn build(self) -> std::result::Result<ClusterEngine, ConfigError> {
        let eps = self
            .eps
            .ok_or_else(|| ConfigError::invalid("eps", "<unset>", "eps is required"))?;
        if !eps.is_finite() || eps <= 0.0 {
            return Err(ConfigError::invalid(
                "eps",
                eps,
                "must be positive and finite",
            ));
        }
        let min_pts = self
            .min_pts
            .ok_or_else(|| ConfigError::invalid("min_pts", "<unset>", "min_pts is required"))?;
        if min_pts == 0 {
            return Err(ConfigError::invalid("min_pts", 0, "must be at least 1"));
        }
        let params = DbscanParams { eps, min_pts };

        let mut index = self.algo.native_index();
        let kind = self.index.unwrap_or(index.kind);
        index.kind = kind;
        if !kind.is_bvh() {
            // BVH-only passes silently turn off when the user merely changed
            // the backend; explicitly requesting them below still errors.
            index.compaction = false;
        }
        if let Some(b) = self.bvh_builder {
            if !kind.is_bvh() {
                return Err(ConfigError::conflict(
                    "bvh_builder",
                    format!("{b:?}"),
                    "index",
                    format!("the {} backend builds no BVH", kind.name()),
                ));
            }
            index.bvh_builder = b;
        }
        if let Some(m) = self.max_leaf_size {
            if m == 0 {
                return Err(ConfigError::invalid(
                    "max_leaf_size",
                    0,
                    "must be at least 1",
                ));
            }
            if !kind.is_bvh() {
                return Err(ConfigError::conflict(
                    "max_leaf_size",
                    m,
                    "index",
                    format!("the {} backend builds no BVH", kind.name()),
                ));
            }
            index.max_leaf_size = m;
        }
        if let Some(c) = self.compaction {
            if c && !kind.is_bvh() {
                return Err(ConfigError::conflict(
                    "compaction",
                    c,
                    "index",
                    format!(
                        "compaction is a BVH device-builder pass; the {} backend cannot apply it",
                        kind.name()
                    ),
                ));
            }
            if c && !self.algo.two_stage() {
                return Err(ConfigError::conflict(
                    "compaction",
                    c,
                    "algorithm",
                    format!(
                        "{} tracks individual point ids and cannot run over merged primitives",
                        self.algo.name()
                    ),
                ));
            }
            index.compaction = c;
        }
        if let Some(g) = self.geometry {
            match g {
                GeometryKind::TriangleSpheres {
                    triangles_per_sphere,
                } => {
                    if triangles_per_sphere == 0 {
                        return Err(ConfigError::invalid(
                            "geometry",
                            "TriangleSpheres { triangles_per_sphere: 0 }",
                            "triangles_per_sphere must be at least 1",
                        ));
                    }
                    if !kind.is_bvh() {
                        return Err(ConfigError::conflict(
                            "geometry",
                            "TriangleSpheres { .. }",
                            "index",
                            format!("the {} backend traverses no BVH geometry", kind.name()),
                        ));
                    }
                }
                GeometryKind::CustomSpheres => {}
            }
            index.geometry = g;
        }
        if let Some(b) = self.batch_size {
            if b == 0 {
                return Err(ConfigError::invalid(
                    "batch_size",
                    0,
                    "a ray packet must hold at least one ray",
                ));
            }
            if kind != IndexKind::WideBatched {
                return Err(ConfigError::conflict(
                    "batch_size",
                    b,
                    "index",
                    format!(
                        "ray packets exist only on the wide batched backend, not {}",
                        kind.name()
                    ),
                ));
            }
            index.batch_size = b;
        }
        if let Some(m) = self.min_parallel_launch {
            index.min_parallel_launch = m;
        }
        if let Some(order) = self.query_order {
            // Valid for every backend: per-query backends have no packets
            // and answer in the caller's order regardless, which is
            // exactly what the knob's contract promises.
            index.query_order = order;
        }
        if let Some(simd) = self.simd {
            if simd != SimdPolicy::Auto && kind != IndexKind::WideBatched {
                return Err(ConfigError::conflict(
                    "simd",
                    format!("{simd:?}"),
                    "index",
                    format!(
                        "SIMD traversal kernels exist only on the wide batched backend, not {}",
                        kind.name()
                    ),
                ));
            }
            index.simd = simd;
        }
        if let Some(s) = self.shard_size {
            if s == 0 {
                return Err(ConfigError::invalid(
                    "shard_size",
                    0,
                    "a shard must hold at least one point",
                ));
            }
            if kind != IndexKind::WideBatched {
                return Err(ConfigError::conflict(
                    "shard_size",
                    s,
                    "index",
                    format!(
                        "two-level scenes shard the wide batched backend only, not {}",
                        kind.name()
                    ),
                ));
            }
            if s < index.max_leaf_size {
                return Err(ConfigError::conflict(
                    "shard_size",
                    s,
                    "max_leaf_size",
                    format!(
                        "a shard holds at least one full leaf ({} primitives)",
                        index.max_leaf_size
                    ),
                ));
            }
            index.sharding = Some(ShardingConfig::new(s));
        }
        if let Some(t) = self.telemetry {
            if t.heatmap_enabled() && !kind.is_bvh() {
                return Err(ConfigError::conflict(
                    "telemetry",
                    format!("{t:?}"),
                    "index",
                    format!(
                        "the node-visit heatmap profiles BVH traversal; the {} backend has \
                         no nodes to profile (use TelemetryConfig::Spans)",
                        kind.name()
                    ),
                ));
            }
            index.telemetry = t;
        }
        if let Some(budget) = self.memory_budget {
            if budget == MemoryBudget::Bytes(0) {
                return Err(ConfigError::invalid(
                    "memory_budget",
                    0,
                    "a zero-byte budget rejects every index; use at least 1 byte",
                ));
            }
            index.memory_budget = budget;
        }
        if let Some(plan) = self.fault {
            index.fault = plan;
        }
        if let Some(f) = self.wide_visit_fraction {
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(ConfigError::invalid(
                    "wide_visit_fraction",
                    f,
                    "must lie in (0, 1]",
                ));
            }
        }
        let mut device = self.device;
        if let Some(f) = self.wide_visit_fraction {
            device.rt.wide_visit_fraction = f;
            device.sm.wide_visit_fraction = f;
        }
        if let Some(bytes) = self.device_memory_bytes {
            if bytes == 0 {
                return Err(ConfigError::invalid(
                    "device_memory_bytes",
                    0,
                    "the simulated device needs a non-zero memory budget",
                ));
            }
            device.memory_bytes = bytes;
        }

        Ok(ClusterEngine {
            algo: self.algo,
            params,
            index,
            min_parallel_explicit: self.min_parallel_launch.is_some(),
            device,
        })
    }
}

/// The validated façade: one algorithm, one backend, one parameter set, one
/// cost model.  See the [module documentation](self) for the run modes.
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    algo: Algo,
    params: DbscanParams,
    index: NeighborIndexBuilder,
    min_parallel_explicit: bool,
    device: DeviceModel,
}

impl ClusterEngine {
    /// Start configuring an engine.
    pub fn builder() -> ClusterEngineBuilder {
        ClusterEngineBuilder::default()
    }

    /// The configured algorithm.
    pub fn algo(&self) -> Algo {
        self.algo
    }

    /// The configured DBSCAN parameters.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// The configured backend kind.
    pub fn index_kind(&self) -> IndexKind {
        self.index.kind
    }

    /// The full backend configuration the engine builds indexes from.
    pub fn index_config(&self) -> NeighborIndexBuilder {
        self.index
    }

    /// The device cost model used by [`ClusterEngine::simulate`].
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Build the configured backend over `points` (the structure behind
    /// [`ClusterEngine::run`]; exposed so callers can drive the
    /// [`NeighborIndex`] trait object directly).
    pub fn build_index(&self, points: &[Point3]) -> Result<Box<dyn NeighborIndex>> {
        self.index.build(points, self.params.eps)
    }

    /// Price a finished run on the engine's device model.
    pub fn simulate(&self, run: &RunResult) -> SimulatedBreakdown {
        run.simulate_on(&self.device)
    }

    /// Launch-size validation that can only happen once the input is known.
    fn check_launch(&self, n: usize) -> std::result::Result<(), ConfigError> {
        if self.min_parallel_explicit && self.index.min_parallel_launch > n && n > 0 {
            return Err(ConfigError::invalid(
                "min_parallel_launch",
                self.index.min_parallel_launch,
                format!(
                    "exceeds the {n} input points: every launch would silently run sequentially"
                ),
            ));
        }
        Ok(())
    }

    /// Cluster `points` with the configured algorithm, backend and
    /// parameters.
    pub fn run(&self, points: &[Point3]) -> Result<RunResult> {
        self.run_with(points, self.params)
    }

    fn run_with(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult> {
        params.validate()?;
        self.check_launch(points.len())?;
        let (index, build_time) = timed(|| self.index.build(points, params.eps));
        let index = index?;
        let mut result = self.dispatch(index.as_ref(), points, params)?;
        result.timings.build += build_time;
        Ok(result)
    }

    fn dispatch(
        &self,
        index: &dyn NeighborIndex,
        points: &[Point3],
        params: DbscanParams,
    ) -> Result<RunResult> {
        match self.algo {
            Algo::Rt | Algo::Fdbscan | Algo::FdbscanEarlyExit => stages::run_two_stage(
                index,
                points,
                params,
                self.early_exit(),
                self.path_on(index),
                &CancelScope::none(),
            ),
            Algo::GDbscan => GDbscan {
                device_memory_bytes: self.device.memory_bytes,
            }
            .run_on(index, points, params),
            Algo::DclustPlus => CudaDclustPlus {
                device_memory_bytes: self.device.memory_bytes,
                ..CudaDclustPlus::default()
            }
            .run_on(index, points, params),
            Algo::Classic => ClassicDbscan.run_on(index, points, params),
        }
    }

    /// [`ClusterEngine::run`] under a deadline/cancellation scope.
    ///
    /// Both clustering stages poll `scope` at packet granularity; a trip
    /// surfaces as [`rtcore::Error::DeadlineExceeded`] carrying the work
    /// counted so far, and every partial stage result (counts, union-find
    /// merges, claims) is discarded — a cancelled run never returns a wrong
    /// clustering.  With [`CancelScope::none`] the labels and the counted
    /// work are bit-identical to [`ClusterEngine::run`]'s two-stage
    /// formulation: both run the same driver.
    ///
    /// Like [`ClusterEngine::session`], this always runs the two-stage
    /// formulation over the engine's backend, whatever [`Algo`] was
    /// configured (stage boundaries are where cancellation composes).
    /// Stage 1 stops each query at `minPts` for [`Algo::Rt`] and
    /// [`Algo::FdbscanEarlyExit`] and counts exactly otherwise, and the
    /// work is charged to the configured algorithm's execution path, as
    /// [`ClusterEngine::run`] charges it.
    pub fn run_cancellable(&self, points: &[Point3], scope: &CancelScope) -> Result<RunResult> {
        self.params.validate()?;
        self.check_launch(points.len())?;
        let (index, build_time) = timed(|| self.index.build(points, self.params.eps));
        let index = index?;
        let path = self.path_on(index.as_ref());
        let mut result = stages::run_two_stage(
            index.as_ref(),
            points,
            self.params,
            self.early_exit(),
            path,
            scope,
        )?;
        result.timings.build += build_time;
        Ok(result)
    }

    /// True when stage 1 stops each query once its count reaches `minPts`:
    /// clustering needs only `count >= minPts` and `count > 0`.
    fn early_exit(&self) -> bool {
        matches!(self.algo, Algo::Rt | Algo::FdbscanEarlyExit)
    }

    /// Build the index and record every point's ε-neighbour count once,
    /// returning a [`ClusterSession`] that answers any `minPts` paying only
    /// for the cluster-formation stage.
    ///
    /// The session always uses the two-stage formulation (stage-1 counts
    /// are exactly what it caches), whatever [`Algo`] the engine was built
    /// with — the backend is still this engine's backend, and its results
    /// report the configured algorithm's execution path.
    pub fn session(&self, points: &[Point3]) -> Result<ClusterSession> {
        self.check_launch(points.len())?;
        let (index, build_time) = timed(|| self.index.build(points, self.params.eps));
        let index = index?;
        let path = self.path_on(index.as_ref());
        ClusterSession::create(index, points, self.params.eps, build_time, path)
    }

    /// The execution path the configured algorithm charges its work to:
    /// RT-DBSCAN's depends on the backend, every baseline runs on the
    /// shader cores whatever the backend.
    fn path_on(&self, index: &dyn NeighborIndex) -> ExecutionPath {
        match self.algo {
            Algo::Rt => RtDbscan::path_on(index),
            _ => ExecutionPath::ShaderCore,
        }
    }
}

impl DbscanAlgorithm for ClusterEngine {
    fn name(&self) -> &'static str {
        self.algo.name()
    }

    fn run(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult> {
        self.run_with(points, params)
    }
}

/// A reusable clustering session: the index is built and stage 1 runs
/// exactly once; every [`ClusterSession::cluster`] call pays only for
/// stage 2.  This is the paper's Section VI-B parameter-exploration
/// workflow, generalised to every backend.
///
/// ```
/// use rtcore::geometry::Point3;
/// use rtdbscan::engine::{Algo, ClusterEngine, IndexKind};
///
/// let points: Vec<Point3> = (0..60)
///     .map(|i| Point3::new_2d(0.1 * (i % 30) as f32, (i / 30) as f32))
///     .collect();
/// let engine = ClusterEngine::builder()
///     .algorithm(Algo::Rt)
///     .index(IndexKind::WideBatched)
///     .eps(0.25)
///     .min_pts(1)
///     .build()
///     .unwrap();
/// let session = engine.session(&points).unwrap();
/// let strict = session.cluster(8).unwrap();
/// let loose = session.cluster(2).unwrap();
/// assert!(loose.clustering.core_count() >= strict.clustering.core_count());
/// ```
#[derive(Debug)]
pub struct ClusterSession {
    points: Vec<Point3>,
    eps: f32,
    index: Box<dyn NeighborIndex>,
    neighbor_counts: Vec<u64>,
    path: ExecutionPath,
    build_counters: WorkCounters,
    stage1_counters: WorkCounters,
    build_time: Duration,
    stage1_time: Duration,
}

impl ClusterSession {
    /// Record stage-1 neighbour counts over an already-built index; every
    /// result of the session reports `path`.
    pub(crate) fn create(
        index: Box<dyn NeighborIndex>,
        points: &[Point3],
        eps: f32,
        build_time: Duration,
        path: ExecutionPath,
    ) -> Result<Self> {
        let (stage1, stage1_time) = timed(|| {
            stages::count_all_neighbors(index.as_ref(), points, eps, None, &CancelScope::none())
        });
        let (neighbor_counts, stage1_counters) = stage1?;
        Ok(ClusterSession {
            points: points.to_vec(),
            eps,
            build_counters: index.build_counters(),
            index,
            neighbor_counts,
            path,
            stage1_counters,
            build_time,
            stage1_time,
        })
    }

    /// The search radius this session was built for.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Number of points in the session.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the session holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The backend this session queries.
    pub fn index(&self) -> &dyn NeighborIndex {
        self.index.as_ref()
    }

    /// The recorded ε-neighbour count of every point (self excluded).
    pub fn neighbor_counts(&self) -> &[u64] {
        &self.neighbor_counts
    }

    /// Number of points that would be core points for a given `minPts`.
    pub fn core_count_for(&self, min_pts: usize) -> usize {
        self.neighbor_counts
            .iter()
            .filter(|&&c| c as usize >= min_pts)
            .count()
    }

    /// The `minPts` value at which a given fraction (0..1) of the points
    /// would qualify as core points — a parameter-selection helper for the
    /// exploration workflow.
    pub fn min_pts_for_core_fraction(&self, fraction: f64) -> usize {
        if self.neighbor_counts.is_empty() {
            return 1;
        }
        let mut counts: Vec<u64> = self.neighbor_counts.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let idx = ((counts.len() as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize)
            .clamp(1, counts.len());
        (counts[idx - 1] as usize).max(1)
    }

    /// Cluster with a given `minPts`, reusing the index and the recorded
    /// neighbour counts.  Only the cluster-formation stage executes; its
    /// cost is reported in the returned [`RunResult::counters`] (`build` and
    /// `core_identification` are zero because that work is shared across
    /// all calls on this session).
    pub fn cluster(&self, min_pts: usize) -> Result<RunResult> {
        DbscanParams::new(self.eps, min_pts)?;
        let n = self.points.len();
        if n == 0 {
            return Ok(RunResult {
                clustering: Clustering::new(vec![], vec![]),
                timings: PhaseTimings::default(),
                counters: PhaseCounters::default(),
                path: self.path,
                device_bytes: 0,
            });
        }
        let core: Vec<bool> = self
            .neighbor_counts
            .iter()
            .map(|&c| c as usize >= min_pts)
            .collect();
        let (stage2, stage2_time) = timed(|| {
            stages::form_clusters(
                self.index.as_ref(),
                &self.points,
                &self.neighbor_counts,
                &core,
                self.eps,
                &CancelScope::none(),
            )
        });
        let stages::FormedClusters {
            labels,
            counters: stage2_counters,
        } = stage2?;

        Ok(RunResult {
            clustering: Clustering::new(labels, core),
            timings: PhaseTimings {
                build: Duration::ZERO,
                core_identification: Duration::ZERO,
                cluster_formation: stage2_time,
            },
            counters: PhaseCounters {
                build: WorkCounters::ZERO,
                core_identification: WorkCounters::ZERO,
                cluster_formation: stage2_counters,
            },
            path: self.path,
            device_bytes: stages::device_bytes(self.index.as_ref(), n),
        })
    }

    /// The one-off cost of building this session (index build plus the
    /// stage-1 launch): counters and wall-clock timings.
    pub fn setup_cost(&self) -> (PhaseCounters, PhaseTimings) {
        (
            PhaseCounters {
                build: self.build_counters,
                core_identification: self.stage1_counters,
                cluster_formation: WorkCounters::ZERO,
            },
            PhaseTimings {
                build: self.build_time,
                core_identification: self.stage1_time,
                cluster_formation: Duration::ZERO,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::same_clustering;

    fn blobs() -> Vec<Point3> {
        let mut pts = Vec::new();
        for c in 0..3 {
            let cx = c as f32 * 14.0;
            for i in 0..60 {
                let a = i as f32 * 0.37;
                let r = 0.8 * ((i % 9) as f32 / 9.0);
                pts.push(Point3::new_2d(cx + r * a.cos(), r * a.sin()));
            }
        }
        pts.push(Point3::new_2d(7.0, 30.0));
        pts
    }

    #[test]
    fn engine_defaults_match_the_direct_entry_points_exactly() {
        let pts = blobs();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let direct = RtDbscan::default().run(&pts, params).unwrap();
        // The engine's RT default (LBVH, Morton launches) builds a
        // different tree from the paper configuration but must label
        // every point the same, bit for bit.
        let default_engine = ClusterEngine::builder()
            .params(params)
            .build()
            .unwrap()
            .run(&pts)
            .unwrap();
        assert_eq!(direct.clustering.labels, default_engine.clustering.labels);
        assert_eq!(direct.clustering.core, default_engine.clustering.core);
        // Pinned to the paper configuration, the façade adds zero cost:
        // the paper index's build counters, and bit-identical stage
        // counters to the direct two-stage driver running the engine's
        // stage-1 early exit on the paper configuration's own index.
        let engine = ClusterEngine::builder()
            .params(params)
            .bvh_builder(BuilderKind::BinnedSah)
            .query_order(QueryOrder::AsGiven)
            .build()
            .unwrap()
            .run(&pts)
            .unwrap();
        let paper_index = RtDbscan::default()
            .index_builder()
            .build(&pts, params.eps)
            .unwrap();
        let early = Fdbscan {
            early_exit: true,
            ..Fdbscan::default()
        }
        .run_on(paper_index.as_ref(), &pts, params)
        .unwrap();
        assert_eq!(direct.counters.build, engine.counters.build);
        assert_eq!(
            early.counters.core_identification,
            engine.counters.core_identification
        );
        assert_eq!(
            early.counters.cluster_formation.rays,
            engine.counters.cluster_formation.rays
        );
        assert_eq!(
            early.counters.cluster_formation.dist_comps,
            engine.counters.cluster_formation.dist_comps
        );
        assert_eq!(direct.clustering.core, engine.clustering.core);
        assert_eq!(direct.device_bytes, engine.device_bytes);
        assert_eq!(direct.path, engine.path);
    }

    #[test]
    fn every_algorithm_runs_on_every_backend() {
        let pts = blobs();
        let params = DbscanParams::new(0.5, 4).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        for algo in Algo::ALL {
            for kind in IndexKind::ALL {
                let engine = ClusterEngine::builder()
                    .algorithm(algo)
                    .index(kind)
                    .params(params)
                    .build()
                    .unwrap();
                let run = engine
                    .run(&pts)
                    .unwrap_or_else(|e| panic!("{algo:?} on {kind:?}: {e}"));
                assert_eq!(
                    reference.core, run.clustering.core,
                    "{algo:?} on {kind:?} core flags"
                );
                assert!(
                    same_clustering(&reference, &run.clustering, &pts, params),
                    "{algo:?} on {kind:?} partition"
                );
            }
        }
    }

    #[test]
    fn builder_error_matrix_names_fields() {
        let b = || ClusterEngine::builder().eps(0.5).min_pts(3);
        let cases: Vec<(ConfigError, &'static str, Option<&'static str>)> = vec![
            (
                ClusterEngine::builder().min_pts(3).build().unwrap_err(),
                "eps",
                None,
            ),
            (b().eps(-1.0).build().unwrap_err(), "eps", None),
            (b().eps(f32::NAN).build().unwrap_err(), "eps", None),
            (
                ClusterEngine::builder().eps(0.5).build().unwrap_err(),
                "min_pts",
                None,
            ),
            (b().min_pts(0).build().unwrap_err(), "min_pts", None),
            (b().batch_size(0).build().unwrap_err(), "batch_size", None),
            (
                b().index(IndexKind::BinaryBvh)
                    .batch_size(64)
                    .build()
                    .unwrap_err(),
                "batch_size",
                Some("index"),
            ),
            (
                b().index(IndexKind::UniformGrid)
                    .compaction(true)
                    .build()
                    .unwrap_err(),
                "compaction",
                Some("index"),
            ),
            (
                b().algorithm(Algo::GDbscan)
                    .index(IndexKind::BinaryBvh)
                    .compaction(true)
                    .build()
                    .unwrap_err(),
                "compaction",
                Some("algorithm"),
            ),
            (
                b().index(IndexKind::BruteForce)
                    .geometry(GeometryKind::TriangleSpheres {
                        triangles_per_sphere: 12,
                    })
                    .build()
                    .unwrap_err(),
                "geometry",
                Some("index"),
            ),
            (
                b().index(IndexKind::UniformGrid)
                    .bvh_builder(BuilderKind::Lbvh)
                    .build()
                    .unwrap_err(),
                "bvh_builder",
                Some("index"),
            ),
            (
                b().max_leaf_size(0).build().unwrap_err(),
                "max_leaf_size",
                None,
            ),
            (
                b().index(IndexKind::UniformGrid)
                    .simd(SimdPolicy::Avx2)
                    .build()
                    .unwrap_err(),
                "simd",
                Some("index"),
            ),
            (
                b().index(IndexKind::UniformGrid)
                    .telemetry(TelemetryConfig::Profile)
                    .build()
                    .unwrap_err(),
                "telemetry",
                Some("index"),
            ),
            (
                b().wide_visit_fraction(0.0).build().unwrap_err(),
                "wide_visit_fraction",
                None,
            ),
            (
                b().wide_visit_fraction(1.5).build().unwrap_err(),
                "wide_visit_fraction",
                None,
            ),
            (
                b().device_memory_bytes(0).build().unwrap_err(),
                "device_memory_bytes",
                None,
            ),
            (b().shard_size(0).build().unwrap_err(), "shard_size", None),
            (
                b().index(IndexKind::BinaryBvh)
                    .shard_size(256)
                    .build()
                    .unwrap_err(),
                "shard_size",
                Some("index"),
            ),
            (
                b().max_leaf_size(8).shard_size(4).build().unwrap_err(),
                "shard_size",
                Some("max_leaf_size"),
            ),
        ];
        for (err, field, conflicts_with) in cases {
            assert_eq!(err.field, field, "{err}");
            assert_eq!(err.conflicts_with, conflicts_with, "{err}");
            // The rendered message names the field too.
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn oversized_min_parallel_launch_is_rejected_at_run_time() {
        let pts = blobs();
        let engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(3)
            .min_parallel_launch(1_000_000)
            .build()
            .unwrap();
        match engine.run(&pts) {
            Err(rtcore::Error::InvalidConfig(msg)) => {
                assert!(msg.contains("min_parallel_launch"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The default threshold is not an explicit request and stays valid
        // on small inputs.
        let default_engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(3)
            .build()
            .unwrap();
        assert!(default_engine.run(&pts[..10]).is_ok());
    }

    #[test]
    fn session_matches_one_shot_runs() {
        let pts = blobs();
        let engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(5)
            .build()
            .unwrap();
        let session = engine.session(&pts).unwrap();
        for min_pts in [2usize, 5, 40] {
            let params = DbscanParams::new(0.5, min_pts).unwrap();
            let one_shot = RtDbscan::default().run(&pts, params).unwrap().clustering;
            let reused = session.cluster(min_pts).unwrap().clustering;
            assert_eq!(one_shot.core, reused.core, "minPts={min_pts}");
            assert!(same_clustering(&one_shot, &reused, &pts, params));
        }
        let (setup, _) = session.setup_cost();
        assert!(setup.build.build_prims > 0);
        assert_eq!(setup.core_identification.rays as usize, pts.len());
    }

    #[test]
    fn engine_is_a_dbscan_algorithm_trait_object() {
        let pts = blobs();
        let params = DbscanParams::new(0.5, 4).unwrap();
        let engines: Vec<Box<dyn DbscanAlgorithm>> = Algo::ALL
            .iter()
            .map(|&algo| {
                Box::new(
                    ClusterEngine::builder()
                        .algorithm(algo)
                        .params(params)
                        .build()
                        .unwrap(),
                ) as Box<dyn DbscanAlgorithm>
            })
            .collect();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        for engine in &engines {
            let run = engine.run(&pts, params).unwrap();
            assert_eq!(reference.core, run.clustering.core, "{}", engine.name());
        }
    }

    #[test]
    fn coherence_knobs_preserve_the_clustering_and_reduce_wide_visits() {
        let pts = blobs();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let plain = ClusterEngine::builder().params(params).build().unwrap();
        let tuned = ClusterEngine::builder()
            .params(params)
            .query_order(QueryOrder::Morton)
            .simd(SimdPolicy::Auto)
            .build()
            .unwrap();
        let a = plain.run(&pts).unwrap();
        let b = tuned.run(&pts).unwrap();
        assert_eq!(a.clustering.core, b.clustering.core);
        assert!(same_clustering(&a.clustering, &b.clustering, &pts, params));
        // Morton ordering is also accepted (as a no-op) on per-query
        // backends, so the knob can be swept uniformly.
        let grid = ClusterEngine::builder()
            .params(params)
            .index(IndexKind::UniformGrid)
            .query_order(QueryOrder::Morton)
            .build()
            .unwrap();
        assert_eq!(grid.run(&pts).unwrap().clustering.core, a.clustering.core);
    }

    #[test]
    fn sharded_scene_matches_flat_and_stitches_across_shards() {
        let pts = blobs();
        let params = DbscanParams::new(0.5, 5).unwrap();
        // Pin the LBVH builder: per-shard subtrees then align with the flat
        // tree's leaves, making candidate counters comparable exactly.
        let flat = ClusterEngine::builder()
            .params(params)
            .bvh_builder(BuilderKind::Lbvh)
            .build()
            .unwrap();
        let sharded = ClusterEngine::builder()
            .params(params)
            .bvh_builder(BuilderKind::Lbvh)
            .shard_size(48)
            .build()
            .unwrap();
        let f = flat.run(&pts).unwrap();
        let s = sharded.run(&pts).unwrap();
        assert_eq!(f.clustering.core, s.clustering.core);
        assert_eq!(f.clustering.labels, s.clustering.labels);
        assert!(same_clustering(&f.clustering, &s.clustering, &pts, params));
        // A run's stage 1 stops each query at minPts, and a query split
        // across shards stops at a different candidate; exact counting
        // (the session's stage 1) charges the same candidates.
        let (f1, _) = flat.session(&pts).unwrap().setup_cost();
        let (s1, _) = sharded.session(&pts).unwrap().setup_cost();
        assert_eq!(
            f1.core_identification.dist_comps, s1.core_identification.dist_comps,
            "aligned shards must charge the flat path's candidate work"
        );
        assert_eq!(f.counters.total().tlas_node_visits, 0);
        assert!(s.counters.total().tlas_node_visits > 0);
        assert!(s.counters.total().blas_launches > 0);
    }

    #[test]
    fn sharded_session_records_two_level_phases() {
        let pts = blobs();
        let engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(5)
            .shard_size(48)
            .telemetry(TelemetryConfig::Spans)
            .build()
            .unwrap();
        let session = engine.session(&pts).unwrap();
        let run = session.cluster(5).unwrap();
        assert!(run.counters.cluster_formation.tlas_node_visits > 0);
        let trace = session.index().telemetry().unwrap().chrome_trace_json();
        for phase in ["tlas_build", "tlas_visit"] {
            assert!(trace.contains(phase), "missing {phase} span in {trace}");
        }
    }

    #[test]
    fn wide_visit_fraction_flows_into_the_cost_model() {
        let pts = blobs();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let cheap = ClusterEngine::builder()
            .params(params)
            .wide_visit_fraction(0.1)
            .build()
            .unwrap();
        let dear = ClusterEngine::builder()
            .params(params)
            .wide_visit_fraction(1.0)
            .build()
            .unwrap();
        let run = cheap.run(&pts).unwrap();
        let cheap_time = cheap.simulate(&run).total().as_secs_f64();
        let dear_time = dear.simulate(&run).total().as_secs_f64();
        assert!(
            cheap_time < dear_time,
            "cheap {cheap_time} vs dear {dear_time}"
        );
    }

    #[test]
    fn run_cancellable_with_no_scope_matches_run_exactly() {
        use rtcore::fault::CancelScope;
        let pts = blobs();
        let params = DbscanParams::new(0.5, 5).unwrap();
        // Flat and sharded backends, RT-DBSCAN and FDBSCAN: the none-scope
        // cancellable path must be bit-identical to the plain two-stage run
        // (labels and counters — this is the "deadline checks are free when
        // unset" contract), a session's stage 2 must produce the same labels
        // and work, and all three must charge the algorithm's execution
        // path, so the device model prices them alike.
        for build in [
            ClusterEngine::builder().params(params),
            ClusterEngine::builder().params(params).shard_size(48),
            ClusterEngine::builder()
                .params(params)
                .algorithm(Algo::Fdbscan),
        ] {
            let engine = build.build().unwrap();
            let plain = engine.run(&pts).unwrap();
            let cancellable = engine.run_cancellable(&pts, &CancelScope::none()).unwrap();
            let session = engine.session(&pts).unwrap().cluster(5).unwrap();
            let algo = engine.algo();
            assert_eq!(plain.path, cancellable.path, "{algo:?}");
            assert_eq!(plain.path, session.path, "{algo:?}");
            assert_eq!(
                engine.simulate(&plain).total(),
                engine.simulate(&cancellable).total(),
                "{algo:?}"
            );
            assert_eq!(plain.clustering.core, cancellable.clustering.core);
            assert_eq!(plain.clustering.labels, cancellable.clustering.labels);
            assert_eq!(plain.clustering.labels, session.clustering.labels);
            assert_eq!(
                plain.counters.core_identification,
                cancellable.counters.core_identification
            );
            assert_eq!(
                plain.counters.cluster_formation,
                cancellable.counters.cluster_formation
            );
            assert_eq!(
                plain.counters.cluster_formation,
                session.counters.cluster_formation
            );
        }
    }

    #[test]
    fn run_cancellable_pre_cancelled_returns_structured_error() {
        use rtcore::fault::{CancelScope, CancelToken};
        let pts = blobs();
        let engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(5)
            .build()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let scope = CancelScope::with_token(&token);
        match engine.run_cancellable(&pts, &scope) {
            Err(rtcore::Error::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_points_are_rejected_with_a_structured_error() {
        let params = DbscanParams::new(0.5, 3).unwrap();
        let engine = ClusterEngine::builder().params(params).build().unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut pts = blobs();
            pts[7] = Point3::new_2d(bad, 0.0);
            match engine.run(&pts) {
                Err(rtcore::Error::InvalidPrimitive { index, .. }) => assert_eq!(index, 7),
                other => panic!("expected InvalidPrimitive for {bad}, got {other:?}"),
            }
            // The session path builds the same index and must reject too.
            assert!(matches!(
                engine.session(&pts),
                Err(rtcore::Error::InvalidPrimitive { .. })
            ));
        }
    }

    #[test]
    fn memory_budget_flows_into_the_index_and_rejects_zero() {
        use rtcore::fault::MemoryBudget;
        let err = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(3)
            .memory_budget(MemoryBudget::Bytes(0))
            .build()
            .unwrap_err();
        assert_eq!(err.field, "memory_budget");

        // An impossible (1 byte) budget on a sharded engine degrades all the
        // way down and then refuses with the structured over-budget error.
        let pts = blobs();
        let engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(5)
            .shard_size(48)
            .memory_budget(MemoryBudget::Bytes(1))
            .build()
            .unwrap();
        match engine.run(&pts) {
            Err(rtcore::Error::OverBudget { requested, budget }) => {
                assert_eq!(budget, 1);
                assert!(requested > 1);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        // A generous budget is a no-op: identical clustering to no budget.
        let roomy = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(5)
            .shard_size(48)
            .memory_budget(MemoryBudget::Bytes(u64::MAX))
            .build()
            .unwrap();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let unbudgeted = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(5)
            .shard_size(48)
            .build()
            .unwrap();
        assert!(same_clustering(
            &roomy.run(&pts).unwrap().clustering,
            &unbudgeted.run(&pts).unwrap().clustering,
            &pts,
            params
        ));
    }
}
