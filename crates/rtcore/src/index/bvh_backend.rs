//! BVH-backed neighbour-search backends: the binary traversal oracle and
//! the wide (BVH4) batched engine.

use super::{
    charge_candidate, charge_candidates, uncharge_candidates, GeometryKind, IndexCapabilities,
    IndexKind, Neighbor, NeighborFlow, NeighborIndex, NeighborIndexBuilder, NeighborSink,
    NeighborVisitor,
};
use crate::bvh::build::{lbvh_from_sorted, scene_from_points};
use crate::bvh::{refit, BuilderKind, Bvh, BvhBuilder, LbvhBuilder, SahBuilder, WideBvh};
use crate::error::{Error, Result};
use crate::fault::{CancelScope, FaultInjector, FaultSite};
use crate::geometry::{Point3, Ray, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::simd::SimdLevel;
use crate::telemetry::{
    NodeHeatmap, PhaseKind, Telemetry, DIST_COMPS_BUCKETS, LATENCY_US_BUCKETS, OCCUPANCY_BUCKETS,
};
use crate::traversal::{
    launch_order, traverse_batch_runs, traverse_wide, traverse_with_scratch_sink, LaunchOrder,
    LeafVisit, NoSink, QueryOrder, ReorderScratch, ScratchPool, Traversal, TraversalScratch,
};
use parking_lot::Mutex;
use std::collections::HashSet;

/// Monomorphise one traversal call over the optional heatmap: a profiling
/// run binds the visit sink to the `&NodeHeatmap`, every other run binds
/// [`NoSink`] — whose `visit` inlines to nothing, so the default arm
/// compiles to the exact pre-telemetry engine body.
macro_rules! with_sink {
    ($heatmap:expr, |$sink:ident| $call:expr) => {
        match $heatmap {
            Some(h) => {
                let $sink = h;
                $call
            }
            None => {
                let $sink = NoSink;
                $call
            }
        }
    };
}

/// The one builder dispatch of the BVH indexes: the flat build, every
/// shard BLAS of a sharded build and a quarantined shard's rebuild all
/// build their tree here, with the configured builder, leaf size and
/// parallelism.  `codes` are the Morton codes of primitives the front end
/// already sorted: the LBVH then emits from them without sorting again.
/// Without them (a shard rebuild from its retained primitives) the LBVH
/// sorts for itself; SAH never reads them.
pub(crate) fn build_tree(
    config: &NeighborIndexBuilder,
    prims: Vec<Sphere>,
    codes: Option<&[u32]>,
    telemetry: &Telemetry,
) -> Result<Bvh> {
    let max_leaf_size = config.max_leaf_size;
    let parallelism = config.build_parallelism;
    match (config.bvh_builder, codes) {
        (BuilderKind::Lbvh, Some(codes)) => lbvh_from_sorted(
            prims,
            codes,
            max_leaf_size,
            WorkCounters::ZERO,
            parallelism,
            telemetry,
        ),
        (BuilderKind::Lbvh, None) => LbvhBuilder {
            max_leaf_size,
            parallelism,
        }
        .build_with_telemetry(prims, telemetry),
        (BuilderKind::BinnedSah, _) => SahBuilder {
            max_leaf_size,
            ..SahBuilder::default()
        }
        .build(prims),
    }
}

/// Caller ordinal of packet position `pos` under an optional launch
/// permutation (identity when the launch runs in caller order).
#[inline]
pub(crate) fn caller_ordinal(perm: Option<&[u32]>, pos: usize) -> usize {
    perm.map_or(pos, |p| p[pos] as usize)
}

/// Fill a packet's ray staging buffer with the epsilon rays of launch
/// positions `start..start + len`, gathering each origin through `ids`
/// (identity when `None`).  The buffer is grow-only, so a warm worker
/// stages without allocating.
#[inline]
fn stage_rays(
    rays: &mut Vec<Ray>,
    queries: &[Point3],
    ids: Option<&[u32]>,
    start: usize,
    len: usize,
) {
    rays.clear();
    rays.extend(
        (start..start + len).map(|pos| Ray::epsilon_ray(queries[caller_ordinal(ids, pos)])),
    );
}

/// Per-worker reusable state for one packet (or one single-ray query):
/// the staged epsilon rays plus the traversal scratch.  Checked out of the
/// core's [`ScratchPool`] for the duration of one work item; grow-only, so
/// the steady state never touches the allocator.  The rays are the
/// packet's only copy of its query origins: they are gathered through the
/// launch permutation, and `rays[q].origin` is packet query `q`.
#[derive(Debug, Default)]
struct PacketScratch {
    rays: Vec<Ray>,
    trav: TraversalScratch,
    /// Per-packet-query neighbour counts for the count output mode (one
    /// shared-cell flush per query instead of one per neighbour).
    counts: Vec<u64>,
}

/// State shared by the binary and wide backends: the compaction mapping
/// and the accounting.  The scene itself lives in the backend — the binary
/// oracle keeps its tree, the wide backend only its BVH4.
#[derive(Debug)]
struct BvhCore {
    n: usize,
    eps: f32,
    /// `representative_of[i]` is the primitive standing for point `i`
    /// (identity when compaction is off or merged nothing).
    representative_of: Vec<u32>,
    /// The build's Morton permutation of all `n` points, kept for
    /// [`QueryOrder::Morton`] self-join launches; `None` for SAH builds,
    /// `AsGiven` indexes, shard BLASes and after maintenance removed
    /// points.  Host-side launch state, outside `device_bytes()`.
    build_order: Option<Vec<u32>>,
    compacting: bool,
    geometry: GeometryKind,
    min_parallel_launch: usize,
    build_counters: WorkCounters,
    query_counters: Mutex<WorkCounters>,
    /// Reusable per-worker traversal scratch (never more items than the
    /// peak number of concurrent workers).
    scratch: ScratchPool<PacketScratch>,
    /// Shared span/metrics recorder (disabled under
    /// [`crate::telemetry::TelemetryConfig::Off`] — every operation on it
    /// is then a no-op).
    telemetry: Telemetry,
}

impl BvhCore {
    /// Compact (if configured) and build the binary tree; returns the
    /// shared state and the tree (`None` for an empty input).
    fn build(
        config: &NeighborIndexBuilder,
        points: &[Point3],
        eps: f32,
    ) -> Result<(Self, Option<Bvh>)> {
        let telemetry = Telemetry::new(config.telemetry);
        let mut build_span = telemetry.span(PhaseKind::LbvhBuild);
        let scene = scene_from_points(
            points,
            eps,
            config.compaction,
            config.bvh_builder == BuilderKind::Lbvh,
            config.build_parallelism.resolved(),
        )?;
        let mut build_counters = scene.counters;
        let bvh = if scene.prims.is_empty() {
            None
        } else {
            Some(build_tree(
                config,
                scene.prims,
                scene.codes.as_deref(),
                &telemetry,
            )?)
        };
        if let Some(b) = &bvh {
            build_counters += b.build_counters;
        }
        build_span.add_counters(build_counters);
        drop(build_span);
        let core = BvhCore {
            n: points.len(),
            eps,
            representative_of: scene.representative_of,
            build_order: scene
                .order
                .filter(|_| config.query_order == QueryOrder::Morton),
            compacting: config.compaction,
            geometry: config.geometry,
            min_parallel_launch: config.min_parallel_launch,
            build_counters,
            query_counters: Mutex::new(WorkCounters::ZERO),
            scratch: ScratchPool::new(),
            telemetry,
        };
        Ok((core, bvh))
    }

    /// The state around an already-built tree (a shard's BLAS): no
    /// compaction pass, no builder dispatch — the sharded scene performed
    /// both globally.  The `representative_of` table stays empty (identity
    /// fallback); the spheres carry their global point indices, so queries
    /// report global ids without translation.
    fn from_prebuilt(
        config: &NeighborIndexBuilder,
        bvh: &Bvh,
        eps: f32,
        telemetry: Telemetry,
    ) -> Self {
        BvhCore {
            n: bvh.primitives.len(),
            eps,
            // analyze-allow: hot-path-alloc -- constructor: one empty vec per scene build, not per query
            representative_of: Vec::new(),
            build_order: None,
            compacting: false,
            geometry: config.geometry,
            min_parallel_launch: config.min_parallel_launch,
            build_counters: bvh.build_counters,
            query_counters: Mutex::new(WorkCounters::ZERO),
            scratch: ScratchPool::new(),
            telemetry,
        }
    }

    /// The telemetry handle, exposed only when it records (the trait's
    /// `telemetry()` contract).
    fn telemetry_handle(&self) -> Option<&Telemetry> {
        self.telemetry.is_enabled().then_some(&self.telemetry)
    }

    /// Record one batched launch into the metrics registry, when enabled:
    /// wall latency, per-query candidate work, and — for packeted
    /// launches — the mean packet occupancy.  `start_ns` comes from
    /// [`Telemetry::now_ns`] before the launch (0 on disabled handles, no
    /// clock read).
    fn record_launch_metrics(
        &self,
        queries: usize,
        batch_size: Option<usize>,
        start_ns: u64,
        total: &WorkCounters,
    ) {
        let Some(metrics) = self.telemetry.metrics() else {
            return;
        };
        metrics.incr("launches", 1);
        metrics.incr("launched_queries", queries as u64);
        let latency_us = self.telemetry.now_ns().saturating_sub(start_ns) as f64 / 1_000.0;
        metrics.observe("launch_latency_us", LATENCY_US_BUCKETS, latency_us);
        if queries > 0 {
            metrics.observe(
                "dist_comps_per_query",
                DIST_COMPS_BUCKETS,
                total.dist_comps as f64 / queries as f64,
            );
        }
        if let (Some(size), true) = (batch_size, queries > 0) {
            let size = size.max(1);
            let packets = queries.div_ceil(size);
            metrics.observe(
                "packet_occupancy",
                OCCUPANCY_BUCKETS,
                queries as f64 / (packets * size) as f64,
            );
        }
    }

    /// One counted single-ray traversal over the binary tree, invoking
    /// `emit` for every verified neighbour.  The node stack comes from a
    /// caller-held scratch, so repeated queries allocate nothing — and
    /// batch callers check one scratch out per *chunk* of queries rather
    /// than paying a pool round-trip per ray.
    #[allow(clippy::too_many_arguments)]
    fn trace_binary(
        &self,
        bvh: &Bvh,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        heatmap: Option<&NodeHeatmap>,
        scratch: &mut TraversalScratch,
        counters: &mut WorkCounters,
        mut emit: impl FnMut(Neighbor, &mut WorkCounters) -> NeighborFlow,
    ) {
        debug_assert!(eps <= self.eps, "query radius exceeds the build radius");
        sat_bump(&mut counters.rays, 1);
        let ray = Ray::epsilon_ray(query);
        let eps_sq = eps * eps;
        let geometry = self.geometry;
        with_sink!(heatmap, |vsink| traverse_with_scratch_sink(
            bvh,
            &ray,
            scratch,
            counters,
            vsink,
            |sphere, counters| {
                charge_candidate(geometry, counters);
                if sphere.center.distance_squared(query) <= eps_sq
                    && Some(sphere.point_index) != exclude
                {
                    let n = Neighbor {
                        index: sphere.point_index,
                        multiplicity: sphere.multiplicity,
                    };
                    match emit(n, counters) {
                        NeighborFlow::Continue => Traversal::Continue,
                        NeighborFlow::Stop => Traversal::Terminate,
                    }
                } else {
                    Traversal::Continue
                }
            }
        ));
    }

    fn record(&self, local: &WorkCounters) {
        *self.query_counters.lock() += *local;
    }

    /// Refuse removal whenever compaction is configured (not merely when
    /// it merged something), so behaviour always matches the advertised
    /// `capabilities().refittable`: merged primitives stand for several
    /// input points.
    fn check_refittable(&self) -> Result<()> {
        if self.compacting {
            return Err(Error::InvalidConfig(
                "cannot remove points from a compacting index: merged primitives \
                 stand for several input points"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Run one in-place refit `pass` (handed the live point count and the
    /// pass's counters) under a `refit` span, and charge its work to the
    /// build counters.
    fn refit(&mut self, pass: impl FnOnce(&mut usize, &mut WorkCounters)) -> WorkCounters {
        // The points no longer match the build's Morton pass.
        self.build_order = None;
        let mut counters = WorkCounters::ZERO;
        let mut span = self.telemetry.span(PhaseKind::Refit);
        pass(&mut self.n, &mut counters);
        span.add_counters(counters);
        drop(span);
        self.build_counters += counters;
        counters
    }

    fn capabilities(&self, kind: IndexKind, batched: bool) -> IndexCapabilities {
        IndexCapabilities {
            kind,
            batched,
            compacting: self.compacting,
            refittable: !self.compacting,
            rt_core: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Binary backend
// ---------------------------------------------------------------------------

/// One-ray-at-a-time traversal of a binary BVH — the reference RT substrate
/// and the oracle the batched engine is verified against.  It keeps its
/// binary tree (the only backend that does) and refits it in place.
#[derive(Debug)]
pub struct BinaryBvhIndex {
    core: BvhCore,
    bvh: Option<Bvh>,
    /// Per-node visit profiler, only under
    /// [`crate::telemetry::TelemetryConfig::Profile`].
    heatmap: Option<NodeHeatmap>,
}

impl BinaryBvhIndex {
    /// Build from a [`NeighborIndexBuilder`] configuration (the builder's
    /// `kind` field is ignored — this constructor always builds binary).
    pub fn build(config: &NeighborIndexBuilder, points: &[Point3], eps: f32) -> Result<Self> {
        let (core, bvh) = BvhCore::build(config, points, eps)?;
        let heatmap = config
            .telemetry
            .heatmap_enabled()
            .then(|| bvh.as_ref().map(NodeHeatmap::for_binary))
            .flatten();
        Ok(BinaryBvhIndex { core, bvh, heatmap })
    }

    /// The underlying binary tree, if any points were indexed.
    pub fn bvh(&self) -> Option<&Bvh> {
        self.bvh.as_ref()
    }

    /// Refits change the node array; a stale depth map would misreport.
    fn refresh_heatmap(&mut self) {
        if self.heatmap.is_some() {
            self.heatmap = self.bvh.as_ref().map(NodeHeatmap::for_binary);
        }
    }
}

impl NeighborIndex for BinaryBvhIndex {
    fn len(&self) -> usize {
        self.core.n
    }

    fn eps(&self) -> f32 {
        self.core.eps
    }

    fn capabilities(&self) -> IndexCapabilities {
        self.core.capabilities(IndexKind::BinaryBvh, false)
    }

    fn build_counters(&self) -> WorkCounters {
        self.core.build_counters
    }

    fn counters(&self) -> WorkCounters {
        self.core.build_counters + *self.core.query_counters.lock()
    }

    fn device_bytes(&self) -> u64 {
        self.bvh.as_ref().map_or(0, Bvh::device_bytes)
    }

    fn representative_of(&self, index: u32) -> u32 {
        self.core
            .representative_of
            .get(index as usize)
            .copied()
            .unwrap_or(index)
    }

    fn for_each_neighbor(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        visit: &mut NeighborVisitor<'_>,
    ) {
        let Some(bvh) = &self.bvh else { return };
        let mut local = WorkCounters::ZERO;
        let mut guard = self.core.scratch.acquire();
        self.core.trace_binary(
            bvh,
            query,
            eps,
            exclude,
            self.heatmap.as_ref(),
            &mut guard.trav,
            &mut local,
            |n, c| visit(n, c),
        );
        drop(guard);
        self.core.record(&local);
        *counters += local;
    }

    fn batch_neighbors(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    ) {
        // Dispatch chunks of queries, one pooled scratch checkout per chunk
        // (not per ray); chunk boundaries are a pure function of the query
        // count, and per-query counters still fold in query order, so the
        // totals are bit-identical to a per-query dispatch.
        let start_ns = self.core.telemetry.now_ns();
        let chunk_size = super::merge_chunk_size(queries.len());
        let chunks = queries.len().div_ceil(chunk_size);
        let total = super::dispatch_batch(
            chunks,
            queries.len() >= self.core.min_parallel_launch,
            |chunk| {
                let mut local = WorkCounters::ZERO;
                let Some(bvh) = &self.bvh else {
                    return local;
                };
                let mut guard = self.core.scratch.acquire();
                let lo = chunk * chunk_size;
                let hi = ((chunk + 1) * chunk_size).min(queries.len());
                for (ordinal, &query) in queries.iter().enumerate().take(hi).skip(lo) {
                    self.core.trace_binary(
                        bvh,
                        query,
                        eps,
                        None,
                        self.heatmap.as_ref(),
                        &mut guard.trav,
                        &mut local,
                        |n, c| sink(ordinal, n, c),
                    );
                }
                local
            },
        );
        self.core
            .record_launch_metrics(queries.len(), None, start_ns, &total);
        self.core.record(&total);
        *counters += total;
    }

    fn batch_neighbor_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[std::sync::atomic::AtomicU64],
    ) {
        use std::sync::atomic::Ordering;
        debug_assert!(
            eps <= self.core.eps,
            "query radius exceeds the build radius"
        );
        assert_eq!(
            queries.len(),
            counts.len(),
            "one count cell per launched query"
        );
        let geometry = self.core.geometry;
        let eps_sq = eps * eps;
        let heatmap = self.heatmap.as_ref();
        let cap = super::count_cap(exclude_self, early_exit);
        let start_ns = self.core.telemetry.now_ns();
        // One pooled scratch checkout per chunk of queries (see
        // `batch_neighbors` for the chunking contract).
        let chunk_size = super::merge_chunk_size(queries.len());
        let chunks = queries.len().div_ceil(chunk_size);
        let total = super::dispatch_batch(
            chunks,
            queries.len() >= self.core.min_parallel_launch,
            |chunk| {
                let mut local = WorkCounters::ZERO;
                let Some(bvh) = &self.bvh else {
                    return local;
                };
                let mut guard = self.core.scratch.acquire();
                for ordinal in chunk * chunk_size..((chunk + 1) * chunk_size).min(queries.len()) {
                    sat_bump(&mut local.rays, 1);
                    let query = queries[ordinal];
                    let ray = Ray::epsilon_ray(query);
                    // The raw hit sum, own point included (see `count_cap`).
                    let mut count = 0u64;
                    with_sink!(heatmap, |vsink| traverse_with_scratch_sink(
                        bvh,
                        &ray,
                        &mut guard.trav,
                        &mut local,
                        vsink,
                        |sphere, c| {
                            charge_candidate(geometry, c);
                            let hit = sphere.center.distance_squared(query) <= eps_sq;
                            count += hit as u64 * sphere.multiplicity as u64;
                            if count >= cap {
                                Traversal::Terminate
                            } else {
                                Traversal::Continue
                            }
                        },
                    ));
                    let count = count.saturating_sub(exclude_self as u64);
                    if count > 0 {
                        // ordering: Relaxed — each worker adds to distinct
                        // ordinals' cells within one launch; the caller reads
                        // only after the parallel launch joins.
                        counts[ordinal].fetch_add(count, Ordering::Relaxed);
                    }
                }
                local
            },
        );
        self.core
            .record_launch_metrics(queries.len(), None, start_ns, &total);
        self.core.record(&total);
        *counters += total;
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.core.telemetry_handle()
    }

    fn heatmap(&self) -> Option<&NodeHeatmap> {
        self.heatmap.as_ref()
    }

    fn remove(&mut self, retired: &[u32]) -> Result<WorkCounters> {
        self.core.check_refittable()?;
        let dead: HashSet<u32> = retired.iter().copied().collect();
        let bvh = &mut self.bvh;
        let counters = self.core.refit(|n, counters| {
            let Some(tree) = bvh.as_mut() else { return };
            refit::remove_points(tree, |idx| dead.contains(&idx), counters);
            *n = n.saturating_sub(retired.len());
            if tree.primitives.is_empty() {
                *bvh = None;
            }
        });
        self.refresh_heatmap();
        Ok(counters)
    }
}

// ---------------------------------------------------------------------------
// Wide batched backend
// ---------------------------------------------------------------------------

/// The BVH4 scene real RT cores walk: the binary tree is collapsed once at
/// build time and queries launch in fixed-size ray packets, each wide node
/// fetched once per packet (see [`crate::traversal::batch`]).
///
/// One copy of the scene is resident: the BVH4 nodes and their SoA
/// primitive lanes ([`WideBvh`]).  The binary tree is dropped right after
/// the collapse, so [`NeighborIndex::device_bytes`] is the wide scene's
/// alone.  [`NeighborIndex::remove`] (on a non-compacting index) refits
/// the BVH4 in place ([`WideBvh::remove_points`]).
///
/// Two coherence knobs of the [`NeighborIndexBuilder`] shape the launches:
/// [`QueryOrder::Morton`] sorts query origins along the Z-order curve
/// before packets are cut (outputs restored to caller order
/// bit-identically), and the [`crate::simd::SimdPolicy`] selects the
/// hit-mask / leaf-distance kernels once at build.
#[derive(Debug)]
pub struct WideBatchedIndex {
    core: BvhCore,
    /// The scene: BVH4 nodes plus primitive lanes (`None` once empty).
    wide: Option<WideBvh>,
    query_order: QueryOrder,
    /// SIMD level resolved once at build — never re-detected per launch.
    simd: SimdLevel,
    batch_size: usize,
    /// Pooled buffers for Morton launch reordering.
    reorder: ScratchPool<ReorderScratch>,
    /// Per-node visit profiler, only under
    /// [`crate::telemetry::TelemetryConfig::Profile`].
    heatmap: Option<NodeHeatmap>,
    /// Deterministic failpoint handle (disarmed under
    /// [`crate::fault::FaultPlan::Off`], where probes cost nothing).
    fault: FaultInjector,
}

impl WideBatchedIndex {
    /// Build from a [`NeighborIndexBuilder`] configuration (the builder's
    /// `kind` field is ignored — this constructor always builds wide).  A
    /// finished index larger than the builder's
    /// [`crate::fault::MemoryBudget`] is refused with
    /// [`Error::OverBudget`].
    pub fn build(config: &NeighborIndexBuilder, points: &[Point3], eps: f32) -> Result<Self> {
        let fault = FaultInjector::new(config.fault);
        crate::fail_point!(fault, FaultSite::HlbvhBuild);
        let (core, bvh) = BvhCore::build(config, points, eps)?;
        let index = Self::from_core(config, core, bvh, fault)?;
        if let Some(limit) = config.memory_budget.limit() {
            let bytes = index.device_bytes();
            if bytes > limit {
                return Err(Error::OverBudget {
                    requested: bytes,
                    budget: limit,
                });
            }
        }
        Ok(index)
    }

    /// Wrap an already-built binary tree (a shard's BLAS) into the wide
    /// batched engine, skipping the compaction/builder front end — the
    /// sharded scene ran those globally and enforces the memory budget
    /// over the whole scene.  The tree is consumed: it is collapsed and
    /// dropped before this returns, so a shard built in parallel never
    /// keeps both trees.  Spans open on the calling thread, so per-shard
    /// parallel builds are visible in the trace through their thread ids.
    pub(crate) fn from_prebuilt(
        config: &NeighborIndexBuilder,
        bvh: Bvh,
        eps: f32,
        telemetry: Telemetry,
    ) -> Result<Self> {
        let core = BvhCore::from_prebuilt(config, &bvh, eps, telemetry);
        Self::from_core(config, core, Some(bvh), FaultInjector::new(config.fault))
    }

    /// The one constructor body: collapse the binary tree to BVH4 (charged
    /// as build work), drop the tree — the wide scene's lanes are its only
    /// copy of the primitives from here on — and size the optional heatmap.
    fn from_core(
        config: &NeighborIndexBuilder,
        mut core: BvhCore,
        bvh: Option<Bvh>,
        fault: FaultInjector,
    ) -> Result<Self> {
        crate::fail_point!(fault, FaultSite::Bvh4Collapse);
        let wide = {
            let mut span = core.telemetry.span(PhaseKind::Bvh4Collapse);
            let workers = config.build_parallelism.resolved();
            let wide = bvh.map(|b| WideBvh::from_binary_parallel(&b, workers, &core.telemetry));
            if let Some(w) = &wide {
                // The collapse is device-build work, charged with the build.
                core.build_counters += w.collapse_counters;
                span.add_counters(w.collapse_counters);
            }
            wide
        };
        let heatmap = config
            .telemetry
            .heatmap_enabled()
            .then(|| wide.as_ref().map(NodeHeatmap::for_wide))
            .flatten();
        Ok(WideBatchedIndex {
            core,
            wide,
            query_order: config.query_order,
            simd: config.simd.resolve(),
            batch_size: config.batch_size.max(1),
            reorder: ScratchPool::new(),
            heatmap,
            fault,
        })
    }

    /// The collapsed wide scene, if any points were indexed.
    pub fn wide_scene(&self) -> Option<&WideBvh> {
        self.wide.as_ref()
    }

    /// The SIMD level this index resolved at build.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// The build's Morton permutation of the indexed points that
    /// self-join count launches walk (entry `i` is the index of the `i`-th
    /// point in `(code, index)` order), kept only by LBVH builds under
    /// [`QueryOrder::Morton`] until maintenance removes points.
    pub fn build_order(&self) -> Option<&[u32]> {
        self.core.build_order.as_deref()
    }

    /// Drop the kept build order, so that self-join launches sort as every
    /// other Morton launch does (the reference the kept order is tested
    /// against).
    #[cfg(test)]
    pub(crate) fn forget_build_order(&mut self) {
        self.core.build_order = None;
    }

    /// Sphere-inflated bounds of everything this index holds (empty when no
    /// primitives remain).  The sharded scene's TLAS leaves carry exactly
    /// these boxes.
    pub(crate) fn root_bounds(&self) -> crate::geometry::Aabb {
        self.wide
            .as_ref()
            .map_or(crate::geometry::Aabb::EMPTY, |w| w.scene_bounds)
    }

    /// Maintenance changed the node array; rebuild the visit profiler's
    /// node→depth map so recorded visits keep landing on real nodes.
    fn refresh_heatmap(&mut self) {
        if self.heatmap.is_some() {
            self.heatmap = self.wide.as_ref().map(NodeHeatmap::for_wide);
        }
    }

    /// The launch order of a batched launch over `queries`: the kept build
    /// order for a self-join count launch (`exclude_self` set), otherwise a
    /// Morton sort when configured (see [`launch_order`]).
    fn launch_order(
        &self,
        queries: &[Point3],
        exclude_self: bool,
        setup: &mut WorkCounters,
    ) -> LaunchOrder<'_> {
        launch_order(
            self.query_order,
            self.core.build_order.as_deref(),
            exclude_self,
            queries,
            &self.reorder,
            &self.core.telemetry,
            setup,
        )
    }

    /// Trace one packet of queries through the wide scene.  The ray staging
    /// buffer and the traversal scratch come from the core's worker pool;
    /// packet boundaries are fixed by `batch_size`, so neither the work
    /// performed nor its accounting depends on how packets are scheduled.
    /// Launch position `i` is query `queries[id]` reported to the sink as
    /// ordinal `id`, where `id = ids[i]` (`None` = identity); the packet
    /// covers positions `start..start + len`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_packet(
        &self,
        queries: &[Point3],
        ids: Option<&[u32]>,
        start: usize,
        len: usize,
        eps: f32,
        sink: &NeighborSink<'_>,
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        let mut counters = WorkCounters::ZERO;
        let Some(wide) = &self.wide else {
            return counters;
        };
        // Packet granularity: a tripped scope skips the whole packet.
        if cancel.is_some_and(CancelScope::tripped) {
            return counters;
        }
        sat_bump(&mut counters.rays, len as u64);
        let mut guard = self.core.scratch.acquire();
        let PacketScratch { rays, trav, .. } = &mut *guard;
        stage_rays(rays, queries, ids, start, len);
        let rays: &[Ray] = rays;
        let eps_sq = eps * eps;
        let geometry = self.core.geometry;
        let lanes = &wide.lanes;
        with_sink!(self.heatmap.as_ref(), |vsink| {
            traverse_batch_runs(
                wide,
                rays,
                trav,
                &mut counters,
                self.simd,
                vsink,
                cancel,
                |q, first, count, counters| {
                    // The distance test reads the coordinate lanes only; a
                    // hit then reads its id and multiplicity.
                    let origin = rays[q].origin;
                    for i in first..first + count {
                        charge_candidate(geometry, counters);
                        let k = i as usize;
                        if lanes.center(k).distance_squared(origin) <= eps_sq {
                            let n = Neighbor {
                                index: lanes.point_index(k),
                                multiplicity: lanes.multiplicity(k),
                            };
                            if sink(caller_ordinal(ids, start + q), n, counters)
                                == NeighborFlow::Stop
                            {
                                return LeafVisit {
                                    visited: i - first + 1,
                                    terminate: true,
                                };
                            }
                        }
                    }
                    LeafVisit::all(count)
                },
            );
        });
        counters
    }

    /// The count-mode packet tracer: counts accumulate in a packet-local
    /// buffer and each query flushes to its shared cell once at packet end,
    /// under the stop rule of [`NeighborIndex::batch_neighbor_counts`].
    /// One leaf-run handler serves exact and early-exit launches: the SIMD
    /// kernel counts the whole run over the SoA primitive lanes
    /// (bit-identical to the scalar sphere test; see [`crate::simd`]), and
    /// only the run that reaches the cap is rescanned candidate by
    /// candidate to find the stopping hit, so at most one run per query is
    /// read twice.  Traversal order, stop points and every aggregate
    /// counter equal driving the same rule through a count sink over
    /// [`WideBatchedIndex::trace_packet`].  Positions map to queries and
    /// count cells through `ids` exactly as in
    /// [`WideBatchedIndex::trace_packet`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_count_packet(
        &self,
        queries: &[Point3],
        ids: Option<&[u32]>,
        start: usize,
        len: usize,
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counts: &[std::sync::atomic::AtomicU64],
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        use std::sync::atomic::Ordering;
        let mut counters = WorkCounters::ZERO;
        let Some(wide) = &self.wide else {
            return counters;
        };
        // Packet granularity: a tripped scope skips the whole packet.
        if cancel.is_some_and(CancelScope::tripped) {
            return counters;
        }
        sat_bump(&mut counters.rays, len as u64);
        let mut guard = self.core.scratch.acquire();
        let PacketScratch {
            rays,
            trav,
            counts: local,
        } = &mut *guard;
        stage_rays(rays, queries, ids, start, len);
        let rays: &[Ray] = rays;
        local.clear();
        local.resize(len, 0);
        let eps_sq = eps * eps;
        let geometry = self.core.geometry;
        // `local` holds raw hit sums, own point included (see `count_cap`).
        let cap = super::count_cap(exclude_self, early_exit);
        let lanes = &wide.lanes;
        let simd = self.simd;
        with_sink!(self.heatmap.as_ref(), |vsink| {
            traverse_batch_runs(wide, rays, trav, &mut counters, simd, vsink, cancel, {
                let local = &mut *local;
                move |q, first, run, counters| {
                    charge_candidates(geometry, run as u64, counters);
                    let origin = rays[q].origin;
                    let hits =
                        lanes.count_in_ball(simd, first as usize, run as usize, origin, eps_sq);
                    if local[q] + hits < cap {
                        local[q] += hits;
                        return LeafVisit::all(run);
                    }
                    // This run reaches the cap: stop at the hit that does,
                    // and give the untested tail's charge back.
                    for (i, visited) in (first as usize..(first + run) as usize).zip(1u32..) {
                        if lanes.center(i).distance_squared(origin) <= eps_sq {
                            local[q] += lanes.multiplicity(i) as u64;
                            if local[q] >= cap {
                                uncharge_candidates(geometry, (run - visited) as u64, counters);
                                return LeafVisit {
                                    visited,
                                    terminate: true,
                                };
                            }
                        }
                    }
                    debug_assert!(false, "the rescan finds every hit the run kernel counted");
                    LeafVisit::all(run)
                }
            });
        });
        for (i, &c) in local.iter().enumerate() {
            let c = c.saturating_sub(exclude_self as u64);
            if c > 0 {
                // ordering: Relaxed — one flush per sub-range per launch,
                // distinct caller ordinals per worker; the dispatching
                // join publishes the cells to the caller.
                counts[caller_ordinal(ids, start + i)].fetch_add(c, Ordering::Relaxed);
            }
        }
        counters
    }

    /// The shared batched-callback launch body: Morton reorder, fixed
    /// packet boundaries, deterministic per-chunk counter merge.  `cancel`
    /// is a runtime parameter — `None` compiles to the exact pre-deadline
    /// launch, and the dispatch shape (hence counter merge order) is
    /// identical either way.  Returns the launch total; the caller decides
    /// whether to surface it (success) or fold it into
    /// [`Error::DeadlineExceeded`] (trip).
    fn batch_neighbors_impl(
        &self,
        queries: &[Point3],
        eps: f32,
        sink: &NeighborSink<'_>,
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        debug_assert!(eps <= self.core.eps, "query radius exceeds build radius");
        // Morton launch order (if configured): the order outlives the
        // parallel dispatch; sinks still see caller ordinals.
        let mut setup = WorkCounters::ZERO;
        let order = self.launch_order(queries, false, &mut setup);
        let perm = order.perm();
        // Fixed packet boundaries, derived arithmetically — no materialised
        // range list on the launch path.
        let start_ns = self.core.telemetry.now_ns();
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.core.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                self.trace_packet(queries, perm, start, len, eps, sink, cancel)
            },
        );
        total += setup;
        self.core
            .record_launch_metrics(queries.len(), Some(self.batch_size), start_ns, &total);
        self.core.record(&total);
        total
    }

    /// The shared count-mode launch body (see
    /// [`WideBatchedIndex::batch_neighbors_impl`] for the cancel
    /// semantics).
    fn batch_neighbor_counts_impl(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counts: &[std::sync::atomic::AtomicU64],
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        debug_assert!(eps <= self.core.eps, "query radius exceeds build radius");
        assert_eq!(
            queries.len(),
            counts.len(),
            "one count cell per launched query"
        );
        // A self-join walks the build's order instead of sorting.
        let mut setup = WorkCounters::ZERO;
        let order = self.launch_order(queries, exclude_self, &mut setup);
        let perm = order.perm();
        let start_ns = self.core.telemetry.now_ns();
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.core.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                self.trace_count_packet(
                    queries,
                    perm,
                    start,
                    len,
                    eps,
                    exclude_self,
                    early_exit,
                    counts,
                    cancel,
                )
            },
        );
        total += setup;
        self.core
            .record_launch_metrics(queries.len(), Some(self.batch_size), start_ns, &total);
        self.core.record(&total);
        total
    }
}

impl NeighborIndex for WideBatchedIndex {
    fn len(&self) -> usize {
        self.core.n
    }

    fn eps(&self) -> f32 {
        self.core.eps
    }

    fn capabilities(&self) -> IndexCapabilities {
        self.core.capabilities(IndexKind::WideBatched, true)
    }

    fn build_counters(&self) -> WorkCounters {
        self.core.build_counters
    }

    fn counters(&self) -> WorkCounters {
        self.core.build_counters + *self.core.query_counters.lock()
    }

    fn device_bytes(&self) -> u64 {
        self.wide.as_ref().map_or(0, WideBvh::device_bytes)
    }

    fn representative_of(&self, index: u32) -> u32 {
        self.core
            .representative_of
            .get(index as usize)
            .copied()
            .unwrap_or(index)
    }

    fn for_each_neighbor(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        visit: &mut NeighborVisitor<'_>,
    ) {
        debug_assert!(eps <= self.core.eps, "query radius exceeds build radius");
        let Some(wide) = &self.wide else { return };
        let mut local = WorkCounters::ZERO;
        sat_bump(&mut local.rays, 1);
        let ray = Ray::epsilon_ray(query);
        let eps_sq = eps * eps;
        let geometry = self.core.geometry;
        let mut guard = self.core.scratch.acquire();
        with_sink!(self.heatmap.as_ref(), |vsink| {
            traverse_wide(
                wide,
                &ray,
                &mut guard.trav,
                &mut local,
                vsink,
                |sphere, counters| {
                    charge_candidate(geometry, counters);
                    if sphere.center.distance_squared(query) <= eps_sq
                        && Some(sphere.point_index) != exclude
                    {
                        let n = Neighbor {
                            index: sphere.point_index,
                            multiplicity: sphere.multiplicity,
                        };
                        match visit(n, counters) {
                            NeighborFlow::Continue => Traversal::Continue,
                            NeighborFlow::Stop => Traversal::Terminate,
                        }
                    } else {
                        Traversal::Continue
                    }
                },
            );
        });
        self.core.record(&local);
        *counters += local;
    }

    fn batch_neighbors(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    ) {
        let total = self.batch_neighbors_impl(queries, eps, sink, None);
        *counters += total;
    }

    fn batch_neighbors_cancellable(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
        scope: &CancelScope,
    ) -> Result<()> {
        crate::fail_point!(self.fault, FaultSite::ScratchGrow);
        if self.fault.fire(FaultSite::LaunchDelay) {
            // A delayed launch blows its deadline instead of erroring.
            scope.trip();
        }
        if scope.should_stop() {
            return Err(super::deadline_exceeded(
                self.core.telemetry_handle(),
                WorkCounters::ZERO,
            ));
        }
        let total =
            self.batch_neighbors_impl(queries, eps, sink, scope.is_active().then_some(scope));
        if scope.tripped() {
            return Err(super::deadline_exceeded(
                self.core.telemetry_handle(),
                total,
            ));
        }
        *counters += total;
        Ok(())
    }

    fn batch_neighbor_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[std::sync::atomic::AtomicU64],
    ) {
        let total =
            self.batch_neighbor_counts_impl(queries, eps, exclude_self, early_exit, counts, None);
        *counters += total;
    }

    fn batch_neighbor_counts_cancellable(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[std::sync::atomic::AtomicU64],
        scope: &CancelScope,
    ) -> Result<()> {
        crate::fail_point!(self.fault, FaultSite::ScratchGrow);
        if self.fault.fire(FaultSite::LaunchDelay) {
            scope.trip();
        }
        if scope.should_stop() {
            return Err(super::deadline_exceeded(
                self.core.telemetry_handle(),
                WorkCounters::ZERO,
            ));
        }
        let total = self.batch_neighbor_counts_impl(
            queries,
            eps,
            exclude_self,
            early_exit,
            counts,
            scope.is_active().then_some(scope),
        );
        if scope.tripped() {
            return Err(super::deadline_exceeded(
                self.core.telemetry_handle(),
                total,
            ));
        }
        *counters += total;
        Ok(())
    }

    fn batch_neighbors_csr_into(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        out: &mut super::CsrNeighbors,
    ) {
        debug_assert!(eps <= self.core.eps, "query radius exceeds build radius");
        // Specialised CSR launch: each packet collects `(query, hit)` pairs
        // into its worker scratch (monomorphic candidate loop, hoisted
        // charging) and appends them to the shared pair list under one lock
        // per packet — not one per neighbour like the generic default.
        // Emission order within a query is the traversal order (invariant
        // under launch reordering), and the counting-sort rebuild restores
        // row order, so output and counters are identical to the
        // callback-mode launch whatever the query order.
        let mut setup = WorkCounters::ZERO;
        let order = self.launch_order(queries, false, &mut setup);
        let perm = order.perm();
        // analyze-allow: hot-path-alloc -- one shared pair-sink allocation per launch, amortised over every packet
        let pairs_shared: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
        let start_ns = self.core.telemetry.now_ns();
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.core.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                let mut local = WorkCounters::ZERO;
                let Some(wide) = &self.wide else {
                    return local;
                };
                let lanes = &wide.lanes;
                sat_bump(&mut local.rays, len as u64);
                let mut guard = self.core.scratch.acquire();
                let PacketScratch { rays, trav, .. } = &mut *guard;
                stage_rays(rays, queries, perm, start, len);
                let rays: &[Ray] = rays;
                let mut pairs = std::mem::take(&mut trav.pairs);
                pairs.clear();
                let eps_sq = eps * eps;
                let geometry = self.core.geometry;
                with_sink!(self.heatmap.as_ref(), |vsink| {
                    traverse_batch_runs(
                        wide,
                        rays,
                        trav,
                        &mut local,
                        self.simd,
                        vsink,
                        None,
                        |q, first, count, c| {
                            charge_candidates(geometry, count as u64, c);
                            let query = rays[q].origin;
                            for i in first as usize..(first + count) as usize {
                                if lanes.center(i).distance_squared(query) <= eps_sq {
                                    pairs.push((
                                        caller_ordinal(perm, start + q) as u32,
                                        lanes.point_index(i),
                                    ));
                                }
                            }
                            LeafVisit::all(count)
                        },
                    );
                });
                pairs_shared.lock().extend_from_slice(&pairs);
                trav.pairs = pairs;
                local
            },
        );
        total += setup;
        self.core
            .record_launch_metrics(queries.len(), Some(self.batch_size), start_ns, &total);
        self.core.record(&total);
        *counters += total;
        out.rebuild_from_pairs(queries.len(), &pairs_shared.into_inner());
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.core.telemetry_handle()
    }

    fn heatmap(&self) -> Option<&NodeHeatmap> {
        self.heatmap.as_ref()
    }

    fn remove(&mut self, retired: &[u32]) -> Result<WorkCounters> {
        self.core.check_refittable()?;
        let dead: HashSet<u32> = retired.iter().copied().collect();
        let wide = &mut self.wide;
        let counters = self.core.refit(|n, counters| {
            let Some(scene) = wide.as_mut() else { return };
            scene.remove_points(|id| dead.contains(&id), counters);
            *n = n.saturating_sub(retired.len());
            // An emptied scene holds no nodes: drop it, so an emptied
            // shard is retired.
            if scene.primitive_count() == 0 {
                *wide = None;
            }
        });
        self.refresh_heatmap();
        Ok(counters)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::NeighborIndexBuilder;

    fn line(n: usize, spacing: f32) -> Vec<Point3> {
        (0..n)
            .map(|i| Point3::new(i as f32 * spacing, 0.0, 0.0))
            .collect()
    }

    #[test]
    fn compaction_reports_representatives_and_multiplicities() {
        let mut pts = line(5, 10.0);
        pts.push(pts[0]); // exact duplicate of point 0
        pts.push(pts[0]);
        let config = NeighborIndexBuilder {
            compaction: true,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        };
        let index = WideBatchedIndex::build(&config, &pts, 1.0).unwrap();
        assert!(index.capabilities().compacting);
        assert_eq!(index.build_counters().compaction_merges, 2);
        assert_eq!(index.representative_of(5), index.representative_of(0));
        // Querying at the duplicated location reports the representative
        // with the whole group's multiplicity.
        let mut c = WorkCounters::ZERO;
        let mut seen = Vec::new();
        index.for_each_neighbor(pts[0], 1.0, None, &mut c, &mut |n, _| {
            seen.push((n.index, n.multiplicity));
            NeighborFlow::Continue
        });
        assert_eq!(seen, vec![(index.representative_of(0), 3)]);
    }

    #[test]
    fn wide_backend_counts_wide_visits_and_packets() {
        let pts = line(300, 0.3);
        let config = NeighborIndexBuilder {
            batch_size: 64,
            min_parallel_launch: 0,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        };
        let index = WideBatchedIndex::build(&config, &pts, 0.5).unwrap();
        let mut c = WorkCounters::ZERO;
        index.batch_neighbors(&pts, 0.5, &mut c, &|_, _, _| NeighborFlow::Continue);
        assert_eq!(c.rays, 300);
        assert_eq!(c.node_visits, 0);
        assert!(c.wide_node_visits > 0);
        assert_eq!(c.batched_launches, 5, "300 rays in packets of 64");
    }

    #[test]
    fn binary_backend_refits_out_removed_points() {
        let pts = line(40, 1.0);
        let config = NeighborIndexBuilder::new(IndexKind::BinaryBvh);
        let mut index = BinaryBvhIndex::build(&config, &pts, 1.5).unwrap();
        let mut c = WorkCounters::ZERO;
        let mut got = index.neighbors_of(pts[10], 1.5, Some(10), &mut c);
        got.sort_unstable();
        assert_eq!(got, vec![9, 11]);
        let refit_work = index.remove(&[9, 11]).unwrap();
        assert!(refit_work.refit_node_ops > 0);
        assert!(index
            .neighbors_of(pts[10], 1.5, Some(10), &mut c)
            .is_empty());
        assert_eq!(index.len(), 38);
    }

    /// One resident copy of the scene: a wide index's bytes are its BVH4
    /// nodes plus 20 B per primitive lane slot (padding included) — no
    /// binary tree, no sphere array beside the lanes.
    pub(crate) fn assert_one_resident_copy(index: &WideBatchedIndex) {
        let wide = index.wide_scene().expect("a non-empty scene");
        let slots = (wide.primitive_count() + crate::simd::LANE_PADDING) as u64;
        assert_eq!(
            index.device_bytes(),
            std::mem::size_of::<crate::bvh::WideNode>() as u64 * wide.node_count() as u64
                + 20 * slots
        );
    }

    #[test]
    fn wide_index_keeps_one_resident_copy() {
        let pts = line(500, 0.3);
        for compaction in [false, true] {
            let config = NeighborIndexBuilder {
                compaction,
                ..NeighborIndexBuilder::new(IndexKind::WideBatched)
            };
            let mut index = WideBatchedIndex::build(&config, &pts, 0.5).unwrap();
            assert_one_resident_copy(&index);
            if !compaction {
                // The in-place refit keeps it that way.
                let retired: Vec<u32> = (0..100).collect();
                index.remove(&retired).unwrap();
                assert_eq!(index.wide_scene().unwrap().primitive_count(), 400);
                assert_one_resident_copy(&index);
            }
        }
    }

    #[test]
    fn wide_refit_charges_refit_work_and_empties_to_nothing() {
        let pts = line(64, 1.0);
        let config = NeighborIndexBuilder::new(IndexKind::WideBatched);
        let mut index = WideBatchedIndex::build(&config, &pts, 1.5).unwrap();
        let nodes = index.wide_scene().unwrap().node_count() as u64;
        let work = index.remove(&[3, 4, 5]).unwrap();
        assert_eq!(work.refits, 1);
        assert_eq!(work.refit_node_ops, nodes);
        let mut c = WorkCounters::ZERO;
        assert_eq!(index.neighbors_of(pts[2], 1.5, Some(2), &mut c), vec![1]);
        let rest: Vec<u32> = (0..64).filter(|i| !(3..6).contains(i)).collect();
        index.remove(&rest).unwrap();
        assert!(index.wide_scene().is_none());
        assert!(index.is_empty());
        assert_eq!(index.device_bytes(), 0);
    }

    #[test]
    fn compacted_indexes_refuse_refit_hooks() {
        let mut pts = line(4, 10.0);
        pts.push(pts[0]);
        let config = NeighborIndexBuilder {
            compaction: true,
            ..NeighborIndexBuilder::new(IndexKind::BinaryBvh)
        };
        let mut index = BinaryBvhIndex::build(&config, &pts, 1.0).unwrap();
        assert!(!index.capabilities().refittable);
        assert!(index.remove(&[0]).is_err());
    }
}
