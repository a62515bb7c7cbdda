//! `NeighborIndex`: pluggable fixed-radius neighbour-search backends.
//!
//! Every clustering algorithm in this workspace reduces to the same
//! primitive — *"enumerate the points within ε of a query"* — but until this
//! module each implementation privately owned its substrate (a binary BVH, a
//! collapsed BVH4 scene, a uniform grid, or a brute-force scan), so backends
//! could not be swapped, composed or benchmarked through one surface.  The
//! [`NeighborIndex`] trait lifts that substrate into an object-safe backend
//! layer:
//!
//! * [`BinaryBvhIndex`] — one-ray-at-a-time traversal of a binary BVH
//!   (LBVH / binned SAH), the reference RT substrate.
//! * [`WideBatchedIndex`] — the collapsed BVH4 scene walked by ray packets
//!   (see [`crate::traversal::batch`]), the layout real RT cores traverse.
//! * [`UniformGridIndex`] — a regular grid with cell side ε, the
//!   CUDA-DClust+ style shader-core index.
//! * [`BruteForceIndex`] — the exact O(n) per-query oracle every other
//!   backend is verified against.
//!
//! All four share the workspace's single ε-boundary rule — the **closed ball
//! on squared `f32` distances** (`d² <= ε²`) — and report every unit of work
//! through [`WorkCounters`], so the device cost model prices a query
//! identically whether it was issued directly or through a trait object.
//!
//! # Examples
//!
//! ```
//! use rtcore::geometry::Point3;
//! use rtcore::index::{IndexKind, NeighborIndex, NeighborIndexBuilder};
//!
//! let pts = vec![
//!     Point3::new(0.0, 0.0, 0.0),
//!     Point3::new(0.5, 0.0, 0.0),
//!     Point3::new(10.0, 0.0, 0.0),
//! ];
//! // Any backend builds through the same builder and answers through the
//! // same trait-object surface.
//! for kind in IndexKind::ALL {
//!     let index: Box<dyn NeighborIndex> =
//!         NeighborIndexBuilder::new(kind).build(&pts, 1.0).unwrap();
//!     let mut counters = rtcore::hardware::WorkCounters::ZERO;
//!     let neighbors = index.neighbors_of(pts[0], 1.0, Some(0), &mut counters);
//!     assert_eq!(neighbors, vec![1], "{kind:?}");
//! }
//! ```

mod brute;
mod bvh_backend;
mod csr;
mod grid;
mod sharded;

pub use brute::BruteForceIndex;
pub use bvh_backend::{BinaryBvhIndex, WideBatchedIndex};
pub use csr::CsrNeighbors;
pub use grid::UniformGridIndex;
pub use sharded::{QuarantineReason, RecoveryStats, ShardedIndex};

pub use crate::bvh::{BuildParallelism, ShardingConfig};
pub use crate::simd::SimdPolicy;
pub use crate::traversal::QueryOrder;

use crate::bvh::BuilderKind;
use crate::error::{Error, Result};
use crate::fault::{CancelScope, FaultPlan, MemoryBudget};
use crate::geometry::Point3;
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::telemetry::{NodeHeatmap, Telemetry, TelemetryConfig};

/// One verified neighbour reported by a backend: the exact distance test has
/// already passed when the callback sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// Index of the neighbouring point in the build input.  For a
    /// *compacting* backend this is the representative of a group of exactly
    /// coincident points (see [`NeighborIndex::representative_of`]).
    pub index: u32,
    /// How many input points this neighbour stands for (1 unless the backend
    /// compacts coincident points).
    pub multiplicity: u32,
}

/// Flow control returned by a neighbour callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborFlow {
    /// Keep enumerating neighbours of this query.
    Continue,
    /// Stop this query early (the early-exit optimisation); other queries of
    /// a batch are unaffected.
    Stop,
}

/// Which backend a [`NeighborIndexBuilder`] constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Binary BVH, one ray at a time — the traversal oracle.
    BinaryBvh,
    /// Collapsed BVH4 scene walked by fixed-size ray packets.
    WideBatched,
    /// Regular grid with cell side ε (CUDA-DClust+ style).
    UniformGrid,
    /// Exact linear scan per query — the correctness oracle.
    BruteForce,
}

impl IndexKind {
    /// Every backend, in oracle-last order.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::BinaryBvh,
        IndexKind::WideBatched,
        IndexKind::UniformGrid,
        IndexKind::BruteForce,
    ];

    /// Human-readable backend name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::BinaryBvh => "binary-bvh",
            IndexKind::WideBatched => "wide-batched",
            IndexKind::UniformGrid => "uniform-grid",
            IndexKind::BruteForce => "brute-force",
        }
    }

    /// True for the BVH-backed kinds (the ones the RT cores can traverse).
    pub fn is_bvh(&self) -> bool {
        matches!(self, IndexKind::BinaryBvh | IndexKind::WideBatched)
    }
}

/// How sphere primitives are presented to the (simulated) hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GeometryKind {
    /// Custom sphere primitives with a user Intersection program — the
    /// configuration RT-DBSCAN uses.
    #[default]
    CustomSpheres,
    /// Spheres tessellated into triangles so the hardware ray–triangle unit
    /// can be used.  Every accepted hit must then go through the AnyHit
    /// program, which Section VI-C measures as a 2–5× slowdown.
    TriangleSpheres {
        /// Number of triangles each sphere is tessellated into.
        triangles_per_sphere: u32,
    },
}

/// What a built backend can do, for callers that adapt to their substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCapabilities {
    /// Which backend this is.
    pub kind: IndexKind,
    /// Queries are answered by native ray-packet traversal (every wide node
    /// fetched once per packet) rather than one query at a time.
    pub batched: bool,
    /// The backend merged exactly coincident points into one primitive with
    /// a multiplicity count; [`Neighbor::index`] values are representatives.
    pub compacting: bool,
    /// [`NeighborIndex::remove`] is supported (the refit hook streaming
    /// maintenance relies on).
    pub refittable: bool,
    /// Traversal work is chargeable to the RT-core execution path of the
    /// device model (BVH-backed substrates only).
    pub rt_core: bool,
}

/// Single-query neighbour callback (may borrow mutable state).
pub type NeighborVisitor<'a> = dyn FnMut(Neighbor, &mut WorkCounters) -> NeighborFlow + 'a;

/// Batched neighbour callback: `(query ordinal, neighbour, packet-local
/// counters)`.  Must be `Sync` — backends may answer packets in parallel.
pub type NeighborSink<'a> = dyn Fn(usize, Neighbor, &mut WorkCounters) -> NeighborFlow + Sync + 'a;

/// A built fixed-radius neighbour-search backend over an immutable point
/// set (plus a removal hook for the streaming shape).
///
/// The index is built for a fixed radius ε; queries may use any `eps` up to
/// the build radius (the structure only guarantees completeness within it).
/// The neighbour rule is the workspace-wide closed ball on squared `f32`
/// distances: `q` is a neighbour of `p` iff `dist²(p, q) <= eps²`.
///
/// Backends count their own work: one `dist_comps` per candidate tested
/// (exactly as the OptiX-style Intersection programs counted before this
/// layer existed), `prim_tests` / node visits from the traversal itself, and
/// one ray per query on the BVH substrates.
pub trait NeighborIndex: std::fmt::Debug + Send + Sync {
    /// Number of points the index holds: those it was built over, less
    /// those [`NeighborIndex::remove`] retired.
    fn len(&self) -> usize;

    /// True if the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The build radius ε.
    fn eps(&self) -> f32;

    /// What this backend is and what it can do.
    fn capabilities(&self) -> IndexCapabilities;

    /// Work performed while building the index (including compaction and,
    /// for the wide backend, the BVH4 collapse).
    fn build_counters(&self) -> WorkCounters;

    /// Total counted work so far: build plus every query answered.
    fn counters(&self) -> WorkCounters;

    /// Simulated device-memory footprint of the index structure in bytes
    /// (the structure only — callers account for their own state).
    fn device_bytes(&self) -> u64;

    /// The representative of a point under compaction (identity for
    /// non-compacting backends).  Neighbour callbacks only ever see
    /// representatives; a query point's own group is reported with the full
    /// group multiplicity, which is why a self-join count starts at −1
    /// (see [`NeighborIndex::batch_neighbor_counts`]).
    fn representative_of(&self, index: u32) -> u32 {
        index
    }

    /// Visit every neighbour of `query` within `eps` (closed ball), skipping
    /// `exclude`, until the visitor returns [`NeighborFlow::Stop`].  Work is
    /// added to `counters` (and to [`NeighborIndex::counters`]).
    fn for_each_neighbor(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        visit: &mut NeighborVisitor<'_>,
    );

    /// Answer many queries at once; `sink` receives `(query ordinal,
    /// neighbour, packet-local counters)`.  No self-exclusion is applied —
    /// batch callers filter in the sink (they know their own launch
    /// semantics).  Backends may parallelise; counters are accumulated in
    /// deterministic (packet) order, so totals never depend on thread count.
    fn batch_neighbors(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    );

    /// Answer many queries at once in **count output mode** — the stage-1
    /// hot path: `counts[q]` accumulates the multiplicity-weighted number
    /// of neighbours of `queries[q]`, with no per-neighbour callback on the
    /// way (backends may flush one count per query per packet instead of
    /// paying a dynamic sink call for every reported neighbour).
    ///
    /// `counts` entries for the launched queries must start at zero.  Every
    /// hit adds its multiplicity.  With `exclude_self`, the launch uses the
    /// self-join convention of DBSCAN stage 1: `queries` are the indexed
    /// points in index order, so each query's own point hits at distance
    /// zero, and its count starts at −1 (the point itself does not count).
    /// No backend needs [`NeighborIndex::representative_of`] for this.
    /// The same convention fixes the launch order: a wide BVH index whose
    /// LBVH build kept its Morton permutation launches an `exclude_self`
    /// count over all of its points under [`QueryOrder::Morton`] in that
    /// order, the order a sort of those queries would give, without
    /// sorting them.
    ///
    /// Without `early_exit` every count is exact: the sum of the hit
    /// multiplicities, minus one under `exclude_self`.  With
    /// `early_exit = Some(m)` (FDBSCAN's early exit; on RT hardware an
    /// any-hit program that terminates the ray), a query stops at the first
    /// candidate whose hit brings its count to `m`, and later candidates
    /// are neither tested nor charged.  Counts below `m` are then exact and
    /// a stopped count is at least `m`, so `count >= m` and `count > 0`
    /// read the same as under exact counting.  This default drives the rule
    /// through [`NeighborIndex::batch_neighbors`]; the overrides charge the
    /// same work without a per-neighbour callback.
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
        assert_eq!(
            queries.len(),
            counts.len(),
            "one count cell per launched query"
        );
        let cap = count_cap(exclude_self, early_exit);
        self.batch_neighbors(queries, eps, counters, &|q, neighbor, _| {
            let add = neighbor.multiplicity as u64;
            // ordering: Relaxed — the cell is a pure tally; the returned
            // running total only steers this worker's own early exit, and
            // the final values are read after the launch joins.
            if counts[q].fetch_add(add, Ordering::Relaxed) + add >= cap {
                NeighborFlow::Stop
            } else {
                NeighborFlow::Continue
            }
        });
        if exclude_self {
            // ordering: Relaxed — the launch has joined; this thread alone
            // touches the cells until the caller reads them.
            for cell in counts {
                cell.store(
                    cell.load(Ordering::Relaxed).saturating_sub(1),
                    Ordering::Relaxed,
                );
            }
        }
    }

    /// [`NeighborIndex::batch_neighbors`] under a [`CancelScope`]: the
    /// launch winds down cooperatively once the scope's deadline passes or
    /// its token is cancelled, returning [`Error::DeadlineExceeded`] with
    /// the counters of the work performed.  **On error the sink may have
    /// seen a partial, arbitrary subset of emissions — callers must discard
    /// everything it collected.**  On success, behaviour, output and the
    /// counters added to `counters` are bit-identical to
    /// [`NeighborIndex::batch_neighbors`] (with [`CancelScope::none`] the
    /// identity is unconditional).
    ///
    /// This default checks the scope at launch granularity; the packeted
    /// backends override it with per-packet and wide-node-frontier checks.
    fn batch_neighbors_cancellable(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
        scope: &CancelScope,
    ) -> Result<()> {
        if scope.should_stop() {
            return Err(deadline_exceeded(self.telemetry(), WorkCounters::ZERO));
        }
        // A trip during the uncancellable inner launch is only noticed on
        // the next call; the completed answer is correct, so return it.
        self.batch_neighbors(queries, eps, counters, sink);
        Ok(())
    }

    /// [`NeighborIndex::batch_neighbor_counts`] under a [`CancelScope`]
    /// (see [`NeighborIndex::batch_neighbors_cancellable`] for the
    /// semantics).  **On error the `counts` cells hold garbage** — a
    /// partial, launch-order-dependent subset of the tallies — and must be
    /// zeroed before reuse.
    #[allow(clippy::too_many_arguments)]
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
        if scope.should_stop() {
            return Err(deadline_exceeded(self.telemetry(), WorkCounters::ZERO));
        }
        self.batch_neighbor_counts(queries, eps, exclude_self, early_exit, counters, counts);
        Ok(())
    }

    /// Answer many queries at once in **CSR output mode**: the neighbour
    /// lists land in `out` as flat `offsets` + `indices` arrays (rebuilt in
    /// place, reusing `out`'s capacity) instead of flowing through a
    /// callback.  Semantics match [`NeighborIndex::batch_neighbors`]: no
    /// self-exclusion, neighbour ids are representatives, and the counted
    /// work is identical to a callback-mode launch of the same queries.
    /// Within each row, neighbours appear in the backend's emission order.
    fn batch_neighbors_csr_into(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        out: &mut CsrNeighbors,
    ) {
        use parking_lot::Mutex;
        // Pairs are pushed under a lock; a query's pairs all come from the
        // one worker that owns its packet, so within-row order stays
        // deterministic and the counting-sort rebuild restores row order.
        let pairs: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
        self.batch_neighbors(queries, eps, counters, &|q, neighbor, _| {
            pairs.lock().push((q as u32, neighbor.index));
            NeighborFlow::Continue
        });
        out.rebuild_from_pairs(queries.len(), &pairs.into_inner());
    }

    /// [`NeighborIndex::batch_neighbors_csr_into`] into a fresh
    /// [`CsrNeighbors`].
    fn batch_neighbors_csr(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
    ) -> CsrNeighbors {
        let mut out = CsrNeighbors::new();
        self.batch_neighbors_csr_into(queries, eps, counters, &mut out);
        out
    }

    /// Retire points from the index in place (streaming refit hook): each
    /// id in `retired` must be a point the index still holds, and
    /// [`NeighborIndex::len`] falls by `retired.len()`.  Returns the
    /// maintenance work performed.  Backends that cannot refit report
    /// [`Error::InvalidConfig`], and so does a compacting BVH index (a
    /// merged primitive stands for several points).
    ///
    /// The binary oracle refits its binary tree.  The wide backends keep
    /// no binary tree: they compact each BVH4 leaf's survivors in the
    /// primitive lanes and refit the BVH4 in one reverse sweep
    /// ([`crate::bvh::WideBvh::remove_points`]); a shard left empty drops
    /// its BLAS.  Answers afterwards equal a fresh build's over the
    /// survivors; traversal counters may differ, because the refitted tree
    /// keeps its topology.
    fn remove(&mut self, retired: &[u32]) -> Result<WorkCounters> {
        let _ = retired;
        Err(Error::InvalidConfig(format!(
            "{} index does not support in-place removal",
            self.capabilities().kind.name()
        )))
    }

    /// The live telemetry handle this index records into, when it was
    /// built with an enabled [`TelemetryConfig`].  Callers clone the
    /// handle to scope their own phases (stage launches, streaming
    /// slides) into the same timeline as the index's build and reorder
    /// spans.
    fn telemetry(&self) -> Option<&Telemetry> {
        None
    }

    /// The per-node visit heatmap, when the index was built with
    /// [`TelemetryConfig::Profile`] on a BVH substrate.
    fn heatmap(&self) -> Option<&NodeHeatmap> {
        None
    }

    /// Downcast to the two-level sharded backend, when this index is one —
    /// the read-only entry point for shard inspection
    /// ([`ShardedIndex::shard_count`], [`ShardedIndex::owner_shard`]).
    fn as_sharded(&self) -> Option<&ShardedIndex> {
        None
    }

    /// Mutable downcast to the sharded backend — the entry point for the
    /// recovery verbs ([`ShardedIndex::quarantine_shard`],
    /// [`ShardedIndex::recover`], [`ShardedIndex::enforce_budget`]) that
    /// need `&mut` access.  `None` for every other kind.
    fn as_sharded_mut(&mut self) -> Option<&mut ShardedIndex> {
        None
    }

    /// Convenience: collect the neighbour indices of `query` (excluding
    /// `exclude`), expanding multiplicities is the caller's business.
    fn neighbors_of(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_neighbor(query, eps, exclude, counters, &mut |n, _| {
            out.push(n.index);
            NeighborFlow::Continue
        });
        out
    }
}

/// Items per merge chunk for a parallel launch of `count` items.
///
/// A pure function of `count` (never of thread count): chunk boundaries are
/// part of the deterministic merge order.  Fine-grained launches (one item
/// per query) merge 64 items locally per chunk instead of materialising one
/// [`WorkCounters`] per item; coarse launches (one item per ray packet)
/// keep one item per chunk so parallelism is not starved.
pub(crate) fn merge_chunk_size(count: usize) -> usize {
    (count / 512).clamp(1, 64)
}

/// Shared batched-launch dispatch: run `one(ordinal)` for every work item
/// (a query, or a packet of queries), in parallel when `parallel` is set.
///
/// Counters merge **per chunk**: each chunk of consecutive items folds its
/// counters locally and the chunk totals are folded in chunk order.
/// Saturating addition is associative, so the grand total is bit-identical
/// to the old one-`WorkCounters`-per-item fold (unit-tested, saturation
/// included) while the parallel path materialises `count / chunk` counter
/// values instead of `count`.  Totals never depend on thread count — the
/// determinism contract every [`NeighborIndex::batch_neighbors`]
/// implementation promises.
pub(crate) fn dispatch_batch(
    count: usize,
    parallel: bool,
    one: impl Fn(usize) -> WorkCounters + Sync,
) -> WorkCounters {
    use rayon::prelude::*;
    let mut total = WorkCounters::ZERO;
    if parallel {
        let chunk = merge_chunk_size(count);
        let chunks = count.div_ceil(chunk);
        let per: Vec<WorkCounters> = (0..chunks)
            .into_par_iter()
            .map(|c| {
                let mut local = WorkCounters::ZERO;
                for ordinal in c * chunk..((c + 1) * chunk).min(count) {
                    local += one(ordinal);
                }
                local
            })
            .collect();
        for c in per {
            total += c;
        }
    } else {
        for ordinal in 0..count {
            total += one(ordinal);
        }
    }
    total
}

/// The stop threshold of a count launch on the raw hit sum, which includes
/// the query's own point (see [`NeighborIndex::batch_neighbor_counts`]):
/// a count of `m` under `exclude_self` is a raw sum of `m + 1`.  At least
/// 1, so a query only ever stops on a hit; `u64::MAX` when the launch
/// counts exactly.
#[inline]
pub(crate) fn count_cap(exclude_self: bool, early_exit: Option<u64>) -> u64 {
    early_exit.map_or(u64::MAX, |m| m.saturating_add(exclude_self as u64).max(1))
}

/// Shared candidate accounting: every candidate a backend's exact filter
/// touches costs one `dist_comps`; the triangle-tessellation ablation
/// additionally pays the tessellated primitive tests and one AnyHit bounce
/// per candidate, the way an OptiX pipeline charges it.
#[inline]
pub(crate) fn charge_candidate(geometry: GeometryKind, counters: &mut WorkCounters) {
    if let GeometryKind::TriangleSpheres {
        triangles_per_sphere,
    } = geometry
    {
        sat_bump(
            &mut counters.prim_tests,
            triangles_per_sphere.saturating_sub(1) as u64,
        );
        sat_bump(&mut counters.anyhit_invocations, 1);
    }
    sat_bump(&mut counters.dist_comps, 1);
}

/// [`charge_candidate`] hoisted over a run of `n` candidates — one add per
/// run instead of one per candidate, with identical totals.
#[inline]
pub(crate) fn charge_candidates(geometry: GeometryKind, n: u64, counters: &mut WorkCounters) {
    if let GeometryKind::TriangleSpheres {
        triangles_per_sphere,
    } = geometry
    {
        sat_bump(
            &mut counters.prim_tests,
            triangles_per_sphere.saturating_sub(1) as u64 * n,
        );
        sat_bump(&mut counters.anyhit_invocations, n);
    }
    sat_bump(&mut counters.dist_comps, n);
}

/// Reverse [`charge_candidates`] for the untested tail of a run a query
/// abandoned at early exit, so hoisted charging matches the per-candidate
/// path exactly.  Only ever subtracts charges added earlier in the same
/// run.
#[inline]
pub(crate) fn uncharge_candidates(geometry: GeometryKind, n: u64, counters: &mut WorkCounters) {
    if let GeometryKind::TriangleSpheres {
        triangles_per_sphere,
    } = geometry
    {
        counters.prim_tests -= triangles_per_sphere.saturating_sub(1) as u64 * n;
        counters.anyhit_invocations -= n;
    }
    counters.dist_comps -= n;
}

/// Configuration from which any [`NeighborIndex`] backend is built.
///
/// The BVH-specific knobs (`bvh_builder`, `max_leaf_size`, `compaction`,
/// `geometry`) are ignored by the grid and brute-force kinds; `batch_size`
/// only affects [`IndexKind::WideBatched`].  [`NeighborIndexBuilder::validate`]
/// rejects contradictory settings eagerly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborIndexBuilder {
    /// Which backend to construct.
    pub kind: IndexKind,
    /// BVH construction algorithm (BVH kinds only).
    pub bvh_builder: BuilderKind,
    /// Maximum primitives per BVH leaf (BVH kinds only).
    pub max_leaf_size: usize,
    /// Merge exactly coincident points into one primitive with a
    /// multiplicity count (BVH kinds only — the RT device builder's pass).
    pub compaction: bool,
    /// How ε-spheres are presented to the traversal (BVH kinds only;
    /// [`GeometryKind::TriangleSpheres`] reproduces the Section VI-C
    /// ablation).
    pub geometry: GeometryKind,
    /// Rays per packet for [`IndexKind::WideBatched`]; packet boundaries are
    /// fixed, so counters never depend on thread count.
    pub batch_size: usize,
    /// Batches smaller than this answer sequentially instead of through the
    /// parallel launch.
    pub min_parallel_launch: usize,
    /// In what order batched launches feed queries into packets
    /// ([`IndexKind::WideBatched`] only — per-query backends have no
    /// packets to make coherent).  Outputs are restored to caller order
    /// bit-identically either way; see [`QueryOrder`].
    pub query_order: QueryOrder,
    /// SIMD policy for the wide-batched hit-mask and leaf-distance
    /// kernels, resolved once per index build; see [`SimdPolicy`].
    pub simd: SimdPolicy,
    /// Logical parallelism of acceleration-structure construction (the LBVH
    /// encode/sort/emit and the BVH4 collapse).  The built structure is
    /// bit-identical for every setting —
    /// [`BuildParallelism::Sequential`] (the default) runs it on one
    /// thread; other settings charge the same counters apart from the
    /// parallel-only `build_chunk_merges` and `build_splice_ops`.  BVH kinds only; with sharding the budget is divided
    /// across the already-parallel per-shard builds so the pool is never
    /// oversubscribed.
    pub build_parallelism: BuildParallelism,
    /// How much telemetry the built index records (phase spans, launch
    /// metrics, and — under [`TelemetryConfig::Profile`] on a BVH kind —
    /// the per-node visit heatmap).  [`TelemetryConfig::Off`] compiles the
    /// hot paths to the exact pre-telemetry code.
    pub telemetry: TelemetryConfig,
    /// Build a two-level scene ([`ShardedIndex`]) instead of one flat BVH:
    /// the Morton-sorted primitives are cut into shards of at most
    /// `max_shard_size`, each shard owns a bottom-level wide scene built in
    /// parallel, and a top-level BVH (TLAS) routes queries to the shards
    /// they overlap.  [`IndexKind::WideBatched`] only.
    ///
    /// ```
    /// use rtcore::geometry::Point3;
    /// use rtcore::index::{IndexKind, NeighborIndexBuilder, ShardingConfig};
    ///
    /// let pts: Vec<Point3> = (0..1000)
    ///     .map(|i| Point3::new(i as f32 * 0.01, 0.0, 0.0))
    ///     .collect();
    /// let index = NeighborIndexBuilder {
    ///     sharding: Some(ShardingConfig::new(128)),
    ///     ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    /// }
    /// .build(&pts, 0.05)
    /// .unwrap();
    /// // Same trait surface, same answers as the flat backend.
    /// let mut c = rtcore::hardware::WorkCounters::ZERO;
    /// assert!(index.neighbors_of(pts[0], 0.05, Some(0), &mut c).contains(&1));
    /// assert!(index.as_sharded().unwrap().shard_count() > 1);
    /// ```
    pub sharding: Option<ShardingConfig>,
    /// Simulated device-memory budget for the built structure.  On
    /// pressure a sharded scene first evicts its coldest shard BLASes to
    /// rebuild-on-demand; a build that still does not fit is refused with
    /// [`Error::OverBudget`].
    /// Degradations are observable under
    /// [`crate::telemetry::PhaseKind::Degrade`] spans.  The default is
    /// [`MemoryBudget::Unlimited`], which changes nothing.
    pub memory_budget: MemoryBudget,
    /// Deterministic fault-injection schedule threaded to the built
    /// index's failpoints (see [`crate::fault`]).  Only probed when the
    /// `fault-inject` cargo feature is compiled in; the default
    /// [`FaultPlan::Off`] arms nothing either way.
    pub fault: FaultPlan,
}

impl NeighborIndexBuilder {
    /// A builder for `kind` with the workspace-default knobs.
    pub fn new(kind: IndexKind) -> Self {
        NeighborIndexBuilder {
            kind,
            bvh_builder: BuilderKind::BinnedSah,
            max_leaf_size: 4,
            compaction: false,
            geometry: GeometryKind::CustomSpheres,
            batch_size: 512,
            min_parallel_launch: 256,
            query_order: QueryOrder::AsGiven,
            simd: SimdPolicy::Auto,
            build_parallelism: BuildParallelism::Sequential,
            telemetry: TelemetryConfig::Off,
            sharding: None,
            memory_budget: MemoryBudget::Unlimited,
            fault: FaultPlan::Off,
        }
    }

    /// Check the configuration for contradictions without building.
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(Error::InvalidConfig("batch_size must be at least 1".into()));
        }
        if self.max_leaf_size == 0 {
            return Err(Error::InvalidConfig(
                "max_leaf_size must be at least 1".into(),
            ));
        }
        if self.build_parallelism != BuildParallelism::Sequential && !self.kind.is_bvh() {
            return Err(Error::InvalidConfig(format!(
                "build_parallelism configures BVH construction; the {} index has no \
                 parallel build",
                self.kind.name()
            )));
        }
        if let BuildParallelism::Threads(t) = self.build_parallelism {
            if t == 0 {
                return Err(Error::InvalidConfig(
                    "build_parallelism thread count must be at least 1".into(),
                ));
            }
        }
        if self.compaction && !self.kind.is_bvh() {
            return Err(Error::InvalidConfig(format!(
                "compaction is a BVH device-builder pass; the {} index cannot apply it",
                self.kind.name()
            )));
        }
        if self.telemetry.heatmap_enabled() && !self.kind.is_bvh() {
            return Err(Error::InvalidConfig(format!(
                "the node-visit heatmap profiles BVH traversal; the {} index has no \
                 nodes to profile (use TelemetryConfig::Spans instead)",
                self.kind.name()
            )));
        }
        if let Some(sharding) = self.sharding {
            if self.kind != IndexKind::WideBatched {
                return Err(Error::InvalidConfig(format!(
                    "sharding builds a TLAS over wide-batched bottom-level scenes; \
                     the {} index cannot shard",
                    self.kind.name()
                )));
            }
            if sharding.max_shard_size == 0 {
                return Err(Error::InvalidConfig(
                    "max_shard_size must be at least 1".into(),
                ));
            }
            if sharding.max_shard_size < self.max_leaf_size {
                return Err(Error::InvalidConfig(format!(
                    "max_shard_size ({}) must be at least max_leaf_size ({}): a shard \
                     holds at least one full leaf",
                    sharding.max_shard_size, self.max_leaf_size
                )));
            }
        }
        match self.geometry {
            GeometryKind::CustomSpheres => {}
            GeometryKind::TriangleSpheres {
                triangles_per_sphere,
            } => {
                if !self.kind.is_bvh() {
                    return Err(Error::InvalidConfig(format!(
                        "triangle-tessellated geometry requires a BVH index, not {}",
                        self.kind.name()
                    )));
                }
                if triangles_per_sphere == 0 {
                    return Err(Error::InvalidConfig(
                        "triangles_per_sphere must be at least 1".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Build the configured backend over `points` with radius `eps`.
    ///
    /// Fails on an invalid configuration, a non-positive or non-finite
    /// `eps`, or non-finite input points.
    pub fn build(&self, points: &[Point3], eps: f32) -> Result<Box<dyn NeighborIndex>> {
        self.validate()?;
        if !eps.is_finite() || eps <= 0.0 {
            return Err(Error::InvalidConfig(format!(
                "index radius (eps) must be positive and finite, got {eps}"
            )));
        }
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(Error::InvalidPrimitive {
                index: bad,
                reason: format!("non-finite point {:?}", points[bad]),
            });
        }
        Ok(match self.kind {
            IndexKind::BinaryBvh => Box::new(BinaryBvhIndex::build(self, points, eps)?),
            IndexKind::WideBatched if self.sharding.is_some() => {
                Box::new(ShardedIndex::build(self, points, eps)?)
            }
            IndexKind::WideBatched => Box::new(WideBatchedIndex::build(self, points, eps)?),
            IndexKind::UniformGrid => Box::new(UniformGridIndex::build(self, points, eps)?),
            IndexKind::BruteForce => Box::new(BruteForceIndex::build(self, points, eps)?),
        })
    }
}

/// The [`Error::DeadlineExceeded`] a cancellable launch returns, carrying
/// the counters of the work done before the trip, counted as one
/// `deadline_trips` in the index's metrics registry when telemetry
/// records.
pub(crate) fn deadline_exceeded(telemetry: Option<&Telemetry>, partial: WorkCounters) -> Error {
    if let Some(metrics) = telemetry.and_then(Telemetry::metrics) {
        metrics.incr("deadline_trips", 1);
    }
    Error::DeadlineExceeded {
        partial: Box::new(partial),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n_side: usize, spacing: f32) -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point3::new(i as f32 * spacing, j as f32 * spacing, 0.0));
            }
        }
        pts
    }

    fn brute_reference(points: &[Point3], q: Point3, exclude: Option<u32>, eps: f32) -> Vec<u32> {
        let mut out: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|&(j, p)| Some(j as u32) != exclude && q.distance_squared(*p) <= eps * eps)
            .map(|(j, _)| j as u32)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn every_backend_matches_the_brute_reference() {
        let pts = grid_points(13, 0.5);
        let eps = 0.8f32;
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind).build(&pts, eps).unwrap();
            assert_eq!(index.len(), pts.len());
            assert_eq!(index.eps(), eps);
            assert_eq!(index.capabilities().kind, kind);
            let mut c = WorkCounters::ZERO;
            for q in [0usize, 7, 84, 168] {
                let mut got = index.neighbors_of(pts[q], eps, Some(q as u32), &mut c);
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute_reference(&pts, pts[q], Some(q as u32), eps),
                    "{kind:?} query {q}"
                );
            }
            assert!(c.dist_comps > 0, "{kind:?} must count candidate tests");
        }
    }

    #[test]
    fn batch_and_single_queries_agree() {
        let pts = grid_points(9, 0.4);
        let eps = 0.6f32;
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind).build(&pts, eps).unwrap();
            let mut single = vec![Vec::new(); pts.len()];
            let mut c = WorkCounters::ZERO;
            for (i, &p) in pts.iter().enumerate() {
                single[i] = index.neighbors_of(p, eps, None, &mut c);
                single[i].sort_unstable();
            }
            let batched: Vec<std::sync::Mutex<Vec<u32>>> = (0..pts.len())
                .map(|_| std::sync::Mutex::new(Vec::new()))
                .collect();
            let mut bc = WorkCounters::ZERO;
            index.batch_neighbors(&pts, eps, &mut bc, &|q, n, _| {
                batched[q].lock().unwrap().push(n.index);
                NeighborFlow::Continue
            });
            for (i, m) in batched.iter().enumerate() {
                let mut got = m.lock().unwrap().clone();
                got.sort_unstable();
                assert_eq!(got, single[i], "{kind:?} query {i}");
            }
        }
    }

    #[test]
    fn early_stop_is_honoured_per_query() {
        let pts = grid_points(10, 0.1);
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind).build(&pts, 5.0).unwrap();
            let mut seen = 0usize;
            let mut c = WorkCounters::ZERO;
            index.for_each_neighbor(pts[0], 5.0, Some(0), &mut c, &mut |_, _| {
                seen += 1;
                if seen >= 3 {
                    NeighborFlow::Stop
                } else {
                    NeighborFlow::Continue
                }
            });
            assert_eq!(seen, 3, "{kind:?}");
        }
    }

    #[test]
    fn empty_point_sets_answer_empty() {
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind).build(&[], 1.0).unwrap();
            assert!(index.is_empty());
            let mut c = WorkCounters::ZERO;
            assert!(index
                .neighbors_of(Point3::ORIGIN, 1.0, None, &mut c)
                .is_empty());
            assert_eq!(index.device_bytes(), index.device_bytes());
        }
    }

    #[test]
    fn builder_rejects_contradictory_configurations() {
        let pts = grid_points(3, 1.0);
        let zero_batch = NeighborIndexBuilder {
            batch_size: 0,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        };
        assert!(matches!(
            zero_batch.build(&pts, 1.0),
            Err(Error::InvalidConfig(_))
        ));
        let grid_compaction = NeighborIndexBuilder {
            compaction: true,
            ..NeighborIndexBuilder::new(IndexKind::UniformGrid)
        };
        assert!(grid_compaction.validate().is_err());
        let brute_triangles = NeighborIndexBuilder {
            geometry: GeometryKind::TriangleSpheres {
                triangles_per_sphere: 12,
            },
            ..NeighborIndexBuilder::new(IndexKind::BruteForce)
        };
        assert!(brute_triangles.validate().is_err());
        for kind in IndexKind::ALL {
            let b = NeighborIndexBuilder::new(kind);
            assert!(b.build(&pts, 0.0).is_err(), "{kind:?} zero eps");
            assert!(b.build(&pts, f32::NAN).is_err(), "{kind:?} NaN eps");
            assert!(
                b.build(&[Point3::new(f32::NAN, 0.0, 0.0)], 1.0).is_err(),
                "{kind:?} NaN point"
            );
        }
    }

    #[test]
    fn default_geometry_is_custom_spheres() {
        assert_eq!(GeometryKind::default(), GeometryKind::CustomSpheres);
    }

    #[test]
    fn triangle_geometry_charges_anyhit() {
        let pts = grid_points(12, 0.2);
        for kind in [IndexKind::BinaryBvh, IndexKind::WideBatched] {
            let run = |geometry| {
                let index = NeighborIndexBuilder {
                    geometry,
                    ..NeighborIndexBuilder::new(kind)
                }
                .build(&pts, 0.25)
                .unwrap();
                let mut counters = WorkCounters::ZERO;
                let csr = index.batch_neighbors_csr(&pts, 0.25, &mut counters);
                let rows: Vec<Vec<u32>> =
                    (0..pts.len()).map(|q| csr.neighbors(q).to_vec()).collect();
                (rows, counters)
            };
            let (sphere_rows, sphere) = run(GeometryKind::CustomSpheres);
            let (tri_rows, tri) = run(GeometryKind::TriangleSpheres {
                triangles_per_sphere: 20,
            });
            // Same results …
            assert_eq!(sphere_rows, tri_rows, "{kind:?}");
            // … but the triangle path performs strictly more primitive tests
            // and invokes AnyHit, while the sphere path never does.
            assert_eq!(sphere.anyhit_invocations, 0, "{kind:?}");
            assert!(tri.anyhit_invocations > 0, "{kind:?}");
            assert!(tri.prim_tests > sphere.prim_tests, "{kind:?}");
        }
    }

    #[test]
    fn per_chunk_merging_matches_per_item_merging_even_at_saturation() {
        // The parallel dispatch folds counters per chunk; saturating
        // addition is associative, so the grand total must equal the plain
        // per-item fold bit for bit — including when intermediate sums
        // clamp at u64::MAX.
        let near_max = |i: usize| WorkCounters {
            rays: u64::MAX / 3,
            dist_comps: (i as u64 + 1) * 1000,
            prim_tests: u64::MAX,
            ..WorkCounters::ZERO
        };
        for count in [0usize, 1, 7, 64, 65, 1000, 40_000] {
            let sequential = dispatch_batch(count, false, near_max);
            let parallel = dispatch_batch(count, true, near_max);
            assert_eq!(sequential, parallel, "count {count}");
            if count >= 3 {
                assert_eq!(sequential.rays, u64::MAX, "count {count} must saturate");
                assert_eq!(sequential.prim_tests, u64::MAX);
            }
        }
        // Chunk sizing is a pure function of item count, never thread
        // count: fine-grained launches chunk up, coarse ones stay 1:1.
        assert_eq!(merge_chunk_size(0), 1);
        assert_eq!(merge_chunk_size(196), 1);
        assert_eq!(merge_chunk_size(100_000), 64);
    }

    #[test]
    fn counters_accumulate_behind_the_trait_object() {
        let pts = grid_points(8, 0.5);
        let index: Box<dyn NeighborIndex> = NeighborIndexBuilder::new(IndexKind::BinaryBvh)
            .build(&pts, 0.8)
            .unwrap();
        let before = index.counters();
        assert_eq!(before, index.build_counters());
        let mut c = WorkCounters::ZERO;
        let _ = index.neighbors_of(pts[0], 0.8, Some(0), &mut c);
        let after = index.counters();
        assert_eq!(after.dist_comps - before.dist_comps, c.dist_comps);
        assert!(after.rays > before.rays);
    }
}
