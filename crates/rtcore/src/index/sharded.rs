//! [`ShardedIndex`]: the two-level (TLAS over sharded BLAS) neighbour-search
//! backend.
//!
//! The flat [`super::WideBatchedIndex`] builds one BVH over the whole scene;
//! this backend cuts the same Morton-sorted primitive array into contiguous
//! shards ([`crate::bvh::tlas::plan_shards`]), builds one bottom-level wide
//! scene per shard **in parallel**, and answers queries by routing each
//! packet through a small top-level BVH, then reusing the existing
//! wavefront packet engine per BLAS.  Routing bounds the packet's origins,
//! descends the TLAS once with that box, and tests each ray only against
//! the leaf boxes it reaches — under Morton order a packet mostly lies in
//! one shard, so this costs about one descent per packet instead of one
//! per ray, for the same `(shard, ray)` plan.  A scattered packet (caller
//! order) whose box reaches more than [`PACKET_PLAN_MAX_LEAVES`] answering
//! leaves is planned by one descent per ray instead, which is cheaper than
//! testing every ray against every reached leaf.
//!
//! # Equivalence to the flat path
//!
//! With the LBVH builder, every BLAS is bit-identical to the corresponding
//! subtree of the flat LBVH (see [`crate::bvh::tlas`]), so the *leaf* boxes
//! — the only structure that decides which candidates are charged — are the
//! same.  The TLAS gate uses the same [`Aabb::intersects_ray`] predicate as
//! the engines' root gates and is therefore conservative, so the union of
//! per-BLAS candidate sets equals the flat candidate set exactly: neighbour
//! sets, CSR rows, counts, and the `dist_comps` / `prim_tests` counters all
//! match the flat wide-batched launch.  Counters that measure *structure
//! walked* rather than *candidates charged* (`rays`, `aabb_tests`,
//! `wide_node_visits`, `batched_launches`) legitimately differ; the sharded
//! backend additionally charges `tlas_node_visits` and one `blas_launches`
//! per (packet, overlapping shard) engine dispatch.
//!
//! Count launches honour `early_exit` per packet: each shard sub-launch
//! stops a query once that shard's hits reach the cap, and a query whose
//! packet cell has reached it sits out the packet's later sub-launches.  A
//! query whose hits are split across shards may never stop; its count is
//! then exact, so `count >= min` core decisions are the flat path's.
//! Sub-launches run in shard order on the packet's worker, so where a
//! query stops depends only on the input.  Packet plans, per-shard
//! sub-lists and count cells live in pooled, grow-only scratch, so warm
//! launches allocate nothing, as on the flat path.

use super::bvh_backend::{build_tree, caller_ordinal};
use super::{
    charge_candidate, GeometryKind, IndexCapabilities, IndexKind, Neighbor, NeighborFlow,
    NeighborIndex, NeighborIndexBuilder, NeighborSink, NeighborVisitor, WideBatchedIndex,
};
use crate::bvh::build::scene_from_points;
use crate::bvh::tlas::{cut_shards, Tlas};
use crate::error::{Error, Result};
use crate::fault::{CancelScope, FaultInjector, FaultPlan, FaultSite, MemoryBudget, RetryPolicy};
use crate::geometry::{Aabb, Point3, Ray, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::telemetry::{
    NodeHeatmap, PhaseKind, Telemetry, DIST_COMPS_BUCKETS, LATENCY_US_BUCKETS, OCCUPANCY_BUCKETS,
};
use crate::traversal::{launch_order, LaunchOrder, QueryOrder, ReorderScratch, ScratchPool};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// The most answering TLAS leaves a packet's box may reach and still be
/// planned by testing each ray against each reached leaf.  Beyond it the
/// packet is planned by one TLAS descent per ray, whose cost does not grow
/// with the leaves the packet box spans: each ray then pops about two nodes
/// per level, about 12 below the root of a TLAS over 64 shards, against
/// one test per reached leaf in the packet plan.
const PACKET_PLAN_MAX_LEAVES: usize = 12;

/// Why a shard's BLAS is quarantined (see [`ShardedIndex::quarantine_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The per-shard BLAS build failed (an injected collapse fault);
    /// the scene construction degraded the shard instead of failing.
    BuildFailed,
    /// A [`crate::fault::FaultSite::ShardBlasPoison`] failpoint marked the
    /// shard's BLAS as corrupt at build time.
    Poisoned,
    /// [`ShardedIndex::verify_shards`] found a broken structural invariant.
    ValidationFailed,
    /// A [`MemoryBudget`] eviction dropped the BLAS; the primitives stay
    /// resident and the shard rebuilds on the next [`ShardedIndex::recover`].
    Evicted,
}

impl QuarantineReason {
    /// Stable snake_case name used in reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            QuarantineReason::BuildFailed => "build_failed",
            QuarantineReason::Poisoned => "poisoned",
            QuarantineReason::ValidationFailed => "validation_failed",
            QuarantineReason::Evicted => "evicted",
        }
    }
}

/// A quarantined shard: the BLAS is gone but the primitives are retained,
/// so queries fall back to an exact linear scan over them (correct, just
/// slower) until [`ShardedIndex::recover`] rebuilds the BLAS.
#[derive(Debug)]
struct DegradedShard {
    /// The shard's primitives, exactly as the live BLAS held them.
    spheres: Vec<Sphere>,
    /// Union of the sphere bounds — the TLAS leaf box, so the top level
    /// keeps routing overlapping queries here.
    bounds: Aabb,
    reason: QuarantineReason,
    /// Rebuild attempts consumed so far (bounded by [`RetryPolicy`]).
    attempts: u32,
    /// Recovery epoch before which retries are deferred (backoff).
    next_retry: u64,
}

impl DegradedShard {
    fn new(spheres: Vec<Sphere>, reason: QuarantineReason) -> Self {
        let bounds = spheres
            .iter()
            .fold(Aabb::EMPTY, |acc, s| acc.union(&s.bounds()));
        DegradedShard {
            spheres,
            bounds,
            reason,
            attempts: 0,
            next_retry: 0,
        }
    }
}

/// The state of one planned shard slot.
// `Live` dominates the enum size, but boxing it would add a pointer chase on
// every BLAS launch for the common all-healthy scene; slots are few (one per
// shard), so the wasted bytes in rare Degraded/Retired slots are negligible.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ShardSlot {
    /// Healthy: queries launch through the wavefront engine.
    Live(WideBatchedIndex),
    /// Quarantined: queries fall back to an exact scan (see
    /// [`DegradedShard`]); a bounded retry-with-backoff rebuild restores it.
    Degraded(DegradedShard),
    /// Every primitive was retired; the TLAS leaf is an empty box.
    Retired,
}

impl ShardSlot {
    fn live(&self) -> Option<&WideBatchedIndex> {
        match self {
            ShardSlot::Live(blas) => Some(blas),
            _ => None,
        }
    }

    /// Whether the slot still answers queries (live or degraded).
    fn answers(&self) -> bool {
        !matches!(self, ShardSlot::Retired)
    }

    /// The TLAS leaf box this slot contributes.
    fn bounds(&self) -> Aabb {
        match self {
            ShardSlot::Live(blas) => blas.root_bounds(),
            ShardSlot::Degraded(d) => d.bounds,
            ShardSlot::Retired => Aabb::EMPTY,
        }
    }
}

/// What one [`ShardedIndex::recover`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Shards whose BLAS was rebuilt and restored to live service.
    pub rebuilt: usize,
    /// Rebuild attempts that failed (the shard stays quarantined and its
    /// next retry is pushed out by the policy's backoff).
    pub failed: usize,
    /// Quarantined shards still inside their backoff window.
    pub deferred: usize,
    /// Quarantined shards whose retry budget is exhausted (they keep
    /// answering through the exact fallback indefinitely).
    pub exhausted: usize,
}

/// Per-worker reusable buffers for one sharded packet: the packet's query
/// origins, the (shard, packet position) launch plan, one shard's
/// sub-launch ids, and the packet-local count cells.
#[derive(Debug, Default)]
struct ShardScratch {
    /// The packet's query origins, gathered through the launch
    /// permutation (`origins[pos]` is packet position `pos`).
    origins: Vec<Point3>,
    /// `(shard, packet position)` pairs, sorted by shard so each shard's
    /// sub-launch is one contiguous run in packet order.
    pairs: Vec<(u32, u32)>,
    /// One shard's sub-launch ids: caller ordinals in sink mode, packet
    /// positions in count mode.
    sub_ids: Vec<u32>,
    counts: Vec<AtomicU64>,
}

/// Two-level neighbour-search backend: a TLAS over Morton-range shards,
/// each owning a bottom-level wide (BVH4) scene answered by the wavefront
/// packet engine.
///
/// Built through [`NeighborIndexBuilder`] by setting
/// [`NeighborIndexBuilder::sharding`] on the [`IndexKind::WideBatched`]
/// kind.  Streaming eviction drops whole BLASes: [`NeighborIndex::remove`]
/// routes retirements to their owning shards, and a shard whose last
/// primitive is refitted away becomes a `None` slot whose TLAS leaf is an
/// empty box.
#[derive(Debug)]
pub struct ShardedIndex {
    n: usize,
    eps: f32,
    batch_size: usize,
    min_parallel_launch: usize,
    query_order: QueryOrder,
    compacting: bool,
    max_shard_size: usize,
    representative_of: Vec<u32>,
    /// The build's Morton permutation of all `n` points, kept under
    /// [`QueryOrder::Morton`] for self-join count launches (as the flat
    /// backend's); `None` once maintenance removed points.
    /// Host-side launch state, outside `device_bytes()`.
    build_order: Option<Vec<u32>>,
    /// Representative point id → owning shard (`u32::MAX` once retired).
    owner_shard: Vec<u32>,
    tlas: Tlas,
    /// One bottom-level slot per planned shard (live, degraded or retired).
    shards: Vec<ShardSlot>,
    /// Per-shard sub-launch popularity, driving coldest-first budget
    /// degradation.  Approximate by design — see the ordering comments at
    /// the increment sites.
    shard_heat: Vec<AtomicU64>,
    /// Candidate-charging model shared with the degraded exact fallback.
    geometry: GeometryKind,
    /// The per-shard BLAS configuration (nested parallelism already
    /// resolved), reused verbatim by quarantine-recovery rebuilds.
    blas_config: NeighborIndexBuilder,
    /// Deterministic failpoint handle (disarmed under
    /// [`FaultPlan::Off`], where probes cost nothing).
    fault: FaultInjector,
    /// Logical clock for retry backoff: bumped once per
    /// [`ShardedIndex::recover`] call, never by wall time, so recovery
    /// schedules are deterministic.
    recovery_epoch: u64,
    build_counters: WorkCounters,
    query_counters: Mutex<WorkCounters>,
    reorder: ScratchPool<ReorderScratch>,
    scratch: ScratchPool<ShardScratch>,
    telemetry: Telemetry,
}

impl ShardedIndex {
    /// Build the two-level scene from a [`NeighborIndexBuilder`] whose
    /// `sharding` knob is set.  Compaction (if configured) runs globally
    /// before sharding, so representatives and multiplicities are identical
    /// to the flat backend's; the per-shard BLAS builds run in parallel.
    pub fn build(config: &NeighborIndexBuilder, points: &[Point3], eps: f32) -> Result<Self> {
        let sharding = config.sharding.ok_or_else(|| {
            Error::InvalidConfig("ShardedIndex::build requires the sharding knob".into())
        })?;
        let telemetry = Telemetry::new(config.telemetry);
        // The one Morton pass over the points (with compaction on its runs
        // of equal codes) and the shard-cut descent run under one build
        // span — the flat backend compacts inside its build span too.  The
        // pass may use the full parallelism budget: the per-shard builds
        // have not started yet, so there is nothing to oversubscribe.
        let mut build_span = telemetry.span(PhaseKind::LbvhBuild);
        let scene = scene_from_points(
            points,
            eps,
            config.compaction,
            true,
            config.build_parallelism.resolved(),
        )?;
        let mut build_counters = scene.counters;
        let (sorted_prims, sorted_codes) = (scene.prims, scene.codes.unwrap_or_default());
        let ranges = cut_shards(&sorted_codes, sharding.max_shard_size, &mut build_counters);
        build_span.add_counters(build_counters);
        drop(build_span);

        let mut index = ShardedIndex {
            n: points.len(),
            eps,
            batch_size: config.batch_size.max(1),
            min_parallel_launch: config.min_parallel_launch,
            query_order: config.query_order,
            compacting: config.compaction,
            max_shard_size: sharding.max_shard_size,
            representative_of: scene.representative_of,
            build_order: scene
                .order
                .filter(|_| config.query_order == QueryOrder::Morton),
            // analyze-allow: hot-path-alloc -- constructor: owner table allocated once per scene build
            owner_shard: vec![u32::MAX; points.len()],
            tlas: Tlas::default(),
            // analyze-allow: hot-path-alloc -- constructor: shard list allocated once per scene build
            shards: Vec::new(),
            // analyze-allow: hot-path-alloc -- constructor: heat table allocated once per scene build
            shard_heat: Vec::new(),
            geometry: config.geometry,
            blas_config: *config,
            fault: FaultInjector::new(config.fault),
            recovery_epoch: 0,
            build_counters,
            query_counters: Mutex::new(WorkCounters::ZERO),
            reorder: ScratchPool::new(),
            scratch: ScratchPool::new(),
            telemetry: telemetry.clone(),
        };
        if ranges.is_empty() {
            return Ok(index);
        }
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            for p in &sorted_prims[lo..hi] {
                index.owner_shard[p.point_index as usize] = s as u32;
            }
        }

        // Per-shard parallel BLAS build on the rayon pool.  Each worker
        // opens its own build spans, so shard-build parallelism shows up in
        // the trace through the span thread ids.
        let shard_count = ranges.len();
        // The shards themselves run in parallel, so each nested build only
        // gets its share of the parallelism budget; with at least as many
        // shards as workers this degrades to sequential per-shard builds
        // (the pre-existing behaviour) instead of oversubscribing the pool.
        let mut config = *config;
        config.build_parallelism = config.build_parallelism.for_nested(shard_count);
        // Recovery rebuilds reuse exactly the per-shard configuration.
        index.blas_config = config;
        // Decide poisoned shards *before* the parallel loop: the shared
        // injector's hit ordinals would otherwise depend on worker
        // interleaving, and fault schedules must be deterministic.
        let poisoned: Vec<bool> = (0..shard_count)
            .map(|_| index.fault.fire(FaultSite::ShardBlasPoison))
            .collect();
        // `None` = this shard's BLAS build was taken down by an injected
        // fault; the scene degrades the slot instead of failing (the
        // primitives are re-sliced from the sorted lane below).  Real build
        // errors still propagate.
        let built: Vec<Result<Option<WideBatchedIndex>>> = {
            use rayon::prelude::*;
            (0..shard_count)
                .into_par_iter()
                .map(|s| {
                    if poisoned[s] {
                        return Ok(None);
                    }
                    // Each task copies its own slice of the scene, so only
                    // the shards in flight hold a copy: the tree is built
                    // over it, collapsed and dropped before the next one.
                    let (lo, hi) = ranges[s];
                    // analyze-allow: hot-path-alloc -- build path: each shard copies its prim slice once at scene construction
                    let prims = sorted_prims[lo..hi].to_vec();
                    let bvh = {
                        let mut span = telemetry.span(PhaseKind::LbvhBuild);
                        // The LBVH emits over the pre-sorted slice and its
                        // codes, reproducing the flat subtree exactly.
                        let codes = Some(&sorted_codes[lo..hi]);
                        let bvh = build_tree(&config, prims, codes, &telemetry)?;
                        span.add_counters(bvh.build_counters);
                        bvh
                    };
                    match WideBatchedIndex::from_prebuilt(&config, bvh, eps, telemetry.clone()) {
                        Ok(blas) => Ok(Some(blas)),
                        Err(Error::FaultInjected { .. }) => Ok(None),
                        Err(e) => Err(e),
                    }
                })
                .collect()
        };
        for (s, blas) in built.into_iter().enumerate() {
            match blas? {
                Some(blas) => {
                    index.build_counters += blas.build_counters();
                    index.shards.push(ShardSlot::Live(blas));
                }
                None => {
                    let (lo, hi) = ranges[s];
                    let reason = if poisoned[s] {
                        QuarantineReason::Poisoned
                    } else {
                        QuarantineReason::BuildFailed
                    };
                    // analyze-allow: hot-path-alloc -- build path: a fault-degraded shard retains its prim slice for the exact fallback
                    let spheres = sorted_prims[lo..hi].to_vec();
                    index.count_event("shard_quarantines");
                    index
                        .shards
                        .push(ShardSlot::Degraded(DegradedShard::new(spheres, reason)));
                }
            }
        }
        // analyze-allow: hot-path-alloc -- constructor: heat table allocated once per scene build
        index.shard_heat = (0..index.shards.len()).map(|_| AtomicU64::new(0)).collect();
        index.rebuild_tlas();
        index.enforce_budget(config.memory_budget)?;
        Ok(index)
    }

    /// Rebuild the top-level BVH from the current shard root bounds
    /// (evicted shards contribute empty boxes) under a `tlas_build` span.
    fn rebuild_tlas(&mut self) {
        let bounds: Vec<Aabb> = self.shards.iter().map(ShardSlot::bounds).collect();
        let mut counters = WorkCounters::ZERO;
        let mut span = self.telemetry.span(PhaseKind::TlasBuild);
        self.tlas = Tlas::build(&bounds, &mut counters);
        span.add_counters(counters);
        drop(span);
        self.build_counters += counters;
    }

    /// Number of planned shards (including evicted slots).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards still holding a live BLAS.
    pub fn live_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardSlot::Live(_)))
            .count()
    }

    /// Number of quarantined shards currently answering through the exact
    /// fallback.
    pub fn degraded_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardSlot::Degraded(_)))
            .count()
    }

    /// The quarantined shard ids, with the reason each one degraded.
    pub fn quarantined_shards(&self) -> Vec<(u32, QuarantineReason)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| match slot {
                ShardSlot::Degraded(d) => Some((s as u32, d.reason)),
                _ => None,
            })
            .collect()
    }

    /// How many engine sub-launches have targeted a shard (the coldest-first
    /// eviction signal).  Approximate under concurrent launches.
    pub fn shard_heat(&self, shard: u32) -> u64 {
        self.shard_heat
            .get(shard as usize)
            // ordering: Relaxed — approximate popularity signal; no other
            // state is synchronised through it.
            .map_or(0, |h| h.load(Ordering::Relaxed))
    }

    /// The shard owning a point's representative primitive, or `None` once
    /// the point was retired (or never indexed).
    pub fn owner_shard(&self, point: u32) -> Option<u32> {
        match self.owner_shard.get(point as usize) {
            Some(&s) if s != u32::MAX && self.shards.get(s as usize)?.answers() => Some(s),
            _ => None,
        }
    }

    /// Per-shard node-visit heatmaps (one entry per shard slot), populated
    /// when the index was built under
    /// [`crate::telemetry::TelemetryConfig::Profile`].
    pub fn shard_heatmaps(&self) -> Vec<Option<&NodeHeatmap>> {
        self.shards
            .iter()
            .map(|s| s.live().and_then(|b| b.heatmap()))
            .collect()
    }

    /// Quarantine a live shard: its BLAS is dropped, its primitives are
    /// retained, and queries overlapping the shard fall back to an exact
    /// linear scan — correct answers at degraded speed — until
    /// [`ShardedIndex::recover`] rebuilds it.  Idempotent on already
    /// degraded or retired slots; errors only on an out-of-range id.
    pub fn quarantine_shard(&mut self, shard: u32, reason: QuarantineReason) -> Result<()> {
        if shard as usize >= self.shards.len() {
            return Err(Error::InvalidConfig(format!("shard {shard} out of range")));
        }
        self.quarantine_slot(shard as usize, reason);
        Ok(())
    }

    /// Infallible in-range quarantine (no-op unless the slot is live).
    /// The fallback's spheres are rebuilt from the BLAS's lanes (centres,
    /// multiplicities, point ids and the build radius ε) before the BLAS
    /// is dropped.
    fn quarantine_slot(&mut self, idx: usize, reason: QuarantineReason) {
        let telemetry = self.telemetry.clone();
        let ShardSlot::Live(blas) = &self.shards[idx] else {
            return;
        };
        let mut span = telemetry.span(PhaseKind::Degrade);
        let slot = match blas.wide_scene() {
            Some(wide) => {
                let lanes = &wide.lanes;
                span.add_counters(WorkCounters {
                    misc_ops: lanes.len() as u64,
                    ..WorkCounters::ZERO
                });
                self.count_event("shard_quarantines");
                let spheres = lanes.spheres(0, lanes.len()).collect();
                ShardSlot::Degraded(DegradedShard::new(spheres, reason))
            }
            // Nothing indexed — the slot is simply retired.
            None => ShardSlot::Retired,
        };
        self.shards[idx] = slot;
    }

    /// Count one event in the metrics registry (a no-op unless telemetry
    /// records).
    fn count_event(&self, name: &'static str) {
        if let Some(metrics) = self.telemetry.metrics() {
            metrics.incr(name, 1);
        }
    }

    /// Validate every live shard's wide scene and quarantine the ones whose
    /// structural invariants fail, returning the quarantined ids.
    pub fn verify_shards(&mut self) -> Vec<u32> {
        let broken: Vec<u32> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| {
                let wide = slot.live()?.wide_scene()?;
                crate::bvh::wide::validate_wide(wide)
                    .err()
                    .map(|_| s as u32)
            })
            .collect();
        for &s in &broken {
            self.quarantine_slot(s as usize, QuarantineReason::ValidationFailed);
        }
        broken
    }

    /// One bounded-retry recovery pass: every quarantined shard that is
    /// past its backoff window and under the policy's attempt cap gets one
    /// rebuild attempt.  Successful rebuilds restore the shard to live
    /// service; the rebuilt BLAS may differ *structurally* from the
    /// original flat-aligned subtree (a standalone rebuild quantises Morton
    /// codes over the shard's own bounds), but its leaf boxes are the same
    /// exact sphere bounds, so query results are bit-identical.
    ///
    /// Time is logical: each call is one epoch, so backoff schedules are
    /// deterministic under test.
    pub fn recover(&mut self, policy: RetryPolicy) -> RecoveryStats {
        self.recovery_epoch += 1;
        let epoch = self.recovery_epoch;
        let mut stats = RecoveryStats::default();
        let mut restored = false;
        for idx in 0..self.shards.len() {
            let (attempts, next_retry) = match &self.shards[idx] {
                ShardSlot::Degraded(d) => (d.attempts, d.next_retry),
                _ => continue,
            };
            if !policy.allows_attempt(attempts) {
                stats.exhausted += 1;
                continue;
            }
            if next_retry > epoch {
                stats.deferred += 1;
                continue;
            }
            let spheres = match &self.shards[idx] {
                // analyze-allow: hot-path-alloc -- recovery path: the rebuild consumes an owned copy of the quarantined primitives
                ShardSlot::Degraded(d) => d.spheres.clone(),
                _ => continue,
            };
            if spheres.is_empty() {
                self.shards[idx] = ShardSlot::Retired;
                continue;
            }
            match self.rebuild_blas(spheres) {
                Ok(blas) => {
                    self.build_counters += blas.build_counters();
                    self.shards[idx] = ShardSlot::Live(blas);
                    self.count_event("shard_recoveries");
                    stats.rebuilt += 1;
                    restored = true;
                }
                Err(_) => {
                    if let ShardSlot::Degraded(d) = &mut self.shards[idx] {
                        d.attempts += 1;
                        d.next_retry = epoch + policy.backoff_ticks(d.attempts);
                    }
                    self.count_event("shard_recovery_failures");
                    stats.failed += 1;
                }
            }
        }
        if restored {
            self.rebuild_tlas();
        }
        stats
    }

    /// Rebuild one shard's BLAS from its retained primitives under a
    /// `degrade` span.  Injected rebuild failures come from the *shared*
    /// injector's `hlbvh_build` site (its hit ordinal advances per attempt,
    /// so a seeded schedule can fail the first attempts and let a later
    /// retry succeed); the nested per-shard build itself runs fault-free.
    fn rebuild_blas(&self, spheres: Vec<Sphere>) -> Result<WideBatchedIndex> {
        crate::fail_point!(self.fault, FaultSite::HlbvhBuild);
        let mut config = self.blas_config;
        config.fault = FaultPlan::Off;
        let mut span = self.telemetry.span(PhaseKind::Degrade);
        let bvh = build_tree(&config, spheres, None, &Telemetry::disabled())?;
        span.add_counters(bvh.build_counters);
        drop(span);
        WideBatchedIndex::from_prebuilt(&config, bvh, self.eps, self.telemetry.clone())
    }

    /// Enforce a [`MemoryBudget`] on the whole two-level scene, degrading
    /// gracefully in documented order: (1) evict the coldest live BLASes
    /// into quarantine (exact fallback, rebuild on the next
    /// [`ShardedIndex::recover`]); (2) if the scene still exceeds the
    /// budget, refuse with [`Error::OverBudget`].
    pub fn enforce_budget(&mut self, budget: MemoryBudget) -> Result<()> {
        let Some(limit) = budget.limit() else {
            return Ok(());
        };
        if self.device_bytes() <= limit {
            return Ok(());
        }
        let telemetry = self.telemetry.clone();
        let mut span = telemetry.span(PhaseKind::Degrade);
        let mut degrade_ops = 0u64;
        let mut within = false;
        // Evict whole BLASes, coldest first (ties on shard id).
        let mut live: Vec<usize> = (0..self.shards.len())
            .filter(|&s| self.shards[s].live().is_some())
            .collect();
        live.sort_by_key(|&s| (self.shard_heat(s as u32), s));
        for s in live {
            self.quarantine_slot(s, QuarantineReason::Evicted);
            degrade_ops += 1;
            if self.device_bytes() <= limit {
                within = true;
                break;
            }
        }
        span.add_counters(WorkCounters {
            misc_ops: degrade_ops,
            ..WorkCounters::ZERO
        });
        drop(span);
        if within {
            Ok(())
        } else {
            Err(Error::OverBudget {
                requested: self.device_bytes(),
                budget: limit,
            })
        }
    }

    /// The configured shard-size ceiling.
    pub fn max_shard_size(&self) -> usize {
        self.max_shard_size
    }

    /// The build's Morton permutation of the indexed points that
    /// self-join count launches walk, as
    /// [`WideBatchedIndex::build_order`]: kept under [`QueryOrder::Morton`]
    /// until maintenance removes points.
    pub fn build_order(&self) -> Option<&[u32]> {
        self.build_order.as_deref()
    }

    /// Drop the kept build order (see
    /// [`WideBatchedIndex::forget_build_order`]).
    #[cfg(test)]
    pub(crate) fn forget_build_order(&mut self) {
        self.build_order = None;
    }

    fn record(&self, local: &WorkCounters) {
        *self.query_counters.lock() += *local;
    }

    /// Mirror of the flat backends' launch metrics recording.
    fn record_launch_metrics(&self, queries: usize, start_ns: u64, total: &WorkCounters) {
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
            let size = self.batch_size.max(1);
            let packets = queries.div_ceil(size);
            metrics.observe(
                "packet_occupancy",
                OCCUPANCY_BUCKETS,
                queries as f64 / (packets * size) as f64,
            );
        }
    }

    /// The launch order of a batched launch over `queries` (see the flat
    /// backend's): the kept build order for a self-join count launch
    /// (`exclude_self` over all `n` points), otherwise a Morton sort when
    /// configured.  Outputs are restored to caller ordinals through the
    /// permutation either way.
    fn launch_order(
        &self,
        queries: &[Point3],
        exclude_self: bool,
        setup: &mut WorkCounters,
    ) -> LaunchOrder<'_> {
        launch_order(
            self.query_order,
            self.build_order.as_deref(),
            exclude_self,
            queries,
            &self.reorder,
            &self.telemetry,
            setup,
        )
    }

    /// Route one packet: gather its origins through the launch permutation
    /// into `origins`, bound them, descend the TLAS once with that box, and
    /// test each ray only against the boxes of the answering shards the
    /// packet box reaches — the containment test a per-ray descent ends in
    /// (see [`Tlas::for_each_leaf_overlapping`]), so the plan is the same
    /// `(shard, position)` set.  Charges one `tlas_node_visits` per node
    /// popped and per ray-vs-leaf test.  When the box reaches more than
    /// [`PACKET_PLAN_MAX_LEAVES`] answering leaves, the descent stops there
    /// and the packet is planned by one descent per ray instead (the same
    /// pairs, each popped node charged as above).  The plan lands in
    /// `pairs`, sorted by shard, packet order within a shard.
    #[allow(clippy::too_many_arguments)]
    fn plan_packet(
        tlas: &Tlas,
        shards: &[ShardSlot],
        queries: &[Point3],
        perm: Option<&[u32]>,
        start: usize,
        len: usize,
        origins: &mut Vec<Point3>,
        pairs: &mut Vec<(u32, u32)>,
        counters: &mut WorkCounters,
    ) {
        origins.clear();
        origins.extend((start..start + len).map(|pos| queries[caller_ordinal(perm, pos)]));
        pairs.clear();
        let origins: &[Point3] = origins;
        let packet = Aabb::from_point_slice(origins);
        let mut leaves = [(0u32, Aabb::EMPTY); PACKET_PLAN_MAX_LEAVES];
        let mut reached = 0usize;
        let coherent = tlas.for_each_leaf_overlapping(&packet, counters, |shard, leaf| {
            if !shards[shard as usize].answers() {
                return true;
            }
            if reached == PACKET_PLAN_MAX_LEAVES {
                return false;
            }
            leaves[reached] = (shard, *leaf);
            reached += 1;
            true
        });
        if coherent {
            // Leaves come out in shard order and rays in packet order, so
            // the pairs are born sorted.
            for &(shard, leaf) in &leaves[..reached] {
                for (pos, &origin) in origins.iter().enumerate() {
                    sat_bump(&mut counters.tlas_node_visits, 1);
                    if leaf.intersects_ray(&Ray::epsilon_ray(origin)) {
                        pairs.push((shard, pos as u32));
                    }
                }
            }
        } else {
            // The box descent tested the root against the packet's box; a
            // root box that holds it holds every origin, so each ray's
            // descent starts below the root.
            let inside_root = tlas.scene_bounds().contains_aabb(&packet);
            for (pos, &origin) in origins.iter().enumerate() {
                let ray = Ray::epsilon_ray(origin);
                let mut emit = |shard: u32| {
                    if shards[shard as usize].answers() {
                        pairs.push((shard, pos as u32));
                    }
                };
                if inside_root {
                    tlas.for_each_leaf_hit_below_root(&ray, counters, &mut emit);
                } else {
                    tlas.for_each_leaf_hit(&ray, counters, &mut emit);
                }
            }
            pairs.sort_unstable();
        }
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "plan is sorted");
    }

    /// Exact linear fallback over a quarantined shard's primitives (sink
    /// mode).  The reporting contract matches the engine exactly — the
    /// closed-ball predicate, `Neighbor` payload and caller-ordinal routing
    /// are the same — so degraded answers are bit-identical to live ones.
    /// What differs is the work: every resident candidate is charged one
    /// [`charge_candidate`], the price of having no BLAS to cull with.
    /// Query `queries[id]` answers as ordinal `id` for every `id` in `ids`.
    fn degraded_trace_sink(
        &self,
        deg: &DegradedShard,
        queries: &[Point3],
        ids: &[u32],
        eps: f32,
        sink: &NeighborSink<'_>,
        local: &mut WorkCounters,
    ) {
        let eps_sq = eps * eps;
        sat_bump(&mut local.rays, ids.len() as u64);
        for &id in ids {
            let ordinal = id as usize;
            let q = queries[ordinal];
            for s in &deg.spheres {
                charge_candidate(self.geometry, local);
                if s.center.distance_squared(q) <= eps_sq {
                    let n = Neighbor {
                        index: s.point_index,
                        multiplicity: s.multiplicity,
                    };
                    if sink(ordinal, n, local) == NeighborFlow::Stop {
                        break;
                    }
                }
            }
        }
    }

    /// Count-mode twin of [`ShardedIndex::degraded_trace_sink`]:
    /// multiplicity-weighted counts, each stopping at the hit that reaches
    /// `cap` as a live sub-launch does, flushed once per query into the
    /// packet-local cells.  Query `queries[id]` flushes into `cells[id]`
    /// for every `id` in `ids`.
    #[allow(clippy::too_many_arguments)]
    fn degraded_trace_counts(
        &self,
        deg: &DegradedShard,
        queries: &[Point3],
        ids: &[u32],
        eps: f32,
        cap: u64,
        cells: &[AtomicU64],
        local: &mut WorkCounters,
    ) {
        let eps_sq = eps * eps;
        sat_bump(&mut local.rays, ids.len() as u64);
        for &id in ids {
            let q = queries[id as usize];
            let mut count = 0u64;
            for s in &deg.spheres {
                charge_candidate(self.geometry, local);
                if s.center.distance_squared(q) <= eps_sq {
                    count += s.multiplicity as u64;
                    if count >= cap {
                        break;
                    }
                }
            }
            if count > 0 {
                // ordering: Relaxed — packet-local cell with one writer (this
                // sequential loop); the packet's flush reads it afterwards on
                // the same thread.
                cells[id as usize].fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Sink-mode sharded packet: plan, then one wavefront engine launch per
    /// overlapped shard, each charged as one `blas_launches`.  A sub-launch
    /// gathers its origins from the caller's queries through its caller
    /// ordinals, which sinks also see directly.
    #[allow(clippy::too_many_arguments)]
    fn trace_packet_sharded(
        &self,
        queries: &[Point3],
        perm: Option<&[u32]>,
        start: usize,
        len: usize,
        eps: f32,
        sink: &NeighborSink<'_>,
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        let mut local = WorkCounters::ZERO;
        // Packet granularity: a tripped scope skips the whole packet.
        if cancel.is_some_and(CancelScope::tripped) {
            return local;
        }
        let mut guard = self.scratch.acquire();
        let ShardScratch {
            origins,
            pairs,
            sub_ids,
            ..
        } = &mut *guard;
        Self::plan_packet(
            &self.tlas,
            &self.shards,
            queries,
            perm,
            start,
            len,
            origins,
            pairs,
            &mut local,
        );
        let mut i = 0;
        while i < pairs.len() {
            if cancel.is_some_and(CancelScope::tripped) {
                break;
            }
            let shard = pairs[i].0;
            sub_ids.clear();
            let mut j = i;
            while j < pairs.len() && pairs[j].0 == shard {
                let pos = pairs[j].1 as usize;
                sub_ids.push(caller_ordinal(perm, start + pos) as u32);
                j += 1;
            }
            // ordering: Relaxed — monotonic popularity tick; nothing is
            // synchronised through it, readers want an approximate total.
            self.shard_heat[shard as usize].fetch_add(1, Ordering::Relaxed);
            sat_bump(&mut local.blas_launches, 1);
            match &self.shards[shard as usize] {
                ShardSlot::Live(blas) => {
                    local += blas.trace_packet(
                        queries,
                        Some(sub_ids),
                        0,
                        sub_ids.len(),
                        eps,
                        sink,
                        cancel,
                    );
                }
                ShardSlot::Degraded(deg) => {
                    self.degraded_trace_sink(deg, queries, sub_ids, eps, sink, &mut local);
                }
                // plan_packet only emits pairs for answering slots.
                ShardSlot::Retired => {}
            }
            i = j;
        }
        local
    }

    /// Count-mode sharded packet: per-shard counts accumulate in
    /// packet-local cells (each sub-launch flushes once per query, exactly
    /// like the flat packet tracer), and the packet flushes the
    /// self-exclusion (one less per query) to the shared cells once per
    /// query.  Sub-launches read the packet's gathered origins by packet
    /// position.  Under `early_exit` each sub-launch gets the cap on the
    /// raw cell (the flush's self-exclusion added back), and a query whose
    /// cell has reached it is left out of the later sub-launches; a shard
    /// none of whose queries is left runs no sub-launch.
    #[allow(clippy::too_many_arguments)]
    fn trace_count_packet_sharded(
        &self,
        queries: &[Point3],
        perm: Option<&[u32]>,
        start: usize,
        len: usize,
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counts: &[AtomicU64],
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        let mut local = WorkCounters::ZERO;
        // Packet granularity: a tripped scope skips the whole packet.
        if cancel.is_some_and(CancelScope::tripped) {
            return local;
        }
        let mut guard = self.scratch.acquire();
        let ShardScratch {
            origins,
            pairs,
            sub_ids,
            counts: cells,
        } = &mut *guard;
        Self::plan_packet(
            &self.tlas,
            &self.shards,
            queries,
            perm,
            start,
            len,
            origins,
            pairs,
            &mut local,
        );
        cells.clear();
        cells.resize_with(len, AtomicU64::default);
        // The sub-launches count without self-exclusion; the flush below
        // applies it, so their cap is the raw one.
        let cap = super::count_cap(exclude_self, early_exit);
        let sub_exit = early_exit.map(|_| cap);
        let mut i = 0;
        while i < pairs.len() {
            if cancel.is_some_and(CancelScope::tripped) {
                // Partial cells would flush garbage into the shared counts;
                // the caller discards everything on a trip, so bail before
                // the flush below rather than flushing a half-built packet.
                return local;
            }
            let shard = pairs[i].0;
            sub_ids.clear();
            let mut j = i;
            while j < pairs.len() && pairs[j].0 == shard {
                let pos = pairs[j].1;
                // ordering: Relaxed — see the flush below: the cells are
                // this packet's and written only on this thread.
                if cells[pos as usize].load(Ordering::Relaxed) < cap {
                    sub_ids.push(pos);
                }
                j += 1;
            }
            i = j;
            if sub_ids.is_empty() {
                continue;
            }
            // ordering: Relaxed — monotonic popularity tick; nothing is
            // synchronised through it, readers want an approximate total.
            self.shard_heat[shard as usize].fetch_add(1, Ordering::Relaxed);
            sat_bump(&mut local.blas_launches, 1);
            match &self.shards[shard as usize] {
                ShardSlot::Live(blas) => {
                    local += blas.trace_count_packet(
                        origins,
                        Some(sub_ids),
                        0,
                        sub_ids.len(),
                        eps,
                        false,
                        sub_exit,
                        cells,
                        cancel,
                    );
                }
                ShardSlot::Degraded(deg) => {
                    self.degraded_trace_counts(deg, origins, sub_ids, eps, cap, cells, &mut local);
                }
                // plan_packet only emits pairs for answering slots.
                ShardSlot::Retired => {}
            }
        }
        // ordering: Relaxed is sound on both sides of this flush.  The
        // packet-local `cells` come from pooled ShardScratch owned by this
        // packet alone; the per-shard sub-launches above run *sequentially*
        // on this thread, so by the time the loop reads a cell every write
        // to it is sequenced-before the read (the cells are atomic only
        // because `trace_count_packet` takes `&[AtomicU64]`).  Each shared
        // `counts` cell has a single writer per launch — caller ordinals are
        // disjoint across packets — so the fetch_add never races another
        // increment to the same cell, and the dispatch join in the launch
        // driver provides the happens-before edge that publishes the totals
        // to the post-join reader.  The self-exclusion is exact for a query
        // that never stops: each cell starts at 0 and each query is routed
        // to each overlapping shard at most once by `plan_packet`, so its
        // own hit is counted exactly once before subtraction.  A stopped
        // query's cell holds at least the raw cap, so its count is at least
        // `early_exit` whether or not its own hit was reached.
        for (pos, cell) in cells.iter().enumerate() {
            let count = cell
                .load(Ordering::Relaxed)
                .saturating_sub(exclude_self as u64);
            if count > 0 {
                counts[caller_ordinal(perm, start + pos)].fetch_add(count, Ordering::Relaxed);
            }
        }
        local
    }

    /// The shared sink-mode launch driver: Morton reorder (when configured),
    /// fixed packets, one `tlas_visit` span over the whole launch.  `cancel`
    /// is a runtime parameter — `None` compiles to the exact pre-deadline
    /// launch.  Returns the launch total; the caller decides whether to
    /// surface it (success) or fold it into [`Error::DeadlineExceeded`].
    fn launch_sink(
        &self,
        queries: &[Point3],
        eps: f32,
        sink: &NeighborSink<'_>,
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        debug_assert!(eps <= self.eps, "query radius exceeds the build radius");
        let mut setup = WorkCounters::ZERO;
        let order = self.launch_order(queries, false, &mut setup);
        let perm = order.perm();
        let start_ns = self.telemetry.now_ns();
        let mut span = self.telemetry.span(PhaseKind::TlasVisit);
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                self.trace_packet_sharded(queries, perm, start, len, eps, sink, cancel)
            },
        );
        total += setup;
        span.add_counters(total);
        drop(span);
        self.record_launch_metrics(queries.len(), start_ns, &total);
        self.record(&total);
        total
    }

    /// Count-mode twin of [`ShardedIndex::launch_sink`]: same reorder /
    /// packet / span shape, flushing into shared count cells.
    fn launch_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counts: &[AtomicU64],
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        debug_assert!(eps <= self.eps, "query radius exceeds the build radius");
        assert_eq!(
            queries.len(),
            counts.len(),
            "one count cell per launched query"
        );
        // A self-join walks the build's order instead of sorting.
        let mut setup = WorkCounters::ZERO;
        let order = self.launch_order(queries, exclude_self, &mut setup);
        let perm = order.perm();
        let start_ns = self.telemetry.now_ns();
        let mut span = self.telemetry.span(PhaseKind::TlasVisit);
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                self.trace_count_packet_sharded(
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
        span.add_counters(total);
        drop(span);
        self.record_launch_metrics(queries.len(), start_ns, &total);
        self.record(&total);
        total
    }
}

impl NeighborIndex for ShardedIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn eps(&self) -> f32 {
        self.eps
    }

    fn capabilities(&self) -> IndexCapabilities {
        IndexCapabilities {
            kind: IndexKind::WideBatched,
            batched: true,
            compacting: self.compacting,
            refittable: !self.compacting,
            rt_core: true,
        }
    }

    fn build_counters(&self) -> WorkCounters {
        self.build_counters
    }

    fn counters(&self) -> WorkCounters {
        self.build_counters + *self.query_counters.lock()
    }

    fn device_bytes(&self) -> u64 {
        let blas: u64 = self
            .shards
            .iter()
            .map(|s| match s {
                ShardSlot::Live(b) => b.device_bytes(),
                // A quarantined shard keeps only its primitives resident.
                ShardSlot::Degraded(d) => (d.spheres.len() * std::mem::size_of::<Sphere>()) as u64,
                ShardSlot::Retired => 0,
            })
            .sum();
        blas + (self.tlas.nodes.len() * std::mem::size_of::<crate::bvh::TlasNode>()) as u64
    }

    fn representative_of(&self, index: u32) -> u32 {
        self.representative_of
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
        let mut local = WorkCounters::ZERO;
        // analyze-allow: hot-path-alloc -- single-query compatibility path; the batched tracers use pooled ShardScratch
        let mut overlaps = Vec::new();
        self.tlas
            .overlapping(&Ray::epsilon_ray(query), &mut local, &mut overlaps);
        let mut stopped = false;
        for s in overlaps {
            if stopped {
                break;
            }
            match &self.shards[s as usize] {
                ShardSlot::Live(blas) => {
                    // ordering: Relaxed — monotonic popularity tick; nothing
                    // is synchronised through it.
                    self.shard_heat[s as usize].fetch_add(1, Ordering::Relaxed);
                    sat_bump(&mut local.blas_launches, 1);
                    blas.for_each_neighbor(query, eps, exclude, &mut local, &mut |n, c| {
                        let flow = visit(n, c);
                        if flow == NeighborFlow::Stop {
                            stopped = true;
                        }
                        flow
                    });
                }
                ShardSlot::Degraded(deg) => {
                    // ordering: Relaxed — as above.
                    self.shard_heat[s as usize].fetch_add(1, Ordering::Relaxed);
                    sat_bump(&mut local.blas_launches, 1);
                    let eps_sq = eps * eps;
                    sat_bump(&mut local.rays, 1);
                    for sp in &deg.spheres {
                        charge_candidate(self.geometry, &mut local);
                        if exclude == Some(sp.point_index) {
                            continue;
                        }
                        if sp.center.distance_squared(query) <= eps_sq {
                            let n = Neighbor {
                                index: sp.point_index,
                                multiplicity: sp.multiplicity,
                            };
                            if visit(n, &mut local) == NeighborFlow::Stop {
                                stopped = true;
                                break;
                            }
                        }
                    }
                }
                ShardSlot::Retired => continue,
            }
        }
        self.record(&local);
        *counters += local;
    }

    fn batch_neighbors(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    ) {
        *counters += self.launch_sink(queries, eps, sink, None);
    }

    fn batch_neighbor_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[AtomicU64],
    ) {
        *counters += self.launch_counts(queries, eps, exclude_self, early_exit, counts, None);
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
            // A simulated stalled launch: the deadline machinery must turn
            // it into a structured error, never a wrong answer.
            scope.trip();
        }
        if scope.should_stop() {
            return Err(super::deadline_exceeded(
                self.telemetry(),
                WorkCounters::ZERO,
            ));
        }
        let total = self.launch_sink(queries, eps, sink, scope.is_active().then_some(scope));
        if scope.tripped() {
            return Err(super::deadline_exceeded(self.telemetry(), total));
        }
        *counters += total;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn batch_neighbor_counts_cancellable(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[AtomicU64],
        scope: &CancelScope,
    ) -> Result<()> {
        crate::fail_point!(self.fault, FaultSite::ScratchGrow);
        if self.fault.fire(FaultSite::LaunchDelay) {
            scope.trip();
        }
        if scope.should_stop() {
            return Err(super::deadline_exceeded(
                self.telemetry(),
                WorkCounters::ZERO,
            ));
        }
        let total = self.launch_counts(
            queries,
            eps,
            exclude_self,
            early_exit,
            counts,
            scope.is_active().then_some(scope),
        );
        if scope.tripped() {
            return Err(super::deadline_exceeded(self.telemetry(), total));
        }
        *counters += total;
        Ok(())
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.is_enabled().then_some(&self.telemetry)
    }

    fn remove(&mut self, retired: &[u32]) -> Result<WorkCounters> {
        if self.compacting {
            return Err(Error::InvalidConfig(
                "cannot remove points from a compacting index: merged primitives \
                 stand for several input points"
                    .into(),
            ));
        }
        // Route retirements to their owning shards, refit each touched BLAS
        // in parallel, and drop any BLAS refitted down to nothing.
        // analyze-allow: hot-path-alloc -- refit path: per-shard routing buckets, once per retire batch, not per query
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for &id in retired {
            if let Some(s) = self.owner_shard(id) {
                per_shard[s as usize].push(id);
            }
        }
        for &id in retired {
            if let Some(slot) = self.owner_shard.get_mut(id as usize) {
                *slot = u32::MAX;
            }
        }
        let work: Vec<Mutex<Option<ShardSlot>>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let refitted: Vec<Result<(ShardSlot, WorkCounters)>> = {
            use rayon::prelude::*;
            (0..work.len())
                .into_par_iter()
                .map(|s| {
                    // analyze-allow: lib-unwrap -- each refit slot is wrapped Some above and taken exactly once by its own task
                    let slot = work[s].lock().take().expect("slot consumed once");
                    let dead = &per_shard[s];
                    if dead.is_empty() {
                        return Ok((slot, WorkCounters::ZERO));
                    }
                    match slot {
                        ShardSlot::Live(mut blas) => {
                            let counters = blas.remove(dead)?;
                            // Eviction emptied the shard: drop the whole BLAS.
                            let slot = if blas.wide_scene().is_some() {
                                ShardSlot::Live(blas)
                            } else {
                                ShardSlot::Retired
                            };
                            Ok((slot, counters))
                        }
                        ShardSlot::Degraded(mut deg) => {
                            // The fallback set shrinks in place; retry state
                            // survives the retirement.
                            let before = deg.spheres.len();
                            deg.spheres.retain(|sp| !dead.contains(&sp.point_index));
                            let mut counters = WorkCounters::ZERO;
                            sat_bump(&mut counters.misc_ops, (before - deg.spheres.len()) as u64);
                            let slot = if deg.spheres.is_empty() {
                                ShardSlot::Retired
                            } else {
                                deg.bounds = deg
                                    .spheres
                                    .iter()
                                    .fold(Aabb::EMPTY, |acc, sp| acc.union(&sp.bounds()));
                                ShardSlot::Degraded(deg)
                            };
                            Ok((slot, counters))
                        }
                        ShardSlot::Retired => Ok((ShardSlot::Retired, WorkCounters::ZERO)),
                    }
                })
                .collect()
        };
        let mut total = WorkCounters::ZERO;
        for r in refitted {
            let (slot, counters) = r?;
            total += counters;
            self.shards.push(slot);
        }
        self.n = self.n.saturating_sub(retired.len());
        // The points no longer match the build's Morton pass.
        self.build_order = None;
        self.build_counters += total;
        self.rebuild_tlas();
        Ok(total)
    }

    fn as_sharded(&self) -> Option<&ShardedIndex> {
        Some(self)
    }

    fn as_sharded_mut(&mut self) -> Option<&mut ShardedIndex> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::build::lbvh_from_sorted;
    use crate::bvh::tlas::plan_shards_with;
    use crate::bvh::{
        compact_coincident, BuildParallelism, BuilderKind, BvhBuilder, CompactionResult,
        LbvhBuilder, WideBvh,
    };
    use crate::index::{Neighbor, NeighborIndexBuilder, ShardingConfig};

    fn blob_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 8.0
        };
        (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    Point3::new(2.0, 2.0, 2.0) // duplicate run
                } else {
                    Point3::new(next(), next(), next())
                }
            })
            .collect()
    }

    fn flat_config() -> NeighborIndexBuilder {
        NeighborIndexBuilder {
            bvh_builder: BuilderKind::Lbvh,
            min_parallel_launch: 0,
            batch_size: 64,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        }
    }

    fn sharded_config(max_shard: usize) -> NeighborIndexBuilder {
        NeighborIndexBuilder {
            sharding: Some(crate::bvh::ShardingConfig::new(max_shard)),
            ..flat_config()
        }
    }

    fn sorted_rows(
        index: &dyn NeighborIndex,
        queries: &[Point3],
        eps: f32,
    ) -> (Vec<Vec<u32>>, WorkCounters) {
        let mut c = WorkCounters::ZERO;
        let csr = index.batch_neighbors_csr(queries, eps, &mut c);
        let rows = (0..queries.len())
            .map(|q| {
                let mut row: Vec<u32> = csr.neighbors(q).to_vec();
                row.sort_unstable();
                row
            })
            .collect();
        (rows, c)
    }

    /// Points with the shapes the one-pass build must get right: piles of
    /// exact duplicates, signed zeros (coincident under compaction),
    /// distinct points far closer than one Morton cell (identical codes)
    /// and, when `flat`, a constant z axis.
    fn awkward_points(n: usize, seed: u64, flat: bool) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let z = |v: f32| if flat { 0.0 } else { v };
        (0..n)
            .map(|_| {
                let r = next();
                match r % 6 {
                    0 => Point3::new(1.5, -2.0, z(0.5)),
                    1 => Point3::new(-0.0, 0.0, z(-0.0)),
                    2 => Point3::new(0.0, -0.0, z(0.0)),
                    3 => Point3::new(4.0 + ((r >> 8) % 16) as f32 * 1e-5, 4.0, z(1.0)),
                    _ => Point3::new(
                        ((r >> 16) % 40) as f32 * 0.25 - 5.0,
                        ((r >> 32) % 40) as f32 * 0.25 - 5.0,
                        z(((r >> 48) % 8) as f32 * 0.5),
                    ),
                }
            })
            .collect()
    }

    fn parallelism(workers: usize) -> BuildParallelism {
        if workers == 1 {
            BuildParallelism::Sequential
        } else {
            BuildParallelism::Threads(workers)
        }
    }

    /// The index-level charges of a standalone compaction pass.
    fn compaction_charges(c: &CompactionResult) -> WorkCounters {
        WorkCounters {
            compaction_merges: c.merged,
            build_prims: c.merged,
            ..WorkCounters::ZERO
        }
    }

    /// The compacting LBVH front end — one Morton pass feeding compaction
    /// and the emit or the shard cut — against the two-step public path:
    /// `compact_coincident`, then `LbvhBuilder::build` (flat) or
    /// `plan_shards_with` and one emit per shard (sharded) on its spheres.
    /// BVH4 nodes, lanes, representatives and build counters must agree.
    fn assert_front_end_matches_two_step(points: &[Point3], eps: f32, workers: usize) {
        let telemetry = Telemetry::disabled();
        let par = parallelism(workers);
        let c = compact_coincident(points, eps);
        let flat_config = NeighborIndexBuilder {
            compaction: true,
            build_parallelism: par,
            ..flat_config()
        };

        let flat = WideBatchedIndex::build(&flat_config, points, eps).unwrap();
        let bvh = LbvhBuilder {
            max_leaf_size: flat_config.max_leaf_size,
            parallelism: par,
        }
        .build(c.spheres.clone())
        .unwrap();
        let wide = WideBvh::from_binary_parallel(&bvh, workers, &telemetry);
        let scene = flat.wide_scene().unwrap();
        assert_eq!(scene.nodes, wide.nodes, "flat nodes, workers={workers}");
        assert_eq!(scene.lanes, wide.lanes, "flat lanes, workers={workers}");
        let mut expected = compaction_charges(&c) + bvh.build_counters;
        expected += wide.collapse_counters;
        assert_eq!(flat.build_counters(), expected, "flat, workers={workers}");

        let max_shard = 16;
        let sharded = ShardedIndex::build(
            &NeighborIndexBuilder {
                sharding: Some(crate::bvh::ShardingConfig::new(max_shard)),
                ..flat_config
            },
            points,
            eps,
        )
        .unwrap();
        let plan = plan_shards_with(c.spheres.clone(), max_shard, par).unwrap();
        let nested = par.for_nested(plan.ranges.len());
        let mut expected = compaction_charges(&c) + plan.counters;
        let mut bounds = Vec::new();
        assert_eq!(sharded.shards.len(), plan.ranges.len());
        for (slot, &(lo, hi)) in sharded.shards.iter().zip(&plan.ranges) {
            let bvh = lbvh_from_sorted(
                plan.sorted_prims[lo..hi].to_vec(),
                &plan.sorted_codes[lo..hi],
                flat_config.max_leaf_size,
                WorkCounters::ZERO,
                nested,
                &telemetry,
            )
            .unwrap();
            let wide = WideBvh::from_binary_parallel(&bvh, nested.resolved(), &telemetry);
            let blas = slot.live().unwrap().wide_scene().unwrap();
            assert_eq!(blas.nodes, wide.nodes, "shard nodes, workers={workers}");
            assert_eq!(blas.lanes, wide.lanes, "shard lanes, workers={workers}");
            expected += bvh.build_counters + wide.collapse_counters;
            bounds.push(wide.scene_bounds);
        }
        Tlas::build(&bounds, &mut expected);
        assert_eq!(
            sharded.build_counters(),
            expected,
            "sharded, workers={workers}"
        );

        for (i, &rep) in c.representative_of.iter().enumerate() {
            assert_eq!(flat.representative_of(i as u32), rep);
            assert_eq!(sharded.representative_of(i as u32), rep);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn one_pass_compacting_build_matches_the_two_step_path(
            n in 1usize..600,
            seed in 0u64..1_000_000,
            flat in 0u8..2,
            eps in 0.05f32..1.0,
        ) {
            let points = awkward_points(n, seed, flat == 1);
            for workers in [1usize, 2, 3, 8] {
                assert_front_end_matches_two_step(&points, eps, workers);
            }
        }
    }

    /// A compacting LBVH index, flat or sharded, sorts all its points once
    /// and charges that pass over its representatives: four scatters each
    /// and, for a chunked sort, 4 × 256 prefix-sum merges per chunk of
    /// `min(workers, representatives)`.  The shard BLASes emit from the
    /// sorted lane without charging a sort of their own.
    #[test]
    fn compacting_indexes_charge_one_morton_pass_over_the_representatives() {
        let piles: Vec<Point3> = (0..600)
            .map(|i| Point3::new((i % 3) as f32, 1.0, 0.0))
            .collect();
        let blobs: Vec<Point3> = blob_points(500, 9)
            .into_iter()
            .flat_map(|p| [p, p])
            .collect();
        for points in [piles, blobs] {
            let reps = points
                .iter()
                .map(|p| p.bit_key())
                .collect::<std::collections::HashSet<_>>()
                .len() as u64;
            for workers in [1usize, 2, 3, 8] {
                let config = NeighborIndexBuilder {
                    compaction: true,
                    build_parallelism: parallelism(workers),
                    ..flat_config()
                };
                let chunks = reps.min(workers as u64);
                let merges = if chunks > 1 { 4 * 256 * chunks } else { 0 };
                let flat = WideBatchedIndex::build(&config, &points, 0.25).unwrap();
                let sharded = ShardedIndex::build(
                    &NeighborIndexBuilder {
                        sharding: Some(crate::bvh::ShardingConfig::new(64)),
                        ..config
                    },
                    &points,
                    0.25,
                )
                .unwrap();
                let at = format!("reps={reps} workers={workers}");
                for c in [flat.build_counters(), sharded.build_counters()] {
                    assert_eq!(c.build_sort_ops, 4 * reps, "{at}");
                    assert_eq!(c.build_chunk_merges, merges, "{at}");
                    assert_eq!(c.compaction_merges, points.len() as u64 - reps);
                }
            }
        }
    }

    #[test]
    fn sharded_matches_flat_rows_and_candidate_counters() {
        let pts = blob_points(700, 5);
        let eps = 0.6f32;
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let sharded = ShardedIndex::build(&sharded_config(64), &pts, eps).unwrap();
        assert!(sharded.shard_count() > 1, "scene must actually shard");

        let (flat_rows, flat_c) = sorted_rows(&flat, &pts, eps);
        let (shard_rows, shard_c) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(flat_rows, shard_rows);
        assert_eq!(flat_c.dist_comps, shard_c.dist_comps);
        assert_eq!(flat_c.prim_tests, shard_c.prim_tests);
        assert!(shard_c.tlas_node_visits > 0);
        assert!(shard_c.blas_launches > 0);
    }

    #[test]
    fn sharded_counts_match_flat_counts() {
        let pts = blob_points(500, 9);
        let eps = 0.5f32;
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        for exclude_self in [false, true] {
            let fc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let sc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let mut c1 = WorkCounters::ZERO;
            let mut c2 = WorkCounters::ZERO;
            flat.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c1, &fc);
            sharded.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c2, &sc);
            for (i, (f, s)) in fc.iter().zip(&sc).enumerate() {
                assert_eq!(
                    f.load(Ordering::Relaxed),
                    s.load(Ordering::Relaxed),
                    "query {i} exclude_self={exclude_self}"
                );
            }
            assert_eq!(c1.dist_comps, c2.dist_comps);
        }
    }

    /// A Morton self-join count launch walks the build's kept order
    /// instead of sorting: flat and sharded, exact and early exit, its
    /// counts and counters equal the launch that sorts its queries (the
    /// same index with the order dropped), except `misc_ops`, which loses
    /// the sort's 5n.  Launches that are not self-joins still sort.
    #[test]
    fn self_join_launches_walk_the_kept_build_order() {
        let n = 600;
        let eps = 0.7f32;
        for flat in [false, true] {
            let pts = awkward_points(n, 11, flat);
            for compaction in [false, true] {
                let flat_config = NeighborIndexBuilder {
                    compaction,
                    bvh_builder: BuilderKind::Lbvh,
                    query_order: QueryOrder::Morton,
                    batch_size: 32,
                    min_parallel_launch: 0,
                    ..NeighborIndexBuilder::new(IndexKind::WideBatched)
                };
                let sharded_config = NeighborIndexBuilder {
                    sharding: Some(ShardingConfig::new(96)),
                    ..flat_config
                };
                let mut flat_index = WideBatchedIndex::build(&flat_config, &pts, eps).unwrap();
                let mut sharded = ShardedIndex::build(&sharded_config, &pts, eps).unwrap();
                assert!(flat_index.build_order().is_some() && sharded.build_order().is_some());
                let kept = |index: &dyn NeighborIndex| {
                    [None, Some(3)].map(|early| count_launch(index, &pts, eps, true, early))
                };
                let walked = (kept(&flat_index), kept(&sharded));
                // A launch that is no self-join sorts even with the order
                // kept.
                let sort = 5 * n as u64;
                for index in [&flat_index as &dyn NeighborIndex, &sharded] {
                    let (_, c) = count_launch(index, &pts, eps, false, None);
                    assert_eq!(c.misc_ops, sort, "flat={flat} compaction={compaction}");
                }
                flat_index.forget_build_order();
                sharded.forget_build_order();
                let sorted = (kept(&flat_index), kept(&sharded));
                for (walked, sorted) in [(walked.0, sorted.0), (walked.1, sorted.1)] {
                    for ((counts, c), (sorted_counts, sorted_c)) in walked.into_iter().zip(sorted) {
                        assert_eq!(counts, sorted_counts, "flat={flat} compaction={compaction}");
                        assert_eq!(c.misc_ops, 0);
                        assert_eq!(
                            WorkCounters {
                                misc_ops: sort,
                                ..c
                            },
                            sorted_c,
                            "flat={flat} compaction={compaction}"
                        );
                    }
                }
            }
            // Removing points leaves the kept order stale: the maintenance
            // hook drops it, and self-joins sort again.
            let config = NeighborIndexBuilder {
                bvh_builder: BuilderKind::Lbvh,
                query_order: QueryOrder::Morton,
                ..NeighborIndexBuilder::new(IndexKind::WideBatched)
            };
            let sharded_config = NeighborIndexBuilder {
                sharding: Some(ShardingConfig::new(96)),
                ..config
            };
            let mut flat_index = WideBatchedIndex::build(&config, &pts, eps).unwrap();
            flat_index.remove(&[3]).unwrap();
            let mut sharded = ShardedIndex::build(&sharded_config, &pts, eps).unwrap();
            sharded.remove(&[5]).unwrap();
            assert!(flat_index.build_order().is_none() && sharded.build_order().is_none());
        }
    }

    /// One count launch over `pts`.
    fn count_launch(
        index: &dyn NeighborIndex,
        pts: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
    ) -> (Vec<u64>, WorkCounters) {
        let cells: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
        let mut c = WorkCounters::ZERO;
        index.batch_neighbor_counts(pts, eps, exclude_self, early_exit, &mut c, &cells);
        (cells.into_iter().map(AtomicU64::into_inner).collect(), c)
    }

    /// Early exit on a two-shard line whose every query overlaps both
    /// shards, in one packet.  At `min_pts = 1` each query reaches the cap
    /// in the first shard's sub-launch, so the second shard's sub-launch
    /// runs for no query: half the rays, one BLAS launch instead of two,
    /// and the second shard is never heated.  At `min_pts = 40` no shard
    /// holds enough hits to stop a query, so every count and counter is
    /// the exact launch's.
    #[test]
    fn queries_that_reach_the_cap_skip_later_shard_sub_launches() {
        let pts: Vec<Point3> = (0..64)
            .map(|i| Point3::new(i as f32 * 0.1, 0.0, 0.0))
            .collect();
        let eps = 10.0f32;
        let config = NeighborIndexBuilder {
            batch_size: 64,
            ..sharded_config(32)
        };
        let sharded = ShardedIndex::build(&config, &pts, eps).unwrap();
        assert_eq!(sharded.shard_count(), 2);
        let launch = |early_exit: Option<u64>| {
            let cells: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let mut c = WorkCounters::ZERO;
            sharded.batch_neighbor_counts(&pts, eps, true, early_exit, &mut c, &cells);
            let counts: Vec<u64> = cells.into_iter().map(AtomicU64::into_inner).collect();
            (counts, c)
        };
        let (exact, exact_c) = launch(None);
        assert!(exact.iter().all(|&c| c == 63));
        assert_eq!(exact_c.blas_launches, 2);
        assert_eq!(exact_c.rays, 128);

        let heat_before = sharded.shard_heat(1);
        let (early, early_c) = launch(Some(1));
        assert!(early.iter().all(|&c| c >= 1), "{early:?}");
        assert_eq!(early_c.blas_launches, 1);
        assert_eq!(early_c.rays, 64);
        assert!(early_c.dist_comps < exact_c.dist_comps);
        assert_eq!(
            sharded.shard_heat(1),
            heat_before,
            "the later shard runs no sub-launch"
        );

        let (split, split_c) = launch(Some(40));
        assert_eq!(split, exact, "queries split across shards count exactly");
        assert_eq!(split_c, exact_c);
    }

    /// Per-packet routing plans exactly the `(shard, position)` pairs a
    /// per-ray TLAS descent enumerates: random packets (scattered ones that
    /// straddle shards, coherent ones, points outside the scene), through a
    /// random launch permutation, over a scene with a degraded and a
    /// retired shard.
    #[test]
    fn packet_plan_equals_per_ray_tlas_enumeration() {
        let pts = blob_points(800, 21);
        let eps = 0.5f32;
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        assert!(sharded.shard_count() > 4);
        sharded
            .quarantine_shard(1, QuarantineReason::ValidationFailed)
            .unwrap();
        let shard2: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| sharded.owner_shard(i) == Some(2))
            .collect();
        sharded.remove(&shard2).unwrap();
        assert!(matches!(sharded.shards[1], ShardSlot::Degraded(_)));
        assert!(matches!(sharded.shards[2], ShardSlot::Retired));

        let mut state = 0x9e37_79b9_u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        // Queries: every indexed point, a few far outside the scene, and a
        // few exactly on the retired shard's old points.
        let mut queries = pts.clone();
        queries.extend((0..20).map(|i| Point3::new(-50.0 + i as f32, 100.0, 3.0)));
        queries.extend(shard2.iter().take(10).map(|&i| pts[i as usize]));
        let mut perm: Vec<u32> = (0..queries.len() as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, next(i + 1));
        }

        let (mut origins, mut pairs) = (Vec::new(), Vec::new());
        let mut overlaps = Vec::new();
        let mut straddled = 0;
        for round in 0..200 {
            let len = 1 + next(64);
            let start = next(queries.len() - len + 1);
            // Alternate caller order (scattered packets under the random
            // permutation, coherent runs without one).
            let ids = (round % 2 == 0).then_some(perm.as_slice());
            let mut c = WorkCounters::ZERO;
            ShardedIndex::plan_packet(
                &sharded.tlas,
                &sharded.shards,
                &queries,
                ids,
                start,
                len,
                &mut origins,
                &mut pairs,
                &mut c,
            );
            let mut expected = Vec::new();
            let mut per_ray = WorkCounters::ZERO;
            for pos in 0..len {
                let origin = queries[caller_ordinal(ids, start + pos)];
                assert_eq!(origins[pos], origin);
                overlaps.clear();
                sharded
                    .tlas
                    .overlapping(&Ray::epsilon_ray(origin), &mut per_ray, &mut overlaps);
                for &s in &overlaps {
                    if sharded.shards[s as usize].answers() {
                        expected.push((s, pos as u32));
                    }
                }
            }
            expected.sort_unstable();
            assert_eq!(pairs, expected, "round {round}: start {start} len {len}");
            let mut shards_hit: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
            shards_hit.dedup();
            straddled += usize::from(shards_hit.len() > 1);
            assert!(c.tlas_node_visits > 0);
        }
        assert!(straddled > 20, "random packets must straddle shards");
    }

    #[test]
    fn eviction_drops_blases_and_keeps_answers_correct() {
        let pts = blob_points(300, 33);
        let eps = 0.5f32;
        let mut sharded = ShardedIndex::build(&sharded_config(32), &pts, eps).unwrap();
        let before = sharded.live_shard_count();
        let mut gone = vec![false; pts.len()];
        // Remaining queries answer exactly (vs brute force).
        let check = |sharded: &ShardedIndex, gone: &[bool]| {
            let mut c = WorkCounters::ZERO;
            for q in (0..pts.len()).step_by(17) {
                let mut got = sharded.neighbors_of(pts[q], eps, Some(q as u32), &mut c);
                got.sort_unstable();
                let want: Vec<u32> = (0..pts.len())
                    .filter(|&j| j != q && !gone[j] && pts[j].distance_squared(pts[q]) <= eps * eps)
                    .map(|j| j as u32)
                    .collect();
                assert_eq!(got, want, "query {q}");
            }
        };
        // Evict every point of shard 0 → that BLAS must drop.
        let shard0: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| sharded.owner_shard(i) == Some(0))
            .collect();
        assert!(!shard0.is_empty());
        sharded.remove(&shard0).unwrap();
        assert_eq!(sharded.live_shard_count(), before - 1);
        assert_eq!(sharded.owner_shard(shard0[0]), None);
        shard0.iter().for_each(|&i| gone[i as usize] = true);
        check(&sharded, &gone);
        // Retire every third survivor: the touched shards refit in place.
        let thinned: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| !gone[i as usize] && i % 3 == 0)
            .collect();
        let work = sharded.remove(&thinned).unwrap();
        assert!(work.refit_node_ops > 0 || work.refits > 0);
        thinned.iter().for_each(|&i| gone[i as usize] = true);
        check(&sharded, &gone);
        // Retiring the rest empties the scene: no BLAS is left live.
        let rest: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| !gone[i as usize])
            .collect();
        sharded.remove(&rest).unwrap();
        assert!(sharded.is_empty());
        assert_eq!(sharded.live_shard_count(), 0);
        check(&sharded, &vec![true; pts.len()]);
    }

    /// Every shard holds one resident copy of its scene (BVH4 nodes plus
    /// 20 B per lane slot), and the scene's bytes are the shards' plus the
    /// TLAS nodes; a degraded shard holds its spheres alone.
    #[test]
    fn every_shard_keeps_one_resident_copy() {
        let pts = blob_points(600, 12);
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, 0.5).unwrap();
        assert!(sharded.live_shard_count() > 4);
        let tlas = (sharded.tlas.nodes.len() * std::mem::size_of::<crate::bvh::TlasNode>()) as u64;
        let mut total = tlas;
        for slot in &sharded.shards {
            let blas = slot.live().expect("every shard builds live");
            crate::index::bvh_backend::tests::assert_one_resident_copy(blas);
            total += blas.device_bytes();
        }
        assert_eq!(sharded.device_bytes(), total);
        let live0 = sharded.shards[0].live().unwrap().device_bytes();
        let prims0 = sharded.shards[0]
            .live()
            .unwrap()
            .wide_scene()
            .unwrap()
            .primitive_count();
        sharded
            .quarantine_shard(0, QuarantineReason::Evicted)
            .unwrap();
        assert_eq!(
            sharded.device_bytes(),
            total - live0 + (prims0 * std::mem::size_of::<Sphere>()) as u64
        );
    }

    #[test]
    fn empty_scene_builds_and_answers_empty() {
        let sharded = ShardedIndex::build(&sharded_config(32), &[], 1.0).unwrap();
        assert!(sharded.is_empty());
        assert_eq!(sharded.shard_count(), 0);
        let mut c = WorkCounters::ZERO;
        assert!(sharded
            .neighbors_of(Point3::ORIGIN, 1.0, None, &mut c)
            .is_empty());
    }

    #[test]
    fn quarantined_shard_answers_exactly_and_recovers() {
        let pts = blob_points(500, 77);
        let eps = 0.6f32;
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        assert!(sharded.shard_count() > 1);
        let (healthy_rows, healthy_c) = sorted_rows(&sharded, &pts, eps);

        sharded
            .quarantine_shard(0, QuarantineReason::ValidationFailed)
            .unwrap();
        assert_eq!(sharded.degraded_shard_count(), 1);
        assert_eq!(
            sharded.quarantined_shards(),
            vec![(0, QuarantineReason::ValidationFailed)]
        );
        // The exact fallback answers bit-identically, at degraded cost.
        let (degraded_rows, degraded_c) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, degraded_rows);
        assert!(degraded_c.dist_comps >= healthy_c.dist_comps);

        // Count mode through the fallback too.
        for exclude_self in [false, true] {
            let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
            let fc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let sc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let mut c = WorkCounters::ZERO;
            flat.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c, &fc);
            sharded.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c, &sc);
            for (i, (f, s)) in fc.iter().zip(&sc).enumerate() {
                assert_eq!(
                    f.load(Ordering::Relaxed),
                    s.load(Ordering::Relaxed),
                    "query {i} exclude_self={exclude_self}"
                );
            }
        }

        // One recovery pass rebuilds the shard to live service with
        // bit-identical query results.
        let stats = sharded.recover(RetryPolicy::default());
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(sharded.degraded_shard_count(), 0);
        let (recovered_rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, recovered_rows);
    }

    #[test]
    fn verify_shards_passes_on_a_healthy_scene() {
        let pts = blob_points(300, 13);
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, 0.5).unwrap();
        assert!(sharded.verify_shards().is_empty());
        assert_eq!(sharded.degraded_shard_count(), 0);
    }

    #[test]
    fn budget_evicts_coldest_then_refuses() {
        let pts = blob_points(400, 55);
        let eps = 0.5f32;
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        let (healthy_rows, _) = sorted_rows(&sharded, &pts, eps);
        let bytes = sharded.device_bytes();

        // Within budget: nothing degrades.
        sharded.enforce_budget(MemoryBudget::Bytes(bytes)).unwrap();
        assert_eq!(sharded.degraded_shard_count(), 0);
        assert_eq!(sharded.device_bytes(), bytes);

        // Slightly over: evicting the coldest BLAS frees enough.
        sharded
            .enforce_budget(MemoryBudget::Bytes(bytes - 1))
            .unwrap();
        assert_eq!(sharded.degraded_shard_count(), 1, "one eviction suffices");
        assert!(sharded.device_bytes() < bytes);
        let (rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, rows, "answers survive the eviction");

        // Absurdly tight: every BLAS evicts and the scene still refuses.
        let err = sharded.enforce_budget(MemoryBudget::Bytes(1)).unwrap_err();
        assert!(matches!(err, Error::OverBudget { budget: 1, .. }));
        assert_eq!(sharded.live_shard_count(), 0);
        assert!(sharded.degraded_shard_count() > 0);
        assert!(sharded
            .quarantined_shards()
            .iter()
            .all(|&(_, r)| r == QuarantineReason::Evicted));
        // Evicted shards still answer exactly through the fallback...
        let (rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, rows);
        // ...and rebuild on demand.
        let stats = sharded.recover(RetryPolicy::default());
        assert_eq!(stats.rebuilt, sharded.shard_count());
        assert_eq!(sharded.live_shard_count(), sharded.shard_count());
        let (rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, rows);
    }

    #[test]
    fn launches_tick_shard_heat() {
        let pts = blob_points(300, 3);
        let eps = 0.5f32;
        let sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        let (_, _) = sorted_rows(&sharded, &pts, eps);
        let total: u64 = (0..sharded.shard_count() as u32)
            .map(|s| sharded.shard_heat(s))
            .sum();
        assert!(total > 0, "launches must heat the shards they touch");
    }

    #[test]
    fn cancellable_launch_returns_structured_partial() {
        use crate::fault::{CancelScope, CancelToken};
        let pts = blob_points(300, 8);
        let eps = 0.5f32;
        let sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();

        // Pre-cancelled: structured error, zero partial work surfaced.
        let token = CancelToken::new();
        token.cancel();
        let scope = CancelScope::with_token(&token);
        let mut c = WorkCounters::ZERO;
        let sink = |_: usize, _: Neighbor, _: &mut WorkCounters| NeighborFlow::Continue;
        let err = sharded
            .batch_neighbors_cancellable(&pts, eps, &mut c, &sink, &scope)
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }));
        assert_eq!(c, WorkCounters::ZERO, "partial work is never accumulated");

        // Inactive scope: identical counters to the plain launch.
        let mut plain = WorkCounters::ZERO;
        sharded.batch_neighbors(&pts, eps, &mut plain, &sink);
        let mut checked = WorkCounters::ZERO;
        sharded
            .batch_neighbors_cancellable(&pts, eps, &mut checked, &sink, &CancelScope::none())
            .unwrap();
        assert_eq!(plain, checked, "inactive scope must not perturb counters");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn poisoned_shards_degrade_at_birth_and_stay_exact() {
        use crate::fault::FaultPlan;
        let pts = blob_points(400, 91);
        let eps = 0.6f32;
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let config = NeighborIndexBuilder {
            fault: FaultPlan::Seeded { seed: 7, one_in: 1 },
            ..sharded_config(48)
        };
        // `one_in: 1` poisons every shard: the whole scene starts degraded
        // yet still builds and answers exactly.
        let sharded = ShardedIndex::build(&config, &pts, eps).unwrap();
        assert_eq!(sharded.live_shard_count(), 0);
        assert_eq!(sharded.degraded_shard_count(), sharded.shard_count());
        let (flat_rows, _) = sorted_rows(&flat, &pts, eps);
        let (shard_rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(flat_rows, shard_rows);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn rebuild_retries_back_off_and_exhaust() {
        use crate::fault::FaultPlan;
        let pts = blob_points(300, 17);
        let eps = 0.5f32;
        let config = NeighborIndexBuilder {
            fault: FaultPlan::Seeded { seed: 3, one_in: 1 },
            ..sharded_config(48)
        };
        let mut sharded = ShardedIndex::build(&config, &pts, eps).unwrap();
        let degraded = sharded.degraded_shard_count();
        assert!(degraded > 0);
        let policy = RetryPolicy::default();
        // `one_in: 1` also fails every rebuild attempt; drive recovery past
        // the attempt cap and the shards must exhaust, not panic or loop.
        let mut saw_deferred = false;
        let mut last = RecoveryStats::default();
        for _ in 0..32 {
            last = sharded.recover(policy);
            saw_deferred |= last.deferred > 0;
        }
        assert_eq!(last.exhausted, degraded, "every shard exhausts its budget");
        assert!(saw_deferred, "backoff must defer attempts between retries");
        // Exhausted shards keep answering exactly through the fallback.
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let (flat_rows, _) = sorted_rows(&flat, &pts, eps);
        let (shard_rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(flat_rows, shard_rows);
    }
}
