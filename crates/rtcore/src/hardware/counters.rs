//! Work counters.
//!
//! Two flavours are provided:
//!
//! * [`WorkCounters`] — a plain value type.  Traversals return one per query
//!   and callers fold them; this keeps the hot path free of atomics, which is
//!   the pattern the hpc guides recommend for rayon reductions.
//! * [`SharedCounters`] — an atomic accumulator for contexts where a shared
//!   sink is more convenient (for example a parallel launch).
//!
//! All accumulation (the `+`/`+=` impls, the aggregate helpers and the
//! [`SharedCounters`] merges) uses **saturating** arithmetic: a long-running
//! streaming deployment folds counters for days, and a silent wrap in a
//! release build would corrupt every downstream cost-model read.  Clamping at
//! `u64::MAX` is both detectable and harmless.

use std::ops::{Add, AddAssign, Sub};
// Under the `loom` feature the counter atomics become model-aware so the
// interleaving checker can drive `SharedCounters` through every schedule;
// production builds use the std atomics unchanged.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-operation work counts accumulated while building and traversing
/// scenes or while running a clustering algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Rays launched (one per fixed-radius query).
    pub rays: u64,
    /// Internal BVH nodes visited during traversal.
    pub node_visits: u64,
    /// Wide (BVH4) nodes visited during batched traversal.  One wide visit
    /// tests up to four child AABBs; the device cost model charges it at a
    /// configurable fraction of four binary visits.
    pub wide_node_visits: u64,
    /// Batched traversal launches (one per ray packet handed to the wide
    /// traversal engine).
    pub batched_launches: u64,
    /// Top-level (TLAS) nodes visited while enumerating the bottom-level
    /// scenes a query overlaps in a two-level (sharded) scene.
    pub tlas_node_visits: u64,
    /// Bottom-level (BLAS) traversal launches dispatched by the sharded
    /// backend — one per (packet, overlapping shard) pair.
    pub blas_launches: u64,
    /// Ray–AABB slab tests performed.
    pub aabb_tests: u64,
    /// Primitive intersection-program invocations (ray–sphere tests).
    pub prim_tests: u64,
    /// AnyHit-program invocations (only used by the triangle-geometry
    /// ablation of Section VI-C; the sphere path never calls AnyHit).
    pub anyhit_invocations: u64,
    /// Euclidean distance computations (the filter inside the intersection
    /// program, and all distance work done by non-RT baselines).
    pub dist_comps: u64,
    /// Primitives processed by a BVH / index build.
    pub build_prims: u64,
    /// Scatter operations performed by the builder's radix sort.
    pub build_sort_ops: u64,
    /// Node emission / refit operations performed by a builder.
    pub build_node_ops: u64,
    /// Cross-chunk histogram merges performed by the parallel radix sort's
    /// exclusive prefix-sum (zero on the sequential build path).
    pub build_chunk_merges: u64,
    /// Arena splice / child-index fix-up operations performed when the
    /// treelet-parallel emitter stitches per-treelet node arenas into the
    /// final array (zero on the sequential build path).
    pub build_splice_ops: u64,
    /// Primitives merged away by the compaction pass.
    pub compaction_merges: u64,
    /// Union operations on a disjoint-set structure.
    pub union_ops: u64,
    /// Find (root lookup) operations on a disjoint-set structure.
    pub find_ops: u64,
    /// Neighbour-list entries appended (G-DBSCAN graph construction, BFS
    /// frontier pushes, chain expansions …).
    pub list_ops: u64,
    /// Miscellaneous per-point bookkeeping operations.
    pub misc_ops: u64,
    /// Node AABB recomputations performed by an in-place BVH refit.
    pub refit_node_ops: u64,
    /// Refit passes performed (the cheap branch of the streaming update
    /// policy).
    pub refits: u64,
    /// Full acceleration-structure rebuilds performed (the expensive branch
    /// of the streaming update policy).
    pub rebuilds: u64,
}

/// Saturating fold of a slice of counter values.
#[inline]
fn sat_sum(parts: &[u64]) -> u64 {
    parts.iter().fold(0u64, |acc, &x| acc.saturating_add(x))
}

/// Saturating in-place bump of a single counter cell: the one blessed way
/// to increment a [`WorkCounters`] field outside this module.  The
/// `counter-arith` lint (`cargo xtask analyze`) denies bare `+=` on counter
/// fields so every accumulation path shares the module-level saturation
/// discipline.
#[inline]
pub fn sat_bump(cell: &mut u64, n: u64) {
    *cell = cell.saturating_add(n);
}

impl WorkCounters {
    /// A counter set with every field zero.
    pub const ZERO: WorkCounters = WorkCounters {
        rays: 0,
        node_visits: 0,
        wide_node_visits: 0,
        batched_launches: 0,
        tlas_node_visits: 0,
        blas_launches: 0,
        aabb_tests: 0,
        prim_tests: 0,
        anyhit_invocations: 0,
        dist_comps: 0,
        build_prims: 0,
        build_sort_ops: 0,
        build_node_ops: 0,
        build_chunk_merges: 0,
        build_splice_ops: 0,
        compaction_merges: 0,
        union_ops: 0,
        find_ops: 0,
        list_ops: 0,
        misc_ops: 0,
        refit_node_ops: 0,
        refits: 0,
        rebuilds: 0,
    };

    /// Sum of all traversal-side counters (everything except build work).
    pub fn traversal_ops(&self) -> u64 {
        sat_sum(&[
            self.rays,
            self.node_visits,
            self.wide_node_visits,
            self.batched_launches,
            self.tlas_node_visits,
            self.blas_launches,
            self.aabb_tests,
            self.prim_tests,
            self.anyhit_invocations,
            self.dist_comps,
        ])
    }

    /// Sum of all build-side counters.
    pub fn build_ops(&self) -> u64 {
        sat_sum(&[
            self.build_prims,
            self.build_sort_ops,
            self.build_node_ops,
            self.build_chunk_merges,
            self.build_splice_ops,
            self.compaction_merges,
        ])
    }

    /// Sum of all refit-side counters (charged separately from full builds
    /// so the streaming update policy's two branches stay distinguishable —
    /// in particular, a refit never pays the fixed pipeline-setup cost).
    pub fn refit_ops(&self) -> u64 {
        sat_sum(&[self.refit_node_ops, self.refits])
    }

    /// Total work units of any kind.
    pub fn total_ops(&self) -> u64 {
        sat_sum(&[
            self.traversal_ops(),
            self.build_ops(),
            self.refit_ops(),
            self.union_ops,
            self.find_ops,
            self.list_ops,
            self.misc_ops,
            self.rebuilds,
        ])
    }

    /// The non-zero counter fields as `(label, value)` rows in declaration
    /// order — the one shared shape every pretty-printer (bench reports,
    /// the telemetry summary table, trace-event args) renders from, so a
    /// new counter field added here shows up everywhere at once.
    pub fn summary_rows(&self) -> Vec<(&'static str, u64)> {
        let all = [
            ("rays", self.rays),
            ("node_visits", self.node_visits),
            ("wide_node_visits", self.wide_node_visits),
            ("batched_launches", self.batched_launches),
            ("tlas_node_visits", self.tlas_node_visits),
            ("blas_launches", self.blas_launches),
            ("aabb_tests", self.aabb_tests),
            ("prim_tests", self.prim_tests),
            ("anyhit_invocations", self.anyhit_invocations),
            ("dist_comps", self.dist_comps),
            ("build_prims", self.build_prims),
            ("build_sort_ops", self.build_sort_ops),
            ("build_node_ops", self.build_node_ops),
            ("build_chunk_merges", self.build_chunk_merges),
            ("build_splice_ops", self.build_splice_ops),
            ("compaction_merges", self.compaction_merges),
            ("union_ops", self.union_ops),
            ("find_ops", self.find_ops),
            ("list_ops", self.list_ops),
            ("misc_ops", self.misc_ops),
            ("refit_node_ops", self.refit_node_ops),
            ("refits", self.refits),
            ("rebuilds", self.rebuilds),
        ];
        all.into_iter().filter(|&(_, v)| v != 0).collect()
    }

    /// [`WorkCounters::summary_rows`] joined into one `label=value` line.
    pub fn summary_line(&self) -> String {
        self.summary_rows()
            .iter()
            .map(|(label, value)| format!("{label}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;
    fn add(self, rhs: WorkCounters) -> WorkCounters {
        WorkCounters {
            rays: self.rays.saturating_add(rhs.rays),
            node_visits: self.node_visits.saturating_add(rhs.node_visits),
            wide_node_visits: self.wide_node_visits.saturating_add(rhs.wide_node_visits),
            batched_launches: self.batched_launches.saturating_add(rhs.batched_launches),
            tlas_node_visits: self.tlas_node_visits.saturating_add(rhs.tlas_node_visits),
            blas_launches: self.blas_launches.saturating_add(rhs.blas_launches),
            aabb_tests: self.aabb_tests.saturating_add(rhs.aabb_tests),
            prim_tests: self.prim_tests.saturating_add(rhs.prim_tests),
            anyhit_invocations: self
                .anyhit_invocations
                .saturating_add(rhs.anyhit_invocations),
            dist_comps: self.dist_comps.saturating_add(rhs.dist_comps),
            build_prims: self.build_prims.saturating_add(rhs.build_prims),
            build_sort_ops: self.build_sort_ops.saturating_add(rhs.build_sort_ops),
            build_node_ops: self.build_node_ops.saturating_add(rhs.build_node_ops),
            build_chunk_merges: self
                .build_chunk_merges
                .saturating_add(rhs.build_chunk_merges),
            build_splice_ops: self.build_splice_ops.saturating_add(rhs.build_splice_ops),
            compaction_merges: self.compaction_merges.saturating_add(rhs.compaction_merges),
            union_ops: self.union_ops.saturating_add(rhs.union_ops),
            find_ops: self.find_ops.saturating_add(rhs.find_ops),
            list_ops: self.list_ops.saturating_add(rhs.list_ops),
            misc_ops: self.misc_ops.saturating_add(rhs.misc_ops),
            refit_node_ops: self.refit_node_ops.saturating_add(rhs.refit_node_ops),
            refits: self.refits.saturating_add(rhs.refits),
            rebuilds: self.rebuilds.saturating_add(rhs.rebuilds),
        }
    }
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, rhs: WorkCounters) {
        *self = *self + rhs;
    }
}

impl Sub for WorkCounters {
    type Output = WorkCounters;
    /// Saturating field-wise difference — the delta between two snapshots
    /// of a monotonically growing accumulator (telemetry spans charge the
    /// work performed while they were open this way).
    fn sub(self, rhs: WorkCounters) -> WorkCounters {
        WorkCounters {
            rays: self.rays.saturating_sub(rhs.rays),
            node_visits: self.node_visits.saturating_sub(rhs.node_visits),
            wide_node_visits: self.wide_node_visits.saturating_sub(rhs.wide_node_visits),
            batched_launches: self.batched_launches.saturating_sub(rhs.batched_launches),
            tlas_node_visits: self.tlas_node_visits.saturating_sub(rhs.tlas_node_visits),
            blas_launches: self.blas_launches.saturating_sub(rhs.blas_launches),
            aabb_tests: self.aabb_tests.saturating_sub(rhs.aabb_tests),
            prim_tests: self.prim_tests.saturating_sub(rhs.prim_tests),
            anyhit_invocations: self
                .anyhit_invocations
                .saturating_sub(rhs.anyhit_invocations),
            dist_comps: self.dist_comps.saturating_sub(rhs.dist_comps),
            build_prims: self.build_prims.saturating_sub(rhs.build_prims),
            build_sort_ops: self.build_sort_ops.saturating_sub(rhs.build_sort_ops),
            build_node_ops: self.build_node_ops.saturating_sub(rhs.build_node_ops),
            build_chunk_merges: self
                .build_chunk_merges
                .saturating_sub(rhs.build_chunk_merges),
            build_splice_ops: self.build_splice_ops.saturating_sub(rhs.build_splice_ops),
            compaction_merges: self.compaction_merges.saturating_sub(rhs.compaction_merges),
            union_ops: self.union_ops.saturating_sub(rhs.union_ops),
            find_ops: self.find_ops.saturating_sub(rhs.find_ops),
            list_ops: self.list_ops.saturating_sub(rhs.list_ops),
            misc_ops: self.misc_ops.saturating_sub(rhs.misc_ops),
            refit_node_ops: self.refit_node_ops.saturating_sub(rhs.refit_node_ops),
            refits: self.refits.saturating_sub(rhs.refits),
            rebuilds: self.rebuilds.saturating_sub(rhs.rebuilds),
        }
    }
}

impl std::iter::Sum for WorkCounters {
    fn sum<I: Iterator<Item = WorkCounters>>(iter: I) -> Self {
        iter.fold(WorkCounters::ZERO, |a, b| a + b)
    }
}

/// Saturating atomic add: CAS loop that clamps at `u64::MAX` instead of
/// wrapping.  Relaxed ordering is fine — counters carry no synchronisation
/// meaning (see [`SharedCounters::add`]).
fn saturating_fetch_add(cell: &AtomicU64, value: u64) {
    if value == 0 {
        return;
    }
    // ordering: Relaxed everywhere — each cell is an independent tally with
    // no payload guarded by it; the CAS only needs atomicity of the single
    // cell, and readers synchronise through the thread join, not the cell.
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(value);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// Atomic counter sink for parallel accumulation.
///
/// Field meanings match [`WorkCounters`]; use [`SharedCounters::add`] to fold
/// a per-thread [`WorkCounters`] in and [`SharedCounters::snapshot`] to read
/// the totals back out.
#[derive(Debug, Default)]
pub struct SharedCounters {
    rays: AtomicU64,
    node_visits: AtomicU64,
    wide_node_visits: AtomicU64,
    batched_launches: AtomicU64,
    tlas_node_visits: AtomicU64,
    blas_launches: AtomicU64,
    aabb_tests: AtomicU64,
    prim_tests: AtomicU64,
    anyhit_invocations: AtomicU64,
    dist_comps: AtomicU64,
    build_prims: AtomicU64,
    build_sort_ops: AtomicU64,
    build_node_ops: AtomicU64,
    build_chunk_merges: AtomicU64,
    build_splice_ops: AtomicU64,
    compaction_merges: AtomicU64,
    union_ops: AtomicU64,
    find_ops: AtomicU64,
    list_ops: AtomicU64,
    misc_ops: AtomicU64,
    refit_node_ops: AtomicU64,
    refits: AtomicU64,
    rebuilds: AtomicU64,
}

impl SharedCounters {
    /// Create a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a per-thread counter set into the shared totals, saturating at
    /// `u64::MAX`.
    ///
    /// Relaxed ordering is sufficient: the counters carry no synchronisation
    /// meaning, they are only summed after the parallel region joins.
    pub fn add(&self, c: &WorkCounters) {
        saturating_fetch_add(&self.rays, c.rays);
        saturating_fetch_add(&self.node_visits, c.node_visits);
        saturating_fetch_add(&self.wide_node_visits, c.wide_node_visits);
        saturating_fetch_add(&self.batched_launches, c.batched_launches);
        saturating_fetch_add(&self.tlas_node_visits, c.tlas_node_visits);
        saturating_fetch_add(&self.blas_launches, c.blas_launches);
        saturating_fetch_add(&self.aabb_tests, c.aabb_tests);
        saturating_fetch_add(&self.prim_tests, c.prim_tests);
        saturating_fetch_add(&self.anyhit_invocations, c.anyhit_invocations);
        saturating_fetch_add(&self.dist_comps, c.dist_comps);
        saturating_fetch_add(&self.build_prims, c.build_prims);
        saturating_fetch_add(&self.build_sort_ops, c.build_sort_ops);
        saturating_fetch_add(&self.build_node_ops, c.build_node_ops);
        saturating_fetch_add(&self.build_chunk_merges, c.build_chunk_merges);
        saturating_fetch_add(&self.build_splice_ops, c.build_splice_ops);
        saturating_fetch_add(&self.compaction_merges, c.compaction_merges);
        saturating_fetch_add(&self.union_ops, c.union_ops);
        saturating_fetch_add(&self.find_ops, c.find_ops);
        saturating_fetch_add(&self.list_ops, c.list_ops);
        saturating_fetch_add(&self.misc_ops, c.misc_ops);
        saturating_fetch_add(&self.refit_node_ops, c.refit_node_ops);
        saturating_fetch_add(&self.refits, c.refits);
        saturating_fetch_add(&self.rebuilds, c.rebuilds);
    }

    /// Read the accumulated totals.
    // ordering: Relaxed loads — callers snapshot after the parallel region
    // has joined (the join is the happens-before edge); a mid-run snapshot
    // is a monitoring read where per-cell tearing is acceptable by contract.
    pub fn snapshot(&self) -> WorkCounters {
        WorkCounters {
            rays: self.rays.load(Ordering::Relaxed),
            node_visits: self.node_visits.load(Ordering::Relaxed),
            wide_node_visits: self.wide_node_visits.load(Ordering::Relaxed),
            batched_launches: self.batched_launches.load(Ordering::Relaxed),
            tlas_node_visits: self.tlas_node_visits.load(Ordering::Relaxed),
            blas_launches: self.blas_launches.load(Ordering::Relaxed),
            aabb_tests: self.aabb_tests.load(Ordering::Relaxed),
            prim_tests: self.prim_tests.load(Ordering::Relaxed),
            anyhit_invocations: self.anyhit_invocations.load(Ordering::Relaxed),
            dist_comps: self.dist_comps.load(Ordering::Relaxed),
            build_prims: self.build_prims.load(Ordering::Relaxed),
            build_sort_ops: self.build_sort_ops.load(Ordering::Relaxed),
            build_node_ops: self.build_node_ops.load(Ordering::Relaxed),
            build_chunk_merges: self.build_chunk_merges.load(Ordering::Relaxed),
            build_splice_ops: self.build_splice_ops.load(Ordering::Relaxed),
            compaction_merges: self.compaction_merges.load(Ordering::Relaxed),
            union_ops: self.union_ops.load(Ordering::Relaxed),
            find_ops: self.find_ops.load(Ordering::Relaxed),
            list_ops: self.list_ops.load(Ordering::Relaxed),
            misc_ops: self.misc_ops.load(Ordering::Relaxed),
            refit_node_ops: self.refit_node_ops.load(Ordering::Relaxed),
            refits: self.refits.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero.
    // ordering: Relaxed stores — reset happens between measurement phases
    // when no concurrent writers exist; the phase boundary (join/spawn)
    // publishes the zeroes.
    pub fn reset(&self) {
        self.rays.store(0, Ordering::Relaxed);
        self.node_visits.store(0, Ordering::Relaxed);
        self.wide_node_visits.store(0, Ordering::Relaxed);
        self.batched_launches.store(0, Ordering::Relaxed);
        self.tlas_node_visits.store(0, Ordering::Relaxed);
        self.blas_launches.store(0, Ordering::Relaxed);
        self.aabb_tests.store(0, Ordering::Relaxed);
        self.prim_tests.store(0, Ordering::Relaxed);
        self.anyhit_invocations.store(0, Ordering::Relaxed);
        self.dist_comps.store(0, Ordering::Relaxed);
        self.build_prims.store(0, Ordering::Relaxed);
        self.build_sort_ops.store(0, Ordering::Relaxed);
        self.build_node_ops.store(0, Ordering::Relaxed);
        self.build_chunk_merges.store(0, Ordering::Relaxed);
        self.build_splice_ops.store(0, Ordering::Relaxed);
        self.compaction_merges.store(0, Ordering::Relaxed);
        self.union_ops.store(0, Ordering::Relaxed);
        self.find_ops.store(0, Ordering::Relaxed);
        self.list_ops.store(0, Ordering::Relaxed);
        self.misc_ops.store(0, Ordering::Relaxed);
        self.refit_node_ops.store(0, Ordering::Relaxed);
        self.refits.store(0, Ordering::Relaxed);
        self.rebuilds.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkCounters {
        WorkCounters {
            rays: 1,
            node_visits: 2,
            aabb_tests: 3,
            prim_tests: 4,
            anyhit_invocations: 14,
            dist_comps: 5,
            build_prims: 6,
            build_sort_ops: 7,
            build_node_ops: 8,
            compaction_merges: 9,
            union_ops: 10,
            find_ops: 11,
            list_ops: 12,
            misc_ops: 13,
            refit_node_ops: 15,
            refits: 16,
            rebuilds: 17,
            wide_node_visits: 18,
            batched_launches: 19,
            tlas_node_visits: 20,
            blas_launches: 21,
            build_chunk_merges: 22,
            build_splice_ops: 23,
        }
    }

    #[test]
    fn addition_is_fieldwise() {
        let a = sample();
        let b = sample();
        let c = a + b;
        assert_eq!(c.rays, 2);
        assert_eq!(c.misc_ops, 26);
        assert_eq!(c.wide_node_visits, 36);
        assert_eq!(c.batched_launches, 38);
        let mut d = WorkCounters::ZERO;
        d += a;
        assert_eq!(d, a);
    }

    #[test]
    fn aggregate_helpers() {
        let c = sample();
        assert_eq!(
            c.traversal_ops(),
            1 + 2 + 3 + 4 + 14 + 5 + 18 + 19 + 20 + 21
        );
        assert_eq!(c.build_ops(), 6 + 7 + 8 + 9 + 22 + 23);
        assert_eq!(c.refit_ops(), 15 + 16);
        assert_eq!(c.total_ops(), (1..=23).sum::<u64>());
    }

    #[test]
    fn sum_over_iterator() {
        let total: WorkCounters = (0..4).map(|_| sample()).sum();
        assert_eq!(total.rays, 4);
        assert_eq!(total.find_ops, 44);
    }

    #[test]
    fn addition_saturates_instead_of_wrapping() {
        let near_max = WorkCounters {
            rays: u64::MAX - 1,
            dist_comps: u64::MAX,
            ..WorkCounters::ZERO
        };
        let more = WorkCounters {
            rays: 10,
            dist_comps: 10,
            ..WorkCounters::ZERO
        };
        let sum = near_max + more;
        assert_eq!(sum.rays, u64::MAX);
        assert_eq!(sum.dist_comps, u64::MAX);
        let mut acc = near_max;
        acc += more;
        assert_eq!(acc.rays, u64::MAX);
    }

    #[test]
    fn aggregate_helpers_saturate() {
        let c = WorkCounters {
            rays: u64::MAX,
            node_visits: u64::MAX,
            build_prims: u64::MAX,
            ..WorkCounters::ZERO
        };
        assert_eq!(c.traversal_ops(), u64::MAX);
        assert_eq!(c.total_ops(), u64::MAX);
    }

    #[test]
    fn shared_counters_accumulate_and_reset() {
        let shared = SharedCounters::new();
        shared.add(&sample());
        shared.add(&sample());
        let snap = shared.snapshot();
        assert_eq!(snap.rays, 2);
        assert_eq!(snap.union_ops, 20);
        assert_eq!(snap.wide_node_visits, 36);
        shared.reset();
        assert_eq!(shared.snapshot(), WorkCounters::ZERO);
    }

    #[test]
    fn shared_counters_saturate() {
        let shared = SharedCounters::new();
        shared.add(&WorkCounters {
            rays: u64::MAX - 5,
            ..WorkCounters::ZERO
        });
        shared.add(&WorkCounters {
            rays: 100,
            ..WorkCounters::ZERO
        });
        assert_eq!(shared.snapshot().rays, u64::MAX);
    }

    #[test]
    fn shared_counters_parallel_accumulation() {
        use std::sync::Arc;
        let shared = Arc::new(SharedCounters::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add(&WorkCounters {
                            rays: 1,
                            ..WorkCounters::ZERO
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.snapshot().rays, 8000);
    }
}
