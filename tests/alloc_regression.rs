//! Allocation regression tests for the zero-allocation hot path.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up launch has grown every scratch arena, repeated batched
//! neighbour launches on a reused index (or engine session) must perform
//! **zero** heap allocations — the property the `TraversalScratch` /
//! `ScratchPool` design exists to provide.  Measurements run on the
//! sequential dispatch path (the parallel path hands work to scoped
//! threads, whose spawning allocates by design), that is, entirely on the
//! calling thread.  The allocator counts per thread, so tests running
//! concurrently in the same binary cannot blur each other's counts.
//!
//! The same file property-tests the CSR output mode: on blobs plus exact
//! duplicates plus exact-ε boundary pairs, `batch_neighbors_csr` must
//! report exactly the callback-mode neighbour sets (per query, in order)
//! at exactly the callback-mode counter cost, and `batch_neighbor_counts`
//! must agree with per-query counting.

use proptest::prelude::*;
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{CsrNeighbors, IndexKind, NeighborFlow, NeighborIndexBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by the current thread.  `const`-initialised
    /// and without a destructor, so the allocator can bump it without
    /// allocating.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc_call() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls performed by `f` on the calling thread (alloc +
/// alloc_zeroed + realloc).
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Three dense blobs plus exact duplicates plus an exact-ε pair — the
/// boundary zoo the equivalence suites use.
fn workload(n_per_blob: usize, eps: f32) -> Vec<Point3> {
    let mut pts = Vec::new();
    for b in 0..3 {
        let cx = (b % 2) as f32 * 8.0;
        let cy = (b / 2) as f32 * 8.0;
        for i in 0..n_per_blob {
            let a = i as f32 * 0.61;
            let r = 1.2 * ((i * 13 + b * 5) % 17) as f32 / 17.0;
            pts.push(Point3::new_2d(cx + r * a.cos(), cy + r * a.sin()));
        }
    }
    pts.push(pts[0]);
    pts.push(pts[0]); // exact duplicates
    pts.push(Point3::new_2d(50.0, 0.0));
    pts.push(Point3::new_2d(50.0 + eps, 0.0)); // exact-ε pair
    pts
}

/// A builder whose batched launches stay on the sequential dispatch path.
fn sequential_builder(kind: IndexKind) -> NeighborIndexBuilder {
    NeighborIndexBuilder {
        min_parallel_launch: usize::MAX,
        batch_size: 128,
        ..NeighborIndexBuilder::new(kind)
    }
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

#[test]
fn steady_state_batch_neighbors_is_allocation_free_on_every_backend() {
    let eps = 0.9f32;
    let points = workload(400, eps);
    for kind in IndexKind::ALL {
        let index = sequential_builder(kind).build(&points, eps).unwrap();
        let hits = AtomicU64::new(0);
        let sink = |_q: usize, _n: rtcore::index::Neighbor, _c: &mut WorkCounters| {
            hits.fetch_add(1, Ordering::Relaxed);
            NeighborFlow::Continue
        };

        // Warm-up launch: grows every per-worker scratch arena.
        let mut counters = WorkCounters::ZERO;
        index.batch_neighbors(&points, eps, &mut counters, &sink);
        let warm_hits = hits.swap(0, Ordering::Relaxed);
        assert!(warm_hits > 0, "{kind:?}: workload must produce neighbours");

        // Steady state: repeated launches on the reused index allocate
        // nothing at all.
        let allocs = allocations_during(|| {
            for _ in 0..3 {
                let mut c = WorkCounters::ZERO;
                index.batch_neighbors(&points, eps, &mut c, &sink);
            }
        });
        assert_eq!(
            allocs, 0,
            "{kind:?}: steady-state batch_neighbors must not allocate"
        );
        assert_eq!(hits.load(Ordering::Relaxed), 3 * warm_hits, "{kind:?}");
    }
}

#[test]
fn steady_state_count_mode_is_allocation_free() {
    let eps = 0.9f32;
    let points = workload(400, eps);
    for kind in [IndexKind::BinaryBvh, IndexKind::WideBatched] {
        let index = sequential_builder(kind).build(&points, eps).unwrap();
        let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();

        let mut counters = WorkCounters::ZERO;
        index.batch_neighbor_counts(&points, eps, true, None, &mut counters, &counts);

        let allocs = allocations_during(|| {
            for _ in 0..3 {
                for c in &counts {
                    c.store(0, Ordering::Relaxed);
                }
                let mut c = WorkCounters::ZERO;
                index.batch_neighbor_counts(&points, eps, true, None, &mut c, &counts);
            }
        });
        assert_eq!(
            allocs, 0,
            "{kind:?}: steady-state batch_neighbor_counts must not allocate"
        );
    }
}

/// Warm one sink launch and one count launch on `index`, then assert that
/// three more of each allocate nothing on the calling thread.
fn assert_sink_and_count_steady_state(
    index: &dyn rtcore::index::NeighborIndex,
    points: &[Point3],
    eps: f32,
    what: &str,
) {
    let hits = AtomicU64::new(0);
    let sink = |_q: usize, _n: rtcore::index::Neighbor, _c: &mut WorkCounters| {
        hits.fetch_add(1, Ordering::Relaxed);
        NeighborFlow::Continue
    };
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut warm = WorkCounters::ZERO;
    index.batch_neighbors(points, eps, &mut warm, &sink);
    index.batch_neighbor_counts(points, eps, true, None, &mut warm, &counts);
    let warm_hits = hits.swap(0, Ordering::Relaxed);
    assert!(warm_hits > 0, "{what}: workload must produce neighbours");

    let sink_allocs = allocations_during(|| {
        for _ in 0..3 {
            let mut c = WorkCounters::ZERO;
            index.batch_neighbors(points, eps, &mut c, &sink);
        }
    });
    assert_eq!(
        sink_allocs, 0,
        "{what}: steady-state batch_neighbors must not allocate"
    );
    assert_eq!(hits.load(Ordering::Relaxed), 3 * warm_hits, "{what}");

    let count_allocs = allocations_during(|| {
        for _ in 0..3 {
            for c in &counts {
                c.store(0, Ordering::Relaxed);
            }
            let mut c = WorkCounters::ZERO;
            index.batch_neighbor_counts(points, eps, true, None, &mut c, &counts);
        }
    });
    assert_eq!(
        count_allocs, 0,
        "{what}: steady-state batch_neighbor_counts must not allocate"
    );
}

#[test]
fn steady_state_sharded_launches_are_allocation_free() {
    use rtcore::bvh::BuilderKind;
    use rtcore::index::{QueryOrder, ShardingConfig};

    // The two-level scene: per-packet TLAS routing, per-shard sub-launches
    // and the packet-local count cells all run on pooled, grow-only
    // scratch, in caller order and in Morton order.
    let eps = 0.9f32;
    let points = workload(400, eps);
    for order in [QueryOrder::AsGiven, QueryOrder::Morton] {
        let index = NeighborIndexBuilder {
            bvh_builder: BuilderKind::Lbvh,
            query_order: order,
            sharding: Some(ShardingConfig::new(64)),
            ..sequential_builder(IndexKind::WideBatched)
        }
        .build(&points, eps)
        .unwrap();
        assert!(
            index.as_sharded().is_some_and(|s| s.shard_count() > 1),
            "the scene must actually shard"
        );
        assert_sink_and_count_steady_state(
            index.as_ref(),
            &points,
            eps,
            &format!("sharded {order:?}"),
        );
    }
}

#[test]
fn steady_state_morton_launches_are_allocation_free() {
    use rtcore::index::QueryOrder;

    // Morton-ordered wide launches: the pooled reorder scratch (keys,
    // permutation, radix lane) and the permutation-gathered ray staging
    // are grow-only.
    let eps = 0.9f32;
    let points = workload(400, eps);
    let index = NeighborIndexBuilder {
        query_order: QueryOrder::Morton,
        ..sequential_builder(IndexKind::WideBatched)
    }
    .build(&points, eps)
    .unwrap();
    assert_sink_and_count_steady_state(index.as_ref(), &points, eps, "wide Morton");
}

#[test]
fn steady_state_session_launches_are_allocation_free() {
    use rtdbscan::engine::{Algo, ClusterEngine};

    // Small enough that the engine's default launch configuration stays on
    // the sequential dispatch path (n < min_parallel_launch).
    let eps = 0.9f32;
    let points = workload(60, eps);
    assert!(points.len() < 256);
    let engine = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .index(IndexKind::WideBatched)
        .eps(eps)
        .min_pts(4)
        .build()
        .unwrap();
    // The session's construction performs the index build and the stage-1
    // count — the warm-up that sizes every scratch arena.
    let session = engine.session(&points).unwrap();
    let index = session.index();
    let hits = AtomicU64::new(0);
    let sink = |_q: usize, _n: rtcore::index::Neighbor, _c: &mut WorkCounters| {
        hits.fetch_add(1, Ordering::Relaxed);
        NeighborFlow::Continue
    };
    let mut c = WorkCounters::ZERO;
    index.batch_neighbors(&points, eps, &mut c, &sink);

    let allocs = allocations_during(|| {
        for _ in 0..3 {
            let mut c = WorkCounters::ZERO;
            index.batch_neighbors(&points, eps, &mut c, &sink);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state launches through a reused engine session must not allocate"
    );
    assert!(hits.load(Ordering::Relaxed) > 0);
}

#[test]
fn inert_cancel_scope_is_allocation_free_and_counter_identical() {
    use rtcore::fault::CancelScope;

    // The robustness layer must be provably free when unused: with
    // `FaultPlan::Off` (the builder default) and `CancelScope::none()`,
    // steady-state cancellable launches perform zero heap allocations and
    // count bit-identical work to the unchecked entry point.
    let eps = 0.9f32;
    let points = workload(400, eps);
    let scope = CancelScope::none();
    for kind in [IndexKind::BinaryBvh, IndexKind::WideBatched] {
        let index = sequential_builder(kind).build(&points, eps).unwrap();
        let sink =
            |_q: usize, _n: rtcore::index::Neighbor, _c: &mut WorkCounters| NeighborFlow::Continue;

        let mut unchecked = WorkCounters::ZERO;
        index.batch_neighbors(&points, eps, &mut unchecked, &sink);

        let mut checked = WorkCounters::ZERO;
        let allocs = allocations_during(|| {
            for _ in 0..3 {
                checked = WorkCounters::ZERO;
                index
                    .batch_neighbors_cancellable(&points, eps, &mut checked, &sink, &scope)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "{kind:?}: an inert scope must not allocate in steady state"
        );
        assert_eq!(
            checked, unchecked,
            "{kind:?}: deadline checks must not change counted work"
        );
    }
}

#[test]
fn csr_rebuild_into_warm_buffers_is_allocation_free() {
    use rtcore::bvh::{spheres_from_points, BvhBuilder, SahBuilder, WideBvh};
    use rtcore::geometry::Ray;
    use rtcore::traversal::{collect_sphere_hits_csr, TraversalScratch};

    let eps = 0.9f32;
    let points = workload(200, eps);
    let bvh = SahBuilder::default()
        .build(spheres_from_points(&points, eps))
        .unwrap();
    let wide = WideBvh::from_binary(&bvh);
    let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();
    let exclude: Vec<Option<u32>> = (0..points.len()).map(|i| Some(i as u32)).collect();

    let mut scratch = TraversalScratch::default();
    let mut csr = CsrNeighbors::new();
    let mut c = WorkCounters::ZERO;
    collect_sphere_hits_csr(&wide, &rays, &exclude, &mut scratch, &mut c, &mut csr);
    assert!(csr.total_neighbors() > 0);

    let allocs = allocations_during(|| {
        for _ in 0..3 {
            let mut c = WorkCounters::ZERO;
            collect_sphere_hits_csr(&wide, &rays, &exclude, &mut scratch, &mut c, &mut csr);
        }
    });
    assert_eq!(
        allocs, 0,
        "CSR rebuilds into warm buffers must not allocate"
    );
}

#[test]
fn explicit_telemetry_off_keeps_the_steady_state_allocation_free() {
    use rtcore::telemetry::TelemetryConfig;

    // `TelemetryConfig::Off` is the default, but the knob must also cost
    // nothing when spelled out: no recorder is allocated and the warm
    // steady state stays allocation-free, so opting the field in (even
    // explicitly) cannot regress the zero-allocation hot path.
    let eps = 0.9f32;
    let points = workload(400, eps);
    for kind in [IndexKind::BinaryBvh, IndexKind::WideBatched] {
        let index = NeighborIndexBuilder {
            telemetry: TelemetryConfig::Off,
            ..sequential_builder(kind)
        }
        .build(&points, eps)
        .unwrap();
        assert!(
            index.telemetry().is_none() && index.heatmap().is_none(),
            "{kind:?}: Off must not allocate a recorder or heatmap"
        );
        let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();

        let mut counters = WorkCounters::ZERO;
        index.batch_neighbor_counts(&points, eps, true, None, &mut counters, &counts);

        let allocs = allocations_during(|| {
            for _ in 0..3 {
                let mut c = WorkCounters::ZERO;
                index.batch_neighbor_counts(&points, eps, true, None, &mut c, &counts);
            }
        });
        assert_eq!(
            allocs, 0,
            "{kind:?}: explicit TelemetryConfig::Off must not allocate in steady state"
        );
    }
}

// ---------------------------------------------------------------------------
// CSR ≡ callback mode (property test)
// ---------------------------------------------------------------------------

fn callback_lists(
    index: &dyn rtcore::index::NeighborIndex,
    points: &[Point3],
    eps: f32,
) -> (Vec<Vec<u32>>, WorkCounters) {
    let lists: Vec<Mutex<Vec<u32>>> = (0..points.len()).map(|_| Mutex::new(Vec::new())).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbors(points, eps, &mut counters, &|q, n, _| {
        lists[q].lock().unwrap().push(n.index);
        NeighborFlow::Continue
    });
    (
        lists.into_iter().map(|m| m.into_inner().unwrap()).collect(),
        counters,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn csr_output_equals_callback_mode_on_every_backend(
        n_per_blob in 20usize..60,
        eps in 0.4f32..1.2,
        seed in 0u64..u64::MAX,
    ) {
        let mut points = workload(n_per_blob, eps);
        // Seed-dependent jitter point so cases differ.
        points.push(Point3::new_2d((seed % 97) as f32 * 0.1, (seed % 89) as f32 * 0.1));
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind).build(&points, eps).unwrap();
            let (lists, cb_counters) = callback_lists(index.as_ref(), &points, eps);

            let mut csr_counters = WorkCounters::ZERO;
            let csr = index.batch_neighbors_csr(&points, eps, &mut csr_counters);

            prop_assert!(
                cb_counters == csr_counters,
                "{:?}: CSR mode changed counted work: {:?} vs {:?}",
                kind, cb_counters, csr_counters
            );
            prop_assert_eq!(csr.num_queries(), points.len());
            for (q, list) in lists.iter().enumerate() {
                prop_assert!(
                    csr.neighbors(q) == list.as_slice(),
                    "{:?} query {} differs: {:?} vs {:?}",
                    kind, q, csr.neighbors(q), list
                );
            }
        }
    }

    #[test]
    fn count_mode_equals_per_query_counts_on_every_backend(
        n_per_blob in 20usize..60,
        eps in 0.4f32..1.2,
        early_exit_bit in 0u64..2,
    ) {
        let early_exit = early_exit_bit == 1;
        let points = workload(n_per_blob, eps);
        let min_pts = 5u64;
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind).build(&points, eps).unwrap();

            // Reference: the count stop rule driven through callback mode.
            // The raw hit sum includes the query's own point, so the count
            // (one less) reaches min_pts at a raw sum of min_pts + 1.
            let ref_counts: Vec<AtomicU64> =
                (0..points.len()).map(|_| AtomicU64::new(0)).collect();
            let mut ref_counters = WorkCounters::ZERO;
            index.batch_neighbors(&points, eps, &mut ref_counters, &|q, nb, _| {
                let add = nb.multiplicity as u64;
                let total = ref_counts[q].fetch_add(add, Ordering::Relaxed) + add;
                if early_exit && total > min_pts {
                    NeighborFlow::Stop
                } else {
                    NeighborFlow::Continue
                }
            });
            for cell in &ref_counts {
                cell.store(cell.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
            }

            let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
            let mut counters = WorkCounters::ZERO;
            index.batch_neighbor_counts(
                &points,
                eps,
                true,
                early_exit.then_some(min_pts),
                &mut counters,
                &counts,
            );

            prop_assert!(
                ref_counters == counters,
                "{:?} early_exit={}: count mode changed counted work: {:?} vs {:?}",
                kind, early_exit, ref_counters, counters
            );
            for q in 0..points.len() {
                prop_assert!(
                    counts[q].load(Ordering::Relaxed) == ref_counts[q].load(Ordering::Relaxed),
                    "{:?} early_exit={} query {}: {} vs {}",
                    kind, early_exit, q,
                    counts[q].load(Ordering::Relaxed),
                    ref_counts[q].load(Ordering::Relaxed)
                );
            }
        }
    }
}
