//! Cross-crate tests for the coherence-aware traversal stack: Morton query
//! reordering and SIMD kernel dispatch.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Reordering is invisible in the answers** — a Morton-ordered run
//!    produces identical clusterings (core flags + partition, hence
//!    identical labels after canonical renaming), identical per-query
//!    neighbour sets, bit-identical CSR rows, and identical
//!    `dist_comps` / `prim_tests` to an `AsGiven` run, across every
//!    backend, on blobs plus exact duplicates plus exact-ε boundary
//!    pairs.  Only the shared `wide_node_visits` may (and on incoherent
//!    input must) drop.
//! 2. **SIMD is bit-exact** — forcing the scalar kernels reproduces the
//!    auto-dispatched run exactly, counters included.

use proptest::prelude::*;
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{IndexKind, NeighborFlow, NeighborIndexBuilder, QueryOrder, SimdPolicy};
use rtdbscan::engine::{Algo, ClusterEngine};
use rtdbscan::metrics::same_clustering;
use rtdbscan::DbscanParams;
use std::sync::Mutex;

/// Blobs + exact duplicates + an exact-ε pair, with a seed-driven jitter
/// point so proptest cases differ.
fn workload(n_per_blob: usize, eps: f32, seed: u64) -> Vec<Point3> {
    let mut pts = Vec::new();
    for b in 0..3 {
        let cx = (b % 2) as f32 * 9.0;
        let cy = (b / 2) as f32 * 9.0;
        for i in 0..n_per_blob {
            let a = i as f32 * 0.57 + b as f32;
            let r = 1.3 * ((i * 7 + b * 3) % 19) as f32 / 19.0;
            pts.push(Point3::new_2d(cx + r * a.cos(), cy + r * a.sin()));
        }
    }
    pts.push(pts[0]);
    pts.push(pts[0]); // exact duplicates
    pts.push(Point3::new_2d(60.0, 0.0));
    pts.push(Point3::new_2d(60.0 + eps, 0.0)); // exact-ε pair
    pts.push(Point3::new_2d(
        (seed % 97) as f32 * 0.09,
        (seed % 89) as f32 * 0.09,
    ));
    pts
}

/// Canonical label renaming: clusters numbered by first appearance, noise
/// kept as-is.  Two label vectors describe the same partition iff their
/// canonical forms are equal.
fn normalize_labels(labels: &[i64]) -> Vec<i64> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            if l < 0 {
                l
            } else {
                let next = map.len() as i64;
                *map.entry(l).or_insert(next)
            }
        })
        .collect()
}

/// Per-query sorted neighbour lists plus launch counters through the sink
/// surface.
fn sink_lists(
    index: &dyn rtcore::index::NeighborIndex,
    queries: &[Point3],
    eps: f32,
) -> (Vec<Vec<u32>>, WorkCounters) {
    let lists: Vec<Mutex<Vec<u32>>> = (0..queries.len()).map(|_| Mutex::new(Vec::new())).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbors(queries, eps, &mut counters, &|q, n, _| {
        lists[q].lock().unwrap().push(n.index);
        NeighborFlow::Continue
    });
    let mut out: Vec<Vec<u32>> = lists.into_iter().map(|m| m.into_inner().unwrap()).collect();
    for l in &mut out {
        l.sort_unstable();
    }
    (out, counters)
}

fn builder_with(kind: IndexKind, order: QueryOrder) -> NeighborIndexBuilder {
    NeighborIndexBuilder {
        query_order: order,
        batch_size: 96,
        min_parallel_launch: usize::MAX, // deterministic sequential dispatch
        ..NeighborIndexBuilder::new(kind)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn morton_reordering_is_invisible_in_every_output_mode(
        n_per_blob in 25usize..70,
        eps in 0.5f32..1.3,
        seed in 0u64..u64::MAX,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let points = workload(n_per_blob, eps, seed);
        for kind in IndexKind::ALL {
            let as_given = builder_with(kind, QueryOrder::AsGiven).build(&points, eps).unwrap();
            let morton = builder_with(kind, QueryOrder::Morton).build(&points, eps).unwrap();

            // Sink mode: identical per-query neighbour sets.
            let (lists_a, c_a) = sink_lists(as_given.as_ref(), &points, eps);
            let (lists_m, c_m) = sink_lists(morton.as_ref(), &points, eps);
            prop_assert_eq!(&lists_a, &lists_m, "{:?} sink lists", kind);
            prop_assert_eq!(c_a.rays, c_m.rays, "{:?} rays", kind);
            prop_assert_eq!(c_a.dist_comps, c_m.dist_comps, "{:?} dist_comps", kind);
            prop_assert_eq!(c_a.prim_tests, c_m.prim_tests, "{:?} prim_tests", kind);

            // CSR mode: bit-identical rows (caller order restored, and
            // within-row emission order is invariant under reordering).
            let mut cc_a = WorkCounters::ZERO;
            let mut cc_m = WorkCounters::ZERO;
            let csr_a = as_given.batch_neighbors_csr(&points, eps, &mut cc_a);
            let csr_m = morton.batch_neighbors_csr(&points, eps, &mut cc_m);
            prop_assert_eq!(csr_a.num_queries(), csr_m.num_queries());
            for q in 0..points.len() {
                prop_assert_eq!(csr_a.neighbors(q), csr_m.neighbors(q), "{:?} CSR row {}", kind, q);
            }
            prop_assert_eq!(cc_a.dist_comps, cc_m.dist_comps, "{:?} CSR dist_comps", kind);

            // Count mode, with and without early exit.
            for early_exit in [None, Some(4u64)] {
                let counts_a: Vec<AtomicU64> =
                    (0..points.len()).map(|_| AtomicU64::new(0)).collect();
                let counts_m: Vec<AtomicU64> =
                    (0..points.len()).map(|_| AtomicU64::new(0)).collect();
                let mut k_a = WorkCounters::ZERO;
                let mut k_m = WorkCounters::ZERO;
                as_given.batch_neighbor_counts(&points, eps, true, early_exit, &mut k_a, &counts_a);
                morton.batch_neighbor_counts(&points, eps, true, early_exit, &mut k_m, &counts_m);
                let a: Vec<u64> = counts_a.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                let m: Vec<u64> = counts_m.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                prop_assert_eq!(a, m, "{:?} counts (exit {:?})", kind, early_exit);
                prop_assert_eq!(
                    k_a.dist_comps, k_m.dist_comps,
                    "{:?} count dist_comps (exit {:?})", kind, early_exit
                );
                prop_assert_eq!(k_a.prim_tests, k_m.prim_tests, "{:?} count prim_tests", kind);
            }
        }
    }

    #[test]
    fn morton_runs_cluster_identically_across_algorithms_and_backends(
        n_per_blob in 25usize..60,
        eps in 0.5f32..1.1,
        min_pts in 2usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let points = workload(n_per_blob, eps, seed);
        let params = DbscanParams::new(eps, min_pts).unwrap();
        for kind in IndexKind::ALL {
            for algo in [Algo::Rt, Algo::FdbscanEarlyExit, Algo::GDbscan] {
                let run = |order: QueryOrder| {
                    ClusterEngine::builder()
                        .algorithm(algo)
                        .index(kind)
                        .params(params)
                        .query_order(order)
                        .build()
                        .unwrap()
                        .run(&points)
                        .unwrap()
                };
                let a = run(QueryOrder::AsGiven);
                let m = run(QueryOrder::Morton);
                prop_assert_eq!(
                    &a.clustering.core, &m.clustering.core,
                    "{:?} on {:?} core flags", algo, kind
                );
                prop_assert!(
                    same_clustering(&a.clustering, &m.clustering, &points, params),
                    "{algo:?} on {kind:?} partition"
                );
                prop_assert_eq!(
                    normalize_labels(&a.clustering.labels),
                    normalize_labels(&m.clustering.labels),
                    "{:?} on {:?} canonical labels", algo, kind
                );
                let (ca, cm) = (a.counters.total(), m.counters.total());
                prop_assert_eq!(ca.dist_comps, cm.dist_comps, "{:?} on {:?} dist_comps", algo, kind);
                prop_assert_eq!(ca.prim_tests, cm.prim_tests, "{:?} on {:?} prim_tests", algo, kind);
                prop_assert_eq!(ca.rays, cm.rays, "{:?} on {:?} rays", algo, kind);
            }
        }
    }

    #[test]
    fn simd_levels_and_layouts_answer_identically(
        n_per_blob in 25usize..60,
        eps in 0.5f32..1.2,
        seed in 0u64..u64::MAX,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let points = workload(n_per_blob, eps, seed);
        let build = |simd: SimdPolicy| {
            NeighborIndexBuilder {
                simd,
                ..builder_with(IndexKind::WideBatched, QueryOrder::Morton)
            }
            .build(&points, eps)
            .unwrap()
        };
        let reference = build(SimdPolicy::Scalar);
        let (ref_lists, ref_counters) = sink_lists(reference.as_ref(), &points, eps);
        let ref_counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
        let mut ref_cc = WorkCounters::ZERO;
        reference.batch_neighbor_counts(&points, eps, true, None, &mut ref_cc, &ref_counts);
        let ref_counts: Vec<u64> = ref_counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();

        for simd in [SimdPolicy::Auto, SimdPolicy::Sse2, SimdPolicy::Avx2] {
            let index = build(simd);
            let (lists, counters) = sink_lists(index.as_ref(), &points, eps);
            prop_assert_eq!(&ref_lists, &lists, "{:?} neighbour sets", simd);
            let counts: Vec<AtomicU64> =
                (0..points.len()).map(|_| AtomicU64::new(0)).collect();
            let mut cc = WorkCounters::ZERO;
            index.batch_neighbor_counts(&points, eps, true, None, &mut cc, &counts);
            let counts: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            prop_assert_eq!(&ref_counts, &counts, "{:?} counts", simd);
            // SIMD must be invisible in every counter.
            prop_assert_eq!(ref_counters, counters, "{:?} sink counters", simd);
            prop_assert_eq!(ref_cc, cc, "{:?} count counters", simd);
        }
    }
}

#[test]
fn morton_reduces_wide_node_visits_on_incoherent_input() {
    use std::sync::atomic::AtomicU64;
    // Round-robin interleave of four far-apart clusters: launch order is
    // maximally incoherent, so packets in dataset order span all four
    // clusters while Morton packets stay within one.
    let points: Vec<Point3> = (0..2000)
        .map(|i| {
            Point3::new_2d(
                (i % 4) as f32 * 500.0 + ((i / 4) % 25) as f32 * 0.4,
                ((i / 100) % 5) as f32 * 0.4,
            )
        })
        .collect();
    let eps = 0.6f32;
    let run = |order: QueryOrder| {
        let index = builder_with(IndexKind::WideBatched, order)
            .build(&points, eps)
            .unwrap();
        let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
        let mut c = WorkCounters::ZERO;
        index.batch_neighbor_counts(&points, eps, true, None, &mut c, &counts);
        c
    };
    let a = run(QueryOrder::AsGiven);
    let m = run(QueryOrder::Morton);
    assert_eq!(a.dist_comps, m.dist_comps);
    assert_eq!(a.prim_tests, m.prim_tests);
    assert_eq!(a.batched_launches, m.batched_launches);
    assert!(
        m.wide_node_visits < a.wide_node_visits,
        "morton {} should visit fewer wide nodes than as-given {}",
        m.wide_node_visits,
        a.wide_node_visits
    );
}
