//! Cross-crate tests for the wide (BVH4) batched traversal engine and the
//! workspace-wide ε-boundary convention.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Engine equivalence** — RT-DBSCAN on the wide batched engine, RT-DBSCAN
//!    on the binary oracle engine, and the sequential `ClassicDbscan`
//!    reference produce the same clustering, across synthetic and degenerate
//!    duplicate-point workloads, with counters proving both RT paths
//!    answered the same queries.
//! 2. **ε-boundary convention** — the neighbourhood is a *closed* ball
//!    evaluated on squared `f32` distances (`d² <= ε²`).  Points exactly ε
//!    apart are neighbours in every implementation; the first value past ε
//!    is not.
//! 3. **Parameter validation** — every algorithm entry point rejects
//!    `eps <= 0`, non-finite `eps` and `min_pts == 0` with a typed error.

use proptest::prelude::*;
use rtcore::geometry::Point3;
use rtcore::hardware::CostProfile;
use rtcore::hardware::WorkCounters;
use rtcore::index::{IndexKind, NeighborIndexBuilder};
use rtdbscan::metrics::same_clustering;
use rtdbscan::{
    ClassicDbscan, CudaDclustPlus, DbscanAlgorithm, DbscanParams, Fdbscan, GDbscan, RtDbscan,
};
use rtdbscan_datasets::{generate, PaperDataset};
use rtdbscan_stream::StreamingSnapshotAlgorithm;

/// Simulated node-visit charge of a counter set on the RT-core profile —
/// the quantity the wide engine is supposed to shrink.
fn node_visit_charge(c: &rtcore::hardware::WorkCounters) -> f64 {
    let profile = CostProfile::rt_core();
    c.node_visits as f64 * profile.node_visit_ns
        + c.wide_node_visits as f64 * profile.wide_visit_ns()
}

#[test]
fn wide_batched_beats_binary_on_simulated_node_visits_at_scale() {
    // Fig-6-style workload, large enough that tree depth matters.
    let points = generate(PaperDataset::PortoTaxi, 30_000, 7);
    let params = DbscanParams::new(0.4, 8).unwrap();

    let wide = RtDbscan::default().run(&points, params).unwrap();
    let binary = RtDbscan::with_binary_traversal()
        .run(&points, params)
        .unwrap();

    // Stage 1 answered identical queries on both paths: same rays, same
    // exact distance filters, same primitive candidates, same answers.
    let (w, b) = (
        &wide.counters.core_identification,
        &binary.counters.core_identification,
    );
    assert_eq!(w.rays, b.rays);
    assert_eq!(w.dist_comps, b.dist_comps);
    assert_eq!(w.prim_tests, b.prim_tests);
    assert_eq!(wide.clustering.core, binary.clustering.core);
    // Stage 2's sampling launch stops each query after its first core
    // neighbours in the backend's emission order, so its query work differs
    // between the engines; the clustering it forms may not: bit-identical
    // labels, and the same number of merges.
    assert_eq!(wide.clustering.labels, binary.clustering.labels);
    assert_eq!(
        wide.counters.cluster_formation.union_ops,
        binary.counters.cluster_formation.union_ops
    );
    assert!(same_clustering(
        &wide.clustering,
        &binary.clustering,
        &points,
        params
    ));

    // The wide engine charges strictly less simulated node-visit time.
    let wide_total = node_visit_charge(&wide.counters.core_identification)
        + node_visit_charge(&wide.counters.cluster_formation);
    let binary_total = node_visit_charge(&binary.counters.core_identification)
        + node_visit_charge(&binary.counters.cluster_formation);
    assert!(
        wide_total < binary_total,
        "wide {wide_total} ns vs binary {binary_total} ns"
    );
}

#[test]
fn points_exactly_eps_apart_are_neighbors_everywhere() {
    // Dyadic coordinates and radii: every arithmetic step below is exact in
    // f32, so "exactly ε apart" means exactly ε², and the closed-ball
    // convention is observable rather than rounding luck.
    for eps in [0.25f32, 0.5, 1.0, 1.5] {
        // A chain of points spaced exactly eps apart, plus one point just
        // past the boundary.
        let n = 8usize;
        let mut points: Vec<Point3> = (0..n)
            .map(|i| Point3::new_2d(i as f32 * eps, 0.0))
            .collect();
        let past_eps = f32::from_bits(((n as f32 * eps).to_bits()) + 1);
        points.push(Point3::new_2d(past_eps, 0.0)); // beyond the last chain point by 1 ulp

        let search = NeighborIndexBuilder::new(IndexKind::BinaryBvh)
            .build(&points, eps)
            .unwrap();
        let mut scratch = WorkCounters::ZERO;
        for i in 0..n {
            let mut got = search.neighbors_of(points[i], eps, Some(i as u32), &mut scratch);
            got.sort_unstable();
            let mut expected: Vec<u32> = (0..n as u32)
                .filter(|&j| {
                    j != i as u32 && points[i].distance_squared(points[j as usize]) <= eps * eps
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "eps={eps} i={i}");
            // Chain neighbours at exactly eps are inside the closed ball.
            if i + 1 < n {
                assert!(
                    got.contains(&((i + 1) as u32)),
                    "eps={eps}: point {} at exactly eps must be a neighbour",
                    i + 1
                );
            }
        }
        // The 1-ulp-past point is not a neighbour of the chain end.
        assert!(!search
            .neighbors_of(points[n - 1], eps, Some((n - 1) as u32), &mut scratch)
            .contains(&(n as u32)));

        // Every algorithm agrees on the clustering of the boundary chain.
        let params = DbscanParams::new(eps, 2).unwrap();
        let reference = ClassicDbscan::cluster(&points, params).unwrap();
        let algorithms: Vec<Box<dyn DbscanAlgorithm>> = vec![
            Box::new(RtDbscan::default()),
            Box::new(RtDbscan::with_binary_traversal()),
            Box::new(Fdbscan::default()),
            Box::new(GDbscan::default()),
            Box::new(CudaDclustPlus::default()),
            Box::new(StreamingSnapshotAlgorithm::default()),
        ];
        for algo in algorithms {
            let run = algo.run(&points, params).unwrap();
            assert_eq!(
                reference.core,
                run.clustering.core,
                "{} core flags at eps={eps}",
                algo.name()
            );
            assert!(
                same_clustering(&reference, &run.clustering, &points, params),
                "{} clustering at eps={eps}",
                algo.name()
            );
        }
    }
}

#[test]
fn every_entry_point_rejects_invalid_parameters() {
    let points: Vec<Point3> = (0..10).map(|i| Point3::new_2d(i as f32, 0.0)).collect();
    let algorithms: Vec<Box<dyn DbscanAlgorithm>> = vec![
        Box::new(ClassicDbscan),
        Box::new(RtDbscan::default()),
        Box::new(Fdbscan::default()),
        Box::new(GDbscan::default()),
        Box::new(CudaDclustPlus::default()),
        Box::new(StreamingSnapshotAlgorithm::default()),
    ];
    let bad_params = [
        DbscanParams {
            eps: 0.0,
            min_pts: 3,
        },
        DbscanParams {
            eps: -1.0,
            min_pts: 3,
        },
        DbscanParams {
            eps: f32::NAN,
            min_pts: 3,
        },
        DbscanParams {
            eps: f32::INFINITY,
            min_pts: 3,
        },
        DbscanParams {
            eps: 1.0,
            min_pts: 0,
        },
    ];
    for algo in &algorithms {
        for params in bad_params {
            let result = algo.run(&points, params);
            assert!(
                matches!(result, Err(rtcore::Error::InvalidConfig(_))),
                "{} must reject eps={} min_pts={}",
                algo.name(),
                params.eps,
                params.min_pts
            );
        }
    }
    // And the checked constructor refuses to build them in the first place.
    assert!(DbscanParams::new(0.0, 3).is_err());
    assert!(DbscanParams::new(f32::NEG_INFINITY, 3).is_err());
    assert!(DbscanParams::new(1.0, 0).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: batched BVH4 traversal returns the same neighbour sets —
    /// and therefore the same clustering — as binary traversal and as the
    /// sequential reference, across random workloads mixing blobs, noise,
    /// exact duplicates and exact-ε boundary pairs.
    #[test]
    fn wide_binary_and_classic_cluster_identically(
        blob_count in 1usize..4,
        points_per_blob in 5usize..40,
        noise in 0usize..25,
        duplicates in 0usize..25,
        boundary_pairs in 0usize..8,
        eps_quarters in 1u32..8,      // eps in exact quarters: 0.25 .. 2.0
        min_pts in 2usize..8,
        seed in 0u64..1000,
    ) {
        let eps = eps_quarters as f32 * 0.25;
        let mut pts = Vec::new();
        for b in 0..blob_count {
            let cx = (b % 2) as f32 * 6.0;
            let cy = (b / 2) as f32 * 6.0;
            for i in 0..points_per_blob {
                let angle = (i as f32 + seed as f32) * 0.7;
                let radius = 0.8 * ((i * 7 + b * 3) % 10) as f32 / 10.0;
                pts.push(Point3::new_2d(cx + radius * angle.cos(), cy + radius * angle.sin()));
            }
        }
        for i in 0..noise {
            pts.push(Point3::new_2d(
                30.0 + (i as f32 * 13.7 + seed as f32) % 40.0,
                -30.0 - (i as f32 * 7.3) % 40.0,
            ));
        }
        // Exact duplicates exercise compaction + multiplicity under batching.
        for i in 0..duplicates.min(pts.len()) {
            pts.push(pts[i * 31 % pts.len()]);
        }
        // Pairs exactly eps apart (dyadic base coordinates keep it exact).
        for i in 0..boundary_pairs {
            let base = Point3::new_2d(-20.0 - 4.0 * i as f32, 25.0);
            pts.push(base);
            pts.push(Point3::new_2d(base.x + eps, base.y));
        }

        let params = DbscanParams::new(eps, min_pts).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let wide = RtDbscan::default().run(&pts, params).unwrap();
        let binary = RtDbscan::with_binary_traversal().run(&pts, params).unwrap();

        prop_assert_eq!(&reference.core, &wide.clustering.core);
        prop_assert_eq!(&reference.core, &binary.clustering.core);
        prop_assert!(same_clustering(&reference, &wide.clustering, &pts, params));
        prop_assert!(same_clustering(&reference, &binary.clustering, &pts, params));
        // Identical queries on both engines.
        prop_assert_eq!(
            wide.counters.core_identification.rays,
            binary.counters.core_identification.rays
        );
        prop_assert_eq!(
            wide.counters.core_identification.dist_comps,
            binary.counters.core_identification.dist_comps
        );
    }
}
