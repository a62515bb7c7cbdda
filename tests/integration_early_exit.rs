//! Stage-1 early exit: a count launch with `early_exit = Some(min_pts)`
//! stops each query at the hit that brings its count to `min_pts`.
//!
//! Pinned here, on every backend and on sharded scenes at several shard
//! sizes, over inputs with piles of exact duplicates (so a point's own
//! group alone can reach `min_pts` under compaction):
//!
//! 1. a count below `min_pts` is exact, and every other count is at least
//!    `min_pts` and at most the exact count;
//! 2. an early-exit launch charges no more work than the exact one, and
//!    the same work every time it runs, whatever the thread count;
//! 3. `Algo::Rt` engine runs stop stage 1 at `minPts`, flat and sharded,
//!    while sessions count exactly, and both label alike.  (That flat and
//!    sharded runs label like `RtDbscan::default()` is property-tested in
//!    `tests/integration_sharded.rs`.)

use proptest::prelude::*;
use rtcore::bvh::BuilderKind;
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{
    GeometryKind, IndexKind, NeighborIndex, NeighborIndexBuilder, QueryOrder, ShardingConfig,
};
use rtdbscan::engine::ClusterEngine;
use rtdbscan::{DbscanAlgorithm, DbscanParams, RtDbscan};
use std::sync::atomic::AtomicU64;

/// Blobs along a row (so clusters span shard cuts), scattered noise and
/// piles of exact duplicates of sizes 2..=`pile`.
fn workload(blobs: usize, per_blob: usize, piles: usize, pile: usize, seed: u64) -> Vec<Point3> {
    let mut pts = Vec::new();
    for b in 0..blobs {
        let cx = b as f32 * 3.0;
        for i in 0..per_blob {
            let angle = (i as f32 + seed as f32) * 0.7;
            let radius = 1.2 * ((i * 7 + b * 3 + seed as usize) % 10) as f32 / 10.0;
            pts.push(Point3::new_2d(
                cx + radius * angle.cos(),
                radius * angle.sin(),
            ));
        }
    }
    for i in 0..12 {
        pts.push(Point3::new_2d(
            -10.0 - (i as f32 * 3.1 + seed as f32) % 9.0,
            8.0 + (i as f32 * 1.7) % 5.0,
        ));
    }
    for p in 0..piles.min(pts.len()) {
        let at = pts[(p * 37 + seed as usize) % pts.len()];
        for _ in 0..2 + p % pile.max(1) {
            pts.push(at);
        }
    }
    pts
}

/// Every index configuration the stop rule must hold on: each backend
/// plain, the BVH backends compacting and with triangle geometry, the
/// engine's `Algo::Rt` index, and sharded LBVH scenes at several shard
/// sizes, compacting or not.
fn configs() -> Vec<(String, NeighborIndexBuilder)> {
    let mut out = Vec::new();
    for kind in IndexKind::ALL {
        let plain = NeighborIndexBuilder {
            min_parallel_launch: 0,
            batch_size: 32,
            ..NeighborIndexBuilder::new(kind)
        };
        out.push((format!("{kind:?}"), plain));
        if kind.is_bvh() {
            out.push((
                format!("{kind:?} compacting"),
                NeighborIndexBuilder {
                    compaction: true,
                    ..plain
                },
            ));
            // The tessellation ablation charges primitive tests and AnyHit
            // bounces per candidate, which a stopped run gives back.
            out.push((
                format!("{kind:?} triangles"),
                NeighborIndexBuilder {
                    geometry: GeometryKind::TriangleSpheres {
                        triangles_per_sphere: 12,
                    },
                    ..plain
                },
            ));
        }
    }
    let engine = ClusterEngine::builder()
        .eps(1.0)
        .min_pts(1)
        .build()
        .unwrap()
        .index_config();
    out.push(("engine Algo::Rt".into(), engine));
    for shard in [8usize, 24, 96] {
        for compaction in [false, true] {
            out.push((
                format!("sharded {shard} compaction={compaction}"),
                NeighborIndexBuilder {
                    sharding: Some(ShardingConfig::new(shard)),
                    compaction,
                    bvh_builder: BuilderKind::Lbvh,
                    query_order: QueryOrder::Morton,
                    min_parallel_launch: 0,
                    batch_size: 32,
                    ..NeighborIndexBuilder::new(IndexKind::WideBatched)
                },
            ));
        }
    }
    out
}

/// One self-join count launch over every point.
fn count_launch(
    index: &dyn NeighborIndex,
    points: &[Point3],
    eps: f32,
    early_exit: Option<u64>,
) -> (Vec<u64>, WorkCounters) {
    let cells: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts(points, eps, true, early_exit, &mut counters, &cells);
    (
        cells.into_iter().map(AtomicU64::into_inner).collect(),
        counters,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn early_exit_counts_are_exact_below_min_pts_and_capped_above(
        blobs in 1usize..4,
        per_blob in 8usize..50,
        piles in 0usize..8,
        pile in 1usize..10,
        eps in 0.3f32..1.4,
        min_pts in 1u64..=8,
        seed in 0u64..1000,
    ) {
        let points = workload(blobs, per_blob, piles, pile, seed);
        for (name, config) in configs() {
            let index = config.build(&points, eps).unwrap();
            let (exact, exact_work) = count_launch(index.as_ref(), &points, eps, None);
            let (early, early_work) = count_launch(index.as_ref(), &points, eps, Some(min_pts));
            for (q, (&e, &x)) in early.iter().zip(&exact).enumerate() {
                if x < min_pts {
                    prop_assert_eq!(e, x, "{} query {}: a count below min_pts must be exact", name, q);
                } else {
                    prop_assert!(
                        (min_pts..=x).contains(&e),
                        "{} query {}: early {} not in {}..={}", name, q, e, min_pts, x
                    );
                }
            }
            prop_assert!(
                early_work.dist_comps <= exact_work.dist_comps
                    && early_work.prim_tests <= exact_work.prim_tests
                    && early_work.anyhit_invocations <= exact_work.anyhit_invocations,
                "{}: early exit charged more than exact counting ({:?} vs {:?})",
                name, early_work, exact_work
            );
            let (again, again_work) = count_launch(index.as_ref(), &points, eps, Some(min_pts));
            prop_assert_eq!(&again, &early, "{}: counts must repeat", name);
            prop_assert_eq!(again_work, early_work, "{}: counters must repeat", name);
        }
    }
}

#[test]
fn engine_stage1_stops_at_min_pts_and_sessions_count_exactly() {
    // A dense blob: every point is core, so the run's stage 1 stops each
    // query long before its last candidate, while the session's stage 1
    // counts every neighbour.
    let points = workload(1, 400, 4, 6, 7);
    let params = DbscanParams::new(1.0, 4).unwrap();
    for shard in [None, Some(64)] {
        let mut builder = ClusterEngine::builder().params(params);
        if let Some(s) = shard {
            builder = builder.shard_size(s);
        }
        let engine = builder.build().unwrap();
        let run = engine.run(&points).unwrap();
        let session = engine.session(&points).unwrap();
        let (setup, _) = session.setup_cost();
        assert!(
            run.counters.core_identification.dist_comps < setup.core_identification.dist_comps,
            "shard {shard:?}: engine stage 1 must stop early ({} vs exact {})",
            run.counters.core_identification.dist_comps,
            setup.core_identification.dist_comps
        );
        assert_eq!(
            session.cluster(params.min_pts).unwrap().clustering.labels,
            run.clustering.labels,
            "shard {shard:?}"
        );
        let exact = RtDbscan::default().run(&points, params).unwrap();
        let expected: Vec<u64> = {
            let index = exact_index(&points, params.eps);
            count_launch(index.as_ref(), &points, params.eps, None).0
        };
        assert_eq!(session.neighbor_counts(), &expected[..], "shard {shard:?}");
        assert_eq!(
            exact.clustering.core, run.clustering.core,
            "shard {shard:?}"
        );
    }
}

/// The paper configuration's index, whose count launch is exact.
fn exact_index(points: &[Point3], eps: f32) -> Box<dyn NeighborIndex> {
    RtDbscan::default()
        .index_builder()
        .build(points, eps)
        .unwrap()
}
