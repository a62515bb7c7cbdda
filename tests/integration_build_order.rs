//! Self-join count launches walk the index build's Morton order.
//!
//! A BVH index built with the LBVH keeps the permutation its one Morton
//! pass produced over all of its points, duplicates included.  A count
//! launch with `exclude_self` over every indexed point (DBSCAN's stage 1)
//! under `QueryOrder::Morton` cuts its packets from that permutation
//! instead of sorting the queries again.  Pinned here, over flat and
//! sharded LBVH indexes (shard sizes 8/24/96, compaction on and off,
//! builds at 1, 2 and 8 workers) on inputs with piles of exact duplicates,
//! identical Morton codes and a flat z axis:
//!
//! 1. the kept order is `ReorderScratch::order_morton` over the index's own
//!    points, whatever the build's worker count;
//! 2. the self-join launch, exact and with early exit, answers and charges
//!    exactly what a launch of the same queries in that sorted order does,
//!    without the sort: it charges no `misc_ops`, while a launch that is
//!    not a self-join still sorts and charges the sort's 5n;
//! 3. flat and sharded self-joins and engine runs give identical counts,
//!    labels and counters under every SIMD level.

use proptest::prelude::*;
use rtcore::bvh::{BuildParallelism, BuilderKind};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{
    IndexKind, NeighborIndex, NeighborIndexBuilder, QueryOrder, ShardedIndex, ShardingConfig,
    WideBatchedIndex,
};
use rtcore::simd::SimdPolicy;
use rtcore::traversal::ReorderScratch;
use rtdbscan::engine::ClusterEngine;
use rtdbscan::DbscanParams;
use std::sync::atomic::AtomicU64;

/// Piles of exact duplicates (signed zeros among them), distinct points
/// far closer than one Morton cell (identical codes) and a scatter, with a
/// constant z axis when `flat`.
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

/// An LBVH wide index configuration, flat or sharded at `shard`.
fn config(shard: Option<usize>, compaction: bool, workers: usize) -> NeighborIndexBuilder {
    NeighborIndexBuilder {
        sharding: shard.map(ShardingConfig::new),
        compaction,
        bvh_builder: BuilderKind::Lbvh,
        query_order: QueryOrder::Morton,
        build_parallelism: if workers == 1 {
            BuildParallelism::Sequential
        } else {
            BuildParallelism::Threads(workers)
        },
        batch_size: 32,
        min_parallel_launch: 0,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
}

/// One count launch over `queries`.
fn count_launch(
    index: &dyn NeighborIndex,
    queries: &[Point3],
    eps: f32,
    exclude_self: bool,
    early_exit: Option<u64>,
) -> (Vec<u64>, WorkCounters) {
    let cells: Vec<AtomicU64> = (0..queries.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts(
        queries,
        eps,
        exclude_self,
        early_exit,
        &mut counters,
        &cells,
    );
    (
        cells.into_iter().map(AtomicU64::into_inner).collect(),
        counters,
    )
}

/// A built index and its kept order.
fn build(
    config: &NeighborIndexBuilder,
    points: &[Point3],
    eps: f32,
) -> (Box<dyn NeighborIndex>, Option<Vec<u32>>) {
    if config.sharding.is_some() {
        let index = ShardedIndex::build(config, points, eps).unwrap();
        let order = index.build_order().map(<[u32]>::to_vec);
        (Box::new(index), order)
    } else {
        let index = WideBatchedIndex::build(config, points, eps).unwrap();
        let order = index.build_order().map(<[u32]>::to_vec);
        (Box::new(index), order)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn self_joins_walk_the_build_order(
        n in 2usize..400,
        seed in 0u64..1000,
        flat in 0u8..2,
        eps in 0.2f32..1.5,
        min_pts in 1u64..=8,
    ) {
        let points = awkward_points(n, seed, flat == 1);
        let mut scratch = ReorderScratch::default();
        let sort_ops = scratch.order_morton(&points);
        prop_assert_eq!(sort_ops, 5 * n as u64);
        let order = scratch.order().to_vec();
        let sorted: Vec<Point3> = order.iter().map(|&i| points[i as usize]).collect();
        for shard in [None, Some(8), Some(24), Some(96)] {
            for compaction in [false, true] {
                for workers in [1usize, 2, 8] {
                    let name = format!("shard {shard:?} compaction={compaction} workers={workers}");
                    let morton = config(shard, compaction, workers);
                    let (index, kept) = build(&morton, &points, eps);
                    prop_assert_eq!(kept.as_deref(), Some(&order[..]), "{}", name);
                    // The same index launching the sorted queries in caller
                    // order cuts the same packets.
                    let as_given = NeighborIndexBuilder { query_order: QueryOrder::AsGiven, ..morton };
                    let (reference, none) = build(&as_given, &points, eps);
                    prop_assert!(none.is_none(), "{}: AsGiven keeps no order", name);
                    for early_exit in [None, Some(min_pts)] {
                        let (counts, c) = count_launch(index.as_ref(), &points, eps, true, early_exit);
                        let (in_order, ref_c) =
                            count_launch(reference.as_ref(), &sorted, eps, true, early_exit);
                        let mut expected = vec![0u64; n];
                        for (pos, &i) in order.iter().enumerate() {
                            expected[i as usize] = in_order[pos];
                        }
                        prop_assert_eq!(&counts, &expected, "{} early_exit={:?}", name, early_exit);
                        prop_assert_eq!(c, ref_c, "{} early_exit={:?}", name, early_exit);
                        prop_assert_eq!(c.misc_ops, 0, "{}: a self-join sorts nothing", name);
                    }
                    // A launch that is not a self-join still sorts its queries.
                    let (_, c) = count_launch(index.as_ref(), &points, eps, false, None);
                    prop_assert_eq!(c.misc_ops, sort_ops, "{}", name);
                }
            }
        }
    }
}

/// Flat and sharded self-join launches and engine runs answer and charge
/// the same under every SIMD level: the hit-mask kernels and the leaf
/// count kernels are bit-identical, and the AVX2 tracer differs from the
/// others only in how it is compiled.
#[test]
fn self_joins_are_identical_across_simd_levels() {
    let points = awkward_points(3000, 5, false);
    let eps = 0.6f32;
    let params = DbscanParams::new(eps, 6).unwrap();
    for shard in [None, Some(96)] {
        let mut seen = Vec::new();
        for simd in [SimdPolicy::Scalar, SimdPolicy::Sse2, SimdPolicy::Avx2] {
            let index_config = NeighborIndexBuilder {
                simd,
                ..config(shard, true, 1)
            };
            let (index, _) = build(&index_config, &points, eps);
            let launches = [None, Some(6)]
                .map(|early| count_launch(index.as_ref(), &points, eps, true, early));
            let mut engine = ClusterEngine::builder().params(params).simd(simd);
            if let Some(s) = shard {
                engine = engine.shard_size(s);
            }
            let run = engine.build().unwrap().run(&points).unwrap();
            seen.push((launches, run.clustering, run.counters));
        }
        for other in &seen[1..] {
            assert_eq!(other.0, seen[0].0, "shard {shard:?}: launches");
            assert_eq!(other.1.labels, seen[0].1.labels, "shard {shard:?}: labels");
            assert_eq!(other.1.core, seen[0].1.core, "shard {shard:?}: core flags");
            assert_eq!(other.2, seen[0].2, "shard {shard:?}: engine counters");
        }
    }
}
