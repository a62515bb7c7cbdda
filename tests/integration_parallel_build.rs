//! Parallel HLBVH construction equivalence suite.
//!
//! The treelet-parallel builder (`BuildParallelism`) promises **bit
//! identity**: for every thread count, the node array, the primitive
//! order, and the work counters (up to the two parallel-only charge
//! fields) match the sequential build exactly — on friendly inputs and on
//! the degenerate ones (duplicates, exact-ε spacings, identical Morton
//! codes).  The same promise extends down the pipeline: the parallel BVH4
//! collapse reproduces its sequential twin node for node, and index-level
//! queries through a parallel-built backend return the same rows and
//! counters.
//!
//! The radix-sort/prefix-sum handoff uses no atomics — each parallel
//! stage writes disjoint regions and joins before the next reads — so
//! instead of a loom exploration these tests sweep thread counts
//! (1/2/8 plus awkward non-divisors) deterministically: the output is a
//! pure function of the chunk decomposition, which the sweep varies.

use proptest::prelude::*;
use rtcore::bvh::{
    spheres_from_points, validate, validate_wide, BuildParallelism, BvhBuilder, LbvhBuilder,
    WideBvh,
};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{IndexKind, NeighborIndex, NeighborIndexBuilder, ShardingConfig};
use rtcore::telemetry::Telemetry;

/// Zero the two charge fields only the parallel build path can touch, so
/// the rest of the counter set can be compared exactly.
fn without_parallel_charges(mut c: WorkCounters) -> WorkCounters {
    c.build_chunk_merges = 0;
    c.build_splice_ops = 0;
    c
}

/// The core property: for each thread count, the parallel build of
/// `points` is bit-identical to the sequential build, through the binary
/// tree and the BVH4 collapse.
fn assert_parallel_build_identical(points: &[Point3], eps: f32) {
    let telemetry = Telemetry::disabled();
    let spheres = spheres_from_points(points, eps);
    let seq = LbvhBuilder::default().build(spheres.clone()).unwrap();
    validate(&seq).unwrap();
    let wide_seq = WideBvh::from_binary(&seq);
    for threads in [1usize, 2, 3, 8] {
        let par = LbvhBuilder {
            parallelism: BuildParallelism::Threads(threads),
            ..LbvhBuilder::default()
        }
        .build(spheres.clone())
        .unwrap();
        assert_eq!(par.nodes, seq.nodes, "threads={threads}: node array");
        assert_eq!(
            par.primitives, seq.primitives,
            "threads={threads}: primitive order"
        );
        assert_eq!(
            without_parallel_charges(par.build_counters),
            without_parallel_charges(seq.build_counters),
            "threads={threads}: counters (parallel-only charges excluded)"
        );
        if threads == 1 {
            // Thread count 1 routes through the sequential emitter and
            // must not charge any parallel-only work.
            assert_eq!(par.build_counters, seq.build_counters);
        }
        let wide_par = WideBvh::from_binary_parallel(&par, threads, &telemetry);
        validate_wide(&wide_par).unwrap();
        assert_eq!(wide_par.nodes, wide_seq.nodes, "threads={threads}: BVH4");
        assert_eq!(wide_par.lanes, wide_seq.lanes);
    }
}

#[test]
fn parallel_build_matches_sequential_on_blob_rows() {
    // Blobs in a row so clusters straddle treelet boundaries.
    let mut pts = Vec::new();
    for b in 0..6 {
        let cx = b as f32 * 3.0;
        for i in 0..150 {
            let angle = i as f32 * 0.7;
            let r = 1.2 * ((i * 7 + b) % 10) as f32 / 10.0;
            pts.push(Point3::new(cx + r * angle.cos(), r * angle.sin(), 0.0));
        }
    }
    assert_parallel_build_identical(&pts, 0.4);
}

#[test]
fn parallel_build_matches_sequential_on_duplicate_heavy_input() {
    // Half the input is exact duplicates of the other half: duplicate
    // Morton codes make the sort's stability and the split's
    // identical-code midpoint fallback load-bearing.
    let mut pts: Vec<Point3> = (0..300)
        .map(|i| Point3::new((i % 20) as f32 * 0.5, (i / 20) as f32 * 0.5, 0.0))
        .collect();
    for i in 0..300 {
        pts.push(pts[i * 13 % 300]);
    }
    assert_parallel_build_identical(&pts, 0.6);
}

#[test]
fn parallel_build_matches_sequential_on_exact_eps_grid() {
    // Grid spacing exactly ε: every axis-neighbour distance sits on the
    // closed-ball boundary, the workspace's canonical tie workload.
    let eps = 0.25f32;
    let pts: Vec<Point3> = (0..24 * 24)
        .map(|i| Point3::new((i % 24) as f32 * eps, (i / 24) as f32 * eps, 0.0))
        .collect();
    assert_parallel_build_identical(&pts, eps);
}

#[test]
fn parallel_build_matches_sequential_on_identical_morton_codes() {
    // All points coincide: one Morton code for the whole input, so every
    // split falls back to the midpoint rule and the radix sort is pure
    // stable passthrough.  (Compaction is the index layer's job; the raw
    // builder must cope with the degenerate soup.)
    let pts: Vec<Point3> = (0..500).map(|_| Point3::new(1.0, 2.0, 3.0)).collect();
    assert_parallel_build_identical(&pts, 0.5);

    // A sub-ULP cloud collapses to few distinct codes without being a
    // single point.
    let tiny: Vec<Point3> = (0..300)
        .map(|i| Point3::new(1.0 + (i % 3) as f32 * 1e-7, 2.0, 3.0))
        .collect();
    assert_parallel_build_identical(&tiny, 0.5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised form of the core property: arbitrary finite clouds
    /// (including negative coordinates, which exercise the scene-bounds
    /// reduction) build bit-identically at every thread count.
    #[test]
    fn parallel_build_matches_sequential_on_random_clouds(
        n in 2usize..400,
        eps in 0.05f32..2.0,
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random cloud from the seed (keep proptest
        // shrinking meaningful over the scalar inputs).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [-50, 50).
            (state >> 11) as f32 / (1u64 << 53) as f32 * 100.0 - 50.0
        };
        let pts: Vec<Point3> = (0..n).map(|_| {
            let (x, y) = (next(), next());
            Point3::new(x, y, 0.0)
        }).collect();
        assert_parallel_build_identical(&pts, eps);
    }
}

/// Sorted per-query neighbour rows plus the launch counters.
fn sorted_rows(
    index: &dyn NeighborIndex,
    queries: &[Point3],
    eps: f32,
) -> (Vec<Vec<u32>>, WorkCounters) {
    let mut counters = WorkCounters::ZERO;
    let csr = index.batch_neighbors_csr(queries, eps, &mut counters);
    let rows = (0..queries.len())
        .map(|q| {
            let mut row: Vec<u32> = csr.neighbors(q).to_vec();
            row.sort_unstable();
            row
        })
        .collect();
    (rows, counters)
}

#[test]
fn index_level_parallel_build_matches_sequential_queries() {
    let pts: Vec<Point3> = (0..900)
        .map(|i| Point3::new((i % 30) as f32 * 0.3, (i / 30) as f32 * 0.3, 0.0))
        .collect();
    let eps = 0.5f32;
    let build = |parallelism| {
        NeighborIndexBuilder {
            build_parallelism: parallelism,
            min_parallel_launch: 0,
            batch_size: 64,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        }
        .build(&pts, eps)
        .unwrap()
    };
    let seq = build(BuildParallelism::Sequential);
    let par = build(BuildParallelism::Threads(8));
    let (seq_rows, seq_counters) = sorted_rows(seq.as_ref(), &pts, eps);
    let (par_rows, par_counters) = sorted_rows(par.as_ref(), &pts, eps);
    assert_eq!(seq_rows, par_rows);
    // Query-side work is untouched by how the identical tree was built.
    assert_eq!(seq_counters, par_counters);
}

#[test]
fn sharded_parallel_build_keeps_flat_equivalence() {
    // The nested-parallelism path: a sharded scene whose planner and
    // per-shard builds run under a thread budget must still reproduce the
    // flat sequential tree's leaf partition (same counter-identity
    // conditions as the sharded suite: LBVH, f32 lanes).
    let pts: Vec<Point3> = (0..1200)
        .map(|i| Point3::new(i as f32 * 0.21, ((i * 7) % 13) as f32 * 0.3, 0.0))
        .collect();
    let eps = 0.45f32;
    let flat = NeighborIndexBuilder {
        bvh_builder: rtcore::bvh::BuilderKind::Lbvh,
        min_parallel_launch: 0,
        batch_size: 64,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(&pts, eps)
    .unwrap();
    let sharded = NeighborIndexBuilder {
        bvh_builder: rtcore::bvh::BuilderKind::Lbvh,
        build_parallelism: BuildParallelism::Threads(8),
        min_parallel_launch: 0,
        batch_size: 64,
        sharding: Some(ShardingConfig::new(256)),
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(&pts, eps)
    .unwrap();
    let (flat_rows, flat_counters) = sorted_rows(flat.as_ref(), &pts, eps);
    let (sharded_rows, sharded_counters) = sorted_rows(sharded.as_ref(), &pts, eps);
    assert_eq!(flat_rows, sharded_rows);
    assert_eq!(flat_counters.dist_comps, sharded_counters.dist_comps);
    assert_eq!(flat_counters.prim_tests, sharded_counters.prim_tests);
}

#[test]
fn build_parallelism_validation() {
    let pts = vec![Point3::ORIGIN, Point3::new(1.0, 0.0, 0.0)];
    // Zero threads is a configuration error, not a silent clamp.
    let zero = NeighborIndexBuilder {
        build_parallelism: BuildParallelism::Threads(0),
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    };
    assert!(zero.build(&pts, 0.5).is_err());
    // Parallel build configures BVH construction; the non-BVH backends
    // have no such phase and must reject the knob rather than ignore it.
    let grid = NeighborIndexBuilder {
        build_parallelism: BuildParallelism::Threads(4),
        ..NeighborIndexBuilder::new(IndexKind::UniformGrid)
    };
    assert!(grid.build(&pts, 0.5).is_err());
    // Threads(1) is valid and equals Sequential behaviourally.
    let one = NeighborIndexBuilder {
        build_parallelism: BuildParallelism::Threads(1),
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    };
    assert!(one.build(&pts, 0.5).is_ok());
}
