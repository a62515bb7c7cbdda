//! Two-level scene equivalence suite: a TLAS over sharded bottom-level
//! scenes must be *indistinguishable* from the flat wide-batched backend —
//! same labels, same neighbour sets, same CSR rows, and (with the builder
//! pinned to LBVH, full-precision lanes and exact counting) the same
//! `dist_comps` / `prim_tests` counters, because aligned Morton sharding
//! reproduces the flat tree's leaf partition exactly.
//!
//! Also home of the refit invariant properties: `bvh::refit` removals
//! followed by a BVH4 re-collapse must keep every [`validate_wide`]
//! invariant, including emptied leaves and a fully evicted (Morton-range)
//! shard; and the wide indexes' own in-place BVH4 refit behind `remove`
//! must answer exactly like a fresh build, batch after batch.

use proptest::prelude::*;
use rtcore::bvh::{
    remove_points, spheres_from_points, validate_wide, BuilderKind, BvhBuilder, LbvhBuilder,
    WideBvh,
};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{
    IndexKind, NeighborIndex, NeighborIndexBuilder, QueryOrder, ShardingConfig, WideBatchedIndex,
};
use rtdbscan::metrics::same_clustering;
use rtdbscan::{ClassicDbscan, ClusterEngine, DbscanAlgorithm, DbscanParams, RtDbscan, RunResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mixed workload: blobs laid out in a row (so clusters span the Morton
/// shard cuts), plus far-away noise and exact duplicates.
fn workload(
    blobs: usize,
    per_blob: usize,
    noise: usize,
    duplicates: usize,
    seed: u64,
) -> Vec<Point3> {
    let mut pts = Vec::new();
    for b in 0..blobs {
        let cx = b as f32 * 4.0;
        for i in 0..per_blob {
            let angle = (i as f32 + seed as f32) * 0.7;
            let radius = 1.4 * ((i * 7 + b * 3) % 10) as f32 / 10.0;
            pts.push(Point3::new_2d(
                cx + radius * angle.cos(),
                radius * angle.sin(),
            ));
        }
    }
    for i in 0..noise {
        pts.push(Point3::new_2d(
            40.0 + (i as f32 * 13.7 + seed as f32) % 40.0,
            -40.0 - (i as f32 * 7.3) % 40.0,
        ));
    }
    for i in 0..duplicates.min(pts.len()) {
        pts.push(pts[i * 31 % pts.len()]);
    }
    pts
}

/// Counter-identity requires the same construction choices on both sides:
/// LBVH (aligned sharding reproduces its subtrees), full-precision lanes,
/// no early exit.
fn flat_index(points: &[Point3], eps: f32) -> Box<dyn NeighborIndex> {
    NeighborIndexBuilder {
        bvh_builder: BuilderKind::Lbvh,
        min_parallel_launch: 0,
        batch_size: 64,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(points, eps)
    .unwrap()
}

fn sharded_index(points: &[Point3], eps: f32, shard: usize) -> Box<dyn NeighborIndex> {
    NeighborIndexBuilder {
        bvh_builder: BuilderKind::Lbvh,
        min_parallel_launch: 0,
        batch_size: 64,
        sharding: Some(ShardingConfig::new(shard)),
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(points, eps)
    .unwrap()
}

/// Per-query neighbour counts (self included, so arbitrary query points
/// are fine).
fn counts(index: &dyn NeighborIndex, queries: &[Point3], eps: f32) -> Vec<u64> {
    let cells: Vec<AtomicU64> = (0..queries.len()).map(|_| AtomicU64::new(0)).collect();
    let mut c = WorkCounters::ZERO;
    index.batch_neighbor_counts(queries, eps, false, None, &mut c, &cells);
    cells.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Per-query sorted neighbour rows: CSR emission order may differ between
/// one flat launch and per-shard sub-launches, the *sets* may not.
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
fn boundary_spanning_cluster_stitches_into_one_label() {
    // One dense line of points crossing every shard cut: the flat path sees
    // one cluster, and the sharded path must agree even though every
    // ε-neighbourhood on a cut straddles two BLASes.
    let pts: Vec<Point3> = (0..600)
        .map(|i| Point3::new_2d(i as f32 * 0.4, 0.0))
        .collect();
    let params = DbscanParams::new(0.5, 2).unwrap();
    let flat_engine = ClusterEngine::builder()
        .eps(params.eps)
        .min_pts(params.min_pts)
        .bvh_builder(BuilderKind::Lbvh)
        .build()
        .unwrap();
    let sharded_engine = ClusterEngine::builder()
        .eps(params.eps)
        .min_pts(params.min_pts)
        .bvh_builder(BuilderKind::Lbvh)
        .shard_size(64)
        .build()
        .unwrap();
    let flat = flat_engine.run(&pts).unwrap();
    let sharded = sharded_engine.run(&pts).unwrap();
    assert_eq!(sharded.clustering.num_clusters(), 1);
    assert_eq!(flat.clustering.core, sharded.clustering.core);
    assert!(same_clustering(
        &flat.clustering,
        &sharded.clustering,
        &pts,
        params
    ));
    // Exact stage-1 candidate work is bit-identical under aligned LBVH
    // sharding (a run's early exit stops a query split across shards at a
    // different candidate, so the sessions' exact stage 1 is compared).
    let flat = exact_stage1(&flat_engine, &pts);
    let sharded = exact_stage1(&sharded_engine, &pts);
    assert_eq!(flat.dist_comps, sharded.dist_comps);
    assert_eq!(flat.prim_tests, sharded.prim_tests);
}

/// The work of an engine's exact stage 1: the stage-1 launch a session
/// records, which counts every neighbour.
fn exact_stage1(engine: &ClusterEngine, points: &[Point3]) -> WorkCounters {
    engine
        .session(points)
        .unwrap()
        .setup_cost()
        .0
        .core_identification
}

#[test]
fn exact_eps_distances_agree_across_the_shard_cut() {
    // Grid spacing exactly ε: every on-boundary pair must be admitted (or
    // not) identically by both paths — a ULP of slop in the per-BLAS
    // distance math would show up here.
    let eps = 1.0f32;
    let pts: Vec<Point3> = (0..24 * 24)
        .map(|i| Point3::new_2d((i % 24) as f32 * eps, (i / 24) as f32 * eps))
        .collect();
    let flat = flat_index(&pts, eps);
    let sharded = sharded_index(&pts, eps, 96);
    let (flat_rows, fc) = sorted_rows(flat.as_ref(), &pts, eps);
    let (sharded_rows, sc) = sorted_rows(sharded.as_ref(), &pts, eps);
    assert_eq!(flat_rows, sharded_rows);
    assert_eq!(fc.dist_comps, sc.dist_comps);
    assert_eq!(fc.prim_tests, sc.prim_tests);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on arbitrary blob + noise + duplicate workloads, the
    /// sharded engine produces identical core flags and bit-identical
    /// labels to the flat engine, with identical exact stage-1 candidate
    /// counters; both stop stage 1 at minPts and still label like the
    /// exact-counting `RtDbscan::default()` and the sequential reference.  A dense, mostly-core single blob engages stage 2's
    /// sampled skip (its stage-2 candidate work falls below stage 1's),
    /// and its labels stay bit-identical between flat and sharded scenes
    /// and between Morton and as-given query order.
    #[test]
    fn sharded_engine_matches_flat_engine(
        blobs in 1usize..5,
        per_blob in 10usize..60,
        noise in 0usize..25,
        duplicates in 0usize..20,
        eps in 0.4f32..1.6,
        min_pts in 2usize..7,
        shard in 32usize..120,
        seed in 0u64..1000,
    ) {
        let pts = workload(blobs, per_blob, noise, duplicates, seed);
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let flat_engine = ClusterEngine::builder()
            .eps(eps)
            .min_pts(min_pts)
            .bvh_builder(BuilderKind::Lbvh)
            .build()
            .unwrap();
        let sharded_engine = ClusterEngine::builder()
            .eps(eps)
            .min_pts(min_pts)
            .bvh_builder(BuilderKind::Lbvh)
            .shard_size(shard)
            .build()
            .unwrap();
        let flat = flat_engine.run(&pts).unwrap();
        let sharded = sharded_engine.run(&pts).unwrap();
        prop_assert_eq!(&flat.clustering.core, &sharded.clustering.core);
        prop_assert_eq!(&flat.clustering.labels, &sharded.clustering.labels);
        prop_assert!(same_clustering(&flat.clustering, &sharded.clustering, &pts, params));
        let exact = RtDbscan::default().run(&pts, params).unwrap().clustering;
        prop_assert_eq!(&flat.clustering.core, &exact.core);
        prop_assert_eq!(&flat.clustering.labels, &exact.labels);
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        prop_assert!(same_clustering(&reference, &flat.clustering, &pts, params));
        let (flat1, sharded1) = (
            exact_stage1(&flat_engine, &pts),
            exact_stage1(&sharded_engine, &pts),
        );
        prop_assert_eq!(flat1.dist_comps, sharded1.dist_comps);
        prop_assert_eq!(flat1.prim_tests, sharded1.prim_tests);

        let dense = workload(1, 200, noise, duplicates, seed);
        let engine = |shard: Option<usize>, order: QueryOrder| -> ClusterEngine {
            let mut b = ClusterEngine::builder()
                .eps(eps)
                .min_pts(min_pts)
                .bvh_builder(BuilderKind::Lbvh)
                .query_order(order);
            if let Some(s) = shard {
                b = b.shard_size(s);
            }
            b.build().unwrap()
        };
        let run = |shard: Option<usize>, order: QueryOrder| -> RunResult {
            engine(shard, order).run(&dense).unwrap()
        };
        let flat = run(None, QueryOrder::Morton);
        // The skip saves full queries, so stage 2 is held against the
        // exact stage 1, whose queries are all full.
        let stage1 = exact_stage1(&engine(None, QueryOrder::Morton), &dense);
        let (stage1, stage2) = (&stage1, &flat.counters.cluster_formation);
        prop_assert!(
            stage2.dist_comps < stage1.dist_comps,
            "the sampled skip did not engage: stage 2 {} vs stage 1 {} dist_comps",
            stage2.dist_comps,
            stage1.dist_comps
        );
        for (shard, order) in [
            (Some(shard), QueryOrder::Morton),
            (None, QueryOrder::AsGiven),
            (Some(shard), QueryOrder::AsGiven),
        ] {
            let other = run(shard, order);
            prop_assert_eq!(&flat.clustering.labels, &other.clustering.labels, "{:?} {:?}", shard, order);
        }
    }

    /// Property: the raw index surfaces agree — per-row sorted CSR
    /// neighbour sets and candidate counters are identical between the
    /// flat and sharded backends on the same workload.
    #[test]
    fn sharded_csr_rows_and_counters_match_flat(
        blobs in 1usize..4,
        per_blob in 10usize..50,
        duplicates in 0usize..15,
        eps in 0.4f32..1.4,
        shard in 24usize..100,
        seed in 0u64..1000,
    ) {
        let pts = workload(blobs, per_blob, 8, duplicates, seed);
        let flat = flat_index(&pts, eps);
        let sharded = sharded_index(&pts, eps, shard);
        let (flat_rows, fc) = sorted_rows(flat.as_ref(), &pts, eps);
        let (sharded_rows, sc) = sorted_rows(sharded.as_ref(), &pts, eps);
        prop_assert_eq!(flat_rows, sharded_rows);
        prop_assert_eq!(fc.dist_comps, sc.dist_comps);
        prop_assert_eq!(fc.prim_tests, sc.prim_tests);
    }

    /// Property (satellite): refit removals followed by a BVH4
    /// re-collapse keep every wide-scene invariant — including leaves
    /// emptied by the removal and a whole Morton-range shard evicted to
    /// nothing.
    #[test]
    fn refit_then_recollapse_keeps_wide_invariants(
        n in 2usize..300,
        remove_modulus in 1u32..6,
        seed in 0u64..1000,
    ) {
        let pts: Vec<Point3> = (0..n)
            .map(|i| {
                let a = (i as f32 + seed as f32) * 0.61;
                Point3::new(a.cos() * (i % 17) as f32, a.sin() * (i % 13) as f32, (i % 5) as f32)
            })
            .collect();
        let mut bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.3))
            .unwrap();
        let mut counters = WorkCounters::ZERO;

        // Removal leaves some leaves partially emptied and (for
        // remove_modulus == 1) the entire tree evicted.
        remove_points(&mut bvh, |i| i % remove_modulus == 0, &mut counters);
        let wide = WideBvh::from_binary(&bvh);
        prop_assert!(validate_wide(&wide).is_ok(), "{:?}", validate_wide(&wide));
        if remove_modulus == 1 {
            prop_assert_eq!(wide.primitive_count(), 0);
        }
    }

    /// Property: non-compacting flat and sharded wide indexes take random
    /// `remove` batches, refitting their BVH4 in place; after each batch
    /// every query's neighbour set and count equal those of a fresh build
    /// over the surviving points, and every live wide scene passes
    /// `validate_wide`.
    #[test]
    fn in_place_refit_answers_like_a_fresh_build(
        n in 2usize..260,
        shard in 16usize..90,
        rounds in 1usize..6,
        eps in 0.3f32..1.5,
        seed in 0u64..1000,
    ) {
        let pts: Vec<Point3> = (0..n)
            .map(|i| {
                let a = (i as f32 + seed as f32) * 0.61;
                Point3::new(a.cos() * (i % 17) as f32, a.sin() * (i % 13) as f32, (i % 3) as f32)
            })
            .collect();
        let config = NeighborIndexBuilder {
            bvh_builder: BuilderKind::Lbvh,
            min_parallel_launch: 0,
            batch_size: 32,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        };
        let mut flat = WideBatchedIndex::build(&config, &pts, eps).unwrap();
        let mut sharded = NeighborIndexBuilder {
            sharding: Some(ShardingConfig::new(shard)),
            ..config
        }
        .build(&pts, eps)
        .unwrap();
        let mut alive = vec![true; n];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for round in 0..rounds {
            let salt = next(1 << 20) as u32;
            let retired: Vec<u32> = (0..n as u32)
                .filter(|&i| alive[i as usize] && (i ^ salt).is_multiple_of(3))
                .collect();
            flat.remove(&retired).unwrap();
            sharded.remove(&retired).unwrap();
            for &i in &retired {
                alive[i as usize] = false;
            }
            if let Some(wide) = flat.wide_scene() {
                prop_assert!(validate_wide(wide).is_ok(), "{:?}", validate_wide(wide));
            }
            prop_assert!(sharded.as_sharded_mut().unwrap().verify_shards().is_empty());

            // The fresh build indexes only the live points; its ids map
            // back through `live`.
            let live: Vec<u32> = (0..n as u32).filter(|&i| alive[i as usize]).collect();
            let live_pts: Vec<Point3> = live.iter().map(|&i| pts[i as usize]).collect();
            let fresh = NeighborIndexBuilder { ..config }.build(&live_pts, eps).unwrap();
            let mut queries = pts.clone();
            queries.push(Point3::new(100.0, -100.0, 0.0));
            let (want_rows, _) = sorted_rows(fresh.as_ref(), &queries, eps);
            let want_rows: Vec<Vec<u32>> = want_rows
                .into_iter()
                .map(|row| {
                    let mut row: Vec<u32> = row.into_iter().map(|j| live[j as usize]).collect();
                    row.sort_unstable();
                    row
                })
                .collect();
            let want_counts = counts(fresh.as_ref(), &queries, eps);
            for (name, index) in [("flat", &flat as &dyn NeighborIndex), ("sharded", sharded.as_ref())] {
                prop_assert_eq!(index.len(), live.len(), "{} round {}", name, round);
                let (rows, _) = sorted_rows(index, &queries, eps);
                prop_assert_eq!(&rows, &want_rows, "{} rows, round {}", name, round);
                prop_assert_eq!(counts(index, &queries, eps), want_counts.clone(), "{} counts, round {}", name, round);
            }
        }
    }

    /// Property (satellite): evicting an entire shard from a two-level
    /// scene drops its BLAS and leaves every remaining query answer exact.
    #[test]
    fn evicting_a_full_shard_keeps_sharded_answers_exact(
        n_side in 8usize..18,
        shard in 16usize..80,
        victim_pick in 0usize..8,
    ) {
        let pts: Vec<Point3> = (0..n_side * n_side)
            .map(|i| Point3::new_2d((i % n_side) as f32, (i / n_side) as f32))
            .collect();
        let eps = 1.2f32;
        let mut index = sharded_index(&pts, eps, shard);
        let sharded = index.as_sharded().unwrap();
        let shard_count = sharded.shard_count();
        if shard_count < 2 {
            // A single-shard plan has no shard to evict around; skip.
            return Ok(());
        }
        let victim = (victim_pick % shard_count) as u32;
        let evicted: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| index.as_sharded().unwrap().owner_shard(i) == Some(victim))
            .collect();
        index.remove(&evicted).unwrap();
        prop_assert_eq!(
            index.as_sharded().unwrap().live_shard_count(),
            shard_count - 1
        );
        let gone: Vec<bool> = {
            let mut gone = vec![false; pts.len()];
            for &i in &evicted {
                gone[i as usize] = true;
            }
            gone
        };
        let mut c = WorkCounters::ZERO;
        for q in (0..pts.len()).step_by(13) {
            let mut got = index.neighbors_of(pts[q], eps, Some(q as u32), &mut c);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|&(j, p)| {
                    j != q && !gone[j] && p.distance_squared(pts[q]) <= eps * eps
                })
                .map(|(j, _)| j as u32)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "query {}", q);
        }
    }
}
