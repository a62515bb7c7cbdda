//! Two-level scene equivalence suite: a TLAS over sharded bottom-level
//! scenes must be *indistinguishable* from the flat wide-batched backend —
//! same labels, same neighbour sets, same CSR rows, and (with the builder
//! pinned to LBVH, full-precision lanes and no early exit) the same
//! `dist_comps` / `prim_tests` counters, because aligned Morton sharding
//! reproduces the flat tree's leaf partition exactly.
//!
//! Also home of the refit/re-collapse invariant property: `bvh::refit`
//! removals and updates followed by a BVH4 re-collapse must keep every
//! [`validate_wide`] invariant, including emptied leaves and a fully
//! evicted (Morton-range) shard.

use proptest::prelude::*;
use rtcore::bvh::{
    remove_points, spheres_from_points, update_spheres, validate_wide, BuilderKind, BvhBuilder,
    LbvhBuilder, WideBvh,
};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{IndexKind, NeighborIndex, NeighborIndexBuilder, QueryOrder, ShardingConfig};
use rtdbscan::metrics::same_clustering;
use rtdbscan::{ClusterEngine, DbscanParams, RunResult};

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
    let flat = ClusterEngine::builder()
        .eps(params.eps)
        .min_pts(params.min_pts)
        .bvh_builder(BuilderKind::Lbvh)
        .build()
        .unwrap()
        .run(&pts)
        .unwrap();
    let sharded = ClusterEngine::builder()
        .eps(params.eps)
        .min_pts(params.min_pts)
        .bvh_builder(BuilderKind::Lbvh)
        .shard_size(64)
        .build()
        .unwrap()
        .run(&pts)
        .unwrap();
    assert_eq!(sharded.clustering.num_clusters(), 1);
    assert_eq!(flat.clustering.core, sharded.clustering.core);
    assert!(same_clustering(
        &flat.clustering,
        &sharded.clustering,
        &pts,
        params
    ));
    // Stage-1 candidate work is bit-identical under aligned LBVH sharding.
    assert_eq!(
        flat.counters.core_identification.dist_comps,
        sharded.counters.core_identification.dist_comps
    );
    assert_eq!(
        flat.counters.core_identification.prim_tests,
        sharded.counters.core_identification.prim_tests
    );
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
    /// labels to the flat engine, with identical stage-1 candidate
    /// counters.  A dense, mostly-core single blob engages stage 2's
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
        let flat = ClusterEngine::builder()
            .eps(eps)
            .min_pts(min_pts)
            .bvh_builder(BuilderKind::Lbvh)
            .build()
            .unwrap()
            .run(&pts)
            .unwrap();
        let sharded = ClusterEngine::builder()
            .eps(eps)
            .min_pts(min_pts)
            .bvh_builder(BuilderKind::Lbvh)
            .shard_size(shard)
            .build()
            .unwrap()
            .run(&pts)
            .unwrap();
        prop_assert_eq!(&flat.clustering.core, &sharded.clustering.core);
        prop_assert_eq!(&flat.clustering.labels, &sharded.clustering.labels);
        prop_assert!(same_clustering(&flat.clustering, &sharded.clustering, &pts, params));
        prop_assert_eq!(
            flat.counters.core_identification.dist_comps,
            sharded.counters.core_identification.dist_comps
        );
        prop_assert_eq!(
            flat.counters.core_identification.prim_tests,
            sharded.counters.core_identification.prim_tests
        );

        let dense = workload(1, 200, noise, duplicates, seed);
        let run = |shard: Option<usize>, order: QueryOrder| -> RunResult {
            let mut b = ClusterEngine::builder()
                .eps(eps)
                .min_pts(min_pts)
                .bvh_builder(BuilderKind::Lbvh)
                .query_order(order);
            if let Some(s) = shard {
                b = b.shard_size(s);
            }
            b.build().unwrap().run(&dense).unwrap()
        };
        let flat = run(None, QueryOrder::Morton);
        let (stage1, stage2) = (
            &flat.counters.core_identification,
            &flat.counters.cluster_formation,
        );
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

    /// Property (satellite): refit removals and in-place updates followed
    /// by a BVH4 re-collapse keep every wide-scene invariant — including
    /// leaves emptied by the removal and a whole Morton-range shard
    /// evicted to nothing.
    #[test]
    fn refit_then_recollapse_keeps_wide_invariants(
        n in 2usize..300,
        remove_modulus in 1u32..6,
        drift in 0.0f32..2.0,
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

        // In-place motion then re-collapse: bounds must still contain the
        // moved primitives.
        update_spheres(
            &mut bvh,
            |s| {
                s.center.x += drift * (s.point_index % 3) as f32;
                s.center.y -= drift * (s.point_index % 2) as f32;
            },
            &mut counters,
        );
        let wide = WideBvh::from_binary(&bvh);
        prop_assert!(validate_wide(&wide).is_ok(), "{:?}", validate_wide(&wide));
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
