//! Two-level scenes: the same clustering through a TLAS over sharded
//! bottom-level BVHs.
//!
//! ```text
//! cargo run --release --example sharded_scene
//! ```
//!
//! Builds the same workload twice — once on the flat wide-batched backend,
//! once with `shard_size` set so the scene splits into a top-level BVH over
//! Morton-range shards — and shows that labels and exact stage-1 candidate
//! counters are identical while the sharded run routes through the TLAS
//! and builds its shards in parallel.  Then demonstrates the streaming
//! payoff: evicting a whole region of space drops its bottom-level BVH
//! outright instead of refitting it.

use rtdbscan_repro::prelude::*;

fn main() {
    // --- 1. A long chain of blobs, so clusters straddle shard cuts. --------
    let blobs: Vec<rtdbscan_datasets::synthetic::Blob> = (0..8)
        .map(|i| rtdbscan_datasets::synthetic::Blob {
            center: Point3::new_2d(i as f32 * 2.2, (i % 2) as f32),
            std_dev: 0.5,
            count: 700,
        })
        .collect();
    let points = rtdbscan_datasets::synthetic::gaussian_blobs_with_noise(
        &blobs,
        200,
        (Point3::new_2d(-4.0, -8.0), Point3::new_2d(22.0, 10.0)),
        true,
        7,
    );
    let params = DbscanParams::new(0.35, 8).unwrap();
    println!("dataset: {} points in a chain of 8 blobs", points.len());

    // --- 2. Flat vs sharded: one knob, identical answers. ------------------
    // Both engines pin the LBVH builder: aligned Morton sharding then
    // reproduces the flat tree's leaf partition, so even the candidate
    // counters of an exact stage 1 (a session's) match bit for bit.  A
    // run's stage 1 stops each query at minPts, and a query split across
    // shards stops at a different candidate than on the flat tree.
    let flat_engine = ClusterEngine::builder()
        .params(params)
        .bvh_builder(rtcore::bvh::BuilderKind::Lbvh)
        .build()
        .unwrap();
    let sharded_engine = ClusterEngine::builder()
        .params(params)
        .bvh_builder(rtcore::bvh::BuilderKind::Lbvh)
        .shard_size(1024)
        .build()
        .unwrap();
    let flat = flat_engine.run(&points).unwrap();
    let sharded = sharded_engine.run(&points).unwrap();
    let exact_stage1 = |engine: &ClusterEngine| {
        let (setup, _) = engine.session(&points).unwrap().setup_cost();
        setup.core_identification
    };
    let (flat_exact, sharded_exact) = (exact_stage1(&flat_engine), exact_stage1(&sharded_engine));

    println!(
        "flat:    {} clusters, {} noise, stage-1 dist_comps {} (exact {})",
        flat.clustering.num_clusters(),
        flat.clustering.noise_count(),
        flat.counters.core_identification.dist_comps,
        flat_exact.dist_comps,
    );
    println!(
        "sharded: {} clusters, {} noise, stage-1 dist_comps {} (exact {}) \
         (tlas_node_visits {}, blas_launches {})",
        sharded.clustering.num_clusters(),
        sharded.clustering.noise_count(),
        sharded.counters.core_identification.dist_comps,
        sharded_exact.dist_comps,
        sharded.counters.core_identification.tlas_node_visits,
        sharded.counters.core_identification.blas_launches,
    );
    assert_eq!(flat.clustering.core, sharded.clustering.core);
    assert_eq!(flat.clustering.labels, sharded.clustering.labels);
    assert_eq!(flat_exact.dist_comps, sharded_exact.dist_comps);
    println!("=> identical labels and identical exact candidate work\n");

    // --- 3. Streaming eviction: aging out a region drops its BLAS. ---------
    // Removal refits the scene in place, which needs one primitive per
    // point, so this scene is built without compaction.
    let engine = ClusterEngine::builder()
        .params(params)
        .compaction(false)
        .shard_size(1024)
        .build()
        .unwrap();
    let mut index = engine.build_index(&points).unwrap();
    let scene = index.as_sharded_mut().unwrap();
    let live_before = scene.live_shard_count();
    println!(
        "scene: {} shards planned over {} points",
        scene.shard_count(),
        scene.len()
    );
    // Retire everything the first two shards own (the oldest Morton range).
    let expired: Vec<u32> = (0..points.len() as u32)
        .filter(|&i| matches!(scene.owner_shard(i), Some(0) | Some(1)))
        .collect();
    scene.remove(&expired).unwrap();
    let dropped = live_before - scene.live_shard_count();
    println!(
        "evicted {} points: {} BLASes dropped, {} shards still live, {} points remain",
        expired.len(),
        dropped,
        scene.live_shard_count(),
        scene.len()
    );
    assert!(dropped >= 2);
}
