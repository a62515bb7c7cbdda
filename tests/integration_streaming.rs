//! Cross-crate equivalence tests for the streaming subsystem: a
//! [`StreamingClusterer`] snapshot must always be a clustering that a batch
//! DBSCAN run over the same window contents could have produced — across
//! window slides, refit passes and full-rebuild transitions.

use proptest::prelude::*;
use rtcore::geometry::Point3;
use rtdbscan::metrics::same_clustering;
use rtdbscan::{ClassicDbscan, ClusterEngine, DbscanAlgorithm, DbscanParams, RtDbscan};
use rtdbscan_datasets::{generate, PaperDataset, PointStream, StreamConfig};
use rtdbscan_stream::{
    StreamingClusterer, StreamingConfig, StreamingSnapshotAlgorithm, WindowPolicy,
};

/// Run the oracle comparison for the clusterer's current window.
fn assert_snapshot_matches_batch(clusterer: &mut StreamingClusterer, context: &str) {
    let points = clusterer.window_points();
    let params = clusterer.config().params;
    let snapshot = clusterer.snapshot();
    let reference = ClassicDbscan::cluster(&points, params).unwrap();
    assert_eq!(
        reference.core,
        snapshot.core,
        "{context}: core flags diverged ({} window points)",
        points.len()
    );
    assert!(
        same_clustering(&reference, &snapshot, &points, params),
        "{context}: cluster partition diverged ({} window points)",
        points.len()
    );
}

#[test]
fn synthetic_stream_matches_batch_across_slides_and_rebuilds() {
    let params = DbscanParams::new(0.6, 4).unwrap();
    let mut config = StreamingConfig::new(params, WindowPolicy::Count(400));
    // Aggressive maintenance thresholds so this test crosses both the
    // refit and the rebuild path many times.
    config.refit_dead_fraction = 0.01;
    config.max_pending_fraction = 0.4;
    let mut clusterer = StreamingClusterer::new(config).unwrap();

    let stream = PointStream::replay(
        PaperDataset::PortoTaxi,
        StreamConfig {
            total_points: 2_000,
            batch_size: 100,
            points_per_second: 50.0,
            seed: 9,
        },
    );
    for (i, batch) in stream.enumerate() {
        let timed: Vec<(Point3, f64)> = batch.iter().map(|t| (t.point, t.time)).collect();
        clusterer.ingest(&timed).unwrap();
        assert!(clusterer.len() <= 400);
        assert_snapshot_matches_batch(&mut clusterer, &format!("porto batch {i}"));
    }

    let stats = clusterer.stats();
    assert!(stats.evicted > 0, "window never slid: {stats:?}");
    assert!(stats.refits > 0, "refit path never exercised: {stats:?}");
    assert!(
        stats.rebuilds > 1,
        "rebuild path never exercised: {stats:?}"
    );
    // Decisions must be visible in the unified counter stream.
    let counters = clusterer.counters();
    assert_eq!(counters.refits, stats.refits);
    assert_eq!(counters.rebuilds, stats.rebuilds);
    assert!(counters.refit_node_ops > 0);
}

/// A snapshot forms the window with the batch stage-2 rule, so its labels
/// and core flags equal the default engine's run over the same points bit
/// for bit: both claim each border for its lowest-index core neighbour and
/// name each cluster by its smallest index.  Piles and pairs of coincident
/// points make the engine's compaction merge points, borders among them,
/// whose claims follow their representative's; the snapshot sees every
/// duplicate's own edges.
#[test]
fn snapshots_equal_the_engine_run_exactly() {
    let params = DbscanParams::new(0.6, 4).unwrap();
    let engine = ClusterEngine::builder().params(params).build().unwrap();
    let mut config = StreamingConfig::new(params, WindowPolicy::Count(300));
    config.refit_dead_fraction = 0.01;
    let mut clusterer = StreamingClusterer::new(config).unwrap();

    let stream = PointStream::replay(
        PaperDataset::PortoTaxi,
        StreamConfig {
            total_points: 1_500,
            batch_size: 50,
            points_per_second: 50.0,
            seed: 5,
        },
    );
    let (mut merged, mut twin_borders) = (0, 0);
    for (i, batch) in stream.enumerate() {
        let mut timed: Vec<(Point3, f64)> = batch.iter().map(|t| (t.point, t.time)).collect();
        let (first, last) = (timed[0], timed[timed.len() - 1]);
        if i % 4 == 0 {
            timed.extend([first; 6]);
        }
        timed.push(last);
        clusterer.ingest(&timed).unwrap();

        let window = clusterer.window_points();
        let snapshot = clusterer.snapshot();
        twin_borders += (0..window.len())
            .filter(|&j| !snapshot.core[j] && snapshot.labels[j] >= 0)
            .filter(|&j| window[..j].contains(&window[j]))
            .count();
        let run = engine.run(&window).unwrap();
        merged += run.counters.build.compaction_merges;
        assert_eq!(snapshot.core, run.clustering.core, "batch {i}: core flags");
        assert_eq!(snapshot.labels, run.clustering.labels, "batch {i}: labels");
    }
    assert!(clusterer.stats().evicted > 0, "the window never slid");
    assert!(merged > 0, "compaction never merged a point");
    assert!(twin_borders > 0, "no duplicate border was ever claimed");
}

#[test]
fn trajectory_stream_with_time_window_matches_batch() {
    let params = DbscanParams::new(0.002, 6).unwrap();
    let config = StreamingConfig::new(params, WindowPolicy::Time(4.0));
    let mut clusterer = StreamingClusterer::new(config).unwrap();

    // NGSIM-style trajectories: heavy coordinate duplication, the
    // degenerate case for spatial indexes.
    let stream = PointStream::replay(
        PaperDataset::Ngsim,
        StreamConfig {
            total_points: 1_500,
            batch_size: 125,
            points_per_second: 100.0,
            seed: 3,
        },
    );
    let mut slid = false;
    for (i, batch) in stream.enumerate() {
        let timed: Vec<(Point3, f64)> = batch.iter().map(|t| (t.point, t.time)).collect();
        clusterer.ingest(&timed).unwrap();
        slid |= clusterer.stats().evicted > 0;
        assert_snapshot_matches_batch(&mut clusterer, &format!("ngsim batch {i}"));
    }
    assert!(slid, "time window never expired anything");
}

#[test]
fn adapter_agrees_with_rt_dbscan_on_paper_datasets() {
    for dataset in [PaperDataset::RoadNetwork, PaperDataset::Ionosphere3d] {
        let points = generate(dataset, 1_200, 17);
        let (eps, _) = dataset.default_params();
        let params = DbscanParams::new(eps.max(0.05), 5).unwrap();
        let reference = ClassicDbscan::cluster(&points, params).unwrap();
        let rt = RtDbscan::default().run(&points, params).unwrap().clustering;
        let streamed = StreamingSnapshotAlgorithm { batch_size: 173 }
            .run(&points, params)
            .unwrap()
            .clustering;
        assert_eq!(reference.core, streamed.core, "{}", dataset.name());
        assert!(
            same_clustering(&reference, &streamed, &points, params),
            "{} vs classic",
            dataset.name()
        );
        assert!(
            same_clustering(&rt, &streamed, &points, params),
            "{} vs rt",
            dataset.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: for arbitrary blob/noise/duplicate workloads, window
    /// sizes, batch sizes and parameters, every snapshot taken while the
    /// window slides equals the default engine's run on the live window
    /// contents bit for bit, and is permutation-equivalent to a batch
    /// ClassicDbscan run on them.
    #[test]
    fn streaming_window_always_matches_batch(
        blob_count in 1usize..4,
        points_per_blob in 8usize..40,
        noise in 0usize..25,
        duplicates in 0usize..15,
        eps in 0.3f32..1.8,
        min_pts in 1usize..7,
        window in 25usize..120,
        batch_size in 5usize..60,
        seed in 0u64..1000,
    ) {
        // Deterministic workload in the style of the batch equivalence
        // property test: blobs on a coarse grid, far-flung noise, exact
        // duplicates.
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
                20.0 + (i as f32 * 13.7 + seed as f32) % 40.0,
                -20.0 - (i as f32 * 7.3) % 40.0,
            ));
        }
        for i in 0..duplicates.min(pts.len()) {
            pts.push(pts[i * 31 % pts.len()]);
        }
        // Interleave so blobs, noise and duplicates mix across batches.
        let n = pts.len();
        let shuffled: Vec<Point3> = (0..n).map(|i| pts[(i * 17 + 5) % n]).collect();

        let params = DbscanParams::new(eps, min_pts).unwrap();
        let engine = ClusterEngine::builder().params(params).build().unwrap();
        let mut config = StreamingConfig::new(params, WindowPolicy::Count(window));
        config.refit_dead_fraction = 0.02;
        let mut clusterer = StreamingClusterer::new(config).unwrap();

        let mut t = 0.0f64;
        for chunk in shuffled.chunks(batch_size) {
            let timed: Vec<(Point3, f64)> = chunk.iter().map(|&p| { t += 1.0; (p, t) }).collect();
            clusterer.ingest(&timed).unwrap();

            let window_points = clusterer.window_points();
            let snapshot = clusterer.snapshot();
            let run = engine.run(&window_points).unwrap().clustering;
            prop_assert_eq!(&snapshot.labels, &run.labels);
            prop_assert_eq!(&snapshot.core, &run.core);
            let reference = ClassicDbscan::cluster(&window_points, params).unwrap();
            prop_assert_eq!(&reference.core, &snapshot.core);
            prop_assert!(
                same_clustering(&reference, &snapshot, &window_points, params),
                "partition diverged at t={} (window {})", t, window_points.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: under a time window, ingesting a chunk in one call leaves
    /// the same window, eviction count and snapshot as ingesting its points
    /// one call at a time.  Timestamps repeat, jitter and step back, and a
    /// chunk may hold more or fewer points than the window keeps, so some
    /// chunks evict their own first points.  Every snapshot also equals
    /// the default engine's run over the window.
    #[test]
    fn time_window_batches_equal_point_by_point_ingest(
        n in 20usize..160,
        horizon in 1.0f64..12.0,
        chunk in 1usize..80,
        eps in 0.3f32..1.2,
        min_pts in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        // Per point, a step code of 0 repeats the last timestamp, 1 steps
        // back and the rest move forward by uneven amounts; points fall on
        // a coarse grid of three blobs.
        let mut state = seed;
        let mut t = 0.0f64;
        let timed: Vec<(Point3, f64)> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let h = state >> 33;
                t += match h % 8 {
                    0 => 0.0,
                    1 => -0.75,
                    step => step as f64 * 0.15,
                };
                let (x, y) = ((h >> 3) % 12, (h >> 7) % 6);
                let blob = (x % 3) as f32 * 5.0;
                (Point3::new_2d(blob + x as f32 * 0.25, y as f32 * 0.3), t)
            })
            .collect();

        let params = DbscanParams::new(eps, min_pts).unwrap();
        let engine = ClusterEngine::builder().params(params).build().unwrap();
        let config = StreamingConfig::new(params, WindowPolicy::Time(horizon));
        let mut batched = StreamingClusterer::new(config).unwrap();
        let mut single = StreamingClusterer::new(config).unwrap();
        for points in timed.chunks(chunk) {
            batched.ingest(points).unwrap();
            for &point in points {
                single.ingest(&[point]).unwrap();
            }
            let window = batched.window_points();
            prop_assert_eq!(&window, &single.window_points());
            prop_assert_eq!(batched.stats().evicted, single.stats().evicted);
            let snapshot = batched.snapshot();
            prop_assert_eq!(&snapshot, &single.snapshot());
            let run = engine.run(&window).unwrap().clustering;
            prop_assert_eq!(&snapshot.labels, &run.labels);
            prop_assert_eq!(&snapshot.core, &run.core);
        }
    }
}
