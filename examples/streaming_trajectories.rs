//! Streaming demo: cluster a live Porto-style taxi-GPS feed with a sliding
//! window.
//!
//! ```text
//! cargo run --release --example streaming_trajectories
//! ```
//!
//! A replayed trajectory stream is ingested in batches; after each batch
//! the demo snapshots the clustering of the current window and prints how
//! the hotspot structure evolves, together with the update-policy decisions
//! (refit vs rebuild) and their counted cost.

use rtdbscan::engine::{Algo, ClusterEngine, IndexKind};
use rtdbscan_datasets::{PaperDataset, PointStream, StreamConfig};
use rtdbscan_stream::{EngineStreamExt, WindowPolicy};

fn main() {
    // --- 1. A replayable trajectory feed: 20k GPS fixes at 2k fixes/s. ---
    let stream = PointStream::replay(
        PaperDataset::PortoTaxi,
        StreamConfig {
            total_points: 20_000,
            batch_size: 1_000,
            points_per_second: 2_000.0,
            seed: 42,
        },
    );

    // --- 2. A clusterer keeping the last 4 seconds of traffic: the same
    // engine configuration that drives batch runs and sessions also drives
    // the streaming shape (`EngineStreamExt::stream`).
    let engine = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .index(IndexKind::WideBatched)
        .eps(0.5)
        .min_pts(8)
        .build()
        .expect("valid engine configuration");
    let mut clusterer = engine
        .stream(WindowPolicy::Time(4.0))
        .expect("valid window policy");

    println!("streaming Porto-style taxi fixes, 4 s sliding window, eps=0.5 minPts=8");
    println!(
        "{:>5} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "batch", "window", "clusters", "noise", "core", "refit", "rebuild"
    );

    // --- 3. Ingest batch by batch, snapshotting as we go. ---------------
    for (i, batch) in stream.enumerate() {
        let timed: Vec<_> = batch.iter().map(|t| (t.point, t.time)).collect();
        let report = clusterer
            .ingest(&timed)
            .expect("replayed stream points are finite");
        let snapshot = clusterer.snapshot();
        println!(
            "{:>5} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7}",
            i,
            clusterer.len(),
            snapshot.num_clusters(),
            snapshot.noise_count(),
            snapshot.core_count(),
            if report.refitted { "yes" } else { "-" },
            if report.rebuilt { "yes" } else { "-" },
        );
    }

    // --- 4. What did the update policy do, and what did it cost? --------
    let stats = clusterer.stats();
    let counters = clusterer.counters();
    println!(
        "\nupdate policy: {} refits, {} rebuilds over {} batches",
        stats.refits, stats.rebuilds, 20
    );
    println!(
        "snapshots: {} served from the cache, {} formed by stage 2",
        stats.clean_snapshots, stats.dirty_snapshots
    );
    println!(
        "counted work: {} rays, {} binary + {} wide node visits, {} refit node ops, {} build prims",
        counters.rays,
        counters.node_visits,
        counters.wide_node_visits,
        counters.refit_node_ops,
        counters.build_prims
    );
    let device = rtcore::hardware::DeviceModel::default();
    println!(
        "simulated RT-device time for all streaming work: {}",
        device.total_time(&counters, rtcore::hardware::ExecutionPath::RtCore)
    );
}
