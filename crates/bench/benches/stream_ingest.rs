//! Streaming benches: ingest throughput, snapshot latency, and the
//! refit-vs-rebuild comparison that justifies the scene update policy.
//!
//! Three groups:
//!
//! * `refit_vs_rebuild` — the raw scene-maintenance primitives on the
//!   streaming scene's index (the `Algo::Rt` engine's, without
//!   compaction): removing a slice of expired points in place with
//!   `NeighborIndex::remove` against a fresh build of the survivors through
//!   the same builder, at several scene sizes.
//! * `stream_ingest` — end-to-end sliding-window ingest throughput of
//!   `StreamingClusterer` under (a) the default refit-first update policy
//!   and (b) a policy pinned to rebuild on every batch.
//! * `snapshot_latency` — a cached repeat snapshot of a full 8k window
//!   against a one-point slide of it followed by the snapshot that forms
//!   the changed window from the edges ingest kept.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtcore::geometry::Point3;
use rtcore::index::NeighborIndexBuilder;
use rtdbscan::engine::{Algo, ClusterEngine};
use rtdbscan::DbscanParams;
use rtdbscan_datasets::{generate, PaperDataset};
use rtdbscan_stream::{StreamingClusterer, StreamingConfig, WindowPolicy};
use std::hint::black_box;
use std::time::Duration;

fn bench_refit_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("refit_vs_rebuild");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    let params = DbscanParams::new(0.5, 8).unwrap();
    let builder = NeighborIndexBuilder {
        compaction: false,
        ..ClusterEngine::builder()
            .algorithm(Algo::Rt)
            .params(params)
            .build()
            .unwrap()
            .index_config()
    };
    for &n in &[10_000usize, 60_000] {
        let points = generate(PaperDataset::PortoTaxi, n, 42);
        // Expire 10% of the points.
        let retired: Vec<u32> = (0..n as u32).filter(|i| i % 10 == 0).collect();
        let survivors: Vec<Point3> = points
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 10 != 0)
            .map(|(_, &p)| p)
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        // An index cannot be cloned, so both arms first build it over all
        // n points: the gap between their medians is the in-place removal
        // against the fresh build of the survivors.
        group.bench_function(BenchmarkId::new("build_then_remove_10pct", n), |b| {
            b.iter(|| {
                let mut index = builder.build(&points, params.eps).unwrap();
                let work = index.remove(&retired).unwrap();
                black_box((index.len(), work.refit_node_ops))
            })
        });
        group.bench_function(BenchmarkId::new("build_then_rebuild_survivors", n), |b| {
            b.iter(|| {
                let index = builder.build(&points, params.eps).unwrap();
                let fresh = builder.build(&survivors, params.eps).unwrap();
                black_box((index.len(), fresh.len()))
            })
        });
    }
    group.finish();
}

/// Feed a replayed Porto stream through a clusterer and return points/sec
/// bookkeeping inputs (total points ingested).
fn drive_stream(config: StreamingConfig, points: &[Point3], batch: usize) -> StreamingClusterer {
    let mut clusterer = StreamingClusterer::new(config).unwrap();
    let mut t = 0.0f64;
    for chunk in points.chunks(batch) {
        let timed: Vec<(Point3, f64)> = chunk
            .iter()
            .map(|&p| {
                t += 1.0;
                (p, t)
            })
            .collect();
        clusterer.ingest(&timed).unwrap();
    }
    clusterer
}

fn bench_stream_ingest(c: &mut Criterion) {
    let total = 30_000usize;
    let window = 8_000usize;
    let batch = 500usize;
    let points = generate(PaperDataset::PortoTaxi, total, 42);
    let params = DbscanParams::new(0.5, 8).unwrap();

    let refit_first = StreamingConfig::new(params, WindowPolicy::Count(window));
    let rebuild_always = StreamingConfig {
        // Any pending point forces a rebuild; the refit path never fires.
        max_pending_fraction: 1e-9,
        ..refit_first
    };

    let mut group = c.benchmark_group("stream_ingest_30k_window8k");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(4));
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("refit_first", |b| {
        b.iter(|| black_box(drive_stream(refit_first, &points, batch).stats()))
    });
    group.bench_function("rebuild_every_batch", |b| {
        b.iter(|| black_box(drive_stream(rebuild_always, &points, batch).stats()))
    });
    group.finish();

    // One-off decision/work report so the policy's effect is visible in
    // bench output (and in the simulated device model's terms).
    for (name, cfg) in [
        ("refit_first", refit_first),
        ("rebuild_every_batch", rebuild_always),
    ] {
        let clusterer = drive_stream(cfg, &points, batch);
        let stats = clusterer.stats();
        let counters = clusterer.counters();
        let device = rtcore::hardware::DeviceModel::default();
        let path = rtcore::hardware::ExecutionPath::RtCore;
        // The cost model charges the fixed build-kernel setup once per
        // recorded rebuild, so accumulated streaming counters price
        // correctly without correction.
        let build_time = device.build_time(&counters, path).as_secs_f64();
        let total_time = device.total_time(&counters, path).as_secs_f64();
        println!(
            "{name}: refits={} rebuilds={} refit_node_ops={} build_prims={} \
             simulated_build={build_time:.6}s simulated_total={total_time:.6}s",
            stats.refits, stats.rebuilds, counters.refit_node_ops, counters.build_prims
        );
    }
}

fn bench_snapshot_latency(c: &mut Criterion) {
    let points = generate(PaperDataset::PortoTaxi, 12_000, 7);
    let params = DbscanParams::new(0.5, 8).unwrap();
    let config = StreamingConfig::new(params, WindowPolicy::Count(8_000));

    let mut group = c.benchmark_group("snapshot_latency_window8k");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(8_000));

    // Clean path: a repeat snapshot of an unchanged window (the cache).
    let mut clean = drive_stream(config, &points[..8_000], 500);
    group.bench_function("clean_path", |b| b.iter(|| black_box(clean.snapshot())));

    // Dirty path: each iteration slides the full window by one point (the
    // rest of the input, then the input again), so every snapshot forms a
    // changed window.
    let mut slid = drive_stream(config, &points[..8_000], 500);
    let mut arrivals = points.iter().cycle().skip(8_000).zip(8_001..);
    group.bench_function("dirty_path", |b| {
        b.iter(|| {
            let (&point, t) = arrivals.next().unwrap();
            slid.ingest(&[(point, f64::from(t))]).unwrap();
            black_box(slid.snapshot())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_refit_vs_rebuild,
    bench_stream_ingest,
    bench_snapshot_latency
);
criterion_main!(benches);
