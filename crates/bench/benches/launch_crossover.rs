//! Sweep of `RtDbscan::min_parallel_launch` (the index's launch threshold): where
//! does the parallel ray launch start to beat the sequential one?
//!
//! Below the threshold a launch runs on one thread (no fork/join overhead);
//! above it, rays fan out across the rayon pool.  The crossover informs the
//! default (256) and gives deployments a measured knob for small-scene
//! workloads such as per-tenant streaming windows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtdbscan::{DbscanAlgorithm, DbscanParams, RtDbscan};
use rtdbscan_datasets::{generate, PaperDataset};
use std::hint::black_box;
use std::time::Duration;

fn bench_launch_crossover(c: &mut Criterion) {
    // Scene sizes straddling plausible crossover points.
    for &n in &[128usize, 512, 4_096, 20_000] {
        let points = generate(PaperDataset::RoadNetwork, n, 42);
        let params = DbscanParams::new(0.05, 10).unwrap();
        let mut group = c.benchmark_group(format!("launch_crossover_n{n}"));
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_secs(2));
        group.throughput(Throughput::Elements(n as u64));
        // usize::MAX = always sequential, 0 = always parallel.
        for &threshold in &[usize::MAX, 4_096, 1_024, 256, 0] {
            let label = if threshold == usize::MAX {
                "sequential".to_string()
            } else {
                format!("min_par_{threshold}")
            };
            let algo = RtDbscan {
                min_parallel_launch: threshold,
                ..RtDbscan::default()
            };
            group.bench_with_input(BenchmarkId::from_parameter(label), &points, |b, pts| {
                b.iter(|| black_box(algo.run(pts, params).unwrap().clustering.num_clusters()))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_launch_crossover);
criterion_main!(benches);
