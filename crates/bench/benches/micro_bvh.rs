//! Micro-benchmarks of the rtcore substrate: BVH construction (per builder)
//! and fixed-radius query throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtcore::bvh::{spheres_from_points, BvhBuilder, LbvhBuilder, SahBuilder};
use rtcore::geometry::Ray;
use rtcore::hardware::WorkCounters;
use rtcore::traversal::collect_sphere_hits;
use rtdbscan_datasets::{generate, PaperDataset};

fn bench_builders(c: &mut Criterion) {
    let points = generate(PaperDataset::PortoTaxi, 60_000, 42);
    let radius = 0.5;
    let mut group = c.benchmark_group("bvh_build_60k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(points.len() as u64));
    let builders: Vec<(&str, Box<dyn BvhBuilder>)> = vec![
        ("lbvh", Box::new(LbvhBuilder::default())),
        ("binned_sah", Box::new(SahBuilder::default())),
    ];
    for (name, builder) in &builders {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                builder
                    .build(spheres_from_points(std::hint::black_box(&points), radius))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let points = generate(PaperDataset::PortoTaxi, 60_000, 42);
    let radius = 0.5;
    let bvh = SahBuilder::default()
        .build(spheres_from_points(&points, radius))
        .unwrap();
    let mut group = c.benchmark_group("fixed_radius_query");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(600));
    group.bench_function("600_queries_sah", |b| {
        b.iter(|| {
            let mut counters = WorkCounters::ZERO;
            let mut total = 0usize;
            for (i, p) in points.iter().enumerate().step_by(100) {
                total +=
                    collect_sphere_hits(&bvh, &Ray::epsilon_ray(*p), Some(i as u32), &mut counters)
                        .len();
            }
            std::hint::black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_builders, bench_queries);
criterion_main!(benches);
