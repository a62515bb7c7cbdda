//! Micro-benchmarks of the disjoint-set structures used by the cluster
//! formation stage: sequential vs lock-free concurrent union-find.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rayon::prelude::*;
use rtcore::hardware::WorkCounters;
use rtdbscan::disjoint_set::{ConcurrentDisjointSet, SequentialDisjointSet};

/// Deterministic pseudo-random union pairs resembling DBSCAN's stage 2:
/// mostly local merges plus occasional long-range ones.
fn union_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| {
            let far = (i.wrapping_mul(2654435761)) % n;
            [(i, (i + 1) % n), (i, far)]
        })
        .collect()
}

fn bench_union_find(c: &mut Criterion) {
    let n = 200_000;
    let pairs = union_pairs(n);
    let mut group = c.benchmark_group("union_find_200k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(pairs.len() as u64));

    group.bench_with_input(BenchmarkId::from_parameter("sequential"), &n, |b, _| {
        b.iter(|| {
            let mut dsu = SequentialDisjointSet::new(n);
            for &(a, bb) in &pairs {
                dsu.union(a, bb);
            }
            std::hint::black_box(dsu.set_count())
        })
    });

    group.bench_with_input(
        BenchmarkId::from_parameter("concurrent_serial_driver"),
        &n,
        |b, _| {
            b.iter(|| {
                let dsu = ConcurrentDisjointSet::new(n);
                let mut tally = WorkCounters::ZERO;
                for &(a, bb) in &pairs {
                    dsu.union(a, bb, &mut tally);
                }
                std::hint::black_box(dsu.find(0, &mut tally))
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("concurrent_parallel_driver"),
        &n,
        |b, _| {
            b.iter(|| {
                let dsu = ConcurrentDisjointSet::new(n);
                // Each work item charges a tally of its own, summed after
                // the join, as stage 2's packets do.
                let merges: u64 = pairs
                    .par_iter()
                    .map(|&(a, bb)| {
                        let mut tally = WorkCounters::ZERO;
                        dsu.union(a, bb, &mut tally);
                        tally.union_ops
                    })
                    .sum();
                std::hint::black_box(merges)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_union_find);
criterion_main!(benches);
