//! Wide (BVH4) batched traversal vs binary traversal on the fig-6 size
//! sweep — the acceptance-criterion bench for the batched engine — plus the
//! engine-façade guard for the `NeighborIndex` redesign.
//!
//! Before the wall-clock groups run, a counter report is printed for each
//! size: stage-1 rays / distance computations / primitive tests (which must
//! match exactly between the two engines — proof that both answered
//! identical queries), stage 2's labels and merges (which must match too;
//! its sampling launch follows each engine's emission order, so its query
//! work may differ), the node-visit counters, and the simulated-device
//! node-visit charge under the RT-core cost profile.  At every size — including
//! n ≥ 100 000 — the wide batched engine must report a strictly smaller
//! simulated node-visit charge than the binary engine; the process aborts
//! with a panic otherwise, so regressions cannot print a plausible-looking
//! table.
//!
//! The façade guard then (1) asserts that running RT-DBSCAN *through*
//! `ClusterEngine` builds the paper index and reproduces the ray /
//! dist-comp / prim-test counters of the direct two-stage driver with the
//! engine's stage-1 early exit on that index bit-for-bit — the abstraction
//! adds zero per-query work on the hot path — and (2) drives all four
//! `NeighborIndex` backends through the engine and asserts they report
//! identical per-point neighbour counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtcore::bvh::BuilderKind;
use rtcore::hardware::{CostProfile, WorkCounters};
use rtcore::index::{IndexKind, QueryOrder};
use rtdbscan::engine::{Algo, ClusterEngine};
use rtdbscan::{DbscanAlgorithm, DbscanParams, Fdbscan, RtDbscan};
use rtdbscan_datasets::{generate, PaperDataset};
use std::hint::black_box;
use std::time::Duration;

fn node_visit_charge_ns(profile: &CostProfile, c: &WorkCounters) -> f64 {
    c.node_visits as f64 * profile.node_visit_ns
        + c.wide_node_visits as f64 * profile.wide_visit_ns()
}

/// Counter + simulated-charge comparison at one size; panics unless the
/// wide engine charges strictly less while answering identical queries.
fn report_and_assert(n: usize, points: &[rtcore::geometry::Point3], params: DbscanParams) {
    let wide = RtDbscan::default().run(points, params).unwrap();
    let binary = RtDbscan::with_binary_traversal()
        .run(points, params)
        .unwrap();

    let (w1, b1) = (
        &wide.counters.core_identification,
        &binary.counters.core_identification,
    );
    assert_eq!(
        w1.rays, b1.rays,
        "n={n}: engines launched different queries"
    );
    assert_eq!(
        w1.dist_comps, b1.dist_comps,
        "n={n}: engines filtered different candidates"
    );
    assert_eq!(
        w1.prim_tests, b1.prim_tests,
        "n={n}: engines tested different primitives"
    );
    assert_eq!(
        wide.clustering.core, binary.clustering.core,
        "n={n}: engines disagreed on core points"
    );
    assert_eq!(
        wide.clustering.labels, binary.clustering.labels,
        "n={n}: engines formed different clusters"
    );
    assert_eq!(
        wide.counters.cluster_formation.union_ops, binary.counters.cluster_formation.union_ops,
        "n={n}: engines merged a different number of sets"
    );
    let w = wide.counters.core_identification + wide.counters.cluster_formation;
    let b = binary.counters.core_identification + binary.counters.cluster_formation;

    let profile = CostProfile::rt_core();
    let wide_ns = node_visit_charge_ns(&profile, &w);
    let binary_ns = node_visit_charge_ns(&profile, &b);
    println!(
        "n={n:>7}  (stage-1 dist_comps identical on both engines)\n\
         \tbinary: charge={binary_ns:>12.0} ns  [{}]\n\
         \twide:   charge={wide_ns:>12.0} ns  [{}]  ({:.2}x cheaper)",
        b.summary_line(),
        w.summary_line(),
        binary_ns / wide_ns.max(1.0),
    );
    assert!(
        wide_ns < binary_ns,
        "n={n}: wide engine must charge fewer simulated node-visit ns \
         (wide {wide_ns} vs binary {binary_ns})"
    );
}

/// The redesign guard: the engine façade must cost nothing and every
/// backend must answer every query identically.
fn assert_facade_is_free(n: usize, points: &[rtcore::geometry::Point3], params: DbscanParams) {
    // (1) Zero added hot-path work: the engine pinned to the paper
    // configuration builds the paper index, and its stages match the
    // direct two-stage driver stopping stage 1 at minPts on the paper
    // configuration's own index; counter identity on the quantities the
    // RT device charges per query.
    let direct = RtDbscan::default().run(points, params).unwrap();
    let engine = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .index(IndexKind::WideBatched)
        .bvh_builder(BuilderKind::BinnedSah)
        .query_order(QueryOrder::AsGiven)
        .params(params)
        .build()
        .unwrap();
    let via_engine = engine.run(points).unwrap();
    let early = Fdbscan {
        early_exit: true,
        ..Fdbscan::default()
    }
    .run_on(
        RtDbscan::default()
            .index_builder()
            .build(points, params.eps)
            .unwrap()
            .as_ref(),
        points,
        params,
    )
    .unwrap();
    let d = early.counters.core_identification + early.counters.cluster_formation;
    let e = via_engine.counters.core_identification + via_engine.counters.cluster_formation;
    assert_eq!(d.rays, e.rays, "n={n}: façade launched extra rays");
    assert_eq!(d.dist_comps, e.dist_comps, "n={n}: façade added dist comps");
    assert_eq!(d.prim_tests, e.prim_tests, "n={n}: façade added prim tests");
    assert_eq!(
        d.wide_node_visits, e.wide_node_visits,
        "n={n}: façade changed traversal shape"
    );
    assert_eq!(direct.counters.build, via_engine.counters.build);
    assert_eq!(direct.clustering.core, via_engine.clustering.core);
    // The engine's own default (LBVH, Morton launches) labels identically.
    let default_engine = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .params(params)
        .build()
        .unwrap()
        .run(points)
        .unwrap();
    assert_eq!(
        direct.clustering.labels, default_engine.clustering.labels,
        "n={n}: the engine default must label like the paper configuration"
    );

    // (2) Backend identity: all four backends, driven through the engine's
    // session mode, report identical per-point neighbour counts.
    let mut reference: Option<Vec<u64>> = None;
    for kind in IndexKind::ALL {
        let session = ClusterEngine::builder()
            .algorithm(Algo::Rt)
            .index(kind)
            .params(params)
            .build()
            .unwrap()
            .session(points)
            .unwrap();
        let counts = session.neighbor_counts().to_vec();
        match &reference {
            None => reference = Some(counts),
            Some(r) => assert_eq!(r, &counts, "n={n}: {kind:?} disagrees on neighbour counts"),
        }
    }
    println!(
        "n={n:>7}  façade counter-identical to direct calls; {} backends agree on all {} neighbour counts",
        IndexKind::ALL.len(),
        points.len()
    );
}

fn bench_wide_vs_binary(c: &mut Criterion) {
    let params = DbscanParams::new(0.4, 10).unwrap();

    // Counter proof across the sweep, including the n ≥ 100k acceptance
    // point (counter collection is one run per engine, not a timing loop).
    for n in [15_000usize, 60_000, 120_000] {
        let points = generate(PaperDataset::PortoTaxi, n, 42);
        report_and_assert(n, &points, params);
    }

    // Façade guard at a size where the brute-force oracle is still fast.
    {
        let n = 15_000usize;
        let points = generate(PaperDataset::PortoTaxi, n, 42);
        assert_facade_is_free(n, &points, params);
    }

    // Wall-clock comparison at the sizes criterion can sample quickly.
    let mut group = c.benchmark_group("fig6_wide_vs_binary");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for n in [15_000usize, 60_000] {
        let points = generate(PaperDataset::PortoTaxi, n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("wide_batched", n), &n, |b, _| {
            b.iter(|| RtDbscan::default().run(black_box(&points), params).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("binary", n), &n, |b, _| {
            b.iter(|| {
                RtDbscan::with_binary_traversal()
                    .run(black_box(&points), params)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wide_vs_binary);
criterion_main!(benches);
