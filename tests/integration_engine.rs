//! Cross-crate tests for the API redesign: the `NeighborIndex` backend
//! layer and the `ClusterEngine` builder façade.
//!
//! Pinned here:
//!
//! 1. **Backend equivalence** — all four backends return identical
//!    neighbour sets (property-tested over blobs, exact duplicates and
//!    exact-ε boundary pairs), so any algorithm × backend combination
//!    clusters identically.
//! 2. **Façade neutrality** — running through `ClusterEngine` adds zero
//!    ray / distance-computation / primitive-test cost over the direct
//!    two-stage driver with the same stage-1 early exit, and labels like
//!    the direct entry points.
//! 3. **Eager validation** — the builder rejects contradictory
//!    configurations with `ConfigError`s naming the offending field.
//! 4. **Object safety** — `Box<dyn NeighborIndex>` flows through the
//!    engine, the session and manual drivers.
//! 5. **Stage 2's prefix** — on NGSIM's many small clusters stage 2 runs
//!    one query per core, the prefix's included, and labels as before; on
//!    porto's giant it still skips the giant's full queries.

use proptest::prelude::*;
use rtcore::bvh::BuilderKind;
use rtdbscan::engine::QueryOrder;
use rtdbscan_repro::prelude::*;

fn blobs_duplicates_boundary(eps: f32, seed: u64) -> Vec<Point3> {
    let mut pts = Vec::new();
    for b in 0..3 {
        let cx = (b % 2) as f32 * 6.0;
        let cy = (b / 2) as f32 * 6.0;
        for i in 0..30 {
            let angle = (i as f32 + seed as f32) * 0.7;
            let radius = 0.8 * ((i * 7 + b * 3) % 10) as f32 / 10.0;
            pts.push(Point3::new_2d(
                cx + radius * angle.cos(),
                cy + radius * angle.sin(),
            ));
        }
    }
    // Exact duplicates.
    for i in 0..12 {
        pts.push(pts[i * 7 % pts.len()]);
    }
    // Pairs exactly eps apart (dyadic base coordinates keep it exact).
    for i in 0..4 {
        let base = Point3::new_2d(-20.0 - 4.0 * i as f32, 25.0);
        pts.push(base);
        pts.push(Point3::new_2d(base.x + eps, base.y));
    }
    pts
}

#[test]
fn all_four_backends_return_identical_neighbor_sets() {
    let eps = 0.5f32;
    let pts = blobs_duplicates_boundary(eps, 3);
    let indexes: Vec<Box<dyn NeighborIndex>> = IndexKind::ALL
        .iter()
        .map(|&kind| NeighborIndexBuilder::new(kind).build(&pts, eps).unwrap())
        .collect();
    let mut scratch = WorkCounters::ZERO;
    for (i, &p) in pts.iter().enumerate() {
        let mut reference: Option<Vec<u32>> = None;
        for index in &indexes {
            let mut got = index.neighbors_of(p, eps, Some(i as u32), &mut scratch);
            got.sort_unstable();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    &got,
                    r,
                    "query {i} diverges on {:?}",
                    index.capabilities().kind
                ),
            }
        }
    }
}

#[test]
fn trait_objects_flow_through_the_engine_and_direct_drivers() {
    let pts = blobs_duplicates_boundary(0.5, 9);
    let params = DbscanParams::new(0.5, 4).unwrap();
    let reference = ClassicDbscan::cluster(&pts, params).unwrap();
    for kind in IndexKind::ALL {
        // Through the engine …
        let engine = ClusterEngine::builder()
            .algorithm(Algo::Rt)
            .index(kind)
            .params(params)
            .build()
            .unwrap();
        let via_engine = engine.run(&pts).unwrap();
        assert_eq!(reference.core, via_engine.clustering.core, "{kind:?}");
        // … and as a boxed trait object driven by hand: the paper
        // configuration's exact stage 1 labels alike, and the two-stage
        // driver with the engine's stage-1 early exit does the same work.
        let index: Box<dyn NeighborIndex> = engine.build_index(&pts).unwrap();
        let direct = RtDbscan::default()
            .run_on(index.as_ref(), &pts, params)
            .unwrap();
        let early = Fdbscan {
            early_exit: true,
            ..Fdbscan::default()
        }
        .run_on(index.as_ref(), &pts, params)
        .unwrap();
        assert_eq!(
            via_engine.clustering.core, direct.clustering.core,
            "{kind:?}"
        );
        assert_eq!(
            via_engine.counters.core_identification.dist_comps,
            early.counters.core_identification.dist_comps,
            "{kind:?}: the façade must add no per-query work"
        );
    }
}

#[test]
fn engine_facade_adds_zero_counter_cost_over_direct_calls() {
    let pts = blobs_duplicates_boundary(0.5, 21);
    let params = DbscanParams::new(0.5, 5).unwrap();

    // RT-DBSCAN, wide batched.  The engine's default (LBVH, Morton
    // launches) labels exactly like the paper configuration...
    let direct = RtDbscan::default().run(&pts, params).unwrap();
    let default_run = ClusterEngine::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&pts)
        .unwrap();
    assert_eq!(direct.clustering.labels, default_run.clustering.labels);
    assert_eq!(direct.clustering.core, default_run.clustering.core);
    // ...and pinned to that configuration the façade adds zero cost: it
    // builds the paper index, and its stages do the work of the direct
    // two-stage driver running the engine's stage-1 early exit on the
    // paper configuration's own index.
    let engine_run = ClusterEngine::builder()
        .params(params)
        .bvh_builder(BuilderKind::BinnedSah)
        .query_order(QueryOrder::AsGiven)
        .build()
        .unwrap()
        .run(&pts)
        .unwrap();
    let paper_index = RtDbscan::default()
        .index_builder()
        .build(&pts, params.eps)
        .unwrap();
    let early = Fdbscan {
        early_exit: true,
        ..Fdbscan::default()
    }
    .run_on(paper_index.as_ref(), &pts, params)
    .unwrap();
    for (d, e) in [
        (&direct.counters.build, &engine_run.counters.build),
        (
            &early.counters.core_identification,
            &engine_run.counters.core_identification,
        ),
    ] {
        assert_eq!(d, e);
    }
    assert_eq!(
        early.counters.cluster_formation.rays,
        engine_run.counters.cluster_formation.rays
    );
    assert_eq!(
        early.counters.cluster_formation.dist_comps,
        engine_run.counters.cluster_formation.dist_comps
    );
    assert_eq!(
        early.counters.cluster_formation.prim_tests,
        engine_run.counters.cluster_formation.prim_tests
    );

    // FDBSCAN through the façade is equally free.
    let fd_direct = Fdbscan::default().run(&pts, params).unwrap();
    let fd_engine = ClusterEngine::builder()
        .algorithm(Algo::Fdbscan)
        .params(params)
        .build()
        .unwrap()
        .run(&pts)
        .unwrap();
    assert_eq!(fd_direct.counters.build, fd_engine.counters.build);
    assert_eq!(
        fd_direct.counters.core_identification,
        fd_engine.counters.core_identification
    );
}

#[test]
fn builder_validation_matrix_across_the_workspace_surface() {
    let base = || ClusterEngine::builder().eps(0.5).min_pts(3);
    // (field, conflicts_with) for each misconfiguration.
    let expect = |err: ConfigError, field: &str, conflict: Option<&str>| {
        assert_eq!(err.field, field, "{err}");
        assert_eq!(err.conflicts_with, conflict, "{err}");
    };
    expect(
        ClusterEngine::builder().min_pts(3).build().unwrap_err(),
        "eps",
        None,
    );
    expect(base().eps(f32::INFINITY).build().unwrap_err(), "eps", None);
    expect(base().min_pts(0).build().unwrap_err(), "min_pts", None);
    expect(
        base().batch_size(0).build().unwrap_err(),
        "batch_size",
        None,
    );
    expect(
        base()
            .index(IndexKind::UniformGrid)
            .batch_size(128)
            .build()
            .unwrap_err(),
        "batch_size",
        Some("index"),
    );
    expect(
        base()
            .algorithm(Algo::Classic)
            .compaction(true)
            .build()
            .unwrap_err(),
        "compaction",
        Some("algorithm"),
    );
    expect(
        base().wide_visit_fraction(-0.5).build().unwrap_err(),
        "wide_visit_fraction",
        None,
    );

    // The backend-layer builder validates the same contradictions.
    let grid_compaction = NeighborIndexBuilder {
        compaction: true,
        ..NeighborIndexBuilder::new(IndexKind::UniformGrid)
    };
    assert!(grid_compaction.validate().is_err());
}

#[test]
fn id_tracking_algorithms_reject_compacting_indexes_at_run_time() {
    // The engine builder already refuses this combination; a hand-built
    // compacting index handed straight to run_on must be refused too (a
    // merged primitive stands for several points, so per-id expansion would
    // silently produce a wrong clustering).
    let pts = blobs_duplicates_boundary(0.5, 5);
    let params = DbscanParams::new(0.5, 4).unwrap();
    let compacting = NeighborIndexBuilder {
        compaction: true,
        ..NeighborIndexBuilder::new(IndexKind::BinaryBvh)
    }
    .build(&pts, params.eps)
    .unwrap();
    assert!(compacting.capabilities().compacting);
    for result in [
        ClassicDbscan.run_on(compacting.as_ref(), &pts, params),
        GDbscan::default().run_on(compacting.as_ref(), &pts, params),
        CudaDclustPlus::default().run_on(compacting.as_ref(), &pts, params),
    ] {
        match result {
            Err(rtdbscan_repro::rtcore::Error::InvalidConfig(msg)) => {
                assert!(msg.contains("compacting"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    // The two-stage algorithms handle compaction via multiplicities and
    // keep working.
    let reference = ClassicDbscan::cluster(&pts, params).unwrap();
    let rt = RtDbscan::default()
        .run_on(compacting.as_ref(), &pts, params)
        .unwrap();
    assert_eq!(reference.core, rt.clustering.core);
}

#[test]
fn session_and_stream_modes_share_the_engine_configuration() {
    let pts = blobs_duplicates_boundary(0.5, 33);
    let params = DbscanParams::new(0.5, 4).unwrap();
    let engine = ClusterEngine::builder().params(params).build().unwrap();

    // Session mode: recorded stage-1 counts answer any minPts.
    let session = engine.session(&pts).unwrap();
    for min_pts in [2usize, 4, 10] {
        let p = DbscanParams::new(0.5, min_pts).unwrap();
        let one_shot = RtDbscan::default().run(&pts, p).unwrap().clustering;
        let reused = session.cluster(min_pts).unwrap().clustering;
        assert_eq!(one_shot.core, reused.core, "minPts={min_pts}");
    }

    // Streaming mode: the same engine configuration drives a windowed
    // clusterer whose full-window snapshot equals the batch result.
    let mut stream = engine.stream(WindowPolicy::Count(pts.len())).unwrap();
    let timed: Vec<(Point3, f64)> = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as f64))
        .collect();
    stream.ingest(&timed).unwrap();
    let snapshot = stream.snapshot();
    let batch = engine.run(&pts).unwrap().clustering;
    assert_eq!(batch.core, snapshot.core);
    assert_eq!(batch.labels, snapshot.labels);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: the four backends agree on every neighbour set — and
    /// therefore every algorithm × backend combination agrees with the
    /// sequential reference — across random workloads mixing blobs, noise,
    /// exact duplicates and exact-ε boundary pairs.
    #[test]
    fn backends_agree_on_random_workloads(
        blob_count in 1usize..4,
        points_per_blob in 5usize..30,
        noise in 0usize..20,
        duplicates in 0usize..20,
        boundary_pairs in 0usize..6,
        eps_quarters in 1u32..8,
        min_pts in 2usize..8,
        seed in 0u64..1000,
    ) {
        let eps = eps_quarters as f32 * 0.25;
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
                30.0 + (i as f32 * 13.7 + seed as f32) % 40.0,
                -30.0 - (i as f32 * 7.3) % 40.0,
            ));
        }
        for i in 0..duplicates.min(pts.len()) {
            pts.push(pts[i * 31 % pts.len()]);
        }
        for i in 0..boundary_pairs {
            let base = Point3::new_2d(-20.0 - 4.0 * i as f32, 25.0);
            pts.push(base);
            pts.push(Point3::new_2d(base.x + eps, base.y));
        }

        // Neighbour-set identity across backends, point by point.
        let indexes: Vec<Box<dyn NeighborIndex>> = IndexKind::ALL
            .iter()
            .map(|&kind| NeighborIndexBuilder::new(kind).build(&pts, eps).unwrap())
            .collect();
        let mut scratch = WorkCounters::ZERO;
        for (i, &p) in pts.iter().enumerate() {
            let mut sets: Vec<Vec<u32>> = Vec::new();
            for index in &indexes {
                let mut got = index.neighbors_of(p, eps, Some(i as u32), &mut scratch);
                got.sort_unstable();
                sets.push(got);
            }
            for s in &sets[1..] {
                prop_assert_eq!(&sets[0], s);
            }
        }

        // And the engine clusters identically on every backend.
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        for kind in IndexKind::ALL {
            let run = ClusterEngine::builder()
                .algorithm(Algo::Rt)
                .index(kind)
                .params(params)
                .build()
                .unwrap()
                .run(&pts)
                .unwrap();
            prop_assert_eq!(&reference.core, &run.clustering.core);
            prop_assert!(
                rtdbscan_repro::rtdbscan::metrics::same_clustering(
                    &reference,
                    &run.clustering,
                    &pts,
                    params
                ),
                "{:?}",
                kind
            );
        }
    }
}

/// FNV-1a over the little-endian bytes of `labels`: a hash that does not
/// depend on the standard library's hasher.
fn fnv1a(labels: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in labels.iter().flat_map(|l| l.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// NGSIM 50k at ε 0.1, minPts 20: 35,634 cores in 877 clusters, more cores
/// than possible borders but no giant component.  Stage 2 runs the full
/// queries of its 1,024-core prefix, finds no component that could grow
/// past the possible borders, and runs the other cores' full queries
/// without a sampling round: one query per core, as many rays as cores
/// (the sampling round used to double them to 71,268).  The labels are
/// pinned to the ones stage 2 gave before the prefix.
#[test]
fn ngsim_stage2_runs_one_query_per_core_without_a_giant() {
    let points = rtdbscan_datasets::generate(rtdbscan_datasets::PaperDataset::Ngsim, 50_000, 1);
    let engine = ClusterEngine::builder()
        .eps(0.1)
        .min_pts(20)
        .build()
        .unwrap();
    let run = engine.run(&points).unwrap();
    let cores = run.clustering.core.iter().filter(|&&c| c).count();
    assert_eq!(cores, 35_634);
    assert_eq!(run.clustering.num_clusters(), 877);
    assert_eq!(run.counters.cluster_formation.rays, 35_634);
    assert_eq!(fnv1a(&run.clustering.labels), 0x1861_647f_23f2_f05c);
}

/// Porto 100k at ε 0.1, minPts 20 forms a giant (about 88k cores, almost
/// all in one component), and its index order is random within the
/// hotspots.  The prefix's full queries must still see a component that
/// could beat the possible borders, so stage 2 samples the rest and skips
/// the giant's full queries: its candidate tests stay a small fraction of
/// the exact stage 1's (a full launch of every core would cost about as
/// much as stage 1).
#[test]
fn porto_stage2_still_skips_the_giant_after_the_prefix() {
    let points =
        rtdbscan_datasets::generate(rtdbscan_datasets::PaperDataset::PortoTaxi, 100_000, 1);
    let engine = ClusterEngine::builder()
        .eps(0.1)
        .min_pts(20)
        .build()
        .unwrap();
    let run = engine.run(&points).unwrap();
    let (setup, _) = engine.session(&points).unwrap().setup_cost();
    let stage1 = setup.core_identification.dist_comps;
    let stage2 = run.counters.cluster_formation.dist_comps;
    assert!(
        stage2 * 10 < stage1,
        "stage 2 ran {stage2} candidate tests against the exact stage 1's {stage1}"
    );
}
