//! Chaos suite for the fault subsystem: under every injected fault
//! schedule, cancelled deadline, and memory budget the stack must produce
//! either a **correct answer** or a **structured error** — never a panic,
//! never a silently wrong clustering.
//!
//! The featureless half exercises the always-compiled surfaces (deadlines,
//! cancel tokens, budgets, manual quarantine-and-rebuild) and proves a
//! `FaultPlan::Seeded` schedule is inert when the `fault-inject` feature is
//! compiled out.  The `fault-inject` half drives a fixed seed matrix plus a
//! property sweep of seeded schedules across the flat and sharded backends.

use rtcore::bvh::BuilderKind;
use rtcore::fault::{CancelScope, CancelToken, FaultPlan, MemoryBudget, RetryPolicy};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{
    IndexKind, NeighborIndex, NeighborIndexBuilder, QuarantineReason, ShardingConfig,
};
use rtcore::Error;
use rtdbscan::metrics::same_clustering;
#[cfg(feature = "fault-inject")]
use rtdbscan::RunResult;
use rtdbscan::{ClassicDbscan, ClusterEngine, DbscanParams};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Workload + helpers
// ---------------------------------------------------------------------------

/// Blobs in a row (clusters span the Morton shard cuts) plus far noise and
/// exact duplicates — the same boundary zoo as the sharded equivalence
/// suite.
fn workload(blobs: usize, per_blob: usize, noise: usize, seed: u64) -> Vec<Point3> {
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
    for i in 0..8.min(pts.len()) {
        pts.push(pts[i * 31 % pts.len()]);
    }
    pts
}

fn engine(eps: f32, min_pts: usize, shard: Option<usize>, plan: FaultPlan) -> ClusterEngine {
    let mut b = ClusterEngine::builder()
        .eps(eps)
        .min_pts(min_pts)
        .bvh_builder(BuilderKind::Lbvh)
        .fault_plan(plan);
    if let Some(shard) = shard {
        b = b.shard_size(shard);
    }
    b.build().unwrap()
}

fn sharded_index(
    points: &[Point3],
    eps: f32,
    shard: usize,
    plan: FaultPlan,
) -> Box<dyn NeighborIndex> {
    NeighborIndexBuilder {
        bvh_builder: BuilderKind::Lbvh,
        min_parallel_launch: 0,
        batch_size: 64,
        sharding: Some(ShardingConfig::new(shard)),
        fault: plan,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(points, eps)
    .unwrap()
}

/// Per-query sorted neighbour rows — emission order may differ between
/// launch shapes, the sets may not.
fn sorted_rows(index: &dyn NeighborIndex, queries: &[Point3], eps: f32) -> Vec<Vec<u32>> {
    let mut counters = WorkCounters::ZERO;
    let csr = index.batch_neighbors_csr(queries, eps, &mut counters);
    (0..queries.len())
        .map(|q| {
            let mut row: Vec<u32> = csr.neighbors(q).to_vec();
            row.sort_unstable();
            row
        })
        .collect()
}

/// The invariant every chaos case asserts: a run either matches the
/// sequential reference exactly or fails with a *structured* error.
#[cfg(feature = "fault-inject")]
fn assert_correct_or_structured(
    outcome: &Result<RunResult, Error>,
    points: &[Point3],
    params: DbscanParams,
    label: &str,
) {
    match outcome {
        Ok(run) => {
            let reference = ClassicDbscan::cluster(points, params).unwrap();
            assert!(
                same_clustering(&reference, &run.clustering, points, params),
                "{label}: a fault schedule produced a silently wrong clustering"
            );
        }
        Err(
            Error::FaultInjected { .. }
            | Error::DeadlineExceeded { .. }
            | Error::OverBudget { .. }
            | Error::OutOfDeviceMemory { .. },
        ) => {}
        Err(other) => panic!("{label}: unstructured failure {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation (always compiled)
// ---------------------------------------------------------------------------

#[test]
fn pre_cancelled_scope_fails_structured_on_flat_and_sharded_engines() {
    let pts = workload(3, 60, 10, 7);
    let token = CancelToken::new();
    token.cancel();
    let scope = CancelScope::with_token(&token);
    for shard in [None, Some(48)] {
        let eng = engine(0.9, 4, shard, FaultPlan::Off);
        match eng.run_cancellable(&pts, &scope) {
            Err(Error::DeadlineExceeded { partial }) => {
                assert_eq!(*partial, WorkCounters::ZERO, "{shard:?}: no packets ran");
            }
            other => panic!("{shard:?}: expected DeadlineExceeded, got {other:?}"),
        }
        // The same engine still answers exactly once the scope is inert.
        let run = eng.run_cancellable(&pts, &CancelScope::none()).unwrap();
        let params = DbscanParams::new(0.9, 4).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        assert!(same_clustering(&reference, &run.clustering, &pts, params));
    }
}

#[test]
fn expired_deadline_reports_partial_work_bounded_by_the_full_run() {
    let pts = workload(4, 80, 10, 3);
    let eng = engine(0.9, 4, None, FaultPlan::Off);
    let full = eng.run(&pts).unwrap();
    let scope = CancelScope::with_deadline(Duration::ZERO);
    match eng.run_cancellable(&pts, &scope) {
        Err(Error::DeadlineExceeded { partial }) => {
            let done = full.counters.core_identification + full.counters.cluster_formation;
            assert!(
                partial.dist_comps <= done.dist_comps && partial.rays <= done.rays,
                "partial {partial:?} exceeds the full run {done:?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Quarantine & rebuild (always compiled: manual quarantine)
// ---------------------------------------------------------------------------

#[test]
fn quarantined_shards_answer_exactly_and_rebuild_bit_identically() {
    let pts = workload(4, 90, 12, 11);
    let eps = 0.9f32;
    let flat = NeighborIndexBuilder {
        bvh_builder: BuilderKind::Lbvh,
        min_parallel_launch: 0,
        batch_size: 64,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(&pts, eps)
    .unwrap();
    let reference_rows = sorted_rows(flat.as_ref(), &pts, eps);

    let mut index = sharded_index(&pts, eps, 48, FaultPlan::Off);
    let shard_count = index.as_sharded().unwrap().shard_count();
    assert!(shard_count >= 2, "workload must span multiple shards");

    // Quarantine every other shard: overlapping queries fall back to the
    // exact linear scan, so the answer sets cannot move.
    {
        let sharded = index.as_sharded_mut().unwrap();
        for s in (0..shard_count as u32).step_by(2) {
            sharded
                .quarantine_shard(s, QuarantineReason::Poisoned)
                .unwrap();
        }
        assert!(sharded.degraded_shard_count() > 0);
    }
    assert_eq!(
        sorted_rows(index.as_ref(), &pts, eps),
        reference_rows,
        "degraded shards must keep answering exactly"
    );

    // One recovery epoch under the default policy rebuilds everything
    // (no injected faults), restoring full service bit-identically.
    let stats = index
        .as_sharded_mut()
        .unwrap()
        .recover(RetryPolicy::default());
    assert!(stats.rebuilt > 0 && stats.failed == 0, "{stats:?}");
    assert_eq!(index.as_sharded().unwrap().degraded_shard_count(), 0);
    assert_eq!(sorted_rows(index.as_ref(), &pts, eps), reference_rows);

    // Out-of-range quarantine is a structured error, not a panic.
    assert!(matches!(
        index
            .as_sharded_mut()
            .unwrap()
            .quarantine_shard(u32::MAX, QuarantineReason::Poisoned),
        Err(Error::InvalidConfig(_))
    ));
}

// ---------------------------------------------------------------------------
// Memory budgets (always compiled)
// ---------------------------------------------------------------------------

#[test]
fn budget_enforcement_degrades_gracefully_then_refuses() {
    let pts = workload(4, 90, 12, 5);
    let eps = 0.9f32;
    let mut index = sharded_index(&pts, eps, 48, FaultPlan::Off);
    let reference_rows = sorted_rows(index.as_ref(), &pts, eps);
    let full = index.device_bytes();
    assert!(full > 0);

    let sharded = index.as_sharded_mut().unwrap();
    // No-ops: unlimited, and a budget the scene already fits.
    sharded.enforce_budget(MemoryBudget::Unlimited).unwrap();
    sharded.enforce_budget(MemoryBudget::Bytes(full)).unwrap();
    assert_eq!(
        index.device_bytes(),
        full,
        "fitting budgets must not degrade"
    );

    // A squeeze: degradation (cold-shard eviction) must bring the scene
    // under budget while every answer stays exact.
    let limit = full * 3 / 4;
    index
        .as_sharded_mut()
        .unwrap()
        .enforce_budget(MemoryBudget::Bytes(limit))
        .unwrap();
    assert!(index.device_bytes() <= limit);
    assert_eq!(
        sorted_rows(index.as_ref(), &pts, eps),
        reference_rows,
        "budget degradation must never change an answer"
    );

    // An impossible budget refuses with the structured error after every
    // degradation step is spent.
    match index
        .as_sharded_mut()
        .unwrap()
        .enforce_budget(MemoryBudget::Bytes(1))
    {
        Err(Error::OverBudget { requested, budget }) => {
            assert_eq!(budget, 1);
            assert!(requested > 1);
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    // Even a refused scene keeps answering exactly.
    assert_eq!(sorted_rows(index.as_ref(), &pts, eps), reference_rows);
}

// ---------------------------------------------------------------------------
// FaultPlan is inert without the feature
// ---------------------------------------------------------------------------

#[cfg(not(feature = "fault-inject"))]
#[test]
fn seeded_plan_without_the_feature_is_disarmed_and_costless() {
    let pts = workload(3, 70, 10, 13);
    let params = DbscanParams::new(0.9, 4).unwrap();
    let clean = engine(0.9, 4, Some(48), FaultPlan::Off).run(&pts).unwrap();
    let seeded = engine(
        0.9,
        4,
        Some(48),
        FaultPlan::Seeded {
            seed: 99,
            one_in: 1,
        },
    )
    .run(&pts)
    .unwrap();
    assert!(same_clustering(
        &clean.clustering,
        &seeded.clustering,
        &pts,
        params
    ));
    assert_eq!(
        clean.counters.core_identification, seeded.counters.core_identification,
        "a disarmed plan must be counter-bit-identical"
    );
    assert_eq!(
        clean.counters.cluster_formation,
        seeded.counters.cluster_formation
    );
}

// ---------------------------------------------------------------------------
// Seeded chaos (fault-inject feature)
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-inject")]
mod chaos {
    use super::*;
    use proptest::prelude::*;

    /// The fixed seed matrix CI drives; every cell must hold the
    /// correct-or-structured-error invariant on both backends.
    const SEED_MATRIX: [u64; 8] = [1, 2, 3, 5, 8, 21, 42, 1000];

    #[test]
    fn seed_matrix_never_panics_and_never_lies() {
        let pts = workload(3, 60, 10, 17);
        let params = DbscanParams::new(0.9, 4).unwrap();
        for seed in SEED_MATRIX {
            for one_in in [1u32, 2, 5] {
                let plan = FaultPlan::Seeded { seed, one_in };
                for shard in [None, Some(48)] {
                    let outcome = engine(0.9, 4, shard, plan).run(&pts);
                    assert_correct_or_structured(
                        &outcome,
                        &pts,
                        params,
                        &format!("seed={seed} one_in={one_in} shard={shard:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn injection_is_deterministic_run_to_run() {
        let pts = workload(3, 60, 10, 19);
        for seed in SEED_MATRIX {
            let plan = FaultPlan::Seeded { seed, one_in: 3 };
            let a = engine(0.9, 4, Some(48), plan).run(&pts);
            let b = engine(0.9, 4, Some(48), plan).run(&pts);
            match (&a, &b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(ra.clustering.labels, rb.clustering.labels, "seed={seed}")
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(format!("{ea:?}"), format!("{eb:?}"), "seed={seed}")
                }
                _ => panic!("seed={seed}: the same schedule diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn poisoned_shards_recover_to_bit_identical_answers() {
        let pts = workload(4, 90, 12, 23);
        let eps = 0.9f32;
        let flat = NeighborIndexBuilder {
            bvh_builder: BuilderKind::Lbvh,
            min_parallel_launch: 0,
            batch_size: 64,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        }
        .build(&pts, eps)
        .unwrap();
        let reference_rows = sorted_rows(flat.as_ref(), &pts, eps);

        // Find a seed whose schedule poisons some shard BLASes at build
        // time without failing the build outright.
        let mut exercised = false;
        let mut recovered = false;
        for seed in SEED_MATRIX {
            let plan = FaultPlan::Seeded { seed, one_in: 2 };
            let built = NeighborIndexBuilder {
                bvh_builder: BuilderKind::Lbvh,
                min_parallel_launch: 0,
                batch_size: 64,
                sharding: Some(ShardingConfig::new(48)),
                fault: plan,
                ..NeighborIndexBuilder::new(IndexKind::WideBatched)
            }
            .build(&pts, eps);
            let mut index = match built {
                Ok(index) => index,
                // A schedule may fail the build itself — structured, fine.
                Err(Error::FaultInjected { .. }) => continue,
                Err(other) => panic!("seed={seed}: unstructured build failure {other:?}"),
            };
            if index.as_sharded().unwrap().degraded_shard_count() == 0 {
                continue;
            }
            exercised = true;

            // Degraded service answers exactly.
            assert_eq!(
                sorted_rows(index.as_ref(), &pts, eps),
                reference_rows,
                "seed={seed}"
            );

            // Bounded-retry recovery: rebuilds themselves hit the shared
            // injector, so epochs may fail and back off exponentially
            // (2^attempts logical ticks); the seeded schedule lets retries
            // through eventually for most seeds.
            let policy = RetryPolicy {
                max_attempts: 16,
                backoff_base: 1,
            };
            for _ in 0..512 {
                if index.as_sharded().unwrap().degraded_shard_count() == 0 {
                    break;
                }
                index.as_sharded_mut().unwrap().recover(policy);
            }
            if index.as_sharded().unwrap().degraded_shard_count() == 0 {
                recovered = true;
            }
            // Converged or still quarantined, answers stay bit-identical:
            // rebuilt shards reproduce the exact leaf bounds and degraded
            // ones fall back to the exact linear scan.
            assert_eq!(
                sorted_rows(index.as_ref(), &pts, eps),
                reference_rows,
                "seed={seed}: post-recovery answers must be bit-identical"
            );
        }
        assert!(
            exercised,
            "no seed in the matrix produced a degraded-but-built scene; widen the matrix"
        );
        assert!(
            recovered,
            "no seed in the matrix recovered to full service; widen the matrix"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Property: an arbitrary seeded schedule over either backend
        /// yields a correct clustering or a structured error — and the
        /// cancellable entry point under an inert scope agrees with the
        /// plain one.
        #[test]
        fn chaos_schedules_are_correct_or_structured(
            seed in 0u64..10_000,
            one_in in 1u32..8,
            shard_sel in 0usize..3,
            per_blob in 20usize..60,
            min_pts in 2usize..6,
        ) {
            let pts = workload(3, per_blob, 8, seed);
            let eps = 0.9f32;
            let params = DbscanParams::new(eps, min_pts).unwrap();
            let shard = [None, Some(32), Some(64)][shard_sel];
            let plan = FaultPlan::Seeded { seed, one_in };
            let eng = engine(eps, min_pts, shard, plan);

            let outcome = eng.run(&pts);
            assert_correct_or_structured(
                &outcome,
                &pts,
                params,
                &format!("seed={seed} one_in={one_in} shard={shard:?}"),
            );

            let cancellable = eng.run_cancellable(&pts, &CancelScope::none());
            match (&outcome, &cancellable) {
                (Ok(a), Ok(b)) => prop_assert!(
                    same_clustering(&a.clustering, &b.clustering, &pts, params)
                ),
                (Err(_), Err(_)) => {}
                // The two entry points share the engine but construct
                // separate indexes, so the injector ordinals differ —
                // a schedule may trip one launch shape and not the other.
                // Each side already proved correct-or-structured above.
                _ => {
                    assert_correct_or_structured(
                        &cancellable,
                        &pts,
                        params,
                        &format!("cancellable seed={seed} one_in={one_in} shard={shard:?}"),
                    );
                }
            }
        }
    }
}
