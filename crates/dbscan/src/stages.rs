//! The two-stage DBSCAN formulation (Algorithm 3 of the paper) expressed
//! over any [`NeighborIndex`] backend.
//!
//! Stage 1 ([`count_all_neighbors`]) counts every point's ε-neighbours in
//! one batched launch; stage 2 ([`form_clusters`]) launches one query per
//! core point, merges core neighbours through a parallel union-find, and
//! claims every border point for its lowest-index core neighbour.  One
//! driver ([`run_two_stage`]) runs both and assembles the [`RunResult`]:
//! RT-DBSCAN, the FDBSCAN baseline and the engine's cancellable run are thin
//! configurations of it, and `ClusterSession` calls the two stages directly.
//! The substrate (binary BVH, BVH4 packets, a two-level sharded scene, a
//! grid or brute force) is whatever backend the caller hands in, and each
//! stage is one launch over it.
//!
//! Every launch runs under a [`CancelScope`].  Entry points without a
//! deadline pass [`CancelScope::none`], under which the scoped launches run
//! exactly the plain launch code.  Labels are a pure function of the input:
//! the union-find links the larger root under the smaller, and a border's
//! cluster is decided by an index order, not by which thread got there
//! first.

use crate::disjoint_set::ConcurrentDisjointSet;
use crate::labels::{Clustering, NOISE};
use crate::params::DbscanParams;
use crate::runner::{timed, PhaseCounters, PhaseTimings, RunResult};
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::{sat_bump, ExecutionPath, WorkCounters};
use rtcore::index::{NeighborFlow, NeighborIndex};
use rtcore::telemetry::PhaseKind;
use rtcore::Result;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Border-claim slot value of a point no core has claimed.
const UNCLAIMED: u32 = u32::MAX;

/// Stage 1: every point's exact ε-neighbour count (self excluded), answered
/// by one batched launch over the backend's **count output mode**, under a
/// `stage1_launch` telemetry span.
///
/// Compacting backends report representatives with multiplicities; the
/// query point's own group contributes `multiplicity - 1` (the point itself
/// does not count), which is exactly the Intersection-program logic of the
/// original RT path.  With `early_exit_min_pts` set, a query stops as soon
/// as its count reaches the threshold (the FDBSCAN-EarlyExit optimisation).
/// A scope trip surfaces as [`rtcore::Error::DeadlineExceeded`], and the
/// partially filled count cells are dropped with this frame.
pub(crate) fn count_all_neighbors(
    index: &dyn NeighborIndex,
    points: &[Point3],
    eps: f32,
    early_exit_min_pts: Option<usize>,
    scope: &CancelScope,
) -> Result<(Vec<u64>, WorkCounters)> {
    let span = index.telemetry().map(|t| t.span(PhaseKind::Stage1Launch));
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts_cancellable(
        points,
        eps,
        true,
        early_exit_min_pts.map(|m| m as u64),
        &mut counters,
        &counts,
        scope,
    )?;
    let counts = counts.into_iter().map(AtomicU64::into_inner).collect();
    if let Some(mut s) = span {
        s.add_counters(counters);
    }
    Ok((counts, counters))
}

/// Stage 2: one query per core point, under a `stage2_union_find` telemetry
/// span.  Core neighbours merge through the concurrent union-find.  A
/// border point joins the cluster of the lowest-index core within ε of it
/// (the paper's critical section, Algorithm 3 line 14): during the launch
/// every core lowers the border's claim slot to its own index, and after
/// the launch joins each claimed border is unioned with its claim.
///
/// Returns the final labels (noise = [`NOISE`]) and the stage's counted
/// work, including the union-find traffic and the duplicate fix-up pass
/// for compacting backends.  A scope trip surfaces as
/// [`rtcore::Error::DeadlineExceeded`]; the union-find and claim state
/// live in this frame, so a cancelled stage discards every partial merge.
pub(crate) fn form_clusters(
    index: &dyn NeighborIndex,
    points: &[Point3],
    core: &[bool],
    eps: f32,
    scope: &CancelScope,
) -> Result<(Vec<i64>, WorkCounters)> {
    let span = index
        .telemetry()
        .map(|t| t.span(PhaseKind::Stage2UnionFind));
    let n = points.len();
    let core_indices: Vec<u32> = (0..n as u32).filter(|&i| core[i as usize]).collect();
    let queries: Vec<Point3> = core_indices.iter().map(|&i| points[i as usize]).collect();
    let dsu = ConcurrentDisjointSet::new(n);
    let claim: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCLAIMED)).collect();

    // ordering: the claim slot is a monotone min register, so Relaxed is
    // enough on both the probe load and the `fetch_min`.  A stale probe can
    // only be larger than the slot's current value (it never rises), which
    // costs a redundant `fetch_min`, never a missed one.  The slots are read
    // only after the launch has joined, and the join is the happens-before
    // edge that publishes every lowered value.
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbors_cancellable(
        &queries,
        eps,
        &mut counters,
        &|ordinal, neighbor, _| {
            let p = core_indices[ordinal];
            let q = neighbor.index as usize;
            if q != p as usize {
                if core[q] {
                    dsu.union(p as usize, q);
                } else if p < claim[q].load(Ordering::Relaxed) {
                    claim[q].fetch_min(p, Ordering::Relaxed);
                }
            }
            NeighborFlow::Continue
        },
        scope,
    )?;
    // The launch has joined: every border joins exactly one cluster, that
    // of its lowest-index core neighbour.
    let claim: Vec<u32> = claim.into_iter().map(AtomicU32::into_inner).collect();
    for (q, &c) in claim.iter().enumerate() {
        if c != UNCLAIMED {
            dsu.union(c as usize, q);
        }
    }
    let (find_ops, union_ops) = dsu.op_counts();
    sat_bump(&mut counters.find_ops, find_ops);
    sat_bump(&mut counters.union_ops, union_ops);

    // Materialise labels.  Coincident duplicates merged away by a
    // compacting backend inherit their representative's assignment (they
    // have identical neighbourhoods, so this is always a valid DBSCAN
    // assignment).
    let mut labels: Vec<i64> = (0..n)
        .map(|i| {
            if core[i] || claim[i] != UNCLAIMED {
                dsu.find(i) as i64
            } else {
                NOISE
            }
        })
        .collect();
    let mut dup_fixups = 0u64;
    for i in 0..n {
        let rep = index.representative_of(i as u32) as usize;
        if rep != i && labels[i] == NOISE && labels[rep] >= 0 {
            labels[i] = labels[rep];
            dup_fixups += 1;
        }
    }
    sat_bump(&mut counters.misc_ops, dup_fixups);
    if let Some(mut s) = span {
        s.add_counters(counters);
    }
    Ok((labels, counters))
}

/// Simulated device footprint of a two-stage run over `n` points: the index
/// structure, the points, the union-find parents, and per point one core
/// flag byte plus one 4-byte border-claim slot.
pub(crate) fn device_bytes(index: &dyn NeighborIndex, n: usize) -> u64 {
    index.device_bytes()
        + (n * std::mem::size_of::<Point3>()) as u64
        + (n * std::mem::size_of::<usize>()) as u64 // union-find parents
        + 5 * n as u64 // core flag + border-claim slot
}

/// Both stages over an already-built index, assembled into a [`RunResult`].
///
/// `early_exit` stops each stage-1 query once it has seen `minPts`
/// neighbours (FDBSCAN-EarlyExit).  The build phase of the result carries
/// the index's build counters and zero wall-clock time (the caller built
/// the index and owns its timing); the execution path is the RT cores when
/// the backend is BVH-backed, the shader cores otherwise.
pub(crate) fn run_two_stage(
    index: &dyn NeighborIndex,
    points: &[Point3],
    params: DbscanParams,
    early_exit: bool,
    scope: &CancelScope,
) -> Result<RunResult> {
    params.validate()?;
    let n = points.len();
    let path = if index.capabilities().rt_core {
        ExecutionPath::RtCore
    } else {
        ExecutionPath::ShaderCore
    };
    if n == 0 {
        return Ok(RunResult {
            clustering: Clustering::new(vec![], vec![]),
            timings: PhaseTimings::default(),
            counters: PhaseCounters::default(),
            path,
            device_bytes: 0,
        });
    }

    let early = early_exit.then_some(params.min_pts);
    let (stage1, stage1_time) =
        timed(|| count_all_neighbors(index, points, params.eps, early, scope));
    let (counts, stage1_counters) = stage1?;
    let core: Vec<bool> = counts
        .iter()
        .map(|&count| count as usize >= params.min_pts)
        .collect();

    let (stage2, stage2_time) = timed(|| form_clusters(index, points, &core, params.eps, scope));
    let (labels, stage2_counters) = stage2?;

    Ok(RunResult {
        clustering: Clustering::new(labels, core),
        timings: PhaseTimings {
            build: Duration::ZERO,
            core_identification: stage1_time,
            cluster_formation: stage2_time,
        },
        counters: PhaseCounters {
            build: index.build_counters(),
            core_identification: stage1_counters,
            cluster_formation: stage2_counters,
        },
        path,
        device_bytes: device_bytes(index, n),
    })
}
