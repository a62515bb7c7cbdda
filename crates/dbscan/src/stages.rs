//! The two-stage DBSCAN formulation (Algorithm 3 of the paper) expressed
//! over any [`NeighborIndex`] backend.
//!
//! Stage 1 ([`count_all_neighbors`]) counts every point's ε-neighbours in
//! one batched launch; stage 2 ([`form_clusters`]) merges core neighbours
//! through a parallel union-find and claims every border point for its
//! lowest-index core neighbour.  One function ([`run_two_stage`]) runs both
//! and assembles the [`RunResult`]: RT-DBSCAN, the FDBSCAN baseline and the
//! engine's cancellable run are thin configurations of it, and
//! `ClusterSession` calls the two stages directly.  The substrate (binary
//! BVH, BVH4 packets, a two-level sharded scene, a grid or brute force) is
//! whatever backend the caller hands in.
//!
//! Stage 2 skips the queries the union-find already proves redundant.  This
//! is Afforest's subgraph sampling (Sutton, Ben-Nun & Barak, "Optimizing
//! Parallel Graph Connectivity Computation via Subgraph Sampling", IPDPS
//! 2018): when core points outnumber the possible borders (non-core points
//! with a neighbour), a cheap sampling launch links every core to its first
//! two core neighbours, and if the largest sampled component still holds
//! more cores than there are possible borders, its cores are never queried
//! in full.  Only the cores outside it run the full query, and each
//! possible border queries for its own lowest-index core neighbour.  This is
//! exact: core–core edges are symmetric, so every edge that leaves the
//! largest component is seen from its other end, and the border claim is a
//! monotone minimum whichever side lowers it.  Otherwise stage 2 is the
//! paper's single launch of one query per core.
//!
//! Every launch runs under a [`CancelScope`].  Entry points without a
//! deadline pass [`CancelScope::none`], under which the scoped launches run
//! exactly the plain launch code.  Labels are a pure function of the input:
//! the union-find links the larger root under the smaller, and a border's
//! cluster is decided by an index order, not by which thread got there
//! first.  Stage 2's work counters (rays, distance tests, node visits)
//! repeat exactly from run to run, but follow each backend's emission order
//! through the sampling launch, so they differ between backends.

use crate::disjoint_set::ConcurrentDisjointSet;
use crate::labels::{Clustering, NOISE};
use crate::params::DbscanParams;
use crate::runner::{timed, PhaseCounters, PhaseTimings, RunResult};
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::{sat_bump, ExecutionPath, WorkCounters};
use rtcore::index::{Neighbor, NeighborFlow, NeighborIndex, NeighborSink};
use rtcore::telemetry::PhaseKind;
use rtcore::Result;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Border-claim slot value of a point no core has claimed.
const UNCLAIMED: u32 = u32::MAX;

/// Core neighbours each core links to in the sampling launch (Afforest's
/// neighbour-sampling round, which links each vertex to its first two).
const SAMPLE_LINKS: u8 = 2;

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

/// Stage 2, under one `stage2_union_find` telemetry span.  Core neighbours
/// merge through the concurrent union-find.  A border point joins the
/// cluster of the lowest-index core within ε of it (the paper's critical
/// section, Algorithm 3 line 14): during the launches its claim slot is
/// lowered to that core's index, and after they join each claimed border
/// is unioned with its claim.  `counts` are stage 1's neighbour counts;
/// they tell which points can be borders, and so whether the sampled skip
/// (see the [module documentation](self)) can pay.
///
/// Returns the final labels (noise = [`NOISE`]) and the stage's counted
/// work: every launch, the union-find traffic and the duplicate fix-up
/// pass for compacting backends.  A scope trip surfaces as
/// [`rtcore::Error::DeadlineExceeded`]; the union-find and claim state
/// live in this frame, so a cancelled stage discards every partial merge.
pub(crate) fn form_clusters(
    index: &dyn NeighborIndex,
    points: &[Point3],
    counts: &[u64],
    core: &[bool],
    eps: f32,
    scope: &CancelScope,
) -> Result<(Vec<i64>, WorkCounters)> {
    let span = index
        .telemetry()
        .map(|t| t.span(PhaseKind::Stage2UnionFind));
    let n = points.len();
    let stage = Stage2 {
        index,
        points,
        core,
        eps,
        scope,
        dsu: ConcurrentDisjointSet::new(n),
        claim: (0..n).map(|_| AtomicU32::new(UNCLAIMED)).collect(),
    };
    let cores: Vec<u32> = (0..n as u32).filter(|&i| core[i as usize]).collect();
    // Only a non-core point with a neighbour can be a border.
    let may_border = |i: usize| !core[i] && counts[i] > 0;
    let possible_borders = (0..n).filter(|&i| may_border(i)).count();
    let mut counters = WorkCounters::ZERO;

    let outside = if cores.len() > possible_borders {
        stage.sample(&cores, possible_borders, &mut counters)?
    } else {
        None
    };
    match outside {
        None => stage.launch(&cores, &mut counters, &|o, neighbor, tally| {
            stage.visit_core(cores[o], neighbor, tally)
        })?,
        Some(outside) => {
            stage.launch(&outside, &mut counters, &|o, neighbor, tally| {
                stage.visit_core(outside[o], neighbor, tally)
            })?;
            // Coincident duplicates share their representative's claim (the
            // fix-up pass below), so only representatives query.
            let borders: Vec<u32> = (0..n as u32)
                .filter(|&b| may_border(b as usize) && index.representative_of(b) == b)
                .collect();
            stage.launch(&borders, &mut counters, &|o, neighbor, _| {
                stage.visit_border(borders[o], neighbor)
            })?;
        }
    }

    // Every launch has joined: each border joins exactly one cluster, that
    // of its lowest-index core neighbour.
    let Stage2 { dsu, claim, .. } = stage;
    let claim: Vec<u32> = claim.into_iter().map(AtomicU32::into_inner).collect();
    for (q, &c) in claim.iter().enumerate() {
        if c != UNCLAIMED {
            dsu.union(c as usize, q, &mut counters);
        }
    }

    // Materialise labels.  Coincident duplicates merged away by a
    // compacting backend inherit their representative's assignment (they
    // have identical neighbourhoods, so this is always a valid DBSCAN
    // assignment).
    let mut labels: Vec<i64> = (0..n)
        .map(|i| {
            if core[i] || claim[i] != UNCLAIMED {
                dsu.find(i, &mut counters) as i64
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

/// Stage 2's launch context and the state its launches share: the
/// union-find forest and one border-claim slot per point.
struct Stage2<'a> {
    index: &'a dyn NeighborIndex,
    points: &'a [Point3],
    core: &'a [bool],
    eps: f32,
    scope: &'a CancelScope,
    dsu: ConcurrentDisjointSet,
    claim: Vec<AtomicU32>,
}

impl Stage2<'_> {
    /// One launch of a query per point in `ids`; `sink` receives the query
    /// ordinal (an index into `ids`) and the packet-local counters, which
    /// the union-find charges its tallies to.
    fn launch(
        &self,
        ids: &[u32],
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    ) -> Result<()> {
        let queries: Vec<Point3> = ids.iter().map(|&i| self.points[i as usize]).collect();
        self.index
            .batch_neighbors_cancellable(&queries, self.eps, counters, sink, self.scope)
    }

    /// The full query of core `p`, one neighbour at a time: union with
    /// every core neighbour, lower every other neighbour's claim to `p`.
    fn visit_core(&self, p: u32, neighbor: Neighbor, tally: &mut WorkCounters) -> NeighborFlow {
        let q = neighbor.index as usize;
        if q != p as usize {
            if self.core[q] {
                self.dsu.union(p as usize, q, tally);
            } else {
                self.lower_claim(q, p);
            }
        }
        NeighborFlow::Continue
    }

    /// The query of possible border `b`: lower its own claim to each core
    /// neighbour's index.  Neighbours are representatives, and a compacting
    /// backend's representative is the lowest index of its coincident
    /// group, so the minimum matches the one the cores' own queries reach.
    fn visit_border(&self, b: u32, neighbor: Neighbor) -> NeighborFlow {
        if self.core[neighbor.index as usize] {
            self.lower_claim(b as usize, neighbor.index);
        }
        NeighborFlow::Continue
    }

    /// Lower point `b`'s claim slot to core index `c`.
    // ordering: the claim slot is a monotone min register, so Relaxed is
    // enough on both the probe load and the `fetch_min`.  A stale probe can
    // only be larger than the slot's current value (it never rises), which
    // costs a redundant `fetch_min`, never a missed one.  The slots are read
    // only after the launches have joined, and the join is the
    // happens-before edge that publishes every lowered value.
    fn lower_claim(&self, b: usize, c: u32) {
        if c < self.claim[b].load(Ordering::Relaxed) {
            self.claim[b].fetch_min(c, Ordering::Relaxed);
        }
    }

    /// Afforest's sampling round: one query per core, unioning the core
    /// with its first [`SAMPLE_LINKS`] core neighbours in the backend's
    /// emission order (fixed per query, so the sampled forest is
    /// deterministic).  The giant is the sampled component holding the most
    /// cores, the smallest root on a tie.  Returns the cores outside the
    /// giant when it holds more cores than there are possible `borders`,
    /// which is when skipping its cores' full queries pays for the borders'
    /// own queries; `None` when every core must run its full query.
    // ordering: Relaxed on the per-query link tally: it counts one query's
    // links, and a query's emissions all come from the worker tracing its
    // packet.  Were two writers ever to race, one more sampled edge could
    // slip through; every sampled edge is a real core–core edge, so the
    // clustering would stay exact.
    fn sample(
        &self,
        cores: &[u32],
        borders: usize,
        counters: &mut WorkCounters,
    ) -> Result<Option<Vec<u32>>> {
        let linked: Vec<AtomicU8> = cores.iter().map(|_| AtomicU8::new(0)).collect();
        self.launch(cores, counters, &|o, neighbor, tally| {
            let (p, q) = (cores[o] as usize, neighbor.index as usize);
            if q == p || !self.core[q] {
                return NeighborFlow::Continue;
            }
            // A sharded scene keeps tracing a stopped query through the
            // packet's other shards; the tally turns those emissions away.
            let seen = linked[o].load(Ordering::Relaxed);
            if seen >= SAMPLE_LINKS {
                return NeighborFlow::Stop;
            }
            linked[o].store(seen + 1, Ordering::Relaxed);
            self.dsu.union(p, q, tally);
            if seen + 1 < SAMPLE_LINKS {
                NeighborFlow::Continue
            } else {
                NeighborFlow::Stop
            }
        })?;
        let roots: Vec<u32> = cores
            .iter()
            .map(|&c| self.dsu.find(c as usize, counters) as u32)
            .collect();
        let mut size = vec![0u32; self.points.len()];
        for &r in &roots {
            size[r as usize] += 1;
        }
        let (mut giant, mut giant_size) = (0, 0);
        for (r, &s) in size.iter().enumerate() {
            if s > giant_size {
                (giant, giant_size) = (r, s);
            }
        }
        Ok((giant_size as usize > borders).then(|| {
            cores
                .iter()
                .zip(&roots)
                .filter(|&(_, &r)| r as usize != giant)
                .map(|(&c, _)| c)
                .collect()
        }))
    }
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
/// the index and owns its timing).  `path` is the execution path the
/// calling algorithm charges its work to; the algorithm, not the backend,
/// decides it.
pub(crate) fn run_two_stage(
    index: &dyn NeighborIndex,
    points: &[Point3],
    params: DbscanParams,
    early_exit: bool,
    path: ExecutionPath,
    scope: &CancelScope,
) -> Result<RunResult> {
    params.validate()?;
    let n = points.len();
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

    let (stage2, stage2_time) =
        timed(|| form_clusters(index, points, &counts, &core, params.eps, scope));
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
