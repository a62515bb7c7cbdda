//! The two-stage DBSCAN formulation (Algorithm 3 of the paper) expressed
//! over any [`NeighborIndex`] backend.
//!
//! Stage 1 (`count_all_neighbors`) counts every point's ε-neighbours in
//! one batched launch, exactly or stopping each point at minPts; stage 2
//! (`form_clusters`) merges core neighbours through a parallel union-find
//! and claims every border point for its lowest-index core neighbour.  One
//! function (`run_two_stage`) runs both and assembles the [`RunResult`]:
//! RT-DBSCAN, the FDBSCAN baseline and the engine's runs are thin
//! configurations of it, and `ClusterSession` calls the two stages
//! directly.  The substrate (binary BVH, BVH4 packets, a two-level sharded
//! scene, a grid or brute force) is whatever backend the caller hands in.
//!
//! Stage 2's merge rule is one public type, [`ClusterForest`]: it takes
//! ε-edges from any source and reads the labels off once all are in.
//! `form_clusters` finds the edges with its launches.  A streaming
//! snapshot launches nothing: its ingests already found every edge of the
//! window and kept them, so it feeds them to the same rule and labels the
//! window exactly as a batch run over it does.
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
//! A large core set first runs the full queries of a fixed prefix of its
//! cores (the first 1,024 in index order, at most one core in 32), which
//! every outcome needs.  The sampling round runs only when the prefix's
//! largest component, scaled to all cores, could exceed the possible
//! borders; an input of many small clusters (NGSIM) then pays one query
//! per core instead of two.
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

/// The claim of a point no core has claimed: a core, a noise point, or a
/// border whose claim is still open during the launches.
const NO_CLAIM: u32 = u32::MAX;

/// Core neighbours each core links to in the sampling launch (Afforest's
/// neighbour-sampling round, which links each vertex to its first two).
const SAMPLE_LINKS: u8 = 2;

/// Before the sampling round, stage 2 runs the full queries of this many
/// cores, the first in index order (see [`form_clusters`]).
const SAMPLE_PREFIX: usize = 1024;

/// Core sets under this many prefixes' worth of cores go straight to the
/// sampling round: the prefix is at most one core in 32.
const SAMPLE_PREFIX_MIN_RATIO: usize = 32;

/// The number of cores whose full queries run before the sampling round:
/// [`SAMPLE_PREFIX`], or none for a core set under
/// [`SAMPLE_PREFIX_MIN_RATIO`] prefixes.
fn sample_prefix(cores: usize) -> usize {
    if cores >= SAMPLE_PREFIX * SAMPLE_PREFIX_MIN_RATIO {
        SAMPLE_PREFIX
    } else {
        0
    }
}

/// Stage 1: every point's ε-neighbour count (self excluded), answered by
/// one batched launch over the backend's **count output mode**, under a
/// `stage1_launch` telemetry span.
///
/// Compacting backends report representatives with multiplicities; every
/// hit adds its multiplicity and a count starts at −1, because the query's
/// own point always hits (the point itself does not count).  Without
/// `early_exit_min_pts` the counts are exact.  With it, a query stops at
/// the hit that brings its count to the threshold (FDBSCAN's early exit):
/// counts below it stay exact and a stopped count is at least it, so
/// stage 2, which reads only `count >= minPts` and `count > 0`, labels
/// exactly as under exact counting.  A scope trip surfaces as
/// [`rtcore::Error::DeadlineExceeded`], and the partially filled count
/// cells are dropped with this frame.
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

/// What stage 2 ([`form_clusters`]) decides for each point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FormedClusters {
    /// Each point's cluster label, [`NOISE`] for noise.  A cluster's label
    /// is the smallest point index in its union-find component, which can
    /// be a border's.
    pub labels: Vec<i64>,
    /// The stage's counted work: every launch, the union-find traffic and
    /// the duplicate fix-up pass for compacting backends.
    pub counters: WorkCounters,
}

/// Stage 2 of Algorithm 3, under one `stage2_union_find` telemetry span
/// when the index records: its launches report the points' ε-edges to a
/// [`ClusterForest`].  Core neighbours merge through the concurrent
/// union-find.  A border point joins the cluster of the lowest-index core
/// within ε of it (the paper's critical section, Algorithm 3 line 14):
/// during the launches its claim slot is lowered to that core's index, and
/// after they join each claimed border is unioned with its claim.
///
/// `index` must hold exactly `points` (built at radius `eps`), and
/// `counts` and `core` are index-aligned with them: the points'
/// ε-neighbour counts (self excluded), exact or stopped at minPts, and
/// their core flags.  Stage 2 reads only whether a count is positive,
/// which tells which points can be borders and so whether the sampled skip
/// (see the [module documentation](self)) can pay.
///
/// A scope trip surfaces as [`rtcore::Error::DeadlineExceeded`]; the
/// union-find and claim state live in this frame, so a cancelled stage
/// discards every partial merge.
pub(crate) fn form_clusters(
    index: &dyn NeighborIndex,
    points: &[Point3],
    counts: &[u64],
    core: &[bool],
    eps: f32,
    scope: &CancelScope,
) -> Result<FormedClusters> {
    let span = index
        .telemetry()
        .map(|t| t.span(PhaseKind::Stage2UnionFind));
    let n = points.len();
    let stage = Stage2 {
        index,
        points,
        eps,
        scope,
        forest: ClusterForest::new(core),
    };
    let cores: Vec<u32> = (0..n as u32).filter(|&i| core[i as usize]).collect();
    // Only a non-core point with a neighbour can be a border.
    let may_border = |i: usize| !core[i] && counts[i] > 0;
    let possible_borders = (0..n).filter(|&i| may_border(i)).count();
    let mut counters = WorkCounters::ZERO;

    // Afforest can pay only when cores outnumber the possible borders.  A
    // large core set first runs the full queries of a prefix, which every
    // outcome needs: they decide whether the sampling round can find a
    // giant at all.
    let sampling = cores.len() > possible_borders;
    let prefix = if sampling {
        sample_prefix(cores.len())
    } else {
        0
    };
    if prefix > 0 {
        stage.query_cores(&cores[..prefix], &mut counters)?;
    }
    let outside = if sampling
        && (prefix == 0 || stage.giant_may_exceed(&cores, prefix, possible_borders, &mut counters))
    {
        stage.sample(&cores, prefix, possible_borders, &mut counters)?
    } else {
        None
    };
    match outside {
        None => stage.query_cores(&cores[prefix..], &mut counters)?,
        Some(outside) => {
            stage.query_cores(&outside, &mut counters)?;
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

    // Every launch has joined.  Coincident duplicates merged away by a
    // compacting backend inherit their representative's assignment (they
    // have identical neighbourhoods, so this is always a valid DBSCAN
    // assignment).
    let mut labels = stage.forest.labels(&mut counters);
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
    Ok(FormedClusters { labels, counters })
}

/// Stage 2's merge rule over ε-edges, whoever finds them: two cores union
/// through the concurrent union-find, and a core lowers its non-core
/// neighbour's claim slot to its own index; [`ClusterForest::labels`] then
/// unions each claimed border with its claim (the paper's critical section,
/// Algorithm 3 line 14) and names every cluster by its smallest index.
/// Union and claim are both monotone, so the labels depend only on which
/// edges were reported, not on their order or thread: `form_clusters`
/// reports the edges its launches find, and the streaming clusterer the
/// edges its ingests kept.
#[derive(Debug)]
pub struct ClusterForest<'a> {
    core: &'a [bool],
    dsu: ConcurrentDisjointSet,
    /// Each point's lowest core neighbour so far, or [`NO_CLAIM`].
    claim: Vec<AtomicU32>,
}

impl<'a> ClusterForest<'a> {
    /// Singleton clusters and open claims over the points whose core flags
    /// are `core`.
    pub fn new(core: &'a [bool]) -> Self {
        let n = core.len();
        ClusterForest {
            core,
            dsu: ConcurrentDisjointSet::new(n),
            claim: (0..n).map(|_| AtomicU32::new(NO_CLAIM)).collect(),
        }
    }

    /// The edge from core `p` to `q`, as `p`'s query reports it: union with
    /// a core `q`, lower any other `q`'s claim to `p`.  `p` itself is
    /// skipped.  Union-find work is charged to `tally`.
    pub fn visit_core(&self, p: u32, q: u32, tally: &mut WorkCounters) {
        if q != p {
            if self.core[q as usize] {
                self.dsu.union(p as usize, q as usize, tally);
            } else {
                self.lower_claim(q as usize, p);
            }
        }
    }

    /// The edge between distinct points `a` and `b`, reported once: the
    /// rule of [`ClusterForest::visit_core`] from whichever end is core.
    pub fn link(&self, a: u32, b: u32, tally: &mut WorkCounters) {
        if self.core[a as usize] {
            self.visit_core(a, b, tally);
        } else if self.core[b as usize] {
            self.lower_claim(a as usize, b);
        }
    }

    /// Lower point `b`'s claim slot to core index `c`.
    // ordering: the claim slot is a monotone min register, so Relaxed is
    // enough on both the probe load and the `fetch_min`.  A stale probe can
    // only be larger than the slot's current value (it never rises), which
    // costs a redundant `fetch_min`, never a missed one.  The slots are read
    // only in `labels`, which takes the forest by value once every edge is
    // reported: a launch's join is the happens-before edge that publishes
    // every lowered value.
    fn lower_claim(&self, b: usize, c: u32) {
        if c < self.claim[b].load(Ordering::Relaxed) {
            self.claim[b].fetch_min(c, Ordering::Relaxed);
        }
    }

    /// Every point's label once every edge is reported: each claimed border
    /// joins the cluster of its claim, and each core or claimed point takes
    /// its component's smallest index (the union-find hangs the larger root
    /// under the smaller); the rest are [`NOISE`].
    pub fn labels(self, counters: &mut WorkCounters) -> Vec<i64> {
        let ClusterForest { core, dsu, claim } = self;
        let claims: Vec<u32> = claim.into_iter().map(AtomicU32::into_inner).collect();
        for (q, &c) in claims.iter().enumerate() {
            if c != NO_CLAIM {
                dsu.union(c as usize, q, counters);
            }
        }
        (0..core.len())
            .map(|i| {
                if core[i] || claims[i] != NO_CLAIM {
                    dsu.find(i, counters) as i64
                } else {
                    NOISE
                }
            })
            .collect()
    }
}

/// Stage 2's launch context and the forest its launches share.
struct Stage2<'a> {
    index: &'a dyn NeighborIndex,
    points: &'a [Point3],
    eps: f32,
    scope: &'a CancelScope,
    forest: ClusterForest<'a>,
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

    /// The query of possible border `b`: lower its own claim to each core
    /// neighbour's index.  Neighbours are representatives, and a compacting
    /// backend's representative is the lowest index of its coincident
    /// group, so the minimum matches the one the cores' own queries reach.
    fn visit_border(&self, b: u32, neighbor: Neighbor) -> NeighborFlow {
        if self.forest.core[neighbor.index as usize] {
            self.forest.lower_claim(b as usize, neighbor.index);
        }
        NeighborFlow::Continue
    }

    /// The full queries of `cores`.
    fn query_cores(&self, cores: &[u32], counters: &mut WorkCounters) -> Result<()> {
        self.launch(cores, counters, &|o, neighbor, tally| {
            self.forest.visit_core(cores[o], neighbor.index, tally);
            NeighborFlow::Continue
        })
    }

    /// Afforest's sampling round over `cores[prefix..]`, whose first
    /// `prefix` cores already ran their full queries: one query per core,
    /// unioning the core with its first [`SAMPLE_LINKS`] core neighbours in
    /// the backend's emission order (fixed per query, so the sampled forest
    /// is deterministic).  The giant is the component holding the most
    /// cores, the smallest root on a tie.  Returns the sampled cores outside
    /// the giant when it holds more cores than there are possible `borders`,
    /// which is when skipping its cores' full queries pays for the borders'
    /// own queries; `None` when every core must run its full query.  The
    /// skip stays exact with a prefix: a prefix core has seen all of its
    /// edges, and every other edge that leaves the giant is seen from its
    /// outer end.
    // ordering: Relaxed on the per-query link tally: it counts one query's
    // links, and a query's emissions all come from the worker tracing its
    // packet.  Were two writers ever to race, one more sampled edge could
    // slip through; every sampled edge is a real core–core edge, so the
    // clustering would stay exact.
    fn sample(
        &self,
        cores: &[u32],
        prefix: usize,
        borders: usize,
        counters: &mut WorkCounters,
    ) -> Result<Option<Vec<u32>>> {
        let sampled = &cores[prefix..];
        let linked: Vec<AtomicU8> = sampled.iter().map(|_| AtomicU8::new(0)).collect();
        self.launch(sampled, counters, &|o, neighbor, tally| {
            let (p, q) = (sampled[o] as usize, neighbor.index as usize);
            if q == p || !self.forest.core[q] {
                return NeighborFlow::Continue;
            }
            // A sharded scene keeps tracing a stopped query through the
            // packet's other shards; the tally turns those emissions away.
            let seen = linked[o].load(Ordering::Relaxed);
            if seen >= SAMPLE_LINKS {
                return NeighborFlow::Stop;
            }
            linked[o].store(seen + 1, Ordering::Relaxed);
            self.forest.dsu.union(p, q, tally);
            if seen + 1 < SAMPLE_LINKS {
                NeighborFlow::Continue
            } else {
                NeighborFlow::Stop
            }
        })?;
        let (roots, giant, giant_size) = self.components(cores, counters);
        Ok((giant_size > borders).then(|| {
            sampled
                .iter()
                .zip(&roots[prefix..])
                .filter(|&(_, &r)| r != giant)
                .map(|(&c, _)| c)
                .collect()
        }))
    }

    /// Whether the sampling round could find a giant of more than
    /// `borders` cores, judged after the full queries of `cores[..prefix]`:
    /// the largest component so far, scaled by `cores.len() / prefix`.
    /// The test errs towards sampling.  A component the prefix's full
    /// queries build is a subset of the round's giant candidate (unions only
    /// merge), and scaling it up lets a prefix that saw only part of a
    /// giant still call for the round; a prefix whose largest component
    /// stays small even scaled (many small clusters) skips it.
    fn giant_may_exceed(
        &self,
        cores: &[u32],
        prefix: usize,
        borders: usize,
        counters: &mut WorkCounters,
    ) -> bool {
        let (_, _, largest) = self.components(cores, counters);
        largest as u64 * cores.len() as u64 > borders as u64 * prefix as u64
    }

    /// The union-find root of each of `cores`, and the root most of them
    /// share with how many share it (the smallest root on a tie).
    fn components(&self, cores: &[u32], counters: &mut WorkCounters) -> (Vec<u32>, u32, usize) {
        let roots: Vec<u32> = cores
            .iter()
            .map(|&c| self.forest.dsu.find(c as usize, counters) as u32)
            .collect();
        let mut size = vec![0u32; self.points.len()];
        for &r in &roots {
            size[r as usize] += 1;
        }
        let (mut giant, mut giant_size) = (0, 0);
        for (r, &s) in size.iter().enumerate() {
            if s > giant_size {
                (giant, giant_size) = (r as u32, s);
            }
        }
        (roots, giant, giant_size as usize)
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
/// `early_exit` stops each stage-1 query once its count reaches `minPts`
/// (see [`count_all_neighbors`]); labels and core flags do not change.
/// The build phase of the result carries
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
    let FormedClusters {
        labels,
        counters: stage2_counters,
    } = stage2?;

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
