//! The streaming clusterer: windowed ingestion, scene refit/rebuild, exact
//! neighbour-count maintenance, and the batch stage-2 rule at each
//! snapshot.
//!
//! # What is incremental
//!
//! DBSCAN's output rests on two layers (points never move once ingested,
//! so ε-adjacency between two live points is immutable):
//!
//! 1. **Neighbour counts / core flags and ε-edges** — maintained *exactly*
//!    by ingest (the incremental counts of Ester et al., "Incremental
//!    Clustering for Mining in a Data Warehousing Environment", VLDB 1998).
//!    An ingest first slides the window over the whole batch; the evicted
//!    window points then query their ε-neighbourhoods and decrement the
//!    survivors; and once scene maintenance has indexed the admitted
//!    points, they query too, each setting its own count and bumping its
//!    older neighbours.  Counts therefore depend only on the window an
//!    ingest leaves.  A point is core while its count reaches `minPts`, so
//!    stage 1 of the batch pipeline never re-runs.  The admitted points'
//!    edges to older points are kept too, one CSR chunk per ingest, so
//!    every edge of the window is found once, by its newer end.  The
//!    maintained scene and its deltas are [`NeighborIndex`]es, so each
//!    group of queries is one batched CSR launch per level.  The scene
//!    drops evicted points with [`NeighborIndex::remove`] and is rebuilt
//!    when the deltas outgrow their share of it or their number reaches a
//!    cap.
//! 2. **The partition** — formed by each [`snapshot`] of a changed window
//!    with the batch pipeline's own stage-2 rule
//!    ([`rtdbscan::stages::ClusterForest`]) over the kept edges whose two
//!    ends are live, fed the maintained core flags.  It builds no index
//!    and launches no query: the batch stage 2 queries every core again
//!    only because a batch run keeps no neighbour lists.  A snapshot
//!    therefore labels the window exactly as `ClusterEngine::run` over
//!    [`window_points`](StreamingClusterer::window_points) does.  A repeat
//!    snapshot of an unchanged window returns the cached result.
//!
//! # Arrival numbers
//!
//! Eviction is first in, first out, so a point is named by its arrival
//! number (how many points were admitted before it) and no name is ever
//! reused.  Every structure then holds a contiguous run of arrivals: the
//! window deque's entry `k` is arrival `head + k`; the scene and each
//! delta index hold the arrivals `first..end` (index point `i` is arrival
//! `first + i`); and the arrivals from `indexed` on are in no index yet,
//! so queries scan them exactly (only a failed build leaves any live one
//! there once an ingest returns).  A hit is live iff its arrival is at
//! least `head`: an evicted point stays in its index, filtered by that one
//! comparison, until a refit or rebuild drops it.  A kept edge is named by
//! its newer end's arrival and the delta back to its older end, so it is
//! live iff `arrival - delta >= head`; a chunk goes once all of its rows
//! are evicted.
//!
//! [`snapshot`]: StreamingClusterer::snapshot

use crate::window::{StreamingConfig, WindowPolicy};
use rtcore::fault::{CancelScope, FaultInjector, FaultPlan, FaultSite, MemoryBudget};
use rtcore::geometry::Point3;
use rtcore::hardware::sat_bump;
use rtcore::hardware::WorkCounters;
use rtcore::index::{CsrNeighbors, NeighborIndex, NeighborIndexBuilder};
use rtcore::telemetry::{PhaseKind, Telemetry, TelemetryConfig};
use rtcore::Result;
use rtdbscan::engine::{Algo, ClusterEngine};
use rtdbscan::labels::Clustering;
use rtdbscan::stages::ClusterForest;
use std::collections::VecDeque;
use std::ops::Range;

/// One live point of the window.
#[derive(Debug)]
struct Entry {
    point: Point3,
    /// Arrival timestamp (seconds); drives time-window eviction.
    time: f64,
    /// Exact number of live ε-neighbours (self excluded).
    neighbor_count: u32,
}

/// A neighbour index over the run of arrivals `first..end`: its point `i`
/// is arrival `first + i`.  A refit removes a prefix of the run, so the
/// index's `len()` tells where the last one stopped.
#[derive(Debug)]
struct Level {
    index: Box<dyn NeighborIndex>,
    first: u64,
    end: u64,
}

impl Level {
    /// The oldest arrival still in the index.
    fn unflushed(&self) -> u64 {
        self.end - self.index.len() as u64
    }
}

/// The ε-edges one ingest found from its admitted arrivals to older ones,
/// in CSR form: row `r` lists the neighbours of arrival `first + r` that
/// arrived before it, each as its arrival delta (`first + r` minus the
/// neighbour's arrival).
#[derive(Debug)]
struct EdgeChunk {
    first: u64,
    /// Row starts; `offsets[r]..offsets[r + 1]` indexes the deltas.
    offsets: Vec<u32>,
    deltas: Deltas,
}

/// A chunk's arrival deltas: two bytes each when all of them fit, which
/// they always do under a count window of up to 65,536 points.
#[derive(Debug)]
enum Deltas {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl EdgeChunk {
    /// Group `(row, delta)` pairs over `rows` rows, the first of which is
    /// arrival `first`, by a counting pass over the rows.
    fn new(first: u64, rows: usize, pairs: &[(u32, u32)]) -> Self {
        let mut csr = CsrNeighbors::new();
        csr.rebuild_from_pairs(rows, pairs);
        let deltas = if pairs.iter().all(|&(_, delta)| delta <= u32::from(u16::MAX)) {
            Deltas::Narrow(csr.indices().iter().map(|&delta| delta as u16).collect())
        } else {
            Deltas::Wide(csr.indices().to_vec())
        };
        EdgeChunk {
            first,
            offsets: csr.offsets().to_vec(),
            deltas,
        }
    }

    /// One past the last arrival with a row.
    fn end(&self) -> u64 {
        self.first + (self.offsets.len() - 1) as u64
    }

    /// Resident bytes: the row starts and the deltas.
    fn bytes(&self) -> u64 {
        let deltas = match &self.deltas {
            Deltas::Narrow(deltas) => 2 * deltas.len(),
            Deltas::Wide(deltas) => 4 * deltas.len(),
        };
        (4 * self.offsets.len() + deltas) as u64
    }

    /// Report each edge whose two ends are live, when the window starts at
    /// arrival `head`, to `forest` as a pair of window positions.
    fn link_live(&self, head: u64, forest: &ClusterForest<'_>, tally: &mut WorkCounters) {
        match &self.deltas {
            Deltas::Narrow(deltas) => self.link_rows(deltas, head, forest, tally),
            Deltas::Wide(deltas) => self.link_rows(deltas, head, forest, tally),
        }
    }

    fn link_rows<T: Copy + Into<u64>>(
        &self,
        deltas: &[T],
        head: u64,
        forest: &ClusterForest<'_>,
        tally: &mut WorkCounters,
    ) {
        for r in head.saturating_sub(self.first) as usize..self.offsets.len() - 1 {
            // The row's window position: its older end is live iff the
            // delta does not reach past the window's front.
            let k = self.first + r as u64 - head;
            for &delta in &deltas[self.offsets[r] as usize..self.offsets[r + 1] as usize] {
                let delta: u64 = delta.into();
                if delta <= k {
                    forest.link(k as u32, (k - delta) as u32, tally);
                }
            }
        }
    }

    /// Drop the edges that are no longer live when the window starts at
    /// arrival `head`, keeping the rest in order.
    fn retain_live(&mut self, head: u64) {
        match &mut self.deltas {
            Deltas::Narrow(deltas) => retain_rows(self.first, &mut self.offsets, deltas, head),
            Deltas::Wide(deltas) => retain_rows(self.first, &mut self.offsets, deltas, head),
        }
    }
}

/// [`EdgeChunk::retain_live`] over either delta width, in place.
fn retain_rows<T: Copy + Into<u64>>(
    first: u64,
    offsets: &mut [u32],
    deltas: &mut Vec<T>,
    head: u64,
) {
    let (mut kept, mut start) = (0, 0);
    for r in 0..offsets.len() - 1 {
        let end = offsets[r + 1] as usize;
        if let Some(k) = (first + r as u64).checked_sub(head) {
            for i in start..end {
                if deltas[i].into() <= k {
                    deltas[kept] = deltas[i];
                    kept += 1;
                }
            }
        }
        offsets[r + 1] = kept as u32;
        start = end;
    }
    deltas.truncate(kept);
    deltas.shrink_to_fit();
}

/// What one [`StreamingClusterer::ingest`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Points inserted into the window.
    pub inserted: usize,
    /// Points evicted by the window policy.
    pub evicted: usize,
    /// Whether the indexed scene was refitted in place this call.
    pub refitted: bool,
    /// Whether the indexed scene was fully rebuilt this call.
    pub rebuilt: bool,
}

/// Aggregate observability counters for dashboards and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Total points ever ingested.
    pub ingested: u64,
    /// Total points ever evicted.
    pub evicted: u64,
    /// Refit passes performed on the indexed scene.
    pub refits: u64,
    /// Full rebuilds of the indexed scene.
    pub rebuilds: u64,
    /// Snapshots of an unchanged window, answered from the cache.
    pub clean_snapshots: u64,
    /// Snapshots that formed the window's clusters: the batch stage-2 rule
    /// over the ε-edges ingest kept, from the maintained counts.
    pub dirty_snapshots: u64,
    /// Failed main-scene build attempts that were retried in-call.  Like
    /// the two degradations below, also counted under its own name in the
    /// telemetry metrics registry when telemetry records.
    pub rebuild_retries: u64,
    /// Rebuilds that exhausted every in-call attempt and degraded (the old
    /// scene, deltas and exact scan kept answering; a backoff defers the
    /// next attempt).
    pub rebuild_failures: u64,
    /// Delta builds deferred by a failure (the arrivals stay unindexed and
    /// are scanned exactly until a later pass succeeds).
    pub compaction_deferrals: u64,
}

/// Sliding-window density clusterer over the ray-tracing substrate.
///
/// ```
/// use rtcore::geometry::Point3;
/// use rtdbscan::DbscanParams;
/// use rtdbscan_stream::{StreamingClusterer, StreamingConfig, WindowPolicy};
///
/// // minPts counts *other* neighbours in this codebase, so minPts = 1
/// // makes every member of a pair a core point.
/// let params = DbscanParams::new(1.0, 1).unwrap();
/// let config = StreamingConfig::new(params, WindowPolicy::Count(4));
/// let mut clusterer = StreamingClusterer::new(config).unwrap();
///
/// // Two pairs arrive; both are clusters of two.
/// clusterer.ingest(&[
///     (Point3::new_2d(0.0, 0.0), 0.0),
///     (Point3::new_2d(0.5, 0.0), 1.0),
///     (Point3::new_2d(10.0, 0.0), 2.0),
///     (Point3::new_2d(10.5, 0.0), 3.0),
/// ])
/// .unwrap();
/// assert_eq!(clusterer.snapshot().num_clusters(), 2);
///
/// // Two more points near the first pair slide the window: the old pair
/// // leaves, and only the second cluster plus the newcomers remain.
/// clusterer.ingest(&[
///     (Point3::new_2d(20.0, 0.0), 4.0),
///     (Point3::new_2d(20.5, 0.0), 5.0),
/// ])
/// .unwrap();
/// let snapshot = clusterer.snapshot();
/// assert_eq!(snapshot.len(), 4);
/// assert_eq!(snapshot.num_clusters(), 2);
/// ```
#[derive(Debug)]
pub struct StreamingClusterer {
    config: StreamingConfig,
    eps_sq: f32,

    /// The live window in arrival order: entry `k` is arrival `head + k`.
    window: VecDeque<Entry>,
    /// Arrival number of the oldest live point; every lower one is evicted.
    head: u64,
    /// Newest timestamp seen (time windows are measured against it).
    now: f64,

    /// Indexed scene over a run of arrivals, `None` until first (re)build
    /// or when the window empties.  Its evicted arrivals stay in it
    /// (filtered from hits) until a refit flushes them.
    scene: Option<Level>,
    /// Small immutable indexes over the runs admitted since — the overlay
    /// levels of the scene, in the LSM-tree sense.  Queries launch on the
    /// main scene plus every delta; a full rebuild absorbs them.
    deltas: Vec<Level>,
    /// The first arrival no index holds; queries scan the live arrivals
    /// from here on exactly.
    indexed: u64,

    /// How the scene and each delta are built.
    level_builder: NeighborIndexBuilder,
    /// The ε-edges of the window, one chunk per ingest, oldest first: each
    /// admitted arrival's edges to the arrivals before it.  A chunk goes
    /// once all of its rows are evicted; until then a snapshot skips the
    /// edges whose older end has left.
    edges: VecDeque<EdgeChunk>,
    /// The last snapshot, valid while the window is unchanged: a repeat
    /// snapshot returns it without recomputing anything.  Any successful
    /// ingest that inserts or evicts invalidates it.  It starts as the
    /// empty clustering, because the window is empty only before the first
    /// ingest (a non-empty ingest admits at least its last point).
    snapshot_cache: Option<Clustering>,

    /// Work by phase, mirroring the batch pipeline's breakdown: scene
    /// maintenance (build/refit), neighbour-count maintenance (stage 1:
    /// every ingest query), cluster formation (stage 2: the snapshots'
    /// union-find).
    build_counters: WorkCounters,
    stage1_counters: WorkCounters,
    stage2_counters: WorkCounters,
    stats: StreamingStats,
    /// Phase-span recorder (no-op under the default `TelemetryConfig::Off`).
    telemetry: Telemetry,
    /// Deterministic fault injector (disarmed under `FaultPlan::Off` or
    /// without the `fault-inject` feature; every probe is then one branch).
    fault: FaultInjector,
    /// Ingest calls left before a failed rebuild may be retried
    /// (exponential backoff from [`StreamingConfig::rebuild_retry`]).
    rebuild_backoff: u64,
    /// Consecutive exhausted rebuilds; drives the backoff exponent, reset
    /// by the first successful rebuild.
    rebuild_fail_streak: u32,
}

impl StreamingClusterer {
    /// Create an empty clusterer; fails on invalid configuration.
    pub fn new(config: StreamingConfig) -> Result<Self> {
        config.validate()?;
        // The `Algo::Rt` engine's default index without compaction, because
        // `remove` refuses a compacting index.  Its spans go to this
        // clusterer's recorder; fault injection and the memory budget act
        // on the levels through the clusterer's own probes and checks, so
        // no index arms either.
        let level_builder = NeighborIndexBuilder {
            compaction: false,
            telemetry: TelemetryConfig::Off,
            fault: FaultPlan::Off,
            memory_budget: MemoryBudget::Unlimited,
            ..ClusterEngine::builder()
                .algorithm(Algo::Rt)
                .params(config.params)
                .build()?
                .index_config()
        };
        Ok(StreamingClusterer {
            config,
            eps_sq: config.params.eps_sq(),
            window: VecDeque::new(),
            head: 0,
            now: f64::NEG_INFINITY,
            scene: None,
            deltas: Vec::new(),
            indexed: 0,
            level_builder,
            edges: VecDeque::new(),
            snapshot_cache: Some(Clustering::new(Vec::new(), Vec::new())),
            build_counters: WorkCounters::ZERO,
            stage1_counters: WorkCounters::ZERO,
            stage2_counters: WorkCounters::ZERO,
            stats: StreamingStats::default(),
            telemetry: Telemetry::new(config.telemetry),
            fault: FaultInjector::new(config.fault),
            rebuild_backoff: 0,
            rebuild_fail_streak: 0,
        })
    }

    /// The configuration this clusterer runs with.
    pub fn config(&self) -> StreamingConfig {
        self.config
    }

    /// Number of live points in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True if the window holds no points.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The live window contents in arrival order — index `i` here labels
    /// position `i` of [`StreamingClusterer::snapshot`]'s output.
    pub fn window_points(&self) -> Vec<Point3> {
        self.window.iter().map(|entry| entry.point).collect()
    }

    /// Aggregate observability counters.
    pub fn stats(&self) -> StreamingStats {
        self.stats
    }

    /// The telemetry recorder, when the configuration enables one (`None`
    /// under the default `TelemetryConfig::Off`).  Every ingest records a
    /// `streaming_slide` span, with nested `refit` / `rebuild` spans when
    /// scene maintenance ran; every snapshot that forms the window's
    /// clusters records one `stage2_union_find` span with its counted
    /// work.
    /// Its metrics registry counts the degradations named in
    /// [`StreamingStats`] and every snapshot's `deadline_trips`.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.is_enabled().then_some(&self.telemetry)
    }

    /// Total counted work so far, across all phases.
    pub fn counters(&self) -> WorkCounters {
        self.build_counters + self.stage1_counters + self.stage2_counters
    }

    /// Counted work split the way the batch pipeline reports it:
    /// `(scene maintenance, neighbour counting, cluster formation)`.
    pub fn phase_counters(&self) -> (WorkCounters, WorkCounters, WorkCounters) {
        (
            self.build_counters,
            self.stage1_counters,
            self.stage2_counters,
        )
    }

    /// Estimated resident device-memory footprint of the streaming state
    /// in bytes: the scene and delta indexes, the window's entries and the
    /// ε-edges kept for snapshots.
    pub fn device_bytes(&self) -> u64 {
        let levels: u64 = self
            .scene
            .iter()
            .chain(&self.deltas)
            .map(|level| level.index.device_bytes())
            .sum();
        let edges: u64 = self.edges.iter().map(EdgeChunk::bytes).sum();
        levels + edges + (self.window.len() * std::mem::size_of::<Entry>()) as u64
    }

    /// One past the newest arrival.
    fn tail(&self) -> u64 {
        self.head + self.window.len() as u64
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Ingest a batch of timestamped points, sliding the window as
    /// configured.  Timestamps should be non-decreasing across calls; the
    /// window clock only moves forward.
    ///
    /// Fails — without touching any state — if a point or timestamp is
    /// non-finite, matching the batch pipeline's input validation (a
    /// long-running stream must reject a poison point, not crash on it).
    pub fn ingest(&mut self, batch: &[(Point3, f64)]) -> Result<IngestReport> {
        for (index, &(point, time)) in batch.iter().enumerate() {
            if !point.is_finite() || !time.is_finite() {
                return Err(rtcore::Error::InvalidPrimitive {
                    index,
                    reason: format!("non-finite ingest point or timestamp ({point:?} @ {time})"),
                });
            }
        }
        if !self.config.memory_budget.allows(self.device_bytes()) {
            return Err(rtcore::Error::OverBudget {
                requested: self.device_bytes(),
                budget: self.config.memory_budget.limit().unwrap_or(0),
            });
        }
        // The span borrows a clone of the handle (they share one recorder)
        // so the body below can keep taking `&mut self`.
        let telemetry = self.telemetry.clone();
        let mut slide_span = telemetry.span(PhaseKind::StreamingSlide);
        let counters_before = self.counters();
        if !batch.is_empty() {
            // The window contents are about to change; the cached snapshot
            // no longer describes them.
            self.snapshot_cache = None;
        }

        // Slide over the whole batch; the evicted window points decrement
        // their survivors; then the rest of the batch enters, is indexed,
        // and counts its neighbourhoods.
        let evicted = self.slide(batch);
        let from_window = evicted.min(self.window.len());
        self.evict_front(from_window);
        let admitted_at = self.window.len();
        let admitted = batch[evicted - from_window..].iter();
        self.window.extend(admitted.map(|&(point, time)| Entry {
            point,
            time,
            neighbor_count: 0,
        }));
        let (refitted, rebuilt) = self.maintain_scene();
        self.count_admitted(admitted_at);

        self.stats.ingested += batch.len() as u64;
        self.stats.evicted += evicted as u64;
        slide_span.add_counters(self.counters() - counters_before);
        Ok(IngestReport {
            inserted: batch.len(),
            evicted,
            refitted,
            rebuilt,
        })
    }

    /// Advance the clock over `batch` and return how many points of the
    /// window followed by the batch the policy evicts.  Each batch point
    /// evicts before it enters, so a batch point that a later one evicts
    /// never enters at all.
    fn slide(&mut self, batch: &[(Point3, f64)]) -> usize {
        let held = self.window.len();
        let policy = self.config.window;
        let time_of = |i: usize| match self.window.get(i) {
            Some(entry) => entry.time,
            None => batch[i - held].1,
        };
        let must_evict = |oldest: usize, entered: usize, now: f64| match policy {
            // `>=` : eviction runs pre-insert, so reaching the budget
            // means the insert about to happen would exceed it.
            WindowPolicy::Count(max) => entered - oldest >= max,
            // `>=` : a point whose age equals the horizon exactly is
            // already out of the window (see `WindowPolicy::Time`).
            WindowPolicy::Time(horizon) => now - time_of(oldest) >= horizon,
        };
        let (mut now, mut evicted) = (self.now, 0);
        for (entered, &(_, time)) in (held..).zip(batch) {
            now = now.max(time);
            while evicted < entered && must_evict(evicted, entered, now) {
                evicted += 1;
            }
        }
        self.now = now;
        evicted
    }

    /// Evict the window's `count` oldest points: they query their
    /// ε-neighbourhoods and decrement their surviving neighbours.  The edge
    /// chunks whose rows are all evicted go with them.
    fn evict_front(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        let survivors = self.head + count as u64;
        let mut decrements = 0;
        self.for_each_pair(0..count, survivors, |window, _, q| {
            window[q].neighbor_count -= 1;
            decrements += 1;
        });
        sat_bump(&mut self.stage1_counters.misc_ops, decrements);
        self.window.drain(..count);
        self.head = survivors;
        while self
            .edges
            .front()
            .is_some_and(|chunk| chunk.end() <= survivors)
        {
            self.edges.pop_front();
        }
        // A chunk's deltas spread over the whole window, so halfway along
        // the store about half of its edges reach points that have left.
        // Rewriting that chunk keeps the store near three quarters of its
        // size for one chunk's work per ingest.
        let middle = self.edges.len() / 2;
        if let Some(chunk) = self.edges.get_mut(middle) {
            chunk.retain_live(survivors);
        }
    }

    /// Count the neighbourhoods of the window points from position `from`
    /// on, this call's admissions, which scene maintenance has indexed by
    /// now: each query counts its own point's other neighbours and bumps
    /// its neighbours older than `from` (an admitted neighbour counts the
    /// pair in its own query).  Each edge to an older point is kept, as one
    /// chunk for the call, so that a snapshot need not find it again.
    fn count_admitted(&mut self, from: usize) {
        let mut bumps = 0;
        let mut pairs = Vec::new();
        self.for_each_pair(from..self.window.len(), self.head, |window, k, q| {
            if q < from {
                window[q].neighbor_count += 1;
                bumps += 1;
            }
            window[k].neighbor_count += u32::from(q != k);
            if q < k {
                pairs.push(((k - from) as u32, (k - q) as u32));
            }
        });
        sat_bump(&mut self.stage1_counters.misc_ops, bumps);
        let rows = self.window.len() - from;
        if rows > 0 {
            let first = self.head + from as u64;
            self.edges.push_back(EdgeChunk::new(first, rows, &pairs));
        }
    }

    // ------------------------------------------------------------------
    // Scene maintenance: refit vs rebuild
    // ------------------------------------------------------------------

    /// Levels in the delta forest before a full rebuild is forced; deeper
    /// forests make queries touch too many roots.
    const MAX_DELTAS: usize = 8;

    fn maintain_scene(&mut self) -> (bool, bool) {
        if self.rebuild_backoff > 0 {
            // A recent rebuild exhausted its attempts; wait out the backoff
            // before trying again.  Refit and the delta build below still
            // maintain what they can.
            self.rebuild_backoff -= 1;
        } else if self.needs_rebuild() {
            if self.rebuild_scene() {
                self.rebuild_fail_streak = 0;
                return (false, true);
            }
            // Degrade: the old scene, deltas and exact scan keep answering
            // correctly (just slower); retry later with exponential
            // backoff.
            self.rebuild_fail_streak = self.rebuild_fail_streak.saturating_add(1);
            self.rebuild_backoff = self
                .config
                .rebuild_retry
                .backoff_ticks(self.rebuild_fail_streak);
        }
        let refitted = self.refit_scene();
        self.build_delta();
        (refitted, false)
    }

    /// Remove the scene's evicted arrivals in place once they make up the
    /// configured fraction of it.  Returns whether a refit ran; an index
    /// that refuses removal (only a compacting one does) is left as it
    /// was.
    fn refit_scene(&mut self) -> bool {
        let dead = self.dead_in_scene();
        let Some(scene) = self.scene.as_mut() else {
            return false;
        };
        let points = scene.index.len().max(1);
        if dead == 0 || (dead as f32) < self.config.refit_dead_fraction * points as f32 {
            return false;
        }
        let telemetry = self.telemetry.clone();
        let mut span = telemetry.span(PhaseKind::Refit);
        let from = (scene.unflushed() - scene.first) as u32;
        let retired: Vec<u32> = (from..from + dead as u32).collect();
        let Ok(refit_counters) = scene.index.remove(&retired) else {
            return false;
        };
        span.add_counters(refit_counters);
        drop(span);
        self.build_counters += refit_counters;
        sat_bump(&mut self.stats.refits, 1);
        true
    }

    /// Evicted arrivals still in the scene: those from where its last
    /// refit stopped up to the oldest live arrival.
    fn dead_in_scene(&self) -> usize {
        self.scene.as_ref().map_or(0, |scene| {
            self.head.min(scene.end).saturating_sub(scene.unflushed()) as usize
        })
    }

    /// Index the live arrivals no level holds as a small immutable delta so
    /// their later queries stop paying a linear scan.  These delta builds
    /// are the cheap, incremental part of the update policy: a few hundred
    /// points each, absorbed wholesale by the next full rebuild.
    fn build_delta(&mut self) {
        let first = self.indexed.max(self.head);
        if first == self.tail() {
            return;
        }
        // Build before mutating any state: a failed delta build (only
        // possible via fault injection — the inputs were validated finite
        // on ingest) defers compaction, leaving the arrivals unindexed and
        // exactly scanned until a later pass succeeds.
        let Ok(delta) = self.try_build(first) else {
            count_degradation(
                &mut self.stats.compaction_deferrals,
                &self.telemetry,
                "compaction_deferrals",
            );
            return;
        };
        self.build_counters += delta.index.build_counters();
        self.deltas.push(delta);
        self.indexed = self.tail();
    }

    fn needs_rebuild(&self) -> bool {
        let indexed_live = self.scene.as_ref().map_or(0, |s| s.index.len()) - self.dead_in_scene();
        let overlay: usize = self.deltas.iter().map(|d| d.index.len()).sum::<usize>()
            + (self.tail() - self.indexed.max(self.head)) as usize;
        overlay as f32 > self.config.max_pending_fraction * indexed_live.max(1) as f32
            || self.deltas.len() >= Self::MAX_DELTAS
            || (self.scene.is_none() && overlay > 0)
    }

    /// Rebuild the main scene from the live window, with bounded in-call
    /// retry under the configured [`rtcore::fault::RetryPolicy`].  The new
    /// index is built *first* and the streaming state committed only on
    /// success: a failed build (only possible via fault injection — the
    /// inputs were validated finite on ingest) leaves the old scene and
    /// deltas untouched and returns `false`.
    fn rebuild_scene(&mut self) -> bool {
        let telemetry = self.telemetry.clone();
        let mut span = telemetry.span(PhaseKind::Rebuild);
        let counters_before = self.build_counters;
        let built = if self.window.is_empty() {
            None
        } else {
            let policy = self.config.rebuild_retry;
            let mut attempt = 0u32;
            loop {
                match self.try_build(self.head) {
                    Ok(scene) => break Some(scene),
                    Err(_) => {
                        attempt += 1;
                        if !policy.allows_attempt(attempt) {
                            count_degradation(
                                &mut self.stats.rebuild_failures,
                                &telemetry,
                                "rebuild_failures",
                            );
                            return false;
                        }
                        count_degradation(
                            &mut self.stats.rebuild_retries,
                            &telemetry,
                            "rebuild_retries",
                        );
                    }
                }
            }
        };

        // Commit: every live arrival now lives in the (possibly empty) new
        // scene, which replaces the deltas and drops every evicted point.
        self.deltas.clear();
        self.indexed = self.tail();
        if let Some(scene) = &built {
            self.build_counters += scene.index.build_counters();
            sat_bump(&mut self.build_counters.rebuilds, 1);
            sat_bump(&mut self.stats.rebuilds, 1);
        }
        self.scene = built;
        span.add_counters(self.build_counters - counters_before);
        true
    }

    /// One build attempt over the window's arrivals from `first` on, for
    /// the scene or a delta; the failpoint fires before any build work so
    /// a simulated failure costs nothing.
    fn try_build(&self, first: u64) -> Result<Level> {
        rtcore::fail_point!(self.fault, FaultSite::HlbvhBuild);
        let points: Vec<Point3> = self
            .window
            .range((first - self.head) as usize..)
            .map(|entry| entry.point)
            .collect();
        Ok(Level {
            index: self.level_builder.build(&points, self.config.params.eps)?,
            first,
            end: self.tail(),
        })
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Call `pair(window, k, q)` for every window position `k` in
    /// `queries` and every position `q` from arrival `live_from` on whose
    /// point lies in the closed ε-ball around `k`'s (squared-f32
    /// convention; `k` itself included if it is one): one batched CSR
    /// launch of the queries per level plus an exact scan of the unindexed
    /// arrivals, charged to stage 1.
    fn for_each_pair(
        &mut self,
        queries: Range<usize>,
        live_from: u64,
        mut pair: impl FnMut(&mut VecDeque<Entry>, usize, usize),
    ) {
        if queries.is_empty() {
            return;
        }
        let points: Vec<Point3> = self
            .window
            .range(queries.clone())
            .map(|entry| entry.point)
            .collect();
        let eps = self.config.params.eps;
        let mut counters = WorkCounters::ZERO;
        let mut csr = CsrNeighbors::new();
        for level in self.scene.iter().chain(&self.deltas) {
            level
                .index
                .batch_neighbors_csr_into(&points, eps, &mut counters, &mut csr);
            for (row, k) in queries.clone().enumerate() {
                for &i in csr.neighbors(row) {
                    let arrival = level.first + u64::from(i);
                    if arrival >= live_from {
                        pair(&mut self.window, k, (arrival - self.head) as usize);
                    }
                }
            }
        }
        let unindexed = (self.indexed.max(live_from) - self.head) as usize;
        for (k, point) in queries.zip(points) {
            for q in unindexed..self.window.len() {
                sat_bump(&mut counters.dist_comps, 1);
                if self.window[q].point.distance_squared(point) <= self.eps_sq {
                    pair(&mut self.window, k, q);
                }
            }
        }
        self.stage1_counters += counters;
    }

    // ------------------------------------------------------------------
    // Snapshot
    // ------------------------------------------------------------------

    /// Current clustering of the live window, in arrival order (position
    /// `i` corresponds to `window_points()[i]`).
    ///
    /// A changed window is clustered by the batch stage-2 rule
    /// ([`ClusterForest`]) over the ε-edges ingest found, fed the
    /// maintained core flags: no index is built and no query launched.  The
    /// result equals `ClusterEngine::run` over
    /// [`StreamingClusterer::window_points`] bit for bit, labels included.
    /// A repeat snapshot of an *unchanged* window performs no counted work
    /// at all: the previous result is cached and returned directly.
    pub fn snapshot(&mut self) -> Clustering {
        self.snapshot_cancellable(&CancelScope::none())
            // analyze-allow: lib-unwrap -- the inert scope never trips, and nothing else in forming the window can fail
            .expect("an unscoped snapshot cannot fail")
    }

    /// [`StreamingClusterer::snapshot`] under a deadline/cancellation
    /// scope.  The pass polls `scope` before each ingest's edges; a trip
    /// surfaces as [`rtcore::Error::DeadlineExceeded`] carrying the work
    /// counted before it, counted as one `deadline_trips` in the metrics
    /// registry when telemetry records.  The pass only reads the kept
    /// edges, so a trip changes no state: nothing half-formed is ever
    /// served, and a retried snapshot forms the window again.  A cached
    /// snapshot does no work and cannot trip.
    pub fn snapshot_cancellable(&mut self, scope: &CancelScope) -> Result<Clustering> {
        if let Some(cached) = &self.snapshot_cache {
            self.stats.clean_snapshots += 1;
            return Ok(cached.clone());
        }
        let formed = self.form_window(scope);
        if let (Err(rtcore::Error::DeadlineExceeded { .. }), Some(metrics)) =
            (&formed, self.telemetry.metrics())
        {
            metrics.incr("deadline_trips", 1);
        }
        let clustering = formed?;
        self.snapshot_cache = Some(clustering.clone());
        Ok(clustering)
    }

    /// Cluster the window: report every live kept edge to a
    /// [`ClusterForest`] over the maintained core flags, charged to stage 2
    /// under a `stage2_union_find` span.
    fn form_window(&mut self, scope: &CancelScope) -> Result<Clustering> {
        let min_pts = self.config.params.min_pts;
        let core: Vec<bool> = self
            .window
            .iter()
            .map(|entry| entry.neighbor_count as usize >= min_pts)
            .collect();
        let mut span = self.telemetry.span(PhaseKind::Stage2UnionFind);
        let forest = ClusterForest::new(&core);
        let mut counters = WorkCounters::ZERO;
        for chunk in &self.edges {
            if scope.should_stop() {
                return Err(rtcore::Error::DeadlineExceeded {
                    partial: Box::new(counters),
                });
            }
            chunk.link_live(self.head, &forest, &mut counters);
        }
        let labels = forest.labels(&mut counters);
        span.add_counters(counters);
        drop(span);
        self.stage2_counters += counters;
        self.stats.dirty_snapshots += 1;
        Ok(Clustering::new(labels, core))
    }
}

/// Count one degradation: its [`StreamingStats`] field, and the metrics
/// counter of the same name when telemetry records (nothing under
/// [`rtcore::telemetry::TelemetryConfig::Off`]).
fn count_degradation(stat: &mut u64, telemetry: &Telemetry, name: &'static str) {
    sat_bump(stat, 1);
    if let Some(metrics) = telemetry.metrics() {
        metrics.incr(name, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdbscan::labels::NOISE;
    use rtdbscan::metrics::same_clustering;
    use rtdbscan::{ClassicDbscan, DbscanParams};

    fn config(eps: f32, min_pts: usize, window: WindowPolicy) -> StreamingConfig {
        StreamingConfig::new(DbscanParams::new(eps, min_pts).unwrap(), window)
    }

    fn timestamped(points: &[Point3], start: f64) -> Vec<(Point3, f64)> {
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, start + i as f64))
            .collect()
    }

    /// Oracle check: the snapshot must be a valid DBSCAN clustering of the
    /// window contents.
    fn assert_matches_classic(clusterer: &mut StreamingClusterer) {
        let points = clusterer.window_points();
        let params = clusterer.config().params;
        let snapshot = clusterer.snapshot();
        let reference = ClassicDbscan::cluster(&points, params).unwrap();
        assert_eq!(reference.core, snapshot.core, "core flags diverged");
        assert!(
            same_clustering(&reference, &snapshot, &points, params),
            "partition diverged"
        );
    }

    #[test]
    fn empty_and_single_point_snapshots() {
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(10))).unwrap();
        assert!(c.is_empty());
        assert!(c.snapshot().is_empty());
        c.ingest(&[(Point3::new_2d(0.0, 0.0), 0.0)]).unwrap();
        let s = c.snapshot();
        assert_eq!(s.len(), 1);
        assert_eq!(s.noise_count(), 1);
    }

    #[test]
    fn insert_only_stream_matches_classic_at_every_batch() {
        let mut c = StreamingClusterer::new(config(1.2, 3, WindowPolicy::Count(10_000))).unwrap();
        // Three drifting blobs plus noise, fed in batches.
        let mut t = 0.0;
        for wave in 0..6 {
            let mut batch = Vec::new();
            for i in 0..40 {
                let cx = (wave % 3) as f32 * 8.0;
                let angle = i as f32 * 0.37 + wave as f32;
                let r = 0.9 * ((i % 7) as f32 / 7.0);
                batch.push((Point3::new_2d(cx + r * angle.cos(), r * angle.sin()), t));
                t += 1.0;
            }
            batch.push((Point3::new_2d(100.0 + wave as f32 * 50.0, -50.0), t));
            c.ingest(&batch).unwrap();
            assert_matches_classic(&mut c);
        }
        assert_eq!(c.stats().evicted, 0);
    }

    #[test]
    fn count_window_slides_and_stays_correct() {
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(30))).unwrap();
        for wave in 0..10 {
            let pts: Vec<Point3> = (0..12)
                .map(|i| {
                    Point3::new_2d(
                        wave as f32 * 3.0 + (i % 4) as f32 * 0.4,
                        (i / 4) as f32 * 0.4,
                    )
                })
                .collect();
            c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
            assert!(c.len() <= 30);
            assert_matches_classic(&mut c);
        }
        assert!(c.stats().evicted > 0);
        assert!(c.stats().dirty_snapshots > 0, "changed windows are formed");
    }

    #[test]
    fn time_window_expires_old_points() {
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Time(10.0))).unwrap();
        let old: Vec<Point3> = (0..8)
            .map(|i| Point3::new_2d(i as f32 * 0.3, 0.0))
            .collect();
        c.ingest(&timestamped(&old, 0.0)).unwrap();
        assert_eq!(c.len(), 8);
        assert_matches_classic(&mut c);

        // 50 seconds later everything old is outside the horizon.
        let fresh: Vec<Point3> = (0..6)
            .map(|i| Point3::new_2d(40.0 + i as f32 * 0.3, 0.0))
            .collect();
        c.ingest(&timestamped(&fresh, 50.0)).unwrap();
        assert_eq!(c.len(), 6);
        let points = c.window_points();
        assert!(points.iter().all(|p| p.x >= 40.0));
        assert_matches_classic(&mut c);
    }

    #[test]
    fn time_window_boundary_age_equal_to_horizon_is_evicted() {
        // Horizon 10: a point aged exactly 10 must be out, one aged just
        // under must stay, in the same ingest call.
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Time(10.0))).unwrap();
        c.ingest(&[
            (Point3::new_2d(0.0, 0.0), 0.0), // age 10 at t=10 → evicted
            (Point3::new_2d(1.0, 0.0), 0.5), // age 9.5 at t=10 → kept
            (Point3::new_2d(2.0, 0.0), 5.0), // age 5 at t=10 → kept
        ])
        .unwrap();
        assert_eq!(c.len(), 3);
        c.ingest(&[(Point3::new_2d(3.0, 0.0), 10.0)]).unwrap();
        assert_eq!(c.len(), 3, "exact-boundary point must be evicted");
        let xs: Vec<f32> = c.window_points().iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        assert_matches_classic(&mut c);

        // The convention must hold when several points share the boundary
        // timestamp exactly.
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Time(10.0))).unwrap();
        c.ingest(&[
            (Point3::new_2d(0.0, 0.0), 0.0),
            (Point3::new_2d(0.5, 0.0), 0.0),
            (Point3::new_2d(9.0, 0.0), 10.0),
        ])
        .unwrap();
        assert_eq!(c.len(), 1, "both boundary-aged points leave together");
        assert_matches_classic(&mut c);
    }

    #[test]
    fn heavy_sliding_exercises_refit_and_rebuild() {
        let mut cfg = config(0.8, 4, WindowPolicy::Count(160));
        cfg.refit_dead_fraction = 0.02;
        cfg.max_pending_fraction = 0.5;
        let mut c = StreamingClusterer::new(cfg).unwrap();
        for wave in 0..25 {
            let pts: Vec<Point3> = (0..40)
                .map(|i| {
                    let h = (wave * 97 + i * 31) as u64;
                    Point3::new_2d(
                        (wave as f32) * 1.5 + ((h >> 3) & 7) as f32 * 0.25,
                        ((h >> 7) & 7) as f32 * 0.25,
                    )
                })
                .collect();
            c.ingest(&timestamped(&pts, wave as f64 * 1000.0)).unwrap();
            if wave % 5 == 4 {
                assert_matches_classic(&mut c);
            }
        }
        let stats = c.stats();
        assert!(stats.refits > 0, "expected refit passes: {stats:?}");
        assert!(stats.rebuilds > 1, "expected rebuilds: {stats:?}");
        let counters = c.counters();
        assert!(counters.refits > 0);
        assert!(counters.rebuilds > 1);
        assert!(counters.refit_node_ops > 0);
    }

    #[test]
    fn border_points_attach_and_detach_across_slides() {
        // A chain where the middle point is border to both sides, then the
        // left side ages out.
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(5))).unwrap();
        c.ingest(&[
            (Point3::new_2d(0.0, 0.0), 0.0),
            (Point3::new_2d(0.8, 0.0), 1.0),
            (Point3::new_2d(1.6, 0.0), 2.0),
            (Point3::new_2d(2.4, 0.0), 3.0),
            (Point3::new_2d(3.2, 0.0), 4.0),
        ])
        .unwrap();
        assert_matches_classic(&mut c);
        // Slide: two new isolated points push out the two leftmost.
        c.ingest(&[
            (Point3::new_2d(50.0, 0.0), 5.0),
            (Point3::new_2d(60.0, 0.0), 6.0),
        ])
        .unwrap();
        assert_matches_classic(&mut c);
    }

    #[test]
    fn duplicate_coordinates_are_handled() {
        let mut c = StreamingClusterer::new(config(0.5, 5, WindowPolicy::Count(100))).unwrap();
        let mut batch = Vec::new();
        for i in 0..30 {
            batch.push((Point3::new_2d((i % 3) as f32 * 0.1, 0.0), i as f64));
        }
        c.ingest(&batch).unwrap();
        assert_matches_classic(&mut c);
    }

    #[test]
    fn phase_counters_and_reports_are_populated() {
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(50))).unwrap();
        let pts: Vec<Point3> = (0..60)
            .map(|i| Point3::new_2d(i as f32 * 0.4, 0.0))
            .collect();
        let report = c.ingest(&timestamped(&pts, 0.0)).unwrap();
        assert_eq!(report.inserted, 60);
        assert_eq!(report.evicted, 10);
        let _ = c.snapshot();
        let (build, stage1, stage2) = c.phase_counters();
        assert!(build.build_prims > 0, "scene was built");
        assert!(stage1.rays > 0, "ingest queries are charged to stage 1");
        assert!(stage1.dist_comps > 0);
        assert!(
            stage2.union_ops > 0,
            "the snapshot's stage 2 is charged to it"
        );
        assert!(stage2.find_ops > 0);
        assert_eq!(stage2.rays, 0, "a snapshot launches no query");
        assert!(c.device_bytes() > 0);
        assert_eq!(c.stats().ingested, 60);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let params = DbscanParams::new(1.0, 2).unwrap();
        assert!(
            StreamingClusterer::new(StreamingConfig::new(params, WindowPolicy::Count(0))).is_err()
        );
        let bad = StreamingConfig {
            max_pending_fraction: f32::NAN,
            ..StreamingConfig::new(params, WindowPolicy::Count(5))
        };
        assert!(StreamingClusterer::new(bad).is_err());
    }

    #[test]
    fn non_finite_input_is_rejected_without_state_change() {
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(10))).unwrap();
        c.ingest(&[(Point3::new_2d(0.0, 0.0), 0.0)]).unwrap();
        let before = c.stats();
        assert!(c
            .ingest(&[
                (Point3::new_2d(1.0, 0.0), 1.0),
                (Point3::new_2d(f32::NAN, 0.0), 2.0),
            ])
            .is_err());
        assert!(c
            .ingest(&[(Point3::new_2d(1.0, 0.0), f64::INFINITY)])
            .is_err());
        assert_eq!(c.stats(), before, "failed ingest must not mutate state");
        assert_eq!(c.len(), 1);
        let _ = c.snapshot();
    }

    #[test]
    fn snapshot_is_idempotent() {
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(40))).unwrap();
        let pts: Vec<Point3> = (0..30)
            .map(|i| Point3::new_2d((i % 10) as f32 * 0.5, (i / 10) as f32 * 0.5))
            .collect();
        c.ingest(&timestamped(&pts, 0.0)).unwrap();
        let a = c.snapshot();
        let b = c.snapshot();
        assert_eq!(a.canonicalize(), b.canonicalize());
    }

    #[test]
    fn clean_repeat_snapshots_are_cached_and_cost_nothing() {
        // Slide the window so the first snapshot forms it with stage 2,
        // then snapshot repeatedly without ingesting.
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(20))).unwrap();
        for wave in 0..4 {
            let pts: Vec<Point3> = (0..10)
                .map(|i| Point3::new_2d(wave as f32 * 2.0 + (i % 5) as f32 * 0.4, 0.0))
                .collect();
            c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
        }
        let first = c.snapshot();
        let counters_after_first = c.counters();
        let stats_after_first = c.stats();
        let second = c.snapshot();
        let third = c.snapshot();
        // Identical output (bit-identical, not just equivalent) …
        assert_eq!(first.labels, second.labels);
        assert_eq!(first.core, second.core);
        assert_eq!(first.labels, third.labels);
        // … at exactly zero additional counted work …
        assert_eq!(counters_after_first, c.counters());
        // … with the repeats recorded as clean snapshots.
        assert_eq!(
            c.stats().clean_snapshots,
            stats_after_first.clean_snapshots + 2
        );
        assert_eq!(c.stats().dirty_snapshots, stats_after_first.dirty_snapshots);

        // Ingesting anything invalidates the cache again.
        c.ingest(&[(Point3::new_2d(50.0, 0.0), 1000.0)]).unwrap();
        let after = c.snapshot();
        assert_ne!(first.len(), 0);
        assert_eq!(after.len(), c.len());
        assert!(c.counters().misc_ops > counters_after_first.misc_ops);
    }

    #[test]
    fn robustness_config_knobs_are_validated() {
        use rtcore::fault::{FaultPlan, MemoryBudget, RetryPolicy};
        let params = DbscanParams::new(1.0, 2).unwrap();
        let good = StreamingConfig::new(params, WindowPolicy::Count(10));
        assert!(StreamingClusterer::new(StreamingConfig {
            memory_budget: MemoryBudget::Bytes(0),
            ..good
        })
        .is_err());
        assert!(StreamingClusterer::new(StreamingConfig {
            rebuild_retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..good
        })
        .is_err());
        assert!(StreamingClusterer::new(StreamingConfig {
            fault: FaultPlan::Seeded { seed: 1, one_in: 0 },
            ..good
        })
        .is_err());
        assert!(StreamingClusterer::new(StreamingConfig {
            memory_budget: MemoryBudget::Bytes(1 << 20),
            fault: FaultPlan::Seeded { seed: 1, one_in: 7 },
            ..good
        })
        .is_ok());
    }

    #[test]
    fn over_budget_ingest_refuses_without_touching_window_state() {
        use rtcore::fault::MemoryBudget;
        let mut c = StreamingClusterer::new(StreamingConfig {
            memory_budget: MemoryBudget::Bytes(1),
            ..config(1.0, 2, WindowPolicy::Count(100))
        })
        .unwrap();
        // The empty clusterer holds no device bytes, so the first ingest is
        // admitted; it leaves the state over the (absurd) 1-byte budget.
        let pts: Vec<Point3> = (0..20)
            .map(|i| Point3::new_2d(i as f32 * 0.4, 0.0))
            .collect();
        c.ingest(&timestamped(&pts, 0.0)).unwrap();
        let len_before = c.len();
        let snapshot_before = c.snapshot();
        match c.ingest(&[(Point3::new_2d(50.0, 0.0), 100.0)]) {
            Err(rtcore::Error::OverBudget { requested, budget }) => {
                assert_eq!(budget, 1);
                assert!(requested > 1);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        // The refused ingest changed nothing the user can observe.
        assert_eq!(c.len(), len_before);
        let after = c.snapshot();
        assert_eq!(snapshot_before.labels, after.labels);
        assert_eq!(snapshot_before.core, after.core);
        assert_matches_classic(&mut c);
    }

    #[test]
    fn snapshot_cancellable_matches_snapshot_and_trips_cleanly() {
        use rtcore::fault::{CancelScope, CancelToken};
        use rtcore::telemetry::TelemetryConfig;
        for telemetry in [TelemetryConfig::Off, TelemetryConfig::Spans] {
            let mut c = StreamingClusterer::new(StreamingConfig {
                telemetry,
                ..config(1.0, 2, WindowPolicy::Count(20))
            })
            .unwrap();
            for wave in 0..4 {
                let pts: Vec<Point3> = (0..10)
                    .map(|i| Point3::new_2d(wave as f32 * 2.0 + (i % 5) as f32 * 0.4, 0.0))
                    .collect();
                c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
            }

            // A pre-cancelled scope refuses before forming the window,
            // changes nothing and counts one deadline trip when telemetry
            // records.
            let token = CancelToken::new();
            token.cancel();
            let scope = CancelScope::with_token(&token);
            let (stats, counters) = (c.stats(), c.counters());
            match c.snapshot_cancellable(&scope) {
                Err(rtcore::Error::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            assert_eq!((c.stats(), c.counters()), (stats, counters));
            let trips = c
                .telemetry()
                .map(|t| t.metrics().unwrap().counter("deadline_trips"));
            let expected = (telemetry == TelemetryConfig::Spans).then_some(1);
            assert_eq!(trips, expected, "{telemetry:?}");

            // The retry forms the window, and its result matches the plain
            // snapshot bit for bit, which the cache then serves.
            let relaxed = c.snapshot_cancellable(&CancelScope::none()).unwrap();
            assert_eq!(c.stats().dirty_snapshots, stats.dirty_snapshots + 1);
            let plain = c.snapshot();
            assert_eq!(relaxed, plain);
            assert_eq!(c.stats().clean_snapshots, stats.clean_snapshots + 1);
            assert_matches_classic(&mut c);
        }
    }

    #[test]
    fn ingest_never_charges_stage_2() {
        // A line of cores fills the window, then a far point evicts one of
        // them, then two neighbours of the far point arrive: it and both
        // newcomers become core.  None of it is stage-2 work.
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(10))).unwrap();
        let line: Vec<Point3> = (0..10)
            .map(|i| Point3::new_2d(i as f32 * 0.4, 0.0))
            .collect();
        c.ingest(&timestamped(&line, 0.0)).unwrap();
        c.ingest(&[(Point3::new_2d(100.0, 0.0), 10.0)]).unwrap();
        c.ingest(&[
            (Point3::new_2d(100.5, 0.0), 11.0),
            (Point3::new_2d(101.0, 0.0), 12.0),
        ])
        .unwrap();
        let min_pts = c.config().params.min_pts;
        let far_cores = c
            .window
            .iter()
            .filter(|e| e.neighbor_count as usize >= min_pts && e.point.x >= 100.0)
            .count();
        assert_eq!(far_cores, 3);
        assert_eq!(c.phase_counters().2, WorkCounters::ZERO);
        // One ray per query per level launched on.  The line's 10 queries
        // launch on the scene built over it (10).  The far point evicts
        // one line point, whose query launches on the scene (1); the far
        // point is indexed as a delta beside the refitted scene and its
        // query launches on both (2).  The last ingest evicts two line
        // points, whose queries launch on the scene and the delta (4);
        // the overlay then outgrows the scene, so a rebuild absorbs the
        // delta, and the two newcomers launch on the new scene alone (2).
        assert_eq!(c.phase_counters().1.rays, 10 + 1 + 2 + 4 + 2);
        assert_matches_classic(&mut c);
        assert!(c.phase_counters().2.find_ops > 0);
    }

    #[test]
    fn ingest_queries_are_batched_launches() {
        // A sliding window that refits, builds deltas and rebuilds: every
        // ingest query runs in a packet launch on a wide index, never in a
        // binary-tree traversal.
        let mut cfg = config(1.0, 2, WindowPolicy::Count(40));
        cfg.max_pending_fraction = 1.0;
        let mut c = StreamingClusterer::new(cfg).unwrap();
        for wave in 0..12 {
            let pts: Vec<Point3> = (0..6)
                .map(|i| Point3::new_2d(wave as f32 * 1.5 + (i % 3) as f32 * 0.4, 0.0))
                .collect();
            c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
        }
        let stage1 = c.phase_counters().1;
        assert_eq!(stage1.node_visits, 0, "{stage1:?}");
        assert!(stage1.batched_launches > 0, "{stage1:?}");
        assert!(stage1.wide_node_visits > 0, "{stage1:?}");
        let stats = c.stats();
        assert!(stats.refits > 0 && stats.rebuilds > 1, "{stats:?}");
        assert_matches_classic(&mut c);
    }

    #[test]
    fn a_batch_is_indexed_before_it_is_queried() {
        // 400 points 3ε apart in one ingest: each query launches on the
        // scene built over its batch and tests one leaf (at most 4 points),
        // never a scan of its batch-mates.
        let mut c = StreamingClusterer::new(config(1.0, 2, WindowPolicy::Count(10_000))).unwrap();
        let pts: Vec<Point3> = (0..400)
            .map(|i| Point3::new_2d(i as f32 * 3.0, 0.0))
            .collect();
        c.ingest(&timestamped(&pts, 0.0)).unwrap();
        let stage1 = c.phase_counters().1;
        assert_eq!(stage1.rays, 400);
        assert!(stage1.dist_comps <= 4 * 400, "{stage1:?}");
        assert_matches_classic(&mut c);
    }

    #[test]
    fn a_reused_border_slot_joins_no_old_cluster() {
        // ε = 1, minPts = 2, a 10 s horizon, and a pending fraction that
        // lets a delta sit beside the scene, so that a refit flushes
        // evicted points.
        let mut cfg = config(1.0, 2, WindowPolicy::Time(10.0));
        cfg.max_pending_fraction = 1.0;
        let mut c = StreamingClusterer::new(cfg).unwrap();
        let at = |x: f32, t: f64| (Point3::new_2d(x, 0.0), t);
        // Three cores far away, then a cluster led by a border: B (x = 0)
        // is in range of C1 only, and C1 keeps minPts without it.
        c.ingest(&[at(100.0, 0.0), at(100.5, 0.0), at(101.0, 0.0)])
            .unwrap();
        c.ingest(&[at(0.0, 1.0), at(0.9, 5.0), at(1.5, 5.0), at(1.6, 5.0)])
            .unwrap();
        let border = c.head + 3;
        // t = 10 evicts the far cores, and B leads the window.
        c.ingest(&[at(200.0, 10.0)]).unwrap();
        assert_eq!(c.head, border);
        let s = c.snapshot();
        assert!(!s.core[0] && s.labels[0] != NOISE, "B is a border");
        assert_matches_classic(&mut c);

        // t = 11 evicts B alone, and a refit flushes its sphere.
        let refits = c.stats().refits;
        c.ingest(&[at(300.0, 11.0)]).unwrap();
        assert!(c.stats().refits > refits);
        assert_eq!((c.head, c.dead_in_scene()), (border + 1, 0));

        // t = 12: three points far from the cluster arrive and all become
        // core.
        c.ingest(&[at(500.0, 12.0), at(500.5, 12.0), at(501.0, 12.0)])
            .unwrap();
        assert_matches_classic(&mut c);
    }

    #[test]
    fn dirty_snapshots_build_nothing_and_launch_nothing() {
        // A sliding window that refits, rebuilds and evicts whole edge
        // chunks: each snapshot forms the window from the edges ingest
        // kept, with no index build and no query, and labels it as the
        // engine's run over the window does.
        let params = DbscanParams::new(0.8, 3).unwrap();
        let engine = ClusterEngine::builder().params(params).build().unwrap();
        let mut cfg = StreamingConfig::new(params, WindowPolicy::Count(150));
        cfg.refit_dead_fraction = 0.02;
        cfg.max_pending_fraction = 0.6;
        let mut c = StreamingClusterer::new(cfg).unwrap();
        for wave in 0..20 {
            let pts: Vec<Point3> = (0..35)
                .map(|i| {
                    let h = (wave * 131 + i * 17) as u64;
                    Point3::new_2d(
                        (wave % 5) as f32 * 2.0 + ((h >> 2) & 7) as f32 * 0.3,
                        ((h >> 5) & 7) as f32 * 0.3,
                    )
                })
                .collect();
            c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
            let (build, _, stage2) = c.phase_counters();
            let snapshot = c.snapshot();
            assert_eq!(
                c.phase_counters().0,
                build,
                "wave {wave}: a snapshot builds nothing"
            );
            let formed = c.phase_counters().2 - stage2;
            assert_eq!(formed.rays, 0, "wave {wave}: a snapshot launches nothing");
            assert!(formed.find_ops > 0, "wave {wave}: {formed:?}");
            let run = engine.run(&c.window_points()).unwrap().clustering;
            assert_eq!(snapshot, run, "wave {wave}");
        }
        let stats = c.stats();
        assert!(stats.refits > 0 && stats.rebuilds > 1, "{stats:?}");
        assert_eq!(stats.dirty_snapshots, 20);
    }

    #[test]
    fn deltas_past_u16_are_kept_wide() {
        // A 70,000-point count window of isolated points on a grid, but for
        // three near the origin: arrival 66,000 is a core whose two
        // neighbours are borders, one of them 66,000 arrivals older.  The
        // chunk holding that edge must keep it exactly.
        let params = DbscanParams::new(1.0, 2).unwrap();
        let mut c =
            StreamingClusterer::new(StreamingConfig::new(params, WindowPolicy::Count(70_000)))
                .unwrap();
        let points: Vec<Point3> = (0..70_000)
            .map(|i| match i {
                0 => Point3::new_2d(0.0, 0.0),
                66_000 => Point3::new_2d(0.6, 0.0),
                66_001 => Point3::new_2d(1.2, 0.0),
                _ => Point3::new_2d(10.0 + (i % 300) as f32 * 3.0, 10.0 + (i / 300) as f32 * 3.0),
            })
            .collect();
        for batch in timestamped(&points, 0.0).chunks(10_000) {
            c.ingest(batch).unwrap();
        }
        assert!(c
            .edges
            .iter()
            .any(|chunk| matches!(chunk.deltas, Deltas::Wide(_))));
        let snapshot = c.snapshot();
        assert!(snapshot.core[66_000] && !snapshot.core[0] && !snapshot.core[66_001]);
        assert_eq!(
            [
                snapshot.labels[0],
                snapshot.labels[66_000],
                snapshot.labels[66_001]
            ],
            [0; 3]
        );
        let engine = ClusterEngine::builder().params(params).build().unwrap();
        assert_eq!(snapshot, engine.run(&points).unwrap().clustering);
        assert_matches_classic(&mut c);
    }

    #[test]
    fn dirty_snapshots_record_one_stage2_span() {
        use rtcore::telemetry::TelemetryConfig;
        let mut work = Vec::new();
        for telemetry in [TelemetryConfig::Off, TelemetryConfig::Spans] {
            let mut c = StreamingClusterer::new(StreamingConfig {
                telemetry,
                ..config(1.0, 2, WindowPolicy::Count(20))
            })
            .unwrap();
            assert_eq!(c.telemetry().is_some(), telemetry == TelemetryConfig::Spans);
            let spans = |c: &StreamingClusterer| c.telemetry().map_or(vec![], Telemetry::spans);
            for wave in 0..4 {
                let pts: Vec<Point3> = (0..10)
                    .map(|i| Point3::new_2d(wave as f32 * 2.0 + (i % 5) as f32 * 0.4, 0.0))
                    .collect();
                c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
                let (before, dirty, phases) = (
                    spans(&c).len(),
                    c.stats().dirty_snapshots,
                    c.phase_counters(),
                );
                let _ = c.snapshot();
                let recorded = spans(&c);
                let _ = c.snapshot();
                assert_eq!(
                    spans(&c).len(),
                    recorded.len(),
                    "a cached repeat records nothing"
                );
                let new = &recorded[before..];
                if telemetry == TelemetryConfig::Off || c.stats().dirty_snapshots == dirty {
                    assert!(new.is_empty(), "wave {wave}: {new:?}");
                    continue;
                }
                let (build, _, stage2) = c.phase_counters();
                let kinds: Vec<PhaseKind> = new.iter().map(|s| s.phase).collect();
                assert_eq!(kinds, [PhaseKind::Stage2UnionFind]);
                assert_eq!(new[0].counters, stage2 - phases.2, "the stage's work");
                assert_eq!(build, phases.0, "a snapshot builds nothing");
            }
            assert!(c.stats().dirty_snapshots > 0);
            work.push(c.counters());
        }
        assert_eq!(work[0], work[1], "telemetry must not change the work");
    }

    /// The degradation counters of the metrics registry: `None` when
    /// telemetry records nothing, else the three counts in
    /// [`StreamingStats`] order.
    #[cfg(feature = "fault-inject")]
    fn degradation_metrics(c: &StreamingClusterer) -> Option<[u64; 3]> {
        let metrics = c.telemetry()?.metrics()?;
        Some(
            [
                "rebuild_retries",
                "rebuild_failures",
                "compaction_deferrals",
            ]
            .map(|name| metrics.counter(name)),
        )
    }

    /// `StreamingStats`' degradation counts, in registry order.
    #[cfg(feature = "fault-inject")]
    fn degradation_stats(stats: &StreamingStats) -> [u64; 3] {
        [
            stats.rebuild_retries,
            stats.rebuild_failures,
            stats.compaction_deferrals,
        ]
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_build_failures_degrade_gracefully_and_recover() {
        use rtcore::fault::FaultPlan;
        use rtcore::telemetry::TelemetryConfig;
        // Roughly one in three builds fails; the clusterer must stay exact
        // throughout (old scene + overlays + tail keep answering) and the
        // retry/backoff machinery must eventually rebuild.  Under `Spans`
        // every degradation is also counted in the metrics registry; `Off`
        // records nothing and degrades identically.
        let mut runs = Vec::new();
        for telemetry in [TelemetryConfig::Off, TelemetryConfig::Spans] {
            let mut c = StreamingClusterer::new(StreamingConfig {
                fault: FaultPlan::Seeded {
                    seed: 42,
                    one_in: 3,
                },
                max_pending_fraction: 0.05,
                telemetry,
                ..config(1.0, 2, WindowPolicy::Count(60))
            })
            .unwrap();
            for wave in 0..12 {
                let pts: Vec<Point3> = (0..15)
                    .map(|i| Point3::new_2d(wave as f32 * 1.5 + (i % 5) as f32 * 0.4, 0.0))
                    .collect();
                c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
                assert_matches_classic(&mut c);
            }
            let stats = c.stats();
            assert!(
                stats.rebuild_retries + stats.rebuild_failures + stats.compaction_deferrals > 0,
                "the seeded plan must have fired at least once: {stats:?}"
            );
            assert!(stats.rebuilds > 0, "some rebuilds must still succeed");
            let expected = (telemetry == TelemetryConfig::Spans).then(|| degradation_stats(&stats));
            assert_eq!(degradation_metrics(&c), expected, "{telemetry:?}");
            runs.push(degradation_stats(&stats));
        }
        assert_eq!(runs[0], runs[1], "telemetry must not change what degrades");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn permanent_build_failure_stays_exact_forever() {
        use rtcore::fault::FaultPlan;
        use rtcore::telemetry::TelemetryConfig;
        // Every build fails: the scene is never (re)built, every query runs
        // over the exact tail scan — slow, but never wrong and never a
        // panic.  The registry counts the same degradations as the stats
        // under `Spans` and nothing under `Off`.
        for telemetry in [TelemetryConfig::Off, TelemetryConfig::Spans] {
            let mut c = StreamingClusterer::new(StreamingConfig {
                fault: FaultPlan::Seeded { seed: 7, one_in: 1 },
                telemetry,
                ..config(1.0, 2, WindowPolicy::Count(40))
            })
            .unwrap();
            for wave in 0..6 {
                let pts: Vec<Point3> = (0..12)
                    .map(|i| Point3::new_2d(wave as f32 * 2.0 + (i % 4) as f32 * 0.4, 0.0))
                    .collect();
                c.ingest(&timestamped(&pts, wave as f64 * 100.0)).unwrap();
                assert_matches_classic(&mut c);
            }
            let stats = c.stats();
            assert_eq!(stats.rebuilds, 0, "no build can succeed under one_in=1");
            assert!(stats.rebuild_failures > 0);
            assert!(stats.compaction_deferrals > 0);
            let expected = (telemetry == TelemetryConfig::Spans).then(|| degradation_stats(&stats));
            assert_eq!(degradation_metrics(&c), expected, "{telemetry:?}");
        }
    }
}
