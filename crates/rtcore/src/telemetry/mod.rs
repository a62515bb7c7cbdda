//! Phase-scoped spans, metrics, and the node-visit heatmap profiler.
//!
//! The engine's cost model ([`crate::hardware::WorkCounters`]) says *how
//! much* work a run performed; this module says *where it went*: which
//! pipeline phase, on which thread, over which wall-clock interval, and —
//! with the [`NodeHeatmap`] profiler — against which BVH nodes.
//!
//! Three layers, all hanging off one cloneable [`Telemetry`] handle:
//!
//! 1. **Spans** — [`Telemetry::span`] returns a [`Span`] RAII guard scoping
//!    one pipeline phase ([`PhaseKind`]: LBVH build, BVH4 collapse, Morton
//!    reorder, stage-1 launch, stage-2 union-find, refit, rebuild,
//!    streaming slide).  On drop the span records its
//!    wall-time, thread, nesting depth and an attached [`WorkCounters`]
//!    delta into a fixed-capacity ring buffer.  Export with
//!    [`Telemetry::chrome_trace_json`] (open the file in `chrome://tracing`
//!    or [Perfetto](https://ui.perfetto.dev)) or
//!    [`Telemetry::summary_table`].
//! 2. **Metrics** — a [`MetricsRegistry`] of monotonic counters and
//!    fixed-bucket histograms (per-launch latency, packet occupancy,
//!    per-query distance comparisons), snapshotable as JSON.
//! 3. **Heatmap** — an opt-in per-node visit-frequency accumulator the
//!    traversal engines feed, dumpable per depth or per treelet
//!    ([`NodeHeatmap`]).
//!
//! # Zero cost when off
//!
//! [`TelemetryConfig::Off`] (the default everywhere) builds a disabled
//! handle: [`Telemetry::span`] reads no clock, takes no lock and records
//! nothing, and the traversal engines compile to the exact same code paths
//! as before the module existed — the heatmap hook is monomorphised away,
//! counters stay bit-identical, and the steady state stays allocation-free
//! (`tests/alloc_regression.rs` pins all of it).  When enabled, recording
//! is allocation-free after warm-up too: the ring buffer is pre-allocated
//! and full rings overwrite the oldest span.
//!
//! # Example
//!
//! ```
//! use rtcore::hardware::WorkCounters;
//! use rtcore::telemetry::{PhaseKind, Telemetry, TelemetryConfig};
//!
//! let tel = Telemetry::new(TelemetryConfig::Spans);
//! {
//!     let mut span = tel.span(PhaseKind::Stage1Launch);
//!     let mut work = WorkCounters::ZERO;
//!     work.rays += 64; // ... the launch ...
//!     span.add_counters(work);
//! } // span records on drop
//! let spans = tel.spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].phase, PhaseKind::Stage1Launch);
//! assert_eq!(spans[0].counters.rays, 64);
//! let trace = tel.chrome_trace_json();
//! assert!(trace.contains("\"stage1_launch\""));
//! ```

mod heatmap;
mod metrics;

pub use heatmap::NodeHeatmap;
pub use metrics::{
    Histogram, MetricsRegistry, DIST_COMPS_BUCKETS, LATENCY_US_BUCKETS, OCCUPANCY_BUCKETS,
};

use crate::hardware::WorkCounters;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How much telemetry a component records.  `Copy`, so it travels through
/// the `Copy` configuration structs ([`crate::index::NeighborIndexBuilder`],
/// streaming configs) like every other knob.
///
/// ```
/// use rtcore::telemetry::TelemetryConfig;
///
/// // Off is the default and costs nothing.
/// assert_eq!(TelemetryConfig::default(), TelemetryConfig::Off);
/// assert!(!TelemetryConfig::Off.enabled());
/// assert!(TelemetryConfig::Spans.enabled());
/// // Only Profile turns on the per-node heatmap accumulator.
/// assert!(!TelemetryConfig::Spans.heatmap_enabled());
/// assert!(TelemetryConfig::Profile.heatmap_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// Record nothing; compiles to the pre-telemetry code paths.
    #[default]
    Off,
    /// Record phase spans and metrics (no per-node accumulation).
    Spans,
    /// Spans and metrics plus the per-node [`NodeHeatmap`] accumulator —
    /// adds one counted store per node visit, so keep it off outside
    /// profiling runs.
    Profile,
}

impl TelemetryConfig {
    /// True when any recording happens at all.
    pub fn enabled(self) -> bool {
        self != TelemetryConfig::Off
    }

    /// True when the per-node visit heatmap accumulates.
    pub fn heatmap_enabled(self) -> bool {
        self == TelemetryConfig::Profile
    }
}

/// The pipeline phase a [`Span`] scopes — the fixed taxonomy every
/// component records against, so traces from the index, the clustering
/// engine and the streaming layer compose into one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Binary BVH construction (compaction pass + builder), whichever
    /// builder the device uses.
    LbvhBuild,
    /// Collapse of the binary tree into BVH4 wide nodes.
    Bvh4Collapse,
    /// Morton sorting a launch's queries into coherent order.
    MortonReorder,
    /// Stage 1: the batched neighbour-count launch over all points.
    Stage1Launch,
    /// Stage 2: the union-find cluster-formation launch over core points
    /// (one launch on flat and sharded scenes alike) and the border-claim
    /// unions after it.
    Stage2UnionFind,
    /// In-place BVH refit after removals/updates.
    Refit,
    /// Full rebuild of the acceleration structure.
    Rebuild,
    /// One streaming window slide (ingest + evict bookkeeping).
    StreamingSlide,
    /// Top-level (TLAS) build over the shard instances of a sharded scene.
    TlasBuild,
    /// TLAS descent enumerating the BLASes a query packet overlaps.
    TlasVisit,
    /// A graceful-degradation step under memory pressure or fault
    /// recovery: evicting or quarantining a shard BLAS, or rebuilding one
    /// from quarantine.
    Degrade,
}

impl PhaseKind {
    /// Every phase, in taxonomy order.
    pub const ALL: [PhaseKind; 11] = [
        PhaseKind::LbvhBuild,
        PhaseKind::Bvh4Collapse,
        PhaseKind::MortonReorder,
        PhaseKind::Stage1Launch,
        PhaseKind::Stage2UnionFind,
        PhaseKind::Refit,
        PhaseKind::Rebuild,
        PhaseKind::StreamingSlide,
        PhaseKind::TlasBuild,
        PhaseKind::TlasVisit,
        PhaseKind::Degrade,
    ];

    /// Stable snake_case name used in trace events and summaries.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::LbvhBuild => "lbvh_build",
            PhaseKind::Bvh4Collapse => "bvh4_collapse",
            PhaseKind::MortonReorder => "morton_reorder",
            PhaseKind::Stage1Launch => "stage1_launch",
            PhaseKind::Stage2UnionFind => "stage2_union_find",
            PhaseKind::Refit => "refit",
            PhaseKind::Rebuild => "rebuild",
            PhaseKind::StreamingSlide => "streaming_slide",
            PhaseKind::TlasBuild => "tlas_build",
            PhaseKind::TlasVisit => "tlas_visit",
            PhaseKind::Degrade => "degrade",
        }
    }
}

/// The time source spans read.  Injectable so tests drive a deterministic
/// clock; production handles use the monotonic wall clock.
#[derive(Debug, Clone)]
pub enum Clock {
    /// `std::time::Instant` relative to the handle's creation.
    Monotonic {
        /// The instant timestamps are measured from.
        epoch: Instant,
    },
    /// A manually advanced nanosecond counter (deterministic tests).
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A monotonic clock starting now.
    pub fn monotonic() -> Clock {
        Clock::Monotonic {
            epoch: Instant::now(),
        }
    }

    /// A manual clock plus the shared cell that advances it: store
    /// nanoseconds into the cell and every subsequent `now_ns` reads them.
    pub fn manual() -> (Clock, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        (Clock::Manual(cell.clone()), cell)
    }

    /// Nanoseconds since the clock's epoch.
    // ordering: Relaxed — the manual clock cell is a single monotone value
    // with no guarded payload; tests that advance it do so from the same
    // thread that reads, and cross-thread skew only shifts span timestamps.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Monotonic { epoch } => epoch.elapsed().as_nanos() as u64,
            Clock::Manual(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

/// One recorded span: a closed phase interval with its work attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Which pipeline phase this span scoped.
    pub phase: PhaseKind,
    /// Start time, nanoseconds since the handle's clock epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Recording thread (small per-process ordinal, not the OS id).
    pub thread: u64,
    /// Nesting depth at open time (0 = top level on its thread).
    pub depth: u32,
    /// The work counters attributed to this span via
    /// [`Span::add_counters`].
    pub counters: WorkCounters,
}

/// Fixed-capacity span recorder: full rings overwrite the oldest record,
/// so steady-state recording never allocates.
#[derive(Debug)]
struct SpanRing {
    records: Vec<SpanRecord>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    next: usize,
    /// Spans overwritten because the ring was full.
    dropped: u64,
}

impl SpanRing {
    fn new(capacity: usize) -> SpanRing {
        SpanRing {
            records: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, record: SpanRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.next] = record;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records oldest-first.
    fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.records.len());
        out.extend_from_slice(&self.records[self.next..]);
        out.extend_from_slice(&self.records[..self.next]);
        out
    }
}

#[derive(Debug)]
struct Inner {
    config: TelemetryConfig,
    clock: Clock,
    ring: Mutex<SpanRing>,
    metrics: MetricsRegistry,
}

/// Default ring capacity: generous for per-launch spans without growing.
const DEFAULT_RING_CAPACITY: usize = 4096;

static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORDINAL: Cell<u64> = const { Cell::new(0) };
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

// ordering: Relaxed fetch_add — the global ordinal only needs uniqueness
// (atomicity), not ordering against any other memory.
fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|cell| {
        let v = cell.get();
        if v != 0 {
            v
        } else {
            let id = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
            id
        }
    })
}

/// The cloneable telemetry handle — all clones share one recorder, so
/// spans opened by the index build, the clustering stages and the caller
/// land in a single timeline.
///
/// A `Default` (or [`TelemetryConfig::Off`]) handle is *disabled*: every
/// operation is a no-op that reads no clock and takes no lock.
///
/// ```
/// use rtcore::telemetry::{Clock, PhaseKind, Telemetry, TelemetryConfig};
/// use std::sync::atomic::Ordering;
///
/// // A deterministic clock makes spans reproducible in tests.
/// let (clock, ticks) = Clock::manual();
/// let tel = Telemetry::with_clock(TelemetryConfig::Spans, clock);
/// let span = tel.span(PhaseKind::LbvhBuild);
/// ticks.store(1_500, Ordering::Relaxed); // 1.5 µs pass
/// drop(span);
/// let spans = tel.spans();
/// assert_eq!((spans[0].start_ns, spans[0].duration_ns), (0, 1_500));
///
/// // Disabled handles record nothing at all.
/// let off = Telemetry::new(TelemetryConfig::Off);
/// drop(off.span(PhaseKind::LbvhBuild));
/// assert!(off.spans().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A handle with the given config, a monotonic clock and the default
    /// ring capacity.  [`TelemetryConfig::Off`] yields a disabled handle.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry::with_clock(config, Clock::monotonic())
    }

    /// [`Telemetry::new`] with an injected clock.
    pub fn with_clock(config: TelemetryConfig, clock: Clock) -> Telemetry {
        Telemetry::with_clock_and_capacity(config, clock, DEFAULT_RING_CAPACITY)
    }

    /// Fully explicit constructor: config, clock, and ring capacity (the
    /// maximum number of retained spans; older spans are overwritten).
    pub fn with_clock_and_capacity(
        config: TelemetryConfig,
        clock: Clock,
        capacity: usize,
    ) -> Telemetry {
        if !config.enabled() {
            return Telemetry::disabled();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                config,
                clock,
                ring: Mutex::new(SpanRing::new(capacity.max(1))),
                metrics: MetricsRegistry::default(),
            })),
        }
    }

    /// The no-op handle (what `Default` also gives you).
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The config the handle was created with ([`TelemetryConfig::Off`]
    /// for disabled handles).
    pub fn config(&self) -> TelemetryConfig {
        self.inner
            .as_ref()
            .map_or(TelemetryConfig::Off, |i| i.config)
    }

    /// Open a phase span.  The returned guard records itself on drop;
    /// attach a work delta with [`Span::add_counters`] before then.  On a
    /// disabled handle this is free: no clock read, no lock, no record.
    pub fn span(&self, phase: PhaseKind) -> Span<'_> {
        match &self.inner {
            None => Span {
                inner: None,
                phase,
                start_ns: 0,
                depth: 0,
                counters: WorkCounters::ZERO,
            },
            Some(inner) => {
                let depth = SPAN_DEPTH.with(|d| {
                    let v = d.get();
                    d.set(v + 1);
                    v
                });
                Span {
                    inner: Some(inner),
                    phase,
                    start_ns: inner.clock.now_ns(),
                    depth,
                    counters: WorkCounters::ZERO,
                }
            }
        }
    }

    /// Current reading of the handle's clock (0 on a disabled handle).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// Snapshot of the recorded spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.lock().snapshot())
    }

    /// Spans lost to ring-buffer overwrite.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.lock().dropped)
    }

    /// Total recorded wall time of one phase, in nanoseconds.
    pub fn phase_total_ns(&self, phase: PhaseKind) -> u64 {
        self.spans()
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration_ns)
            .sum()
    }

    /// Export every recorded span as Chrome-trace JSON (the
    /// `chrome://tracing` / Perfetto "JSON array with metadata" format:
    /// one complete `"ph":"X"` event per span, timestamps in
    /// microseconds).  Write it to a `.json` file and open it in
    /// [Perfetto](https://ui.perfetto.dev).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(256 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"rtdbscan\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}",
                s.phase.name(),
                s.start_ns as f64 / 1_000.0,
                s.duration_ns as f64 / 1_000.0,
                s.thread,
                s.depth,
            ));
            for (label, value) in s.counters.summary_rows() {
                out.push_str(&format!(",\"{label}\":{value}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable per-phase aggregation: span count, total/mean wall
    /// time, and the summed non-zero work counters.
    pub fn summary_table(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>6} {:>12} {:>12}  counters\n",
            "phase", "spans", "total_ms", "mean_ms"
        ));
        for phase in PhaseKind::ALL {
            let mut count = 0u64;
            let mut total_ns = 0u64;
            let mut counters = WorkCounters::ZERO;
            for s in spans.iter().filter(|s| s.phase == phase) {
                count += 1;
                total_ns += s.duration_ns;
                counters += s.counters;
            }
            if count == 0 {
                continue;
            }
            let total_ms = total_ns as f64 / 1e6;
            let rows = counters.summary_rows();
            let detail: Vec<String> = rows
                .iter()
                .map(|(label, value)| format!("{label}={value}"))
                .collect();
            out.push_str(&format!(
                "{:<18} {:>6} {:>12.3} {:>12.3}  {}\n",
                phase.name(),
                count,
                total_ms,
                total_ms / count as f64,
                detail.join(" "),
            ));
        }
        out
    }
}

/// RAII guard for one phase interval; see [`Telemetry::span`].  Records a
/// [`SpanRecord`] when dropped (no-op for disabled handles).
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; bind it with `let`"]
pub struct Span<'a> {
    inner: Option<&'a Inner>,
    phase: PhaseKind,
    start_ns: u64,
    depth: u32,
    counters: WorkCounters,
}

impl Span<'_> {
    /// Attribute a work delta to this span (accumulates across calls).
    /// Free on disabled handles.
    pub fn add_counters(&mut self, delta: WorkCounters) {
        if self.inner.is_some() {
            self.counters += delta;
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner else { return };
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end_ns = inner.clock.now_ns();
        inner.ring.lock().push(SpanRecord {
            phase: self.phase,
            start_ns: self.start_ns,
            duration_ns: end_ns.saturating_sub(self.start_ns),
            thread: thread_ordinal(),
            depth: self.depth,
            counters: self.counters,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_handle() -> (Telemetry, Arc<AtomicU64>) {
        let (clock, ticks) = Clock::manual();
        (Telemetry::with_clock(TelemetryConfig::Spans, clock), ticks)
    }

    #[test]
    fn deterministic_clock_drives_span_times() {
        let (tel, ticks) = manual_handle();
        ticks.store(100, Ordering::Relaxed);
        let span = tel.span(PhaseKind::LbvhBuild);
        ticks.store(350, Ordering::Relaxed);
        drop(span);
        let spans = tel.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ns, 100);
        assert_eq!(spans[0].duration_ns, 250);
        assert_eq!(spans[0].depth, 0);
    }

    #[test]
    fn nested_spans_record_children_first_with_increasing_depth() {
        let (tel, ticks) = manual_handle();
        let outer = tel.span(PhaseKind::Stage1Launch);
        ticks.store(10, Ordering::Relaxed);
        let inner = tel.span(PhaseKind::MortonReorder);
        ticks.store(20, Ordering::Relaxed);
        drop(inner);
        ticks.store(40, Ordering::Relaxed);
        drop(outer);

        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        // Children close (and record) before their parents.
        assert_eq!(spans[0].phase, PhaseKind::MortonReorder);
        assert_eq!(spans[1].phase, PhaseKind::Stage1Launch);
        assert_eq!((spans[0].depth, spans[1].depth), (1, 0));
        // The child's interval nests inside the parent's.
        assert!(spans[0].start_ns >= spans[1].start_ns);
        assert!(
            spans[0].start_ns + spans[0].duration_ns <= spans[1].start_ns + spans[1].duration_ns
        );
        // Depth bookkeeping unwinds fully.
        let reopened = tel.span(PhaseKind::Refit);
        assert_eq!(reopened.depth, 0);
    }

    #[test]
    fn counters_accumulate_onto_the_span() {
        let (tel, _ticks) = manual_handle();
        let mut span = tel.span(PhaseKind::Stage2UnionFind);
        span.add_counters(WorkCounters {
            union_ops: 5,
            ..WorkCounters::ZERO
        });
        span.add_counters(WorkCounters {
            union_ops: 2,
            find_ops: 9,
            ..WorkCounters::ZERO
        });
        drop(span);
        let spans = tel.spans();
        assert_eq!(spans[0].counters.union_ops, 7);
        assert_eq!(spans[0].counters.find_ops, 9);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.config(), TelemetryConfig::Off);
        let mut span = tel.span(PhaseKind::LbvhBuild);
        span.add_counters(WorkCounters {
            rays: 1,
            ..WorkCounters::ZERO
        });
        drop(span);
        assert!(tel.spans().is_empty());
        assert!(tel.metrics().is_none());
        assert_eq!(
            tel.chrome_trace_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let (clock, ticks) = Clock::manual();
        let tel = Telemetry::with_clock_and_capacity(TelemetryConfig::Spans, clock, 3);
        for i in 0..5u64 {
            ticks.store(i * 100, Ordering::Relaxed);
            drop(tel.span(PhaseKind::Refit));
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(tel.dropped_spans(), 2);
        // Oldest-first snapshot of the last three records.
        assert_eq!(spans[0].start_ns, 200);
        assert_eq!(spans[2].start_ns, 400);
    }

    #[test]
    fn clones_share_one_recorder() {
        let (tel, _ticks) = manual_handle();
        let clone = tel.clone();
        drop(clone.span(PhaseKind::Rebuild));
        drop(tel.span(PhaseKind::Refit));
        assert_eq!(tel.spans().len(), 2);
        assert_eq!(clone.spans().len(), 2);
    }

    #[test]
    fn phase_names_are_stable_and_unique() {
        let mut names: Vec<&str> = PhaseKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PhaseKind::ALL.len());
    }

    #[test]
    fn summary_table_lists_only_recorded_phases() {
        let (tel, ticks) = manual_handle();
        let mut span = tel.span(PhaseKind::Stage1Launch);
        span.add_counters(WorkCounters {
            rays: 7,
            ..WorkCounters::ZERO
        });
        ticks.store(2_000_000, Ordering::Relaxed);
        drop(span);
        let table = tel.summary_table();
        assert!(table.contains("stage1_launch"));
        assert!(table.contains("rays=7"));
        assert!(!table.contains("refit"));
    }
}
