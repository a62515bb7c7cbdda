//! End-to-end RT-DBSCAN benchmark: batch clustering and sliding-window
//! streaming, split into layers by spans taken around public calls.
//!
//! `run.py` in this directory builds this binary and is the entry point;
//! `README.md` documents the workloads, every metric and the two passes.
//! The binary prints a human-readable report and, as its last line of
//! standard output, one JSON record that `run.py` turns into the result.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans-out <file>]`

use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtdbscan::classic::ClassicDbscan;
use rtdbscan::engine::{ClusterEngine, ClusterSession};
use rtdbscan::labels::Clustering;
use rtdbscan::metrics::same_clustering;
use rtdbscan::runner::RunResult;
use rtdbscan::DbscanParams;
use rtdbscan_datasets::stream::{PointStream, StreamConfig};
use rtdbscan_datasets::{generate, PaperDataset};
use rtdbscan_stream::{IngestReport, StreamingClusterer, StreamingConfig, WindowPolicy};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Engine (or clusterer) set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed operations a batch pass makes, whatever `--seconds` says.
const MIN_BATCH_RUNS: usize = 3;
/// Fewest traced repetitions, so that exact counters can be compared.
const MIN_TRACED_REPS: usize = 2;
/// Fewest untraced/traced pairs behind a batch workload's span coverage
/// check: with fewer, the machine's noise alone can trip it.
const MIN_COVERAGE_PAIRS: usize = 12;

const STREAM_WINDOW: usize = 20_000;
const STREAM_BATCH: usize = 500;
/// Ingests that fill the window.
const FILL_BATCHES: usize = STREAM_WINDOW / STREAM_BATCH;
const INGESTS_PER_SNAPSHOT: usize = 4;
/// Snapshot cycles per stream repetition (after the window fill).
const STREAM_CYCLES: usize = 60;
/// Fewest timed snapshots a stream pass makes: p90 then has at least ten
/// samples above it.
const MIN_SNAPSHOTS: usize = 100;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        spans_out: map.get("spans-out").cloned(),
    })
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around calls into each layer
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span log; written out once, when the benchmark ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// Open a span; close it with [`Tracer::end`].  A span without a
    /// parent starts a new operation; children share their parent's op id.
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    /// Each span's duration minus the part its children cover, by name.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.entry(s.name).or_default().push(self.secs(i) - child[i]);
        }
        out
    }

    /// Chrome trace-event JSON (loadable in Perfetto), one complete event
    /// per span, with the parent span and op id as arguments.
    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.start.as_secs_f64() * 1e6,
                (sp.end - sp.start).as_secs_f64() * 1e6,
                i,
                parent,
                sp.op
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}

/// The process's peak resident memory so far (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

// ---------------------------------------------------------------------------
// Statistics and the result record
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `xs` (`q` in 0..=1); NaN when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Operation accounting and every metric one run reports.
#[derive(Default)]
struct Record {
    attempted: u64,
    failed: u64,
    /// False once a check that is not tied to one operation fails.
    invalid: bool,
    metrics: BTreeMap<String, Metric>,
    notes: Vec<String>,
}

impl Record {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Count one operation; `ok` is false when it failed for any reason.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("FAILED: {msg}");
            self.notes.push(msg);
        }
    }

    fn invalid(&mut self, msg: String) {
        eprintln!("INVALID: {msg}");
        self.invalid = true;
        self.notes.push(msg);
    }

    fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"env\":{{\"rayon_workers\":{},\"simd\":\"{}\"}},\"metrics\":{{",
            u8::from(trace),
            self.failed == 0 && !self.invalid,
            self.attempted,
            self.failed,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            rtcore::simd::detect_simd().name(),
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{}\"{name}\":{{\"value\":{value},\"unit\":\"{}\",\"samples\":{}}}",
                if i == 0 { "" } else { "," },
                m.unit,
                m.samples
            );
        }
        s.push_str("},\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            let escaped = n.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(s, "{}\"{escaped}\"", if i == 0 { "" } else { "," });
        }
        s.push_str("]}");
        s
    }
}

/// Run one operation, turning a panic into an error message.
fn attempt<T>(f: impl FnOnce() -> rtcore::Result<T>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(_) => Err("panic".to_string()),
    }
}

/// Exact work counters that must repeat from one repetition to the next,
/// by name.
type Fingerprint = Vec<(String, u64)>;

fn build_fingerprint(c: &WorkCounters) -> Fingerprint {
    vec![
        ("build.build_prims".into(), c.build_prims),
        ("build.build_node_ops".into(), c.build_node_ops),
        ("build.build_sort_ops".into(), c.build_sort_ops),
    ]
}

/// A batch repetition's exact counters.  `find_ops` is left out:
/// compare-and-swap retries in the concurrent union-find vary it.
fn batch_fingerprint(
    build: &WorkCounters,
    stage1: &WorkCounters,
    stage2: &WorkCounters,
) -> Fingerprint {
    let mut f = build_fingerprint(build);
    for (stage, c) in [("stage1", stage1), ("stage2", stage2)] {
        for (name, v) in [
            ("rays", c.rays),
            ("dist_comps", c.dist_comps),
            ("wide_node_visits", c.wide_node_visits),
            ("tlas_node_visits", c.tlas_node_visits),
            ("union_ops", c.union_ops),
        ] {
            f.push((format!("{stage}.{name}"), v));
        }
    }
    f
}

/// Compare against the first repetition's fingerprint (stored on first
/// use); describes the counters that drifted, if any.
fn drift_problem(first: &mut Option<Fingerprint>, now: Fingerprint) -> Option<String> {
    let first = first.get_or_insert_with(|| now.clone());
    let drift: Vec<String> = first
        .iter()
        .zip(&now)
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{} {} -> {}", a.0, a.1, b.1))
        .collect();
    (!drift.is_empty()).then(|| format!("exact counters drifted: {}", drift.join(", ")))
}

// ---------------------------------------------------------------------------
// Batch layers: `ClusterEngine::run`, and the same run split into
// `build_index`, `batch_neighbor_counts` and `ClusterSession::cluster`
// ---------------------------------------------------------------------------

struct BatchSpec {
    dataset: PaperDataset,
    n: usize,
    eps: f32,
    min_pts: usize,
    shard_size: Option<usize>,
}

fn build_engine(spec: &BatchSpec) -> Result<ClusterEngine, String> {
    let mut b = ClusterEngine::builder().eps(spec.eps).min_pts(spec.min_pts);
    if let Some(s) = spec.shard_size {
        b = b.shard_size(s);
    }
    b.build().map_err(|e| e.to_string())
}

/// One batch input, its ClassicDbscan reference, and what later results
/// are checked against.
struct Batch {
    engine: ClusterEngine,
    params: DbscanParams,
    points: Vec<Point3>,
    reference: Clustering,
    /// Labels of the first result that passed `same_clustering`.
    first_labels: Option<Vec<i64>>,
    first_run: Option<Fingerprint>,
    first_traced: Option<Fingerprint>,
}

impl Batch {
    fn new(engine: ClusterEngine, points: Vec<Point3>) -> Result<Self, String> {
        let params = engine.params();
        let t = Instant::now();
        let reference =
            ClassicDbscan::cluster(&points, params).map_err(|e| format!("reference: {e}"))?;
        println!(
            "reference: ClassicDbscan over {} points in {:.2} s ({} clusters, {} core)",
            points.len(),
            secs(t.elapsed()),
            reference.num_clusters(),
            reference.core_count()
        );
        Ok(Batch {
            engine,
            params,
            points,
            reference,
            first_labels: None,
            first_run: None,
            first_traced: None,
        })
    }

    /// `same_clustering` against the reference.  A result bit-identical to
    /// one that already passed is not checked again: the answer would be
    /// the same.
    fn valid(&mut self, c: &Clustering) -> bool {
        if self.first_labels.as_ref() == Some(&c.labels) && c.core == self.reference.core {
            return true;
        }
        let ok = same_clustering(c, &self.reference, &self.points, self.params);
        if ok && self.first_labels.is_none() {
            self.first_labels = Some(c.labels.clone());
        }
        ok
    }

    /// Check one `run` result outside the timed region and count the op.
    fn check_run(&mut self, rec: &mut Record, what: &str, r: Result<RunResult, String>) {
        let problem = match &r {
            Err(e) => Some(e.clone()),
            Ok(r) if !self.valid(&r.clustering) => Some("result differs from ClassicDbscan".into()),
            Ok(r) => {
                let c = &r.counters;
                let f = batch_fingerprint(&c.build, &c.core_identification, &c.cluster_formation);
                drift_problem(&mut self.first_run, f)
            }
        };
        rec.op(problem.is_none(), || {
            format!("{what}: {}", problem.unwrap_or_default())
        });
    }

    /// Untraced runs until their run time reaches `budget` seconds (at
    /// least `MIN_BATCH_RUNS`); returns each run's seconds.
    fn timed_runs(&mut self, rec: &mut Record, budget: f64) -> Vec<f64> {
        let mut run_s = Vec::new();
        while run_s.len() < MIN_BATCH_RUNS || run_s.iter().sum::<f64>() < budget {
            let t = Instant::now();
            let r = attempt(|| self.engine.run(&self.points));
            run_s.push(secs(t.elapsed()));
            self.check_run(rec, "timed run", r);
        }
        run_s
    }

    /// Paired repetitions: an untraced `run` and the same work traced as
    /// its layer calls (at least `min_pairs` pairs, until the pairs' op
    /// time reaches `budget` seconds).  Stage 2 runs on one session built
    /// before the pairs.  Pairing cancels the drift of a shared machine out
    /// of the traced-versus-untraced comparison.  Puts the `bvh`, `index`,
    /// `stages` and `engine` metrics and returns one [`Pair`] per
    /// repetition.
    fn paired(
        &mut self,
        tr: &mut Tracer,
        rec: &mut Record,
        budget: f64,
        min_pairs: usize,
    ) -> Result<Vec<Pair>, String> {
        let (mut bvh_s, mut index_s, mut stages_s) = (vec![], vec![], vec![]);
        let mut pairs: Vec<Pair> = Vec::new();
        let mut layer = LayerCounts::default();
        let (mut identical, mut failures) = (0usize, 0usize);
        // One session serves every pair: `cluster` pays only for stage 2.
        let session = attempt(|| self.engine.session(&self.points))?;
        while failures < MIN_TRACED_REPS
            && (pairs.len() < min_pairs
                || pairs.iter().map(|p| p.untraced + p.traced).sum::<f64>() < budget)
        {
            let untraced_run = |b: &Batch| {
                let t = Instant::now();
                let r = attempt(|| b.engine.run(&b.points));
                (r, secs(t.elapsed()))
            };
            // Alternate which twin runs first, so that neither always runs
            // in the other's wake.
            let traced_first = pairs.len() % 2 == 1;
            let mut traced =
                || attempt(|| traced_batch_op(tr, &self.engine, &self.points, &session));
            let (traced, (r, untraced)) = if traced_first {
                let t = traced();
                (t, untraced_run(self))
            } else {
                let u = untraced_run(self);
                (traced(), u)
            };
            self.check_run(rec, "untraced run", r);
            let t = match traced {
                Ok(t) => t,
                Err(e) => {
                    failures += 1;
                    rec.op(false, || format!("traced op: {e}"));
                    continue;
                }
            };
            bvh_s.push(tr.secs(t.bvh));
            index_s.push(tr.secs(t.index));
            stages_s.push(tr.secs(t.stages));
            pairs.push(Pair {
                untraced,
                traced: tr.secs(t.op),
                spans: tr.secs(t.bvh) + tr.secs(t.index) + tr.secs(t.stages),
            });
            let r = &t.result;
            let counts_match = t.counts == session.neighbor_counts();
            let valid = self.valid(&r.clustering);
            let f = batch_fingerprint(&t.build, &t.stage1, &r.counters.cluster_formation);
            let drift = drift_problem(&mut self.first_traced, f);
            let ok = counts_match && valid && drift.is_none();
            rec.op(ok, || {
                format!(
                    "traced op: counts match session {counts_match}, valid {valid}, {}",
                    drift.unwrap_or_default()
                )
            });
            if self.first_labels.as_ref() == Some(&r.clustering.labels) {
                identical += 1;
            }
            layer.add(&t, self.points.len() as f64);
        }
        let reps = pairs.len();
        if reps == 0 {
            return Err("no traced repetition succeeded".into());
        }
        rec.put("bvh.build_s", median(&bvh_s), "s", reps);
        rec.put("index.stage1_s", median(&index_s), "s", reps);
        rec.put("stages.stage2_s", median(&stages_s), "s", reps);
        let unaccounted: Vec<f64> = pairs.iter().map(|p| p.untraced - p.spans).collect();
        rec.put("engine.unaccounted_s", median(&unaccounted), "s", reps);
        rec.put(
            "stages.labels_identical_frac",
            identical as f64 / reps as f64,
            "ratio",
            reps,
        );
        layer.report(rec, reps, median(&index_s), median(&stages_s));
        Ok(pairs)
    }
}

/// One untraced operation and its traced twin: the untraced time, the
/// traced op time and the part of it the layer spans cover (seconds).
struct Pair {
    untraced: f64,
    traced: f64,
    spans: f64,
}

struct TracedBatch {
    op: usize,
    bvh: usize,
    index: usize,
    stages: usize,
    build: WorkCounters,
    device_bytes: u64,
    stage1: WorkCounters,
    counts: Vec<u64>,
    result: RunResult,
}

/// One traced repetition under an `engine` span: `build_index`, then
/// `batch_neighbor_counts` over all points on that index, then
/// `ClusterSession::cluster` on a session built beforehand.
fn traced_batch_op(
    tr: &mut Tracer,
    engine: &ClusterEngine,
    points: &[Point3],
    session: &ClusterSession,
) -> rtcore::Result<TracedBatch> {
    let eps = engine.params().eps;
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let root = tr.begin("engine", None);
    let bvh = tr.begin("bvh", Some(root));
    let index = engine.build_index(points);
    tr.end(bvh);
    let index = index.inspect_err(|_| tr.end(root))?;
    let mut stage1 = WorkCounters::ZERO;
    let idx = tr.begin("index", Some(root));
    index.batch_neighbor_counts(points, eps, true, None, &mut stage1, &counts);
    tr.end(idx);
    let stages = tr.begin("stages", Some(root));
    let result = session.cluster(engine.params().min_pts);
    tr.end(stages);
    let (build, device_bytes) = (index.build_counters(), index.device_bytes());
    drop(index);
    tr.end(root);
    Ok(TracedBatch {
        op: root,
        bvh,
        index: idx,
        stages,
        build,
        device_bytes,
        stage1,
        counts: counts.into_iter().map(AtomicU64::into_inner).collect(),
        result: result?,
    })
}

/// Per-repetition layer counters of the traced batch pass, summed.
#[derive(Default)]
struct LayerCounts {
    build: WorkCounters,
    device_mb: f64,
    stage1: WorkCounters,
    neighbours: u64,
    stage2: WorkCounters,
    core_frac: f64,
    queries: f64,
}

impl LayerCounts {
    fn add(&mut self, t: &TracedBatch, n: f64) {
        self.build += t.build;
        self.device_mb += t.device_bytes as f64 / (1024.0 * 1024.0);
        self.stage1 += t.stage1;
        self.neighbours += t.counts.iter().sum::<u64>();
        self.stage2 += t.result.counters.cluster_formation;
        self.core_frac += t.result.clustering.core_count() as f64 / n;
        self.queries += n;
    }

    /// Report per-repetition means (exact counts repeat, so for them the
    /// mean is the count).
    fn report(&self, rec: &mut Record, reps: usize, stage1_s: f64, stage2_s: f64) {
        let k = reps as f64;
        let per = |v: u64| v as f64 / k;
        let (b, s1, s2) = (&self.build, &self.stage1, &self.stage2);
        rec.put("bvh.build_prims", per(b.build_prims), "count", reps);
        rec.put("bvh.build_node_ops", per(b.build_node_ops), "count", reps);
        rec.put("bvh.build_sort_ops", per(b.build_sort_ops), "count", reps);
        rec.put("bvh.device_mb", self.device_mb / k, "MB", reps);
        rec.put("index.rays", per(s1.rays), "count", reps);
        rec.put("index.dist_comps", per(s1.dist_comps), "count", reps);
        rec.put(
            "index.wide_node_visits",
            per(s1.wide_node_visits),
            "count",
            reps,
        );
        rec.put(
            "index.tlas_node_visits",
            per(s1.tlas_node_visits),
            "count",
            reps,
        );
        rec.put("index.blas_launches", per(s1.blas_launches), "count", reps);
        let ns_per_comp = stage1_s * 1e9 / per(s1.dist_comps);
        rec.put("index.ns_per_dist_comp", ns_per_comp, "ns", reps);
        let visits = s1.wide_node_visits as f64 / self.queries;
        rec.put("index.wide_visits_per_query", visits, "count", reps);
        let hits = self.neighbours as f64 / s1.dist_comps as f64;
        rec.put("index.hit_ratio", hits, "ratio", reps);
        rec.put("stages.union_ops", per(s2.union_ops), "count", reps);
        rec.put("stages.find_ops", per(s2.find_ops), "count", reps);
        rec.put("stages.dist_comps", per(s2.dist_comps), "count", reps);
        let ns_per_find = stage2_s * 1e9 / per(s2.find_ops);
        rec.put("stages.ns_per_find", ns_per_find, "ns", reps);
        rec.put("stages.core_frac", self.core_frac / k, "ratio", reps);
    }
}

// ---------------------------------------------------------------------------
// Stream layer: a closed loop over one StreamingClusterer
// ---------------------------------------------------------------------------

/// Timings of a stream pass's snapshot cycles.
#[derive(Default)]
struct StreamTimes {
    ingest_s: Vec<f64>,
    refit_s: Vec<f64>,
    rebuild_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    result_s: Vec<f64>,
    cycle_s: Vec<f64>,
    points: usize,
}

impl StreamTimes {
    /// Ingest plus snapshot seconds over all cycles.
    fn busy_s(&self) -> f64 {
        self.cycle_s.iter().sum()
    }
}

/// The exact stream counters at a snapshot, compared across repetitions.
fn stream_fingerprint(c: &StreamingClusterer) -> Fingerprint {
    let s = c.stats();
    let (build, stage1, stage2) = c.phase_counters();
    let mut f = build_fingerprint(&build);
    f.extend([
        ("refits".into(), s.refits),
        ("rebuilds".into(), s.rebuilds),
        ("dirty_snapshots".into(), s.dirty_snapshots),
        ("stage1.dist_comps".into(), stage1.dist_comps),
        ("stage2.dist_comps".into(), stage2.dist_comps),
    ]);
    f
}

/// A replayable stream: every repetition starts a fresh clusterer, fills
/// the window, then runs `cycles` snapshot cycles over the same batches.
struct Stream {
    batches: Vec<Vec<(Point3, f64)>>,
    params: DbscanParams,
    cycles: usize,
    /// Per snapshot slot (0 = the fill's snapshot, k = cycle k): the exact
    /// counters of the first repetition, and the hash of the verified
    /// replay's snapshot (labels, core flags and window).
    first: Vec<Option<Fingerprint>>,
    verified: Vec<Option<u64>>,
    /// True while the verification replay runs.
    replaying: bool,
    replayed: bool,
    /// Snapshots seen before the replay: (slot, hash, exact counters).
    pending: Vec<(usize, u64, Fingerprint)>,
}

/// Content hash of a snapshot and the window it labels.
fn snapshot_hash(s: &Clustering, window: &[Point3]) -> u64 {
    let mut h = DefaultHasher::new();
    s.labels.hash(&mut h);
    s.core.hash(&mut h);
    for p in window {
        (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()).hash(&mut h);
    }
    h.finish()
}

impl Stream {
    fn new(points: Vec<Point3>, params: DbscanParams) -> Self {
        let config = StreamConfig {
            total_points: points.len(),
            batch_size: STREAM_BATCH,
            points_per_second: 1_000.0,
            seed: 0,
        };
        let batches: Vec<Vec<(Point3, f64)>> = PointStream::from_points(points, config)
            .map(|b| b.into_iter().map(|tp| (tp.point, tp.time)).collect())
            .collect();
        let cycles =
            (batches.len().saturating_sub(FILL_BATCHES) / INGESTS_PER_SNAPSHOT).min(STREAM_CYCLES);
        Stream {
            batches,
            params,
            cycles,
            first: vec![None; cycles + 1],
            verified: vec![None; cycles + 1],
            replaying: false,
            replayed: false,
            pending: Vec::new(),
        }
    }

    fn ingest(
        &self,
        c: &mut StreamingClusterer,
        batch: &[(Point3, f64)],
        rec: &mut Record,
    ) -> Option<IngestReport> {
        let r = attempt(|| c.ingest(batch));
        let ok = matches!(&r, Ok(rep) if rep.inserted == batch.len());
        rec.op(ok, || format!("ingest: {:?}", r.as_ref().err()));
        r.ok()
    }

    /// Set-up: a fresh clusterer, the window fill and its first snapshot.
    /// Returns the clusterer and the set-up seconds.
    fn setup(&mut self, rec: &mut Record) -> Result<(StreamingClusterer, f64), String> {
        let t = Instant::now();
        let config = StreamingConfig::new(self.params, WindowPolicy::Count(STREAM_WINDOW));
        let mut c = attempt(|| StreamingClusterer::new(config))?;
        for b in &self.batches[..FILL_BATCHES] {
            self.ingest(&mut c, b, rec).ok_or("window fill failed")?;
        }
        let snap = attempt(|| Ok(c.snapshot()));
        let elapsed = secs(t.elapsed());
        self.check_snapshot(&c, snap, 0, rec);
        Ok((c, elapsed))
    }

    /// Check one snapshot.  During the verification replay it is compared
    /// with ClassicDbscan over the live window.  Every other repetition
    /// replays the same stream through a sequential clusterer, so its
    /// snapshot must be bit-identical to the replay's at the same slot, and
    /// its exact counters must match the first repetition's.
    fn check_snapshot(
        &mut self,
        c: &StreamingClusterer,
        snap: Result<Clustering, String>,
        slot: usize,
        rec: &mut Record,
    ) {
        let s = match snap {
            Ok(s) => s,
            Err(e) => return rec.op(false, || format!("snapshot {slot}: {e}")),
        };
        let window = c.window_points();
        let hash = snapshot_hash(&s, &window);
        let counters = stream_fingerprint(c);
        if !self.replaying {
            self.pending.push((slot, hash, counters));
            if self.replayed {
                self.settle(rec);
            }
            return;
        }
        let problem = match ClassicDbscan::cluster(&window, self.params) {
            Err(e) => Some(format!("reference: {e}")),
            Ok(r) if !same_clustering(&s, &r, &window, self.params) => {
                Some("differs from ClassicDbscan".to_string())
            }
            Ok(_) => {
                self.verified[slot] = Some(hash);
                drift_problem(&mut self.first[slot], counters)
            }
        };
        rec.op(problem.is_none(), || {
            format!("replay snapshot {slot}: {}", problem.unwrap_or_default())
        });
    }

    /// Settle the snapshots seen so far against the verified replay.
    fn settle(&mut self, rec: &mut Record) {
        for (slot, hash, counters) in std::mem::take(&mut self.pending) {
            let problem = if self.verified[slot] == Some(hash) {
                drift_problem(&mut self.first[slot], counters)
            } else {
                Some("not bit-identical to the verified replay".to_string())
            };
            rec.op(problem.is_none(), || {
                format!("snapshot {slot}: {}", problem.unwrap_or_default())
            });
        }
    }

    /// The verification replay (untimed): one repetition whose every
    /// snapshot is checked against ClassicDbscan.
    fn verify_replay(&mut self, rec: &mut Record) -> Result<(), String> {
        let t = Instant::now();
        self.replaying = true;
        let out = self
            .setup(rec)
            .and_then(|(mut c, _)| self.cycles(&mut c, rec, &mut StreamTimes::default(), None));
        self.replaying = false;
        self.replayed = true;
        self.settle(rec);
        println!(
            "reference: ClassicDbscan over {} stream snapshots in {:.2} s",
            self.cycles + 1,
            secs(t.elapsed())
        );
        out
    }

    /// One repetition's snapshot cycles.
    fn cycles(
        &mut self,
        c: &mut StreamingClusterer,
        rec: &mut Record,
        times: &mut StreamTimes,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), String> {
        for k in 0..self.cycles {
            self.cycle(k, c, rec, times, tr.as_deref_mut())?;
        }
        Ok(())
    }

    /// Snapshot cycle `k`: its ingests, then the snapshot.  With a tracer,
    /// each call gets a span under one `cycle` span.
    fn cycle(
        &mut self,
        k: usize,
        c: &mut StreamingClusterer,
        rec: &mut Record,
        times: &mut StreamTimes,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let begin = |tr: &mut Option<&mut Tracer>, name, parent| {
            tr.as_deref_mut().map(|t| t.begin(name, parent))
        };
        let end = |tr: &mut Option<&mut Tracer>, id: Option<usize>| {
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
                t.end(id);
            }
        };
        let root = begin(&mut tr, "cycle", None);
        let mut result_start = Instant::now();
        let mut busy = 0.0;
        for j in 0..INGESTS_PER_SNAPSHOT {
            let batch = &self.batches[FILL_BATCHES + k * INGESTS_PER_SNAPSHOT + j];
            let span = begin(&mut tr, "stream.ingest", root);
            result_start = Instant::now();
            let report = self.ingest(c, batch, rec);
            let dt = secs(result_start.elapsed());
            end(&mut tr, span);
            busy += dt;
            times.ingest_s.push(dt);
            times.points += batch.len();
            match report.ok_or("ingest failed")? {
                r if r.rebuilt => times.rebuild_s.push(dt),
                r if r.refitted => times.refit_s.push(dt),
                _ => {}
            }
        }
        let span = begin(&mut tr, "stream.snapshot", root);
        let t = Instant::now();
        let snap = attempt(|| Ok(c.snapshot()));
        let done = Instant::now();
        end(&mut tr, span);
        end(&mut tr, root);
        busy += secs(done - t);
        times.snapshot_s.push(secs(done - t));
        times.result_s.push(secs(done - result_start));
        times.cycle_s.push(busy);
        self.check_snapshot(c, snap, k + 1, rec);
        Ok(())
    }

    /// Untraced repetitions until their ingest-plus-snapshot time reaches
    /// `budget` seconds (at least `min_reps`, and `MIN_SNAPSHOTS`
    /// snapshots).  The verification replay runs after the first
    /// repetition, whose process high-water mark is read first.  Returns
    /// the cycle timings, each set-up's seconds and that peak memory (MiB).
    fn timed(
        &mut self,
        rec: &mut Record,
        budget: f64,
        min_reps: usize,
    ) -> Result<(StreamTimes, Vec<f64>, f64), String> {
        let mut times = StreamTimes::default();
        let (mut setup, mut peak_mb) = (Vec::new(), f64::NAN);
        while setup.len() < min_reps
            || times.snapshot_s.len() < MIN_SNAPSHOTS
            || times.busy_s() < budget
        {
            let (mut c, setup_s) = self.setup(rec)?;
            setup.push(setup_s);
            self.cycles(&mut c, rec, &mut times, None)?;
            if !self.replayed {
                peak_mb = peak_rss_mb()?;
                drop(c);
                self.verify_replay(rec)?;
            }
        }
        Ok((times, setup, peak_mb))
    }

    /// Traced repetitions (at least `min_reps`, until their busy time
    /// reaches `budget` seconds); with `paired`, each runs beside an
    /// untraced twin.  Puts the `stream` metrics; returns one [`Pair`] per
    /// paired cycle and the last repetition's final window.
    fn traced(
        &mut self,
        tr: &mut Tracer,
        rec: &mut Record,
        min_reps: usize,
        budget: f64,
        paired: bool,
    ) -> Result<(Vec<Pair>, Vec<Point3>), String> {
        let mut t = StreamTimes::default();
        let mut pairs = Vec::new();
        let (mut dirty, mut snaps, mut refits, mut rebuilds) = (0u64, 0u64, 0u64, 0u64);
        let (mut prims, mut comps, mut finds) = (0u64, 0u64, 0u64);
        let (mut device_mb, mut window) = (Vec::new(), Vec::new());
        let mut reps = 0usize;
        if !self.replayed {
            self.verify_replay(rec)?;
        }
        while reps < min_reps || t.busy_s() < budget {
            let (mut c, _) = self.setup(rec)?;
            // With `paired`, an untraced twin replays the same cycles,
            // interleaved cycle by cycle so that the machine's drift cancels
            // out of each pair; the twins take turns going first.
            let mut twin = if paired {
                Some(self.setup(rec)?.0)
            } else {
                None
            };
            let (s0, p0) = (c.stats(), c.phase_counters());
            for k in 0..self.cycles {
                let (span0, traced_first) = (tr.spans.len(), k % 2 == 1);
                let mut u = StreamTimes::default();
                if let (Some(twin), false) = (twin.as_mut(), traced_first) {
                    self.cycle(k, twin, rec, &mut u, None)?;
                }
                self.cycle(k, &mut c, rec, &mut t, Some(tr))?;
                if let (Some(twin), true) = (twin.as_mut(), traced_first) {
                    self.cycle(k, twin, rec, &mut u, None)?;
                }
                if let (Some(&untraced), Some(&traced)) = (u.cycle_s.last(), t.cycle_s.last()) {
                    let spans = (span0..tr.spans.len())
                        .filter(|&i| tr.spans[i].name.starts_with("stream."))
                        .map(|i| tr.secs(i))
                        .sum();
                    pairs.push(Pair {
                        untraced,
                        traced,
                        spans,
                    });
                }
            }
            drop(twin);
            let (s1, p1) = (c.stats(), c.phase_counters());
            dirty += s1.dirty_snapshots - s0.dirty_snapshots;
            snaps +=
                s1.dirty_snapshots + s1.clean_snapshots - (s0.dirty_snapshots + s0.clean_snapshots);
            refits += s1.refits - s0.refits;
            rebuilds += s1.rebuilds - s0.rebuilds;
            prims += p1.0.build_prims - p0.0.build_prims;
            comps += p1.1.dist_comps - p0.1.dist_comps;
            finds += p1.2.find_ops - p0.2.find_ops;
            device_mb.push(c.device_bytes() as f64 / (1024.0 * 1024.0));
            window = c.window_points();
            reps += 1;
        }
        let k = reps as f64;
        let kpts = t.points as f64 / 1000.0;
        let ms = |xs: &[f64], q: f64| quantile(xs, q) * 1e3;
        let (ni, ns) = (t.ingest_s.len(), t.snapshot_s.len());
        rec.put("stream.ingest_ms_p50", ms(&t.ingest_s, 0.5), "ms", ni);
        rec.put("stream.ingest_ms_p90", ms(&t.ingest_s, 0.9), "ms", ni);
        let refit_ms = ms(&t.refit_s, 0.5);
        rec.put(
            "stream.ingest_refit_ms_p50",
            refit_ms,
            "ms",
            t.refit_s.len(),
        );
        let rebuild_ms = ms(&t.rebuild_s, 0.5);
        rec.put(
            "stream.ingest_rebuild_ms_p50",
            rebuild_ms,
            "ms",
            t.rebuild_s.len(),
        );
        rec.put("stream.snapshot_ms_p50", ms(&t.snapshot_s, 0.5), "ms", ns);
        rec.put("stream.snapshot_ms_p90", ms(&t.snapshot_s, 0.9), "ms", ns);
        rec.put(
            "stream.dirty_snapshot_frac",
            dirty as f64 / snaps as f64,
            "ratio",
            ns,
        );
        rec.put(
            "stream.refits_per_1k_pts",
            refits as f64 / kpts,
            "count",
            reps,
        );
        rec.put(
            "stream.rebuilds_per_1k_pts",
            rebuilds as f64 / kpts,
            "count",
            reps,
        );
        rec.put("stream.build_prims", prims as f64 / k, "count", reps);
        rec.put("stream.stage1_dist_comps", comps as f64 / k, "count", reps);
        rec.put("stream.stage2_find_ops", finds as f64 / k, "count", reps);
        rec.put("stream.device_mb", median(&device_mb), "MB", reps);
        Ok((pairs, window))
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Tracing overhead and span coverage of the workload's own operations,
/// as medians over the pairs; coverage below 95% makes the run incorrect.
fn put_trace(rec: &mut Record, pairs: &[Pair]) {
    let coverage: Vec<f64> = pairs.iter().map(|p| p.spans / p.untraced).collect();
    let overhead: Vec<f64> = pairs.iter().map(|p| p.traced - p.untraced).collect();
    let coverage = median(&coverage);
    rec.put("trace.coverage", coverage, "ratio", pairs.len());
    rec.put("trace.overhead_s", median(&overhead), "s", pairs.len());
    if coverage < 0.95 {
        rec.invalid(format!(
            "layer spans cover {:.1}% of the untraced op time (< 95%)",
            100.0 * coverage
        ));
    }
}

fn finish_trace(tr: &Tracer, rec: &mut Record, args: &Args) -> Result<(), String> {
    for (name, v) in tr.self_times() {
        rec.put(&format!("self.{name}_s"), median(&v), "s", v.len());
    }
    if let Some(path) = &args.spans_out {
        tr.write(path).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn batch_workload(spec: BatchSpec, args: &Args, rec: &mut Record) -> Result<(), String> {
    let points = generate(spec.dataset, spec.n, args.seed);
    // Set-up: engine construction plus the first run.  The first one runs
    // in a fresh process, before the reference and every check, so the
    // process's high-water mark after it is the workload's peak memory.
    let set_up = |points: &[Point3]| {
        let t = Instant::now();
        let r = build_engine(&spec).and_then(|e| attempt(|| e.run(points)));
        (r, secs(t.elapsed()))
    };
    let (first, first_s) = set_up(&points);
    let peak_mb = peak_rss_mb()?;
    let mut b = Batch::new(build_engine(&spec)?, points)?;
    b.check_run(rec, "set-up run", first);
    if !args.trace {
        let mut setup = vec![first_s];
        while setup.len() < SETUP_REPS {
            let (r, s) = set_up(&b.points);
            setup.push(s);
            b.check_run(rec, "set-up run", r);
        }
        let run_s = b.timed_runs(rec, args.seconds);
        let (k, n) = (run_s.len(), b.points.len() as f64);
        rec.put("setup_s", median(&setup), "s", setup.len());
        rec.put("cluster_s_p50", median(&run_s), "s", k);
        rec.put("result_ms_p50", median(&run_s) * 1e3, "ms", k);
        let pts_per_s = n * k as f64 / run_s.iter().sum::<f64>();
        rec.put("stream_pts_per_s", pts_per_s, "points/s", k);
        rec.put("peak_rss_mb", peak_mb, "MB", 1);
        return Ok(());
    }

    let mut tr = Tracer::new();
    let pairs = b.paired(&mut tr, rec, args.seconds, MIN_COVERAGE_PAIRS)?;
    put_trace(rec, &pairs);
    // The stream layer, over this workload's own points.
    let n =
        (STREAM_WINDOW + STREAM_CYCLES * INGESTS_PER_SNAPSHOT * STREAM_BATCH).min(b.points.len());
    let mut stream = Stream::new(b.points[..n].to_vec(), b.params);
    stream.traced(&mut tr, rec, 1, 0.0, false)?;
    finish_trace(&tr, rec, args)
}

fn stream_workload(args: &Args, rec: &mut Record) -> Result<(), String> {
    let params = DbscanParams::new(0.1, 20).map_err(|e| e.to_string())?;
    let n = STREAM_WINDOW + STREAM_CYCLES * INGESTS_PER_SNAPSHOT * STREAM_BATCH;
    let mut stream = Stream::new(generate(PaperDataset::PortoTaxi, n, args.seed), params);
    if !args.trace {
        let (t, setup, peak_mb) = stream.timed(rec, args.seconds, SETUP_REPS)?;
        let (nc, nr) = (t.cycle_s.len(), t.result_s.len());
        rec.put("setup_s", median(&setup), "s", setup.len());
        rec.put("cluster_s_p50", median(&t.cycle_s), "s", nc);
        rec.put("result_ms_p50", median(&t.result_s) * 1e3, "ms", nr);
        rec.put("result_ms_p90", quantile(&t.result_s, 0.9) * 1e3, "ms", nr);
        let pts_per_s = t.points as f64 / t.busy_s();
        rec.put("stream_pts_per_s", pts_per_s, "points/s", t.ingest_s.len());
        rec.put("peak_rss_mb", peak_mb, "MB", 1);
        return Ok(());
    }

    let mut tr = Tracer::new();
    let (pairs, window) = stream.traced(&mut tr, rec, MIN_TRACED_REPS, args.seconds / 2.0, true)?;
    put_trace(rec, &pairs);
    // The batch layers, re-clustering the last window from scratch.
    let engine = ClusterEngine::builder()
        .eps(params.eps)
        .min_pts(params.min_pts)
        .build()
        .map_err(|e| e.to_string())?;
    let mut b = Batch::new(engine, window)?;
    let r = attempt(|| b.engine.run(&b.points));
    b.check_run(rec, "warm-up run", r);
    b.paired(&mut tr, rec, 0.0, MIN_TRACED_REPS)?;
    finish_trace(&tr, rec, args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <porto-dense|iono-sparse-sharded|porto-stream> \
                 --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]"
            );
            return ExitCode::from(2);
        }
    };
    let mut rec = Record::default();
    let out = match args.workload.as_str() {
        "porto-dense" => batch_workload(
            BatchSpec {
                dataset: PaperDataset::PortoTaxi,
                n: 100_000,
                eps: 0.1,
                min_pts: 20,
                shard_size: None,
            },
            &args,
            &mut rec,
        ),
        "iono-sparse-sharded" => batch_workload(
            BatchSpec {
                dataset: PaperDataset::Ionosphere3d,
                n: 1_000_000,
                eps: 0.2,
                min_pts: 10,
                shard_size: Some(65_536),
            },
            &args,
            &mut rec,
        ),
        "porto-stream" => stream_workload(&args, &mut rec),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = out {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let failed_frac = rec.failed as f64 / rec.attempted.max(1) as f64;
    rec.put("failed_frac", failed_frac, "ratio", rec.attempted as usize);
    for (name, m) in &rec.metrics {
        println!("{name:<32} {:>18.6} {:<9} n={}", m.value, m.unit, m.samples);
    }
    println!("ops attempted {} failed {}", rec.attempted, rec.failed);
    println!("{}", rec.to_json(&args.workload, args.seed, args.trace));
    ExitCode::SUCCESS
}
