//! `hotpath` — the steady-state query-path wall-clock trajectory.
//!
//! Runs a fixed-seed, fig6-style **stage-1 sweep** (every point's
//! ε-neighbour count, one batched launch over the whole dataset) on the
//! binary backend and on a matrix of wide-batched configurations — query
//! order × SIMD policy — and records wall-clock plus work counters to
//! `BENCH_hotpath.json` at the repository root.  Index build
//! time is excluded: the file tracks the *steady-state query path* that
//! the scratch-arena and coherence/SIMD work optimises, so later changes
//! can prove (or be caught regressing) the hot-path trajectory.
//!
//! # Usage
//!
//! ```text
//! cargo run --release -p rtdbscan-bench --bin hotpath                    # regenerate "current"
//! cargo run --release -p rtdbscan-bench --bin hotpath -- --record-baseline  # overwrite "baseline" too
//! cargo run --release -p rtdbscan-bench --bin hotpath -- --smoke        # tiny CI run, no file written
//! cargo run --release -p rtdbscan-bench --bin hotpath -- --sharded      # + 1M-point TLAS/BLAS sweep
//! cargo run --release -p rtdbscan-bench --bin hotpath -- --trace-out t.json  # + telemetry trace
//! cargo run --release -p rtdbscan-bench --bin hotpath -- --heatmap      # + node-visit heatmap
//! ```
//!
//! `--trace-out <path>` re-runs stage 1 on the tuned wide configuration
//! with telemetry spans enabled and writes the Chrome-trace (Perfetto
//! loadable) JSON to `<path>`; `--heatmap` additionally profiles per-node
//! visit frequencies and prints the per-depth distribution.  On a full
//! (non-smoke) `--heatmap` run the distribution is also recorded under the
//! `"notes"` key of `BENCH_hotpath.json`.  The timed sweep itself always
//! runs with telemetry off — the profiled launch is a separate pass, so
//! recorded wall-clocks never include recording overhead.
//!
//! `--record-baseline` refuses to overwrite a baseline recorded under a
//! different `schema` or `config` — it prints both lines as a diff and
//! exits non-zero; pass `--force` as well to reset deliberately.
//!
//! # `BENCH_hotpath.json` schema (`rtdbscan-hotpath/v5`)
//!
//! One JSON object with six keys:
//!
//! * `"schema"` — the literal string `"rtdbscan-hotpath/v5"`.
//! * `"config"` — the sweep parameters, one object on one line:
//!   `dataset`, `seed`, `eps`, `reps` (timing repetitions per cell; the
//!   reported `best_ns` is the minimum, `mean_ns` the average).
//! * `"baseline"` — `{ "results": [...] }`, recorded once and preserved
//!   verbatim by later regenerations unless `--record-baseline` is
//!   passed.  Cells recorded before build timing existed carry
//!   `"build_ns":null` ("not recorded").
//! * `"current"` — same shape, overwritten on every run.
//! * `"build"` — the construction-time sweep, overwritten on every run:
//!   `{ "results": [...] }` with one cell per (size × thread-count) LBVH
//!   build, `{"n": …, "builder": "lbvh", "threads": …, "best_ns": …,
//!   "mean_ns": …}`.  `threads` is the [`BuildParallelism`] ask
//!   (`1` = the sequential emitter); every parallel build is asserted
//!   bit-identical to the sequential tree before its time is recorded,
//!   and the best parallel cell at the largest size must beat the
//!   sequential one (the treelet emitter's bottom-up bounds do the work
//!   even on one core).
//! * `"robustness"` — the deadline-overhead record, overwritten on every
//!   run: `{ "results": [...] }` with one `"unchecked"` and one
//!   `"checked"` cell at the largest sweep size,
//!   `{"n": …, "mode": "checked", "best_ns": …, "mean_ns": …, counters…}`.
//!   The checked cell runs the *cancellable* stage-1 entry point under an
//!   inert `CancelScope::none()`; its counters must be bit-identical to
//!   the unchecked cell's (asserted on every run including `--smoke`),
//!   and on full runs its best wall-clock must sit within 1% of the
//!   unchecked cell (or within 1 ms absolute — deadline checks at packet
//!   granularity are budgeted as free).
//! * `"notes"` (optional) — auxiliary profiling evidence, currently the
//!   per-depth wide-node visit distribution of a `--heatmap` run;
//!   preserved verbatim by later runs that don't pass `--heatmap`.
//!
//! Each entry of `results` is one measurement cell:
//! `{"n": 100000, "backend": "wide-batched", "query_order": "morton",
//!   "simd": "avx2", "layout": "f32", "best_ns": …, "mean_ns": …,
//!   "build_ns": …, "rays": …, "dist_comps": …, "prim_tests": …,
//!   "node_visits": …, "wide_node_visits": …, "batched_launches": …}` —
//! `query_order` / `simd` / `layout` name the launch configuration
//! (`simd` records the **resolved** level actually run; `layout` is the
//! wide scene's one node layout, `"f32"`; the binary backend, which has no
//! wide kernels, reports `"n/a"` for all three),
//! and `build_ns` is the wall-clock of the one index build the cell's
//! launches ran against (the per-shard parallel build win lands here).
//! The counters are the aggregate [`rtcore::hardware::WorkCounters`] of
//! one stage-1 launch and must be identical run-to-run (they are work,
//! not time; any drift is a correctness bug).  Every wide cell must
//! further agree with the binary cell on `dist_comps`/`prim_tests`
//! (reordering and SIMD never change counted candidate work), and Morton
//! cells must show strictly fewer `wide_node_visits` than their as-given
//! twins — both asserted on every run, including `--smoke`.
//!
//! `--sharded` additionally sweeps the two-level (TLAS over sharded
//! BLAS) backend at the 1M-point scale against a flat LBVH twin built
//! from the same Morton order: the `"wide-sharded"` cell must match its
//! `"wide-flat-lbvh"` twin on `dist_comps`/`prim_tests` exactly (aligned
//! sharding reproduces the flat leaf partition), and a spans-enabled
//! build shows the per-shard parallel `lbvh_build` spans under
//! `tlas_build`.  These two cells also carry `"tlas_node_visits"` and the
//! index's resident `"device_bytes"`.  Every run asserts that both keep at
//! most [`MAX_BYTES_PER_PRIM`] resident bytes per primitive (one copy of
//! the scene: BVH4 nodes plus 20 B of primitive lanes), and that the
//! as-given sharded launch charges at most [`MAX_AS_GIVEN_TLAS_VISITS`]
//! TLAS visits (no more than routing every ray on its own).  In
//! `--smoke --sharded` the 1M sweep runs with one repetition and nothing
//! is written.
//!
//! The `baseline`/`current` sections are each a single line so the
//! regeneration pass can carry the baseline forward without a JSON parser.

use rtcore::bvh::{spheres_from_points, BuildParallelism, Bvh, BvhBuilder, LbvhBuilder};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{IndexKind, NeighborIndexBuilder, QueryOrder, ShardingConfig, SimdPolicy};
use rtcore::telemetry::{PhaseKind, TelemetryConfig};
use rtdbscan_datasets::{generate, PaperDataset};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const SCHEMA: &str = "rtdbscan-hotpath/v5";
const EPS: f32 = 0.4;
const SEED: u64 = 42;
/// The `--sharded` sweep's scale, search radius and shard-size ceiling.
/// The tighter radius keeps 1M-point neighbourhoods at a density the
/// stage-1 launch finishes in CI-bounded time.
const SHARDED_N: usize = 1_000_000;
const SHARDED_EPS: f32 = 0.05;
const SHARD_SIZE: usize = 1 << 16;
/// Ceiling on the 1M cells' resident index bytes per primitive.  A wide
/// index holds its BVH4 nodes and 20 B of SoA lanes per primitive (about
/// 44 B in all on this input); a second resident copy of the scene (the
/// binary tree, or a sphere array beside the lanes) breaks it.
const MAX_BYTES_PER_PRIM: u64 = 56;
/// Ceiling on the as-given sharded cell's `tlas_node_visits`: what routing
/// each ray through its own TLAS descent charged on this input.  Packet
/// routing must never cost more.
const MAX_AS_GIVEN_TLAS_VISITS: u64 = 27_922_368;

/// The `layout` label of every wide cell: the wide scene's one node
/// layout (full-precision `f32` lanes).
const WIDE_LAYOUT: &str = "f32";

/// The sweep matrix of wide-backend launch configurations (query order ×
/// SIMD policy): the legacy configuration first (comparable with the
/// pre-coherence baseline), then each coherence knob stacked on.
const WIDE_CONFIGS: [(QueryOrder, SimdPolicy); 3] = [
    (QueryOrder::AsGiven, SimdPolicy::Scalar),
    (QueryOrder::AsGiven, SimdPolicy::Auto),
    (QueryOrder::Morton, SimdPolicy::Auto),
];

/// One measurement cell.
struct Cell {
    n: usize,
    backend: &'static str,
    query_order: String,
    simd: String,
    layout: String,
    best_ns: u128,
    mean_ns: u128,
    build_ns: u128,
    /// The index's resident bytes ([`rtcore::index::NeighborIndex::device_bytes`]).
    device_bytes: u64,
    counters: WorkCounters,
}

impl Cell {
    fn to_json(&self) -> String {
        let c = &self.counters;
        format!(
            "{{\"n\":{},\"backend\":\"{}\",\"query_order\":\"{}\",\"simd\":\"{}\",\
             \"layout\":\"{}\",\"best_ns\":{},\"mean_ns\":{},\"build_ns\":{},\
             \"rays\":{},\"dist_comps\":{},\"prim_tests\":{},\"node_visits\":{},\
             \"wide_node_visits\":{},\"batched_launches\":{}}}",
            self.n,
            self.backend,
            self.query_order,
            self.simd,
            self.layout,
            self.best_ns,
            self.mean_ns,
            self.build_ns,
            c.rays,
            c.dist_comps,
            c.prim_tests,
            c.node_visits,
            c.wide_node_visits,
            c.batched_launches,
        )
    }

    /// [`Cell::to_json`] plus the two-level sweep's routing counter and
    /// resident bytes.
    fn to_json_sharded(&self) -> String {
        let mut json = self.to_json();
        json.pop();
        format!(
            "{json},\"tlas_node_visits\":{},\"device_bytes\":{}}}",
            self.counters.tlas_node_visits, self.device_bytes
        )
    }
}

/// Time stage 1 (one batched neighbour-count launch over all points, self
/// excluded — exactly what the DBSCAN algorithms issue) on one built
/// index: one warm-up launch, then `reps` timed launches.
fn measure_stage1(
    builder: &NeighborIndexBuilder,
    backend: &'static str,
    labels: (&str, &str, &str),
    points: &[Point3],
    eps: f32,
    reps: usize,
) -> Cell {
    let build_start = Instant::now();
    let index = builder
        .build(points, eps)
        .expect("generated points are finite");
    let build_ns = build_start.elapsed().as_nanos();
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let run = |counters: &mut WorkCounters| {
        // ordering: Relaxed — the bench resets and reads the count cells
        // strictly between launches; the launch join orders everything.
        for c in &counts {
            c.store(0, Ordering::Relaxed);
        }
        index.batch_neighbor_counts(points, eps, true, None, counters, &counts);
    };

    // Warm-up: first launch grows the per-worker scratch arenas.
    let mut counters = WorkCounters::ZERO;
    run(&mut counters);

    let mut best = u128::MAX;
    let mut total = 0u128;
    for _ in 0..reps {
        let mut rep_counters = WorkCounters::ZERO;
        let t = Instant::now();
        run(&mut rep_counters);
        let ns = t.elapsed().as_nanos();
        best = best.min(ns);
        total += ns;
        assert_eq!(
            rep_counters, counters,
            "stage-1 counters drifted between repetitions"
        );
    }
    Cell {
        n: points.len(),
        backend,
        query_order: labels.0.to_string(),
        simd: labels.1.to_string(),
        layout: labels.2.to_string(),
        best_ns: best,
        mean_ns: total / reps as u128,
        build_ns,
        device_bytes: index.device_bytes(),
        counters,
    }
}

/// Run the full cell matrix for one dataset size.
fn sweep_size(points: &[Point3], reps: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    cells.push(measure_stage1(
        &NeighborIndexBuilder::new(IndexKind::BinaryBvh),
        "binary-bvh",
        ("n/a", "n/a", "n/a"),
        points,
        EPS,
        reps,
    ));
    for (query_order, simd) in WIDE_CONFIGS {
        let builder = NeighborIndexBuilder {
            query_order,
            simd,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        };
        // Record the level the policy actually resolved to, not the ask.
        let resolved = simd.resolve().name();
        cells.push(measure_stage1(
            &builder,
            "wide-batched",
            (query_order.name(), resolved, WIDE_LAYOUT),
            points,
            EPS,
            reps,
        ));
    }
    cells
}

/// One cell of the construction-time sweep: a single LBVH build at one
/// (size, thread-count) point.
struct BuildCell {
    n: usize,
    threads: usize,
    best_ns: u128,
    mean_ns: u128,
}

impl BuildCell {
    fn to_json(&self) -> String {
        format!(
            "{{\"n\":{},\"builder\":\"lbvh\",\"threads\":{},\"best_ns\":{},\"mean_ns\":{}}}",
            self.n, self.threads, self.best_ns, self.mean_ns
        )
    }
}

/// The build-time sweep: sequential vs parallel LBVH construction across
/// sizes × thread counts.  `threads` must start at 1 — that cell's tree is
/// the reference every parallel build is asserted bit-identical against
/// (node array and primitive order both) before its time is recorded.
fn sweep_build(sizes: &[usize], threads: &[usize], reps: usize) -> Vec<BuildCell> {
    assert_eq!(threads[0], 1, "the sequential cell anchors bit-identity");
    let mut cells = Vec::new();
    for &n in sizes {
        let points = generate(PaperDataset::PortoTaxi, n, SEED);
        let spheres = spheres_from_points(&points, EPS);
        let mut reference: Option<Bvh> = None;
        for &t in threads {
            let parallelism = if t <= 1 {
                BuildParallelism::Sequential
            } else {
                BuildParallelism::Threads(t)
            };
            let builder = LbvhBuilder {
                parallelism,
                ..LbvhBuilder::default()
            };
            let mut best = u128::MAX;
            let mut total = 0u128;
            let mut built: Option<Bvh> = None;
            for _ in 0..reps {
                let input = spheres.clone();
                let start = Instant::now();
                let bvh = builder.build(input).expect("generated points are finite");
                let ns = start.elapsed().as_nanos();
                best = best.min(ns);
                total += ns;
                built = Some(bvh);
            }
            let bvh = built.expect("at least one repetition ran");
            match &reference {
                None => reference = Some(bvh),
                Some(seq) => {
                    assert_eq!(
                        bvh.nodes, seq.nodes,
                        "n={n} threads={t}: parallel node array must be bit-identical"
                    );
                    assert_eq!(
                        bvh.primitives, seq.primitives,
                        "n={n} threads={t}: parallel primitive order must be bit-identical"
                    );
                }
            }
            let cell = BuildCell {
                n,
                threads: t,
                best_ns: best,
                mean_ns: total / reps as u128,
            };
            println!(
                "build n={n:>7}  lbvh threads={t}  best {:>10.3} ms  mean {:>10.3} ms",
                cell.best_ns as f64 / 1e6,
                cell.mean_ns as f64 / 1e6,
            );
            cells.push(cell);
        }
    }
    cells
}

/// The build sweep's headline claim, asserted on full runs: at the largest
/// size the best parallel build beats the sequential one (on many-core
/// hosts via real threads, on small hosts via the treelet emitter's
/// bottom-up bounds).
fn assert_build_win(cells: &[BuildCell], n: usize) {
    let seq = cells
        .iter()
        .find(|c| c.n == n && c.threads == 1)
        .expect("sequential build cell");
    let best_par = cells
        .iter()
        .filter(|c| c.n == n && c.threads > 1)
        .map(|c| c.best_ns)
        .min()
        .expect("parallel build cells");
    assert!(
        best_par < seq.best_ns,
        "n={n}: best parallel build ({:.3} ms) must beat sequential ({:.3} ms)",
        best_par as f64 / 1e6,
        seq.best_ns as f64 / 1e6
    );
    println!(
        "build n={n:>7}  parallel/sequential = {:.2}x",
        seq.best_ns as f64 / best_par as f64
    );
}

/// The `--sharded` sweep: the two-level (TLAS over sharded BLAS) backend
/// at the 1M-point scale against a flat LBVH twin.  Aligned Morton
/// sharding reproduces the flat tree's leaf partition, so the pair must
/// agree on `dist_comps`/`prim_tests` exactly — asserted here on every
/// run.  The interesting deltas are `build_ns` (per-shard parallel
/// build) and the TLAS-routing counters.
fn sweep_sharded(points: &[Point3], reps: usize) -> Vec<Cell> {
    let resolved = SimdPolicy::Auto.resolve().name();
    // Both twins build through the parallel HLBVH path (Auto threads); the
    // sharded side nests it under the per-shard fan-out, which degrades the
    // per-shard budget gracefully instead of oversubscribing.
    let flat = measure_stage1(
        &NeighborIndexBuilder {
            bvh_builder: rtcore::bvh::BuilderKind::Lbvh,
            build_parallelism: BuildParallelism::Auto,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        },
        "wide-flat-lbvh",
        ("as-given", resolved, WIDE_LAYOUT),
        points,
        SHARDED_EPS,
        reps,
    );
    let sharded = measure_stage1(
        &NeighborIndexBuilder {
            bvh_builder: rtcore::bvh::BuilderKind::Lbvh,
            build_parallelism: BuildParallelism::Auto,
            sharding: Some(ShardingConfig::new(SHARD_SIZE)),
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        },
        "wide-sharded",
        ("as-given", resolved, WIDE_LAYOUT),
        points,
        SHARDED_EPS,
        reps,
    );
    assert_eq!(
        sharded.counters.dist_comps, flat.counters.dist_comps,
        "sharded dist_comps must match the flat LBVH twin"
    );
    assert_eq!(
        sharded.counters.prim_tests, flat.counters.prim_tests,
        "sharded prim_tests must match the flat LBVH twin"
    );
    assert!(
        sharded.counters.tlas_node_visits > 0 && sharded.counters.blas_launches > 0,
        "the sharded launch must route through the TLAS"
    );
    assert!(
        sharded.counters.tlas_node_visits <= MAX_AS_GIVEN_TLAS_VISITS,
        "as-given packet routing charged {} TLAS visits, more than per-ray routing's {}",
        sharded.counters.tlas_node_visits,
        MAX_AS_GIVEN_TLAS_VISITS
    );
    for cell in [&flat, &sharded] {
        let per_prim = cell.device_bytes as f64 / cell.n as f64;
        println!(
            "{}: {per_prim:.1} resident bytes per primitive",
            cell.backend
        );
        assert!(
            cell.device_bytes <= MAX_BYTES_PER_PRIM * cell.n as u64,
            "{} keeps {per_prim:.1} B per primitive resident, more than {MAX_BYTES_PER_PRIM}",
            cell.backend
        );
    }
    vec![flat, sharded]
}

/// One deadline-overhead cell: the stage-1 launch driven through either
/// the plain entry point (`"unchecked"`) or the cancellable one under an
/// inert `CancelScope::none()` (`"checked"`).
struct RobustCell {
    n: usize,
    mode: &'static str,
    best_ns: u128,
    mean_ns: u128,
    counters: WorkCounters,
}

impl RobustCell {
    fn to_json(&self) -> String {
        let c = &self.counters;
        format!(
            "{{\"n\":{},\"mode\":\"{}\",\"best_ns\":{},\"mean_ns\":{},\
             \"rays\":{},\"dist_comps\":{},\"prim_tests\":{},\"node_visits\":{},\
             \"wide_node_visits\":{},\"batched_launches\":{}}}",
            self.n,
            self.mode,
            self.best_ns,
            self.mean_ns,
            c.rays,
            c.dist_comps,
            c.prim_tests,
            c.node_visits,
            c.wide_node_visits,
            c.batched_launches,
        )
    }
}

/// The robustness sweep: checked vs unchecked stage 1 on one shared
/// wide-batched index.  Counter identity is asserted on every run
/// (deadline checks must not change counted work); the wall-clock bound —
/// checked within 1% of unchecked, or within 1 ms absolute — only on full
/// runs, where the measurement is large enough to mean something.  The
/// two modes are interleaved rep-by-rep so background load drift hits
/// both best-of samples equally instead of biasing whichever mode ran
/// second.
fn sweep_robustness(points: &[Point3], reps: usize, smoke: bool) -> Vec<RobustCell> {
    use rtcore::fault::CancelScope;

    let index = NeighborIndexBuilder::new(IndexKind::WideBatched)
        .build(points, EPS)
        .expect("generated points are finite");
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let scope = CancelScope::none();
    let run = |checked: bool, counters: &mut WorkCounters| {
        // ordering: Relaxed — the bench resets and reads the count
        // cells strictly between launches; the launch join orders
        // everything.
        for c in &counts {
            c.store(0, Ordering::Relaxed);
        }
        if checked {
            index
                .batch_neighbor_counts_cancellable(
                    points, EPS, true, None, counters, &counts, &scope,
                )
                .expect("an inert scope never trips");
        } else {
            index.batch_neighbor_counts(points, EPS, true, None, counters, &counts);
        }
    };

    // Warm-up both paths, anchoring the counter reference.
    let mut reference = WorkCounters::ZERO;
    run(false, &mut reference);
    let mut warm_checked = WorkCounters::ZERO;
    run(true, &mut warm_checked);
    assert_eq!(
        warm_checked, reference,
        "deadline checks must not change counted work"
    );

    let reps = reps.max(3);
    let mut cells = ["unchecked", "checked"].map(|mode| RobustCell {
        n: points.len(),
        mode,
        best_ns: u128::MAX,
        mean_ns: 0,
        counters: reference,
    });
    let mut totals = [0u128; 2];
    for _ in 0..reps {
        for (slot, &checked) in [false, true].iter().enumerate() {
            let mut rep = WorkCounters::ZERO;
            let t = Instant::now();
            run(checked, &mut rep);
            let ns = t.elapsed().as_nanos();
            cells[slot].best_ns = cells[slot].best_ns.min(ns);
            totals[slot] += ns;
            assert_eq!(
                rep, reference,
                "{}: counters drifted between reps",
                cells[slot].mode
            );
        }
    }
    for (slot, cell) in cells.iter_mut().enumerate() {
        cell.mean_ns = totals[slot] / reps as u128;
        println!(
            "robustness n={:>7}  {:<9}  best {:>10.3} ms  mean {:>10.3} ms",
            cell.n,
            cell.mode,
            cell.best_ns as f64 / 1e6,
            cell.mean_ns as f64 / 1e6,
        );
    }
    let [unchecked_best, checked_best] = [cells[0].best_ns, cells[1].best_ns];
    if !smoke {
        let slack = (unchecked_best / 100).max(1_000_000); // 1% or 1 ms
        assert!(
            checked_best <= unchecked_best + slack,
            "checked stage 1 ({:.3} ms) exceeds unchecked ({:.3} ms) by more than 1% / 1 ms",
            checked_best as f64 / 1e6,
            unchecked_best as f64 / 1e6,
        );
    }
    cells.into_iter().collect()
}

/// One spans-enabled sharded build + launch: prints the phase summary and
/// asserts the per-shard parallel build is visible in the trace — one
/// `tlas_build` span enclosing one `lbvh_build` span per shard.
fn profile_sharded(points: &[Point3]) {
    let builder = NeighborIndexBuilder {
        bvh_builder: rtcore::bvh::BuilderKind::Lbvh,
        sharding: Some(ShardingConfig::new(SHARD_SIZE)),
        telemetry: TelemetryConfig::Spans,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    };
    let index = builder
        .build(points, SHARDED_EPS)
        .expect("generated points are finite");
    let shards = index
        .as_sharded()
        .expect("sharding was configured")
        .shard_count();
    let telemetry = index.telemetry().expect("telemetry was enabled");
    print!("{}", telemetry.summary_table());
    let trace = telemetry.chrome_trace_json();
    assert!(trace.contains("tlas_build"), "trace records the TLAS build");
    let shard_builds = trace.matches("lbvh_build").count();
    assert!(
        shard_builds >= shards,
        "per-shard builds must be visible in the trace: {shard_builds} lbvh_build spans for {shards} shards"
    );
    println!("sharded build: {shards} shards, {shard_builds} per-shard lbvh_build spans in trace");
}

/// The counter invariants every sweep must satisfy (asserted in full runs
/// and in `--smoke`): reordering and SIMD never change candidate work, and
/// Morton strictly reduces shared node fetches.
fn assert_sweep_invariants(cells: &[Cell]) {
    let find = |n: usize, order: &str| {
        cells
            .iter()
            .find(|c| c.n == n && c.backend == "wide-batched" && c.query_order == order)
            .unwrap_or_else(|| panic!("missing wide cell n={n} order={order}"))
    };
    let sizes: std::collections::BTreeSet<usize> = cells.iter().map(|c| c.n).collect();
    for &n in &sizes {
        let binary = cells
            .iter()
            .find(|c| c.n == n && c.backend == "binary-bvh")
            .expect("binary cell");
        let legacy = find(n, "as-given");
        let simd = cells
            .iter()
            .find(|c| {
                c.n == n
                    && c.backend == "wide-batched"
                    && c.query_order == "as-given"
                    && c.simd != legacy.simd
            })
            .unwrap_or(legacy);
        let morton = find(n, "morton");
        for cell in [legacy, simd, morton] {
            assert_eq!(
                cell.counters.dist_comps, binary.counters.dist_comps,
                "n={n}: wide {}-order {} dist_comps must match binary",
                cell.query_order, cell.simd
            );
            assert_eq!(
                cell.counters.prim_tests, binary.counters.prim_tests,
                "n={n}"
            );
        }
        assert_eq!(
            legacy.counters.wide_node_visits,
            simd.counters.wide_node_visits
        );
        assert!(
            morton.counters.wide_node_visits < legacy.counters.wide_node_visits,
            "n={n}: morton wide_node_visits {} must be strictly below as-given {}",
            morton.counters.wide_node_visits,
            legacy.counters.wide_node_visits
        );
    }
}

/// One instrumented stage-1 launch on the tuned wide configuration
/// (Morton order, auto SIMD): exports the Chrome trace
/// when `trace_out` is given and returns the heatmap's JSON when
/// `heatmap` profiling was requested.  Runs apart from the timed sweep so
/// recording overhead never lands in the recorded wall-clocks.
fn profile_stage1(
    points: &[Point3],
    trace_out: Option<&std::path::Path>,
    heatmap: bool,
) -> Option<String> {
    let level = if heatmap {
        TelemetryConfig::Profile
    } else {
        TelemetryConfig::Spans
    };
    let builder = NeighborIndexBuilder {
        query_order: QueryOrder::Morton,
        simd: SimdPolicy::Auto,
        telemetry: level,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    };
    let index = builder
        .build(points, EPS)
        .expect("generated points are finite");
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    {
        // The stage-1 span normally opens at the dbscan layer; this bench
        // drives the index directly, so it scopes the launch itself.
        let telemetry = index.telemetry().expect("telemetry was enabled").clone();
        let mut span = telemetry.span(PhaseKind::Stage1Launch);
        index.batch_neighbor_counts(points, EPS, true, None, &mut counters, &counts);
        span.add_counters(counters);
    }

    let telemetry = index.telemetry().expect("telemetry was enabled");
    print!("{}", telemetry.summary_table());
    if let Some(path) = trace_out {
        std::fs::write(path, telemetry.chrome_trace_json()).expect("write Chrome trace JSON");
        println!("wrote Chrome trace to {}", path.display());
    }
    if heatmap {
        let hm = index.heatmap().expect("Profile level builds the heatmap");
        assert_eq!(
            hm.total_visits(),
            counters.wide_node_visits,
            "heatmap per-node visits must sum to the launch's wide_node_visits"
        );
        println!("{}", hm.summary());
        Some(hm.to_json())
    } else {
        None
    }
}

fn results_line(cells: &[Cell]) -> String {
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            if c.n == SHARDED_N {
                c.to_json_sharded()
            } else {
                c.to_json()
            }
        })
        .collect();
    format!("{{\"results\":[{}]}}", entries.join(","))
}

/// Pull a single-line section (`"baseline"` / `"config"` / `"schema"`)
/// out of an existing file.
fn existing_section(path: &std::path::Path, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let prefix = format!("\"{key}\": ");
    for line in text.lines() {
        if let Some(rest) = line.trim_start().strip_prefix(&prefix) {
            return Some(rest.trim_end_matches(',').to_string());
        }
    }
    None
}

/// Scan a results line for the `best_ns` of the best (minimum) cell of
/// one `(n, backend)` pair across whatever configurations it holds.
fn scan_best_ns(section: &str, n: usize, backend: &str) -> Option<u128> {
    let key = format!("\"n\":{n},\"backend\":\"{backend}\"");
    let mut best: Option<u128> = None;
    let mut from = 0usize;
    while let Some(pos) = section[from..].find(&key) {
        let rest = &section[from + pos..];
        if let Some(v) = rest.split("\"best_ns\":").nth(1) {
            let digits: String = v.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(ns) = digits.parse::<u128>() {
                best = Some(best.map_or(ns, |b: u128| b.min(ns)));
            }
        }
        from += pos + key.len();
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sharded = args.iter().any(|a| a == "--sharded");
    let record_baseline = args.iter().any(|a| a == "--record-baseline");
    let force = args.iter().any(|a| a == "--force");
    let heatmap = args.iter().any(|a| a == "--heatmap");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json")
        });

    let (sizes, reps): (&[usize], usize) = if smoke {
        (&[2_000], 2)
    } else {
        (&[10_000, 50_000, 100_000], 5)
    };

    // Construction-time sweep: sequential vs parallel HLBVH build, the
    // timing record of the treelet-parallel emitter.  The smoke cells keep
    // the bit-identity assertion in CI at a size that finishes instantly.
    let (build_sizes, build_threads, build_reps): (&[usize], &[usize], usize) = if smoke {
        (&[2_000], &[1, 2, 8], 1)
    } else {
        (&[10_000, 100_000, 1_000_000], &[1, 2, 4, 8], 2)
    };
    let build_cells = sweep_build(build_sizes, build_threads, build_reps);
    if !smoke {
        let &largest = build_sizes.last().expect("build sweep has sizes");
        assert_build_win(&build_cells, largest);
    }

    let mut cells = Vec::new();
    for &n in sizes {
        let points = generate(PaperDataset::PortoTaxi, n, SEED);
        for cell in sweep_size(&points, reps) {
            println!(
                "n={n:>7}  {:<12} {:<9} {:<7} {:<10}  best {:>10.3} ms  mean {:>10.3} ms  [{}]",
                cell.backend,
                cell.query_order,
                cell.simd,
                cell.layout,
                cell.best_ns as f64 / 1e6,
                cell.mean_ns as f64 / 1e6,
                cell.counters.summary_line(),
            );
            cells.push(cell);
        }
    }
    assert_sweep_invariants(&cells);

    // Deadline-overhead cells at the largest sweep size: the cancellable
    // entry point under an inert scope against the plain one.
    let robust_cells = {
        let &robust_n = sizes.last().expect("sweep has at least one size");
        let points = generate(PaperDataset::PortoTaxi, robust_n, SEED);
        sweep_robustness(&points, reps, smoke)
    };

    if sharded {
        // Fixed-seed 1M-point sweep through the two-level backend: one
        // rep in smoke (the counter identities are the point there), the
        // usual best-of in full runs.
        let points = generate(PaperDataset::PortoTaxi, SHARDED_N, SEED);
        let sharded_reps = if smoke { 1 } else { 2 };
        for cell in sweep_sharded(&points, sharded_reps) {
            println!(
                "n={:>7}  {:<14} {:<9} {:<7} {:<10}  best {:>10.3} ms  mean {:>10.3} ms  build {:>10.3} ms  [{}]",
                cell.n,
                cell.backend,
                cell.query_order,
                cell.simd,
                cell.layout,
                cell.best_ns as f64 / 1e6,
                cell.mean_ns as f64 / 1e6,
                cell.build_ns as f64 / 1e6,
                cell.counters.summary_line(),
            );
            cells.push(cell);
        }
        profile_sharded(&points);
    }

    let heatmap_note = if trace_out.is_some() || heatmap {
        let &profile_n = sizes.last().expect("sweep has at least one size");
        let points = generate(PaperDataset::PortoTaxi, profile_n, SEED);
        profile_stage1(&points, trace_out.as_deref(), heatmap).map(|json| {
            format!(
                "{{\"heatmap\":{{\"n\":{profile_n},\"backend\":\"wide-batched\",\
                 \"config\":\"morton/auto/f32\",\"data\":{json}}}}}"
            )
        })
    } else {
        None
    };

    if smoke {
        println!(
            "smoke run complete ({} cells, coherence invariants hold), no file written",
            cells.len()
        );
        return;
    }

    let current = results_line(&cells);
    let config = format!(
        "{{\"dataset\":\"porto-taxi\",\"seed\":{SEED},\"eps\":{EPS},\"reps\":{reps},\
         \"measures\":\"stage-1 batched neighbour count; build_ns is the cell's one index build\",\
         \"sharded\":{{\"n\":{SHARDED_N},\"eps\":{SHARDED_EPS},\"shard_size\":{SHARD_SIZE}}},\
         \"build\":{{\"sizes\":{build_sizes:?},\"threads\":{build_threads:?},\
         \"reps\":{build_reps}}}}}"
    );

    let baseline = if record_baseline {
        // Never clobber a baseline from a different world: a schema or
        // config mismatch means the numbers are not comparable, so print
        // the diff and require an explicit --force.
        let old_schema = existing_section(&out_path, "schema");
        let old_config = existing_section(&out_path, "config");
        let schema_matches = old_schema.as_deref() == Some(&format!("\"{SCHEMA}\""));
        let config_matches = old_config.as_deref() == Some(config.as_str());
        if out_path.exists() && !(schema_matches && config_matches) && !force {
            eprintln!(
                "error: refusing to overwrite the baseline in {}: it was recorded under a \
                 different schema/config.",
                out_path.display()
            );
            eprintln!("  recorded schema: {}", old_schema.unwrap_or_default());
            eprintln!("  this run schema: \"{SCHEMA}\"");
            eprintln!("  recorded config: {}", old_config.unwrap_or_default());
            eprintln!("  this run config: {config}");
            eprintln!("pass --record-baseline --force to reset the baseline deliberately");
            std::process::exit(2);
        }
        current.clone()
    } else if out_path.exists() {
        let old_schema = existing_section(&out_path, "schema");
        match (
            old_schema.as_deref(),
            existing_section(&out_path, "baseline"),
        ) {
            (Some(s), Some(line)) if s == format!("\"{SCHEMA}\"") => line,
            _ => {
                // Never silently replace a recorded baseline: if the file
                // is there but unrecognisable (hand edits, unknown
                // schema), refuse and make the reset explicit.
                eprintln!(
                    "error: {} exists but its schema/baseline could not be recovered; \
                     rerun with --record-baseline to reset the baseline deliberately",
                    out_path.display()
                );
                std::process::exit(2);
            }
        }
    } else {
        println!(
            "note: no existing {} — recording this run as the baseline",
            out_path.display()
        );
        current.clone()
    };

    // A fresh heatmap profile replaces the recorded note; otherwise any
    // existing note is carried forward verbatim, like the baseline.
    let notes = heatmap_note.or_else(|| existing_section(&out_path, "notes"));
    let notes_section = notes
        .map(|n| format!(",\n  \"notes\": {n}"))
        .unwrap_or_default();
    let build_entries: Vec<String> = build_cells.iter().map(BuildCell::to_json).collect();
    let build_line = format!("{{\"results\":[{}]}}", build_entries.join(","));
    let robust_entries: Vec<String> = robust_cells.iter().map(RobustCell::to_json).collect();
    let robust_line = format!("{{\"results\":[{}]}}", robust_entries.join(","));
    let doc = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"config\": {config},\n  \
         \"baseline\": {baseline},\n  \"current\": {current},\n  \
         \"build\": {build_line},\n  \
         \"robustness\": {robust_line}{notes_section}\n}}\n"
    );
    std::fs::write(&out_path, doc).expect("write BENCH_hotpath.json");
    println!("wrote {}", out_path.display());

    let mut trajectory: Vec<(usize, &str)> = sizes
        .iter()
        .flat_map(|&n| [(n, "binary-bvh"), (n, "wide-batched")])
        .collect();
    if sharded {
        trajectory.push((SHARDED_N, "wide-flat-lbvh"));
        trajectory.push((SHARDED_N, "wide-sharded"));
    }
    for (n, backend) in trajectory {
        {
            if let (Some(b), Some(c)) = (
                scan_best_ns(&baseline, n, backend),
                scan_best_ns(&current, n, backend),
            ) {
                println!(
                    "n={n:>7}  {backend:<12}  baseline best {:>10.3} ms → current best {:>10.3} ms  ({:.2}x)",
                    b as f64 / 1e6,
                    c as f64 / 1e6,
                    b as f64 / c as f64
                );
            }
        }
    }
}
