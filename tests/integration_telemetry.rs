//! Cross-crate tests for the telemetry subsystem: the exported JSON
//! artifacts (Chrome trace, metrics snapshot, node-visit heatmap) must be
//! valid JSON with the documented shape, and — the load-bearing property —
//! enabling telemetry must be **observationally invisible**: every
//! recording level produces bit-identical clusterings and work counters to
//! a telemetry-free run on the coherence workload.
//!
//! No JSON library ships with the workspace (the container is offline), so
//! a minimal recursive-descent parser lives at the bottom of this file; it
//! accepts exactly the RFC 8259 grammar the exporters emit and is itself
//! exercised by the round-trip assertions.

use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{IndexKind, NeighborIndexBuilder, QueryOrder, ShardingConfig};
use rtcore::telemetry::{PhaseKind, Telemetry, TelemetryConfig};
use rtdbscan::engine::{Algo, ClusterEngine};
use std::sync::atomic::AtomicU64;

/// Blobs + exact duplicates + an exact-ε pair (the coherence workload).
fn workload(n_per_blob: usize, eps: f32) -> Vec<Point3> {
    let mut pts = Vec::new();
    for b in 0..3 {
        let cx = (b % 2) as f32 * 9.0;
        let cy = (b / 2) as f32 * 9.0;
        for i in 0..n_per_blob {
            let a = i as f32 * 0.57 + b as f32;
            let r = 1.3 * ((i * 7 + b * 3) % 19) as f32 / 19.0;
            pts.push(Point3::new_2d(cx + r * a.cos(), cy + r * a.sin()));
        }
    }
    pts.push(pts[0]);
    pts.push(pts[0]); // exact duplicates
    pts.push(Point3::new_2d(60.0, 0.0));
    pts.push(Point3::new_2d(60.0 + eps, 0.0)); // exact-ε pair
    pts
}

const LEVELS: [TelemetryConfig; 3] = [
    TelemetryConfig::Off,
    TelemetryConfig::Spans,
    TelemetryConfig::Profile,
];

// ---------------------------------------------------------------------------
// Telemetry is observationally invisible
// ---------------------------------------------------------------------------

/// Every recording level must leave the raw index launch bit-identical:
/// same per-query counts, same counters, on both BVH backends.
#[test]
fn recording_levels_leave_index_launches_bit_identical() {
    let eps = 0.9f32;
    let points = workload(250, eps);
    for kind in [IndexKind::BinaryBvh, IndexKind::WideBatched] {
        let mut reference: Option<(Vec<u64>, WorkCounters)> = None;
        for level in LEVELS {
            let index = NeighborIndexBuilder {
                query_order: QueryOrder::Morton,
                telemetry: level,
                ..NeighborIndexBuilder::new(kind)
            }
            .build(&points, eps)
            .unwrap();
            let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
            let mut counters = WorkCounters::ZERO;
            index.batch_neighbor_counts(&points, eps, true, None, &mut counters, &counts);
            let counts: Vec<u64> = counts
                .iter()
                .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                .collect();
            match &reference {
                None => reference = Some((counts, counters)),
                Some((ref_counts, ref_counters)) => {
                    assert_eq!(
                        ref_counts, &counts,
                        "{kind:?} {level:?}: telemetry changed neighbour counts"
                    );
                    assert_eq!(
                        ref_counters, &counters,
                        "{kind:?} {level:?}: telemetry changed counted work"
                    );
                }
            }
        }
    }
}

/// Every recording level must leave the full engine run bit-identical:
/// same clustering, same per-phase counters.
#[test]
fn recording_levels_leave_engine_runs_bit_identical() {
    let eps = 0.9f32;
    let points = workload(150, eps);
    let mut reference: Option<rtdbscan::runner::RunResult> = None;
    for level in LEVELS {
        let engine = ClusterEngine::builder()
            .algorithm(Algo::Rt)
            .index(IndexKind::WideBatched)
            .eps(eps)
            .min_pts(5)
            .telemetry(level)
            .build()
            .unwrap();
        let result = engine.run(&points).unwrap();
        match &reference {
            None => reference = Some(result),
            Some(ref_result) => {
                assert_eq!(
                    ref_result.clustering.labels, result.clustering.labels,
                    "{level:?}: telemetry changed the clustering"
                );
                assert_eq!(
                    ref_result.clustering.core, result.clustering.core,
                    "{level:?}: telemetry changed core flags"
                );
                assert_eq!(
                    ref_result.counters.core_identification, result.counters.core_identification,
                    "{level:?}: telemetry changed stage-1 work"
                );
                assert_eq!(
                    ref_result.counters.cluster_formation, result.counters.cluster_formation,
                    "{level:?}: telemetry changed stage-2 work"
                );
                assert_eq!(
                    ref_result.counters.build, result.counters.build,
                    "{level:?}: telemetry changed build work"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Span recording across a real engine run
// ---------------------------------------------------------------------------

#[test]
fn engine_session_records_the_documented_phases() {
    let eps = 0.9f32;
    let points = workload(150, eps);
    let engine = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .index(IndexKind::WideBatched)
        .eps(eps)
        .min_pts(5)
        .query_order(QueryOrder::Morton)
        .telemetry(TelemetryConfig::Spans)
        .build()
        .unwrap();
    let session = engine.session(&points).unwrap();
    session.cluster(5).unwrap();

    let telemetry = session.index().telemetry().expect("Spans level is enabled");
    assert!(session.index().heatmap().is_none(), "Spans ⇒ no heatmap");
    let spans = telemetry.spans();
    let recorded: Vec<PhaseKind> = spans.iter().map(|s| s.phase).collect();
    for phase in [
        PhaseKind::LbvhBuild,
        PhaseKind::Bvh4Collapse,
        PhaseKind::MortonReorder,
        PhaseKind::Stage1Launch,
        PhaseKind::Stage2UnionFind,
    ] {
        assert!(
            recorded.contains(&phase),
            "missing span for {phase:?}; recorded: {recorded:?}"
        );
    }
    // Records are ordered by completion time and every span carries the
    // work it scoped.
    for pair in spans.windows(2) {
        assert!(
            pair[0].start_ns + pair[0].duration_ns <= pair[1].start_ns + pair[1].duration_ns,
            "spans must be ordered by end time"
        );
    }
    let stage1 = spans
        .iter()
        .find(|s| s.phase == PhaseKind::Stage1Launch)
        .unwrap();
    assert!(stage1.counters.rays > 0 && stage1.counters.dist_comps > 0);
    assert_eq!(telemetry.dropped_spans(), 0);
}

/// A sharded build compacts under its build span, as the flat build does:
/// on a duplicate-bearing input the `lbvh_build` spans carry every merge the
/// index reports (the global span holds them all; per-shard builds merge
/// nothing).
#[test]
fn sharded_build_span_covers_compaction() {
    let eps = 0.9f32;
    let points = workload(150, eps);
    let index = NeighborIndexBuilder {
        compaction: true,
        sharding: Some(ShardingConfig::new(64)),
        telemetry: TelemetryConfig::Spans,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(&points, eps)
    .unwrap();
    let merges = index.build_counters().compaction_merges;
    assert!(merges >= 2, "the workload carries exact duplicates");
    let build_spans: Vec<_> = index
        .telemetry()
        .expect("Spans level is enabled")
        .spans()
        .into_iter()
        .filter(|s| s.phase == PhaseKind::LbvhBuild)
        .collect();
    assert!(
        build_spans.len() > 2,
        "one global build span plus one per shard, got {}",
        build_spans.len()
    );
    let in_spans: u64 = build_spans
        .iter()
        .map(|s| s.counters.compaction_merges)
        .sum();
    assert_eq!(in_spans, merges, "compaction ran outside the build spans");
}

/// Degradations, recoveries and deadline trips are counted in the metrics
/// registry: quarantining a shard, recovering it and a pre-cancelled launch
/// (sharded and flat) each tick their counter once under `Spans`.  Under
/// `Off` the same operations behave the same and record nothing.
#[test]
fn degradations_recoveries_and_deadline_trips_are_counted() {
    use rtcore::fault::{CancelScope, CancelToken, RetryPolicy};
    use rtcore::index::QuarantineReason;

    let eps = 0.9f32;
    let points = workload(150, eps);
    let token = CancelToken::new();
    token.cancel();
    let scope = CancelScope::with_token(&token);
    for level in [TelemetryConfig::Spans, TelemetryConfig::Off] {
        let builder = NeighborIndexBuilder {
            telemetry: level,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        };
        let mut sharded = NeighborIndexBuilder {
            sharding: Some(ShardingConfig::new(64)),
            ..builder
        }
        .build(&points, eps)
        .unwrap();
        let flat = builder.build(&points, eps).unwrap();
        let scene = sharded.as_sharded_mut().unwrap();
        scene
            .quarantine_shard(0, QuarantineReason::ValidationFailed)
            .unwrap();
        assert_eq!(scene.recover(RetryPolicy::default()).rebuilt, 1);
        let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
        let mut counters = WorkCounters::ZERO;
        for index in [&sharded, &flat] {
            assert!(index
                .batch_neighbor_counts_cancellable(
                    &points,
                    eps,
                    true,
                    None,
                    &mut counters,
                    &counts,
                    &scope
                )
                .is_err());
        }
        assert_eq!(counters, WorkCounters::ZERO);
        match level {
            TelemetryConfig::Off => {
                assert!(sharded.telemetry().is_none() && flat.telemetry().is_none());
            }
            _ => {
                let metrics = sharded.telemetry().unwrap().metrics().unwrap();
                assert_eq!(metrics.counter("shard_quarantines"), 1);
                assert_eq!(metrics.counter("shard_recoveries"), 1);
                assert_eq!(metrics.counter("shard_recovery_failures"), 0);
                assert_eq!(metrics.counter("deadline_trips"), 1);
                let flat_metrics = flat.telemetry().unwrap().metrics().unwrap();
                assert_eq!(flat_metrics.counter("deadline_trips"), 1);
                assert_eq!(flat_metrics.counter("shard_quarantines"), 0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// JSON round-trips
// ---------------------------------------------------------------------------

/// The Chrome-trace export must parse as JSON and carry one complete
/// duration event per recorded span, microsecond-scaled.
#[test]
fn chrome_trace_json_round_trips() {
    let eps = 0.9f32;
    let points = workload(150, eps);
    let engine = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .index(IndexKind::WideBatched)
        .eps(eps)
        .min_pts(5)
        .telemetry(TelemetryConfig::Spans)
        .build()
        .unwrap();
    let session = engine.session(&points).unwrap();
    session.cluster(5).unwrap();
    let telemetry = session.index().telemetry().unwrap();

    let doc = Json::parse(&telemetry.chrome_trace_json()).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top level must hold a traceEvents array");
    let spans = telemetry.spans();
    assert_eq!(events.len(), spans.len(), "one event per span");
    let valid_names: Vec<&str> = PhaseKind::ALL.iter().map(|p| p.name()).collect();
    for (event, span) in events.iter().zip(&spans) {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        let name = event.get("name").and_then(Json::as_str).unwrap();
        assert!(valid_names.contains(&name), "unknown phase name {name}");
        assert_eq!(name, span.phase.name());
        let ts = event.get("ts").and_then(Json::as_f64).unwrap();
        let dur = event.get("dur").and_then(Json::as_f64).unwrap();
        assert_eq!(ts, span.start_ns as f64 / 1_000.0, "ts is microseconds");
        assert_eq!(
            dur,
            span.duration_ns as f64 / 1_000.0,
            "dur is microseconds"
        );
        assert!(event.get("pid").and_then(Json::as_f64).is_some());
        assert_eq!(
            event.get("tid").and_then(Json::as_f64),
            Some(span.thread as f64)
        );
        // Non-zero counters ride along as numeric args.
        let args = event.get("args").expect("args object");
        for (label, value) in span.counters.summary_rows() {
            assert_eq!(
                args.get(label).and_then(Json::as_f64),
                Some(value as f64),
                "args must carry counter {label}"
            );
        }
    }
}

/// The metrics snapshot must parse as JSON: counters are integers,
/// histograms carry aligned bounds/counts arrays whose totals match.
#[test]
fn metrics_snapshot_json_round_trips() {
    let eps = 0.9f32;
    let points = workload(150, eps);
    let index = NeighborIndexBuilder {
        telemetry: TelemetryConfig::Spans,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(&points, eps)
    .unwrap();
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts(&points, eps, true, None, &mut counters, &counts);

    let metrics = index.telemetry().unwrap().metrics().expect("enabled");
    let doc = Json::parse(&metrics.snapshot_json()).expect("snapshot must be valid JSON");

    let json_counters = doc.get("counters").expect("counters object");
    assert_eq!(
        json_counters.get("launches").and_then(Json::as_f64),
        Some(metrics.counter("launches") as f64)
    );
    assert_eq!(
        json_counters.get("launched_queries").and_then(Json::as_f64),
        Some(points.len() as f64)
    );

    let histograms = doc.get("histograms").expect("histograms object");
    for name in ["launch_latency_us", "dist_comps_per_query"] {
        let hist = metrics.histogram(name).expect("recorded by the launch");
        let json_hist = histograms
            .get(name)
            .unwrap_or_else(|| panic!("snapshot must carry histogram {name}"));
        let bounds = json_hist.get("bounds").and_then(Json::as_array).unwrap();
        let bucket_counts = json_hist.get("counts").and_then(Json::as_array).unwrap();
        assert_eq!(bounds.len(), hist.bounds().len());
        assert_eq!(
            bucket_counts.len(),
            bounds.len() + 1,
            "{name}: one overflow bucket past the last bound"
        );
        let total: f64 = bucket_counts.iter().filter_map(Json::as_f64).sum();
        assert_eq!(total, hist.count() as f64, "{name}: bucket counts sum");
        assert_eq!(
            json_hist.get("count").and_then(Json::as_f64),
            Some(hist.count() as f64)
        );
        assert_eq!(
            json_hist.get("sum").and_then(Json::as_f64),
            Some(hist.sum())
        );
    }
}

/// The heatmap dump must parse as JSON and its per-depth aggregates must
/// reproduce the exact totals — which in turn equal the launch's
/// `wide_node_visits` counter.
#[test]
fn heatmap_json_round_trips_and_matches_counters() {
    let eps = 0.9f32;
    let points = workload(250, eps);
    let index = NeighborIndexBuilder {
        telemetry: TelemetryConfig::Profile,
        ..NeighborIndexBuilder::new(IndexKind::WideBatched)
    }
    .build(&points, eps)
    .unwrap();
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts(&points, eps, true, None, &mut counters, &counts);

    let heatmap = index.heatmap().expect("Profile builds the heatmap");
    assert_eq!(heatmap.total_visits(), counters.wide_node_visits);

    let doc = Json::parse(&heatmap.to_json()).expect("heatmap must be valid JSON");
    assert_eq!(
        doc.get("nodes").and_then(Json::as_f64),
        Some(heatmap.node_count() as f64)
    );
    assert_eq!(
        doc.get("total_visits").and_then(Json::as_f64),
        Some(heatmap.total_visits() as f64)
    );
    let per_depth = doc.get("per_depth").and_then(Json::as_array).unwrap();
    let visits: f64 = per_depth.iter().filter_map(Json::as_f64).sum();
    assert_eq!(visits, heatmap.total_visits() as f64);
    let nodes_per_depth = doc.get("nodes_per_depth").and_then(Json::as_array).unwrap();
    assert_eq!(nodes_per_depth.len(), per_depth.len());
    let nodes: f64 = nodes_per_depth.iter().filter_map(Json::as_f64).sum();
    assert_eq!(nodes, heatmap.node_count() as f64);
}

/// A deterministic manual clock drives the whole export chain: span times
/// in the trace are exactly the injected instants.
#[test]
fn injected_clock_round_trips_through_the_trace() {
    use rtcore::telemetry::Clock;
    use std::sync::atomic::Ordering;

    let (clock, now) = Clock::manual();
    let telemetry = Telemetry::with_clock(TelemetryConfig::Spans, clock);
    now.store(1_000, Ordering::SeqCst);
    {
        let _span = telemetry.span(PhaseKind::LbvhBuild);
        now.store(4_000, Ordering::SeqCst);
    }
    let doc = Json::parse(&telemetry.chrome_trace_json()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(1.0));
    assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(3.0));
    assert_eq!(
        events[0].get("name").and_then(Json::as_str),
        Some("lbvh_build")
    );
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (RFC 8259 subset: no \u escapes beyond pass-through)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", byte as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| format!("malformed number at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let escaped = *bytes
                    .get(*pos + 1)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                out.push(match escaped {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => other as char,
                });
                *pos += 2;
            }
            Some(&byte) => {
                out.push(byte as char);
                *pos += 1;
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}
