//! Per-rule fixture tests: each seeded violation under
//! `tests/fixtures/` must be reported at its exact `file:line:col` span,
//! waivers must suppress (and be counted), and the lexer edge cases must
//! produce no findings at all.
//!
//! Fixtures are analyzed under *synthetic* repo-relative paths so each
//! rule's `applies` predicate fires; the real workspace scan skips the
//! fixtures directory entirely.

use rtdbscan_analyze::engine::{analyze_source, Report};
use rtdbscan_analyze::rules::registry;

fn analyze_fixture(fixture: &str, as_path: &str) -> Report {
    let src = std::fs::read_to_string(format!(
        "{}/tests/fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap_or_else(|e| panic!("fixture {fixture}: {e}"));
    let mut report = Report::default();
    analyze_source(as_path, &src, &registry(), None, &mut report);
    report
}

/// (rule, line, col) triples of a report, sorted for order-independent
/// comparison.
fn spans(report: &Report) -> Vec<(&str, u32, u32)> {
    let mut v: Vec<(&str, u32, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect();
    v.sort();
    v
}

#[test]
fn counter_arith_spans() {
    let report = analyze_fixture("counter_arith.rs", "crates/rtcore/src/traversal/mod.rs");
    assert_eq!(
        spans(&report),
        vec![("counter-arith", 6, 7), ("counter-arith", 7, 22)],
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("sat_bump"));
}

#[test]
fn atomic_ordering_spans_in_allowlisted_module() {
    let report = analyze_fixture(
        "atomic_allowlisted.rs",
        "crates/rtcore/src/telemetry/mod.rs",
    );
    assert_eq!(
        spans(&report),
        vec![("atomic-ordering", 11, 22), ("atomic-ordering", 16, 22)],
        "{:#?}",
        report.findings
    );
    let unjustified = &report.findings[0];
    assert!(unjustified
        .message
        .contains("without a `// ordering:` justification"));
    let seqcst = &report.findings[1];
    assert!(seqcst.message.contains("SeqCst"));
}

#[test]
fn atomic_ordering_outside_allowlist() {
    let report = analyze_fixture(
        "atomic_not_allowlisted.rs",
        "crates/rtcore/src/geometry/fixture.rs",
    );
    assert_eq!(
        spans(&report),
        vec![("atomic-ordering", 7, 22)],
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0]
        .message
        .contains("not in the atomics allowlist"));
}

#[test]
fn safety_comment_spans() {
    let report = analyze_fixture("safety_comment.rs", "crates/rtcore/src/simd_fixture.rs");
    assert_eq!(
        spans(&report),
        vec![("safety-comment", 4, 5), ("safety-comment", 22, 5)],
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("unsafe block"));
    assert!(report.findings[1].message.contains("unsafe fn"));
}

#[test]
fn hot_path_alloc_spans_and_waiver() {
    let report = analyze_fixture("hot_path_alloc.rs", "crates/rtcore/src/traversal/batch.rs");
    assert_eq!(
        spans(&report),
        vec![
            ("hot-path-alloc", 4, 23),
            ("hot-path-alloc", 5, 13),
            ("hot-path-alloc", 6, 15),
            ("hot-path-alloc", 7, 41),
            ("hot-path-alloc", 8, 13),
        ],
        "{:#?}",
        report.findings
    );
    assert_eq!(
        report.waivers_used, 1,
        "the waived Vec::new must be counted"
    );
}

#[test]
fn lib_unwrap_spans_waiver_and_reasonless_waiver() {
    let report = analyze_fixture("lib_unwrap.rs", "crates/stream/src/fixture.rs");
    assert_eq!(
        spans(&report),
        vec![
            ("lib-unwrap", 4, 7),
            ("lib-unwrap", 8, 7),
            ("lib-unwrap", 18, 7),
            ("waiver-missing-reason", 17, 5),
        ],
        "{:#?}",
        report.findings
    );
    assert_eq!(report.waivers_used, 1, "only the reasoned waiver counts");
}

#[test]
fn fault_module_panic_span_waiver_and_unreachable_exemption() {
    let report = analyze_fixture("fault_module.rs", "crates/rtcore/src/fault.rs");
    assert_eq!(
        spans(&report),
        vec![("lib-unwrap", 7, 9)],
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("panic!"));
    assert_eq!(
        report.waivers_used, 1,
        "the waived panic! must be counted; unreachable! and test panics need no waiver"
    );
}

#[test]
fn shared_tally_spans_indexed_cells_and_waiver() {
    let report = analyze_fixture(
        "shared_tally.rs",
        "crates/dbscan/src/disjoint_set/concurrent.rs",
    );
    assert_eq!(
        spans(&report),
        vec![("shared-tally", 14, 20), ("shared-tally", 15, 22)],
        "{:#?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("WorkCounters"));
    assert_eq!(
        report.waivers_used, 1,
        "the waived shared bump must be counted; indexed cells and test code need no waiver"
    );
}

#[test]
fn lexer_tricky_cases_are_clean() {
    // Analyzed as a hot, allowlisted, unwrap-scoped module so every rule
    // runs; all the "violations" live inside strings and comments.
    let report = analyze_fixture("lexer_tricky.rs", "crates/rtcore/src/index/bvh_backend.rs");
    assert!(
        report.findings.is_empty(),
        "lexer leaked tokens out of strings/comments: {:#?}",
        report.findings
    );
}

#[test]
fn clean_file_is_clean() {
    let report = analyze_fixture("clean.rs", "crates/rtcore/src/telemetry/heatmap.rs");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.waivers_used, 0);
}

#[test]
fn rule_filter_restricts_to_one_rule() {
    let src = std::fs::read_to_string(format!(
        "{}/tests/fixtures/hot_path_alloc.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let mut report = Report::default();
    analyze_source(
        "crates/rtcore/src/traversal/batch.rs",
        &src,
        &registry(),
        Some("lib-unwrap"),
        &mut report,
    );
    assert!(
        report.findings.is_empty(),
        "hot-path findings must be filtered out: {:#?}",
        report.findings
    );
}
