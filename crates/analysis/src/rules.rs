//! The rule registry: every repo discipline the analyzer enforces.
//!
//! Each [`Rule`] is a pure function from a lexed file to findings; the
//! engine decides which files a rule sees via its `applies` predicate and
//! strips findings covered by `// analyze-allow:` waivers afterwards.
//!
//! # Adding a rule
//!
//! Write a `fn(&FileContext) -> Vec<Finding>`, give it a kebab-case name,
//! and append it to [`registry`].  Rules match **token patterns** (the
//! lexer already stripped comments/strings), so keep them structural:
//! prefer "`Punct(.) Ident(field) Punct(+=)`" over substring search.
//!
//! ```
//! use rtdbscan_analyze::rules::registry;
//!
//! let rules = registry();
//! assert_eq!(rules.len(), 6);
//! // Every rule has a kebab-case name and a one-line summary.
//! for rule in &rules {
//!     assert!(rule.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
//!     assert!(!rule.summary.is_empty());
//! }
//! assert!(rules.iter().any(|r| r.name == "counter-arith"));
//! ```

use crate::lexer::{Token, TokenKind};

/// A single diagnostic.  `line`/`col` are 1-based and point at the token
/// that triggered the rule (e.g. the field identifier for `counter-arith`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Kebab-case rule id (`counter-arith`, …, or `waiver-missing-reason`).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Everything a rule sees about one file.
pub struct FileContext<'a> {
    /// Repo-relative path with forward slashes.
    pub rel_path: &'a str,
    pub tokens: &'a [Token],
    pub regions: &'a Regions,
}

impl FileContext<'_> {
    fn finding(&self, rule: &'static str, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel_path.to_owned(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }

    fn in_test_region(&self, line: u32) -> bool {
        self.regions
            .test_regions
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// One registered rule.
pub struct Rule {
    /// Kebab-case id used in diagnostics and `analyze-allow:` waivers.
    pub name: &'static str,
    /// One-line human summary (shown by `--list-rules` and the README).
    pub summary: &'static str,
    /// Which repo-relative paths this rule inspects.
    pub applies: fn(&str) -> bool,
    /// Produce findings for one file.
    pub check: fn(&FileContext) -> Vec<Finding>,
}

/// All rules, deny-by-default.  Order is the reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            name: "counter-arith",
            summary: "no bare `+`/`+=` on WorkCounters fields outside \
                      hardware/counters.rs — use the saturating helpers",
            applies: |p| is_library_source(p) && p != "crates/rtcore/src/hardware/counters.rs",
            check: counter_arith,
        },
        Rule {
            name: "atomic-ordering",
            summary: "`Ordering::` only in allowlisted modules, with a \
                      `// ordering:` justification in the enclosing fn; \
                      SeqCst is never justified outside the shims",
            applies: is_library_source,
            check: atomic_ordering,
        },
        Rule {
            name: "safety-comment",
            summary: "every `unsafe` block/fn in rtcore needs an adjacent \
                      `// SAFETY:` comment (or a `# Safety` doc section)",
            applies: |p| p.starts_with("crates/rtcore/src/"),
            check: safety_comment,
        },
        Rule {
            name: "hot-path-alloc",
            summary: "no Vec::new/vec!/collect::<Vec/.to_vec/Box::new in the \
                      hot traversal modules outside #[cfg(test)]",
            applies: |p| HOT_MODULES.contains(&p),
            check: hot_path_alloc,
        },
        Rule {
            name: "lib-unwrap",
            summary: "no .unwrap()/.expect()/panic! in non-test library code \
                      of rtcore/dbscan/stream (unreachable! stays legal: it \
                      documents an impossible branch, not an error path)",
            applies: |p| {
                p.starts_with("crates/rtcore/src/")
                    || p.starts_with("crates/dbscan/src/")
                    || p.starts_with("crates/stream/src/")
            },
            check: lib_unwrap,
        },
        Rule {
            name: "shared-tally",
            summary: "no `.fetch_add` on a shared atomic in stage 2, the \
                      union-find, traversal or the index backends — keep \
                      tallies per worker in `WorkCounters`; indexed cells \
                      (`counts[q].fetch_add`) stay legal",
            applies: |p| SHARED_TALLY_SCOPE.iter().any(|s| p.starts_with(s)),
            check: shared_tally,
        },
    ]
}

/// Library source = any `src/` tree in the workspace (unit tests inside it
/// are excluded via `#[cfg(test)]` region tracking, not by path).
/// Integration tests, examples and benches may do arithmetic on counter
/// *copies* for assertions, so they are out of scope for the token rules.
fn is_library_source(p: &str) -> bool {
    (p.starts_with("src/") || p.contains("/src/")) && !p.starts_with("crates/analysis/")
}

/// The `WorkCounters` field names (`crates/rtcore/src/hardware/counters.rs`).
/// The lexer has no type information, so a `.field +=` match on any of these
/// names is treated as counter arithmetic; keep in sync with the struct.
const COUNTER_FIELDS: &[&str] = &[
    "rays",
    "node_visits",
    "wide_node_visits",
    "batched_launches",
    "tlas_node_visits",
    "blas_launches",
    "aabb_tests",
    "prim_tests",
    "anyhit_invocations",
    "dist_comps",
    "build_prims",
    "build_sort_ops",
    "build_node_ops",
    "build_chunk_merges",
    "build_splice_ops",
    "compaction_merges",
    "union_ops",
    "find_ops",
    "list_ops",
    "misc_ops",
    "refit_node_ops",
    "refits",
    "rebuilds",
];

/// Files whose steady-state paths must not allocate (PR 4's zero-allocation
/// guarantee); `hot-path-alloc` only inspects these.
const HOT_MODULES: &[&str] = &[
    "crates/rtcore/src/traversal/batch.rs",
    "crates/rtcore/src/index/bvh_backend.rs",
    "crates/rtcore/src/index/sharded.rs",
];

/// Paths `shared-tally` inspects: the hot loops where one shared counter
/// bumped by every worker serialises them on a single cache line.
const SHARED_TALLY_SCOPE: &[&str] = &[
    "crates/dbscan/src/stages.rs",
    "crates/dbscan/src/disjoint_set/",
    "crates/rtcore/src/traversal/",
    "crates/rtcore/src/index/",
];

/// Modules allowed to use atomics at all.  Everything else reaching for
/// `Ordering::` is a finding — new lock-free code must be added here
/// deliberately (and justified per call site).
const ATOMICS_ALLOWLIST: &[&str] = &[
    "crates/dbscan/src/disjoint_set/concurrent.rs",
    "crates/dbscan/src/stages.rs",
    "crates/bench/src/bin/hotpath.rs",
    "crates/rtcore/src/telemetry/heatmap.rs",
    "crates/rtcore/src/telemetry/mod.rs",
    "crates/rtcore/src/hardware/counters.rs",
    "crates/rtcore/src/traversal/order.rs",
    "crates/rtcore/src/fault.rs",
    "crates/rtcore/src/index/sharded.rs",
    "crates/rtcore/src/index/grid.rs",
    "crates/rtcore/src/index/bvh_backend.rs",
    "crates/rtcore/src/index/mod.rs",
];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

// ---------------------------------------------------------------------------
// counter-arith
// ---------------------------------------------------------------------------

/// Match `.<field> +` and `.<field> +=` where `<field>` is a `WorkCounters`
/// field name.  The leading `.` keeps plain locals that happen to share a
/// field name out of scope.
fn counter_arith(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    for w in code_windows(toks, 3) {
        let [dot, field, op] = [&toks[w], &toks[w + 1], &toks[w + 2]];
        if dot.is_punct(".")
            && field.kind == TokenKind::Ident
            && COUNTER_FIELDS.contains(&field.text.as_str())
            && (op.is_punct("+=") || op.is_punct("+"))
            && !ctx.in_test_region(field.line)
        {
            out.push(ctx.finding(
                "counter-arith",
                field,
                format!(
                    "bare `{}` on counter field `{}` — use `sat_bump`/saturating \
                     helpers so counters saturate instead of wrapping",
                    op.text, field.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

/// Match `Ordering::<variant>` for the five atomic orderings (this skips
/// `std::cmp::Ordering::Less/Equal/Greater`, which shares the type name but
/// not the variants).  Outside [`ATOMICS_ALLOWLIST`] any use is a finding;
/// inside, the enclosing fn must carry a `// ordering:` justification, and
/// `SeqCst` is flagged unconditionally (the shims, which are excluded from
/// analysis entirely, are the only place it belongs).
fn atomic_ordering(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    let allowlisted = ATOMICS_ALLOWLIST.contains(&ctx.rel_path);
    for w in code_windows(toks, 3) {
        let [ty, sep, variant] = [&toks[w], &toks[w + 1], &toks[w + 2]];
        if !(ty.is_ident("Ordering")
            && sep.is_punct("::")
            && variant.kind == TokenKind::Ident
            && ATOMIC_ORDERINGS.contains(&variant.text.as_str()))
        {
            continue;
        }
        if ctx.in_test_region(variant.line) {
            continue;
        }
        if !allowlisted {
            out.push(ctx.finding(
                "atomic-ordering",
                variant,
                format!(
                    "`Ordering::{}` in `{}`, which is not in the atomics \
                     allowlist — add the module to ATOMICS_ALLOWLIST \
                     deliberately or use a non-atomic design",
                    variant.text, ctx.rel_path
                ),
            ));
            continue;
        }
        if variant.text == "SeqCst" {
            out.push(
                ctx.finding(
                    "atomic-ordering",
                    variant,
                    "`Ordering::SeqCst` outside the shims — downgrade to the \
                 weakest correct ordering and write the argument down"
                        .to_owned(),
                ),
            );
            continue;
        }
        if !ctx.regions.has_ordering_justification(variant.line) {
            out.push(ctx.finding(
                "atomic-ordering",
                variant,
                format!(
                    "`Ordering::{}` without a `// ordering:` justification \
                     in the enclosing fn — explain why this ordering is \
                     sufficient",
                    variant.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// safety-comment
// ---------------------------------------------------------------------------

/// Every `unsafe` keyword (block or fn) must have a `// SAFETY:` comment
/// within the three lines above it, on its own line, or on the line right
/// below (the first line inside the block) — or, for `unsafe fn`, a
/// `# Safety` rustdoc section on the item.
fn safety_comment(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("unsafe") || ctx.in_test_region(tok.line) {
            continue;
        }
        let nearby = toks.iter().any(|t| {
            t.is_comment()
                && (tok.line.saturating_sub(3)..=tok.line + 1).contains(&t.line)
                && t.text.contains("SAFETY:")
        });
        if nearby {
            continue;
        }
        let is_fn = toks[i + 1..]
            .iter()
            .find(|t| !t.is_comment())
            .is_some_and(|t| t.is_ident("fn"));
        if is_fn && doc_has_safety_section(toks, i) {
            continue;
        }
        let what = if is_fn { "unsafe fn" } else { "unsafe block" };
        out.push(ctx.finding(
            "safety-comment",
            tok,
            format!(
                "{what} without an adjacent `// SAFETY:` comment — state the \
                 invariant that makes this sound"
            ),
        ));
    }
    out
}

/// Walk backwards from the `unsafe` token over attributes, visibility and
/// qualifiers to the item's doc comments; true if they contain `# Safety`.
fn doc_has_safety_section(toks: &[Token], unsafe_idx: usize) -> bool {
    let mut i = unsafe_idx;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment if t.text.contains("# Safety") => {
                return true;
            }
            // Stop at the end of the previous item.
            TokenKind::Punct if matches!(t.text.as_str(), ";" | "}" | "{") => return false,
            // Comments without the section, pub, crate, attribute tokens.
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// Allocation constructors denied in the hot modules: `Vec::new`,
/// `vec![…]`, `collect::<Vec…>`, `.to_vec()`, `Box::new`.
fn hot_path_alloc(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    let mut found: Vec<(usize, &'static str)> = Vec::new();
    for w in code_windows(toks, 3) {
        let [a, b, c] = [&toks[w], &toks[w + 1], &toks[w + 2]];
        if a.is_ident("Vec") && b.is_punct("::") && c.is_ident("new") {
            found.push((w, "Vec::new"));
        }
        if a.is_ident("Box") && b.is_punct("::") && c.is_ident("new") {
            found.push((w, "Box::new"));
        }
        if a.is_ident("vec") && b.is_punct("!") {
            found.push((w, "vec!"));
        }
        if a.is_punct(".") && b.is_ident("to_vec") && c.is_punct("(") {
            found.push((w + 1, ".to_vec()"));
        }
        if a.is_ident("collect")
            && b.is_punct("::")
            && c.is_punct("<")
            && next_code_token(toks, w + 3).is_some_and(|d| d.is_ident("Vec"))
        {
            found.push((w, "collect::<Vec>"));
        }
    }
    for (idx, what) in found {
        let tok = &toks[idx];
        if ctx.in_test_region(tok.line) {
            continue;
        }
        out.push(ctx.finding(
            "hot-path-alloc",
            tok,
            format!(
                "`{what}` in hot module `{}` — steady-state traversal must \
                 not allocate; use the scratch arenas, or waive a \
                 setup/teardown path with a reason",
                ctx.rel_path
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// lib-unwrap
// ---------------------------------------------------------------------------

/// `.unwrap()` / `.expect(` / `panic!` in non-test library code.
/// Converting to a proper error return is preferred; a truly unreachable
/// case can stay as a waived `.expect("invariant …")` with the invariant in
/// the waiver.  `unreachable!` (and `debug_assert!`) are deliberately NOT
/// matched: they document impossible branches, which a structured error
/// would mislabel as a caller-visible failure mode.
fn lib_unwrap(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    for w in code_windows(toks, 3) {
        let [dot, method, paren] = [&toks[w], &toks[w + 1], &toks[w + 2]];
        if dot.is_punct(".")
            && (method.is_ident("unwrap") || method.is_ident("expect"))
            && paren.is_punct("(")
            && !ctx.in_test_region(method.line)
        {
            out.push(ctx.finding(
                "lib-unwrap",
                method,
                format!(
                    "`.{}()` in library code — return a proper error, or \
                     waive with the invariant that rules the panic out",
                    method.text
                ),
            ));
        }
    }
    for w in code_windows(toks, 2) {
        let [mac, bang] = [&toks[w], &toks[w + 1]];
        if mac.is_ident("panic") && bang.is_punct("!") && !ctx.in_test_region(mac.line) {
            out.push(
                ctx.finding(
                    "lib-unwrap",
                    mac,
                    "`panic!` in library code — return a structured error \
                 (fault-tolerant callers must never see a panic), or waive \
                 with the invariant that rules it out"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// shared-tally
// ---------------------------------------------------------------------------

/// `.fetch_add` whose receiver does not end in an index (`]`).  A receiver
/// like `self.finds` is one cell every worker bumps; `counts[q]` is a
/// per-query (or per-shard) cell with one writer at a time, which is how
/// the count output mode and the shard popularity ticks are built.
fn shared_tally(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    for w in code_windows(toks, 3) {
        let [receiver_end, dot, method] = [&toks[w], &toks[w + 1], &toks[w + 2]];
        if dot.is_punct(".")
            && method.is_ident("fetch_add")
            && !receiver_end.is_punct("]")
            && !ctx.in_test_region(method.line)
        {
            out.push(
                ctx.finding(
                    "shared-tally",
                    method,
                    "`.fetch_add` on a shared atomic — every worker bumping one \
                 cell serialises them on its cache line; tally into the \
                 worker's `WorkCounters` and merge when the workers join"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Token-walk helpers
// ---------------------------------------------------------------------------

/// Window start indices whose `width` tokens contain no comment, so the
/// pattern rules never match across a comment boundary.  (A construct
/// "hidden" by an interior comment — `.rays /* x */ +=` — is vanishingly
/// rare and would be caught the moment the comment moves.)
fn code_windows(tokens: &[Token], width: usize) -> Vec<usize> {
    (0..tokens.len().saturating_sub(width - 1))
        .filter(|&i| tokens[i..i + width].iter().all(|t| !t.is_comment()))
        .collect()
}

/// The next non-comment token at or after `i`.
fn next_code_token(tokens: &[Token], i: usize) -> Option<&Token> {
    tokens
        .get(i..)
        .and_then(|ts| ts.iter().find(|t| !t.is_comment()))
}

// ---------------------------------------------------------------------------
// Region tracking
// ---------------------------------------------------------------------------

/// Line-range facts about one file, computed once from the token stream:
/// `#[cfg(test)]`/`#[test]` regions, fn extents, and the lines covered by
/// `// ordering:` justification comments.
#[derive(Debug, Default)]
pub struct Regions {
    /// Inclusive line ranges of test-gated items (the brace-matched block
    /// following the attribute).  `#[cfg(not(test))]` is NOT a test region.
    pub test_regions: Vec<(u32, u32)>,
    /// Each fn's extent: (line of the `fn` keyword, last line of its body).
    pub fn_regions: Vec<(u32, u32)>,
    /// Lines of `// ordering:` comments.
    ordering_comment_lines: Vec<u32>,
}

impl Regions {
    /// True when the fn enclosing `line` carries a `// ordering:` comment —
    /// inside its body, or within the three lines above the `fn` keyword
    /// (for a comment sitting on the signature).
    pub fn has_ordering_justification(&self, line: u32) -> bool {
        let encl = self
            .fn_regions
            .iter()
            .filter(|&&(start, end)| (start..=end).contains(&line))
            .max_by_key(|&&(start, _)| start);
        match encl {
            Some(&(start, end)) => self
                .ordering_comment_lines
                .iter()
                .any(|&l| (start.saturating_sub(3)..=end).contains(&l)),
            // Ordering:: outside any fn (consts, statics): accept a
            // justification within three lines above the use.
            None => self
                .ordering_comment_lines
                .iter()
                .any(|&l| (line.saturating_sub(3)..=line).contains(&l)),
        }
    }

    /// Compute all regions for a token stream.
    pub fn compute(tokens: &[Token]) -> Regions {
        let mut r = Regions::default();
        // A justification block is a run of consecutive `//` lines; if any
        // line of the run carries `ordering:`, the whole run justifies (a
        // long block's marker line may sit several lines above the code it
        // covers).
        let mut run: Vec<u32> = Vec::new();
        let mut run_has_marker = false;
        let flush = |run: &mut Vec<u32>, has: &mut bool, out: &mut Vec<u32>| {
            if *has {
                out.append(run);
            }
            run.clear();
            *has = false;
        };
        for t in tokens {
            if t.kind == TokenKind::LineComment {
                if run.last().is_some_and(|&l| t.line != l + 1) {
                    flush(&mut run, &mut run_has_marker, &mut r.ordering_comment_lines);
                }
                run.push(t.line);
                run_has_marker |= t.text.contains("ordering:");
            }
        }
        flush(&mut run, &mut run_has_marker, &mut r.ordering_comment_lines);

        // Brace matching with pending attribute/fn markers.  Each `{`
        // pushes a frame recording whether it opens a test region and/or a
        // fn body; the matching `}` closes them.
        struct Frame {
            test_start: Option<u32>,
            fn_start: Option<u32>,
        }
        let mut stack: Vec<Frame> = Vec::new();
        let mut pending_test = false;
        let mut pending_fn: Option<u32> = None;
        let toks: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut i = 0usize;
        while i < toks.len() {
            let t = toks[i];
            match t.kind {
                // Attribute `#[…]` (inner `#![…]` can't gate an item).
                TokenKind::Punct
                    if t.text == "#" && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) =>
                {
                    let (attr_toks, after) = bracketed(&toks, i + 1);
                    if attr_is_test(&attr_toks) {
                        pending_test = true;
                    }
                    i = after;
                    continue;
                }
                TokenKind::Ident if t.text == "fn" => {
                    pending_fn = Some(t.line);
                }
                TokenKind::Punct if t.text == ";" => {
                    // Item without a body: `#[cfg(test)] mod t;`, trait fn
                    // declarations, fn-pointer type aliases.
                    pending_fn = None;
                    pending_test = false;
                }
                TokenKind::Punct if t.text == "{" => {
                    stack.push(Frame {
                        test_start: pending_test.then_some(t.line),
                        fn_start: pending_fn,
                    });
                    pending_test = false;
                    pending_fn = None;
                }
                TokenKind::Punct if t.text == "}" => {
                    if let Some(f) = stack.pop() {
                        if let Some(start) = f.test_start {
                            r.test_regions.push((start, t.line));
                        }
                        if let Some(start) = f.fn_start {
                            r.fn_regions.push((start, t.line));
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        r
    }
}

/// Collect the tokens of a `[…]` group starting at the `[` at `open`;
/// returns the inner tokens (nesting included) and the index just past the
/// closing `]`.
fn bracketed<'t>(toks: &[&'t Token], open: usize) -> (Vec<&'t Token>, usize) {
    let mut depth = 0usize;
    let mut inner = Vec::new();
    let mut i = open;
    while i < toks.len() {
        let t = toks[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (inner, i + 1);
            }
        } else if depth > 0 {
            inner.push(t);
        }
        i += 1;
    }
    (inner, i)
}

/// Is this attribute token list a test gate?  `test` and `cfg(… test …)`
/// are; `cfg(not(test))` is not.  The `not` check is deliberately coarse —
/// `cfg(all(test, not(feature = "x")))` would be misread as non-test, which
/// only makes the analyzer stricter, never laxer.
fn attr_is_test(attr: &[&Token]) -> bool {
    let has = |w: &str| attr.iter().any(|t| t.is_ident(w));
    if attr.first().is_some_and(|t| t.is_ident("test")) {
        return true;
    }
    attr.first().is_some_and(|t| t.is_ident("cfg")) && has("test") && !has("not")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_findings(path: &str, src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let regions = Regions::compute(&tokens);
        let ctx = FileContext {
            rel_path: path,
            tokens: &tokens,
            regions: &regions,
        };
        registry()
            .iter()
            .filter(|r| (r.applies)(path))
            .flat_map(|r| (r.check)(&ctx))
            .collect()
    }

    #[test]
    fn counter_arith_fires_on_bare_plus_eq() {
        let f = ctx_findings(
            "crates/rtcore/src/traversal/mod.rs",
            "fn go(c: &mut WorkCounters) { c.rays += 1; }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "counter-arith");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn counter_arith_ignores_tests_and_counters_rs() {
        assert!(ctx_findings(
            "crates/rtcore/src/hardware/counters.rs",
            "fn go(c: &mut WorkCounters) { c.rays += 1; }",
        )
        .is_empty());
        assert!(ctx_findings(
            "crates/rtcore/src/traversal/mod.rs",
            "#[cfg(test)]\nmod tests { fn go(c: &mut W) { c.rays += 1; } }",
        )
        .is_empty());
    }

    #[test]
    fn cmp_ordering_variants_do_not_trip_atomic_rule() {
        assert!(ctx_findings(
            "crates/dbscan/src/lib.rs",
            "fn f(o: std::cmp::Ordering) -> bool { matches!(o, Ordering::Less) }",
        )
        .is_empty());
    }

    #[test]
    fn test_region_tracking_handles_nested_braces() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(x: bool) { if x { y(); } }\n  fn g(c: &mut W) { c.rays += 1; }\n}\nfn h(c: &mut W) { c.rays += 1; }\n";
        let f = ctx_findings("crates/rtcore/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod m {\n  fn g(c: &mut W) { c.rays += 1; }\n}\n";
        let f = ctx_findings("crates/rtcore/src/x.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn ordering_justification_scopes_to_the_enclosing_fn() {
        let ok = "// ordering: relaxed is fine, counter only\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        assert!(ctx_findings("crates/rtcore/src/index/grid.rs", ok).is_empty());
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        let f = ctx_findings("crates/rtcore/src/index/grid.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("ordering:"));
    }

    #[test]
    fn seqcst_is_always_flagged() {
        let src = "// ordering: justified?\nfn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }";
        let f = ctx_findings("crates/rtcore/src/index/grid.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SeqCst"));
    }

    #[test]
    fn safety_comment_accepts_doc_section_for_unsafe_fn() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller checks x.\n#[inline]\npub unsafe fn f() {}\n";
        assert!(ctx_findings("crates/rtcore/src/simd.rs", src).is_empty());
        let bad = "pub unsafe fn f() {}\n";
        let f = ctx_findings("crates/rtcore/src/simd.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unsafe fn"));
    }

    #[test]
    fn hot_path_alloc_catches_all_five_constructors() {
        let src = "fn f() { let a = Vec::new(); let b = vec![1]; let c: Vec<u8> = it.collect::<Vec<u8>>(); let d = s.to_vec(); let e = Box::new(1); }";
        let f = ctx_findings("crates/rtcore/src/traversal/batch.rs", src);
        assert_eq!(f.len(), 5, "{f:?}");
    }

    #[test]
    fn lib_unwrap_fires_outside_tests_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod t { fn g(x: Option<u8>) -> u8 { x.expect(\"in test\") } }";
        let f = ctx_findings("crates/stream/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lib-unwrap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn lib_unwrap_catches_panic_but_not_unreachable() {
        let f = ctx_findings(
            "crates/rtcore/src/fault.rs",
            "fn f(x: u8) { if x > 3 { panic!(\"bad {x}\"); } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lib-unwrap");
        assert!(f[0].message.contains("panic!"));

        // unreachable! documents an impossible branch and stays legal, as
        // do panics inside test regions.
        assert!(ctx_findings(
            "crates/rtcore/src/fault.rs",
            "fn f(x: u8) { match x { 0 => {} _ => unreachable!(\"masked\") } }\n#[cfg(test)]\nmod t { fn g() { panic!(\"fine in tests\") } }",
        )
        .is_empty());
    }

    #[test]
    fn shared_tally_spares_indexed_cells_and_other_paths() {
        let src = "// ordering: tallies\nfn f(s: &S, q: usize) { s.finds.fetch_add(1, Ordering::Relaxed); s.counts[q].fetch_add(1, Ordering::Relaxed); }";
        let f = ctx_findings("crates/rtcore/src/index/grid.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "shared-tally");
        assert!(ctx_findings("crates/rtcore/src/telemetry/mod.rs", src)
            .iter()
            .all(|f| f.rule != "shared-tally"));
    }

    #[test]
    fn tricky_lexing_no_false_positives() {
        let src = r####"
fn f() {
    let s = "unsafe { }";
    let r = r#"c.rays += 1"#;
    // unsafe in a comment keyword soup: .unwrap() vec![] Box::new
    /* c.dist_comps += 2 */
    let msg = ".unwrap()";
}
"####;
        assert!(ctx_findings("crates/rtcore/src/x.rs", src).is_empty());
    }
}
