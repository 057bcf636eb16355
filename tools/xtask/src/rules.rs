//! The lint rules, matched on the token stream, and the manifest check.
//!
//! What rustc and clippy can say is configuration, not code here: the root
//! `Cargo.toml`'s `[workspace.lints]` forbids `unsafe` and turns on
//! `clippy::iter_over_hash_type`, the `engine`, `service` and `net` crate
//! roots deny `unwrap_used` / `expect_used`, and the `clippy.toml` files'
//! `disallowed-methods` / `disallowed-types` lists keep `std::fs` in the
//! storage crate's WAL, sockets in `crates/net`, raw `std::sync` /
//! `std::thread` out of `service` and `net`, and hasher-order iteration out
//! of everything. The rules left are the ones no lint configuration can
//! express:
//!
//! * **ordering-comment** — every atomic memory ordering carries an adjacent
//!   `// ordering:` justification. Clippy has no lint that asks for a comment
//!   beside an atomic.
//! * **kernel-no-alloc** — no allocation in the scoring-kernel modules (by
//!   name) and the files on [`HOT_PATH_FILES`]. A `clippy.toml` applies to a
//!   whole package, never to a few files of one.
//! * **workspace-lints** — every walked manifest has `[lints]` with
//!   `workspace = true`. Cargo cannot require a member to inherit the
//!   workspace lints, and a member that does not silently drops all of the
//!   configured rules above.
//!
//! Rules match *significant tokens*, so occurrences inside string literals
//! and (nested) block comments never produce findings (pinned by
//! `tokens_inside_strings_no_longer_trip_rules` and
//! `tokens_inside_block_comments_no_longer_trip_rules`). The exception and
//! justification comment grammar stays line-oriented on purpose (comments
//! are trivia in the token stream): `// lint: allow(<rule>) -- <reason>`
//! applies on its own line or the line above the finding.

use crate::model::FileCtx;
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

pub const RULE_ORDERING_COMMENT: &str = "ordering-comment";
pub const RULE_KERNEL_NO_ALLOC: &str = "kernel-no-alloc";
pub const RULE_WORKSPACE_LINTS: &str = "workspace-lints";

/// Hot-path files that are not named like a kernel module but are held to
/// `kernel-no-alloc` all the same. The workspace forbids `unsafe`, so a
/// counting allocator is not available to a test: this list is what keeps
/// a per-access allocation from creeping back into these loops. Set-up code
/// in them (constructors, lazy sizing) carries the usual annotation.
const HOT_PATH_FILES: [&str; 6] = [
    "crates/topk/src/reverse.rs",
    "crates/topk/src/scan.rs",
    "crates/topk/src/kept.rs",
    "crates/topk/src/lists.rs",
    "crates/topk/src/alive.rs",
    "crates/skyline/src/maintain.rs",
];

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One linter finding, rendered `path:line: rule: message`.
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// All per-file source rules.
pub fn lint_file_ctx(cx: &FileCtx) -> Vec<Diagnostic> {
    let path = &cx.path;
    let mut out = ordering_comment(cx);
    if (is_kernel_file(path) || HOT_PATH_FILES.iter().any(|f| path.ends_with(f)))
        && !is_test_file(path)
    {
        kernel_no_alloc(cx, &mut out);
    }
    out
}

/// Every `Ordering::{Relaxed, …}` needs a `// ordering:` justification, test
/// code included: a memory ordering needs one no matter where it appears.
/// The variant names are disjoint from `cmp::Ordering`'s, so comparison code
/// never trips this rule.
fn ordering_comment(cx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
    for si in 0..cx.sig_len() {
        if !cx.is_ident(si, "Ordering") || !is_path_sep(cx, si + 1) {
            continue;
        }
        let Some(variant) = ATOMIC_ORDERINGS.iter().find(|v| cx.is_ident(si + 3, v)) else {
            continue;
        };
        let line = cx.sline(si);
        if !seen.insert((line, variant)) {
            continue;
        }
        if !has_adjacent_ordering_comment(&cx.lines, line)
            && !has_exception(&cx.lines, line, RULE_ORDERING_COMMENT)
        {
            out.push(diag(
                &cx.path,
                line,
                RULE_ORDERING_COMMENT,
                format!(
                    "`Ordering::{variant}` has no adjacent `// ordering:` justification comment"
                ),
            ));
        }
    }
    out
}

/// The `kernel-no-alloc` scan of one in-scope file: the allocator denylist
/// over its non-test code, at most one finding per line.
fn kernel_no_alloc(cx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let path = &cx.path;
    // one finding per line, path constructors before method allocators
    let mut hits: Vec<(u32, usize, &str)> = Vec::new();
    for si in 0..cx.sig_len() {
        let line = cx.sline(si);
        if matches_path(cx, si, &["Vec", "new"]) {
            hits.push((line, 0, "Vec::new"));
        }
        if cx.is_ident(si, "vec") && cx.is_punct(si + 1, '!') {
            hits.push((line, 1, "vec!"));
        }
        if matches_path(cx, si, &["Box", "new"]) {
            hits.push((line, 2, "Box::new"));
        }
        if method_call(cx, si, "to_vec") && cx.is_punct(si + 3, ')') {
            hits.push((line, 3, ".to_vec()"));
        }
        if method_call(cx, si, "collect") && cx.is_punct(si + 3, ')') {
            hits.push((line, 4, ".collect()"));
        }
        if method_call(cx, si, "to_owned") && cx.is_punct(si + 3, ')') {
            hits.push((line, 5, ".to_owned()"));
        }
    }
    hits.sort();
    let mut last_line = 0u32;
    for (line, _, token) in hits {
        if line == last_line || cx.in_tests(line) {
            continue;
        }
        last_line = line;
        if !has_exception(&cx.lines, line, RULE_KERNEL_NO_ALLOC) {
            out.push(diag(
                path,
                line,
                RULE_KERNEL_NO_ALLOC,
                format!(
                    "`{token}` in kernel hot-path code — reuse caller-owned scratch, or \
                     annotate a setup-path allocation with \
                     `// lint: allow(kernel-no-alloc) -- <reason>`"
                ),
            ));
        }
    }
}

/// A manifest must opt into the workspace lints (see module docs): a
/// `[lints]` table holding `workspace = true`.
pub fn lint_manifest(path: &str, manifest: &str) -> Vec<Diagnostic> {
    let mut in_lints = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    vec![diag(
        path,
        1,
        RULE_WORKSPACE_LINTS,
        "manifest does not inherit the workspace lints — add `[lints]` with \
         `workspace = true`"
            .to_string(),
    )]
}

// ---- shared matching helpers ---------------------------------------------

fn diag(path: &str, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule,
        message,
    }
}

/// `::` starting at significant index `si`.
fn is_path_sep(cx: &FileCtx, si: usize) -> bool {
    cx.is_punct(si, ':') && cx.is_punct(si + 1, ':')
}

/// `segs[0]::segs[1]::…` as consecutive significant tokens starting at `si`.
/// Token granularity gives the line scanner's `contains_token` boundary
/// check (an identifier `MyVec` never matches the segment `Vec`) for free.
pub fn matches_path(cx: &FileCtx, si: usize, segs: &[&str]) -> bool {
    if !cx.is_ident(si, segs[0]) {
        return false;
    }
    let mut pos = si;
    for seg in &segs[1..] {
        if !is_path_sep(cx, pos + 1) || !cx.is_ident(pos + 3, seg) {
            return false;
        }
        pos += 3;
    }
    true
}

/// `.name(` starting at significant index `si` (which must be the `.`).
pub fn method_call(cx: &FileCtx, si: usize, name: &str) -> bool {
    cx.is_punct(si, '.') && cx.is_ident(si + 1, name) && cx.is_punct(si + 2, '(')
}

/// Scoring-kernel modules by workspace convention: `kernel.rs`,
/// `kernels.rs`, or a `_kernel(s)` suffix. Deliberately narrower than
/// "contains `kernel`" — a harness file *about* kernels (a `_perf` or
/// `_bench` stem) is measurement code, not a hot loop.
pub fn is_kernel_file(path: &str) -> bool {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    stem == "kernel" || stem == "kernels" || stem.ends_with("_kernel") || stem.ends_with("_kernels")
}

/// Test code by location: every file under a `tests/`, `benches/` or
/// `examples/` directory, and whole-file test modules (declared
/// `#[cfg(test)] mod x;`), which carry it in their name by workspace
/// convention.
pub fn is_test_file(path: &str) -> bool {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    stem == "tests"
        || stem.ends_with("_tests")
        || path
            .split('/')
            .any(|dir| matches!(dir, "tests" | "benches" | "examples"))
}

/// Lines that do not break a contiguous comment block above a flagged line:
/// comments and attributes (an attribute may sit between the justification
/// and the expression).
fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#[")
}

/// True when 1-based `line` has a `// ordering:` comment on the same line or
/// in the contiguous run of comment/attribute lines directly above it.
pub fn has_adjacent_ordering_comment(lines: &[String], line: u32) -> bool {
    let idx = (line as usize).saturating_sub(1);
    if lines.get(idx).is_some_and(|l| l.contains("// ordering:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        if !is_comment_line(&lines[i]) {
            return false;
        }
        if lines[i].contains("// ordering:") {
            return true;
        }
    }
    false
}

/// True when 1-based `line` (or the line above) carries
/// `// lint: allow(<rule>)`.
pub fn has_exception(lines: &[String], line: u32, rule: &str) -> bool {
    let marker = format!("// lint: allow({rule})");
    let idx = (line as usize).saturating_sub(1);
    lines.get(idx).is_some_and(|l| l.contains(&marker))
        || (idx > 0 && lines[idx - 1].contains(&marker))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, source: &str) -> Vec<String> {
        let cx = FileCtx::new(path, source);
        lint_file_ctx(&cx).iter().map(|d| d.to_string()).collect()
    }

    // -- ordering-comment -------------------------------------------------

    #[test]
    fn bare_orderings_are_flagged_with_file_and_line() {
        // lint: allow(ordering-comment) -- lint self-test fixture
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n";
        let found = findings("crates/x/src/m.rs", src);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].starts_with("crates/x/src/m.rs:2: ordering-comment:"),
            "{}",
            found[0]
        );
    }

    #[test]
    fn ordering_comments_may_be_inline_or_in_the_block_above() {
        let inline = "let v = a.load(Ordering::Relaxed); // ordering: tally only\n";
        assert!(findings("crates/x/src/m.rs", inline).is_empty());
        let above = "// ordering: Release pairs with the reader's Acquire;\n\
                     // the slot write above must be visible first\n\
                     a.store(1, Ordering::Release);\n"; // lint: allow(ordering-comment) -- fixture
        assert!(findings("crates/x/src/m.rs", above).is_empty());
        // a non-comment line breaks the contiguous block
        // lint: allow(ordering-comment) -- lint self-test fixture
        let detached =
            "// ordering: stale justification\nlet x = 1;\na.store(x, Ordering::Release);\n";
        assert_eq!(findings("crates/x/src/m.rs", detached).len(), 1);
    }

    #[test]
    fn cmp_ordering_never_trips_the_atomic_rule() {
        let src = "fn f(a: i32, b: i32) -> std::cmp::Ordering {\n\
                       a.cmp(&b).then(std::cmp::Ordering::Less)\n}\n";
        assert!(findings("crates/x/src/m.rs", src).is_empty());
    }

    #[test]
    fn orderings_must_be_justified_even_in_test_modules() {
        // lint: allow(ordering-comment) -- lint self-test fixture
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &A) { a.load(Ordering::SeqCst); }\n}\n";
        assert_eq!(findings("crates/x/src/m.rs", src).len(), 1);
        // integration tests, benches and examples are walked and held to it
        assert_eq!(findings("crates/x/tests/stress.rs", src).len(), 1);
    }

    // -- kernel-no-alloc --------------------------------------------------

    #[test]
    fn allocation_is_rejected_in_kernel_modules() {
        let src = "fn f() { let v: Vec<f64> = Vec::new(); }\n";
        let found = findings("crates/geom/src/kernel.rs", src);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].starts_with("crates/geom/src/kernel.rs:1: kernel-no-alloc:"),
            "{}",
            found[0]
        );
        // scoped by module name, not by crate — and harness files about
        // kernels are measurement code, not hot loops
        assert!(findings("crates/geom/src/util.rs", src).is_empty());
        assert!(findings("crates/x/src/kernels_perf.rs", src).is_empty());
        assert!(findings("crates/x/src/bin/kernels_bench.rs", src).is_empty());
        // a `_kernel` suffix is in scope
        assert_eq!(findings("crates/x/src/score_kernel.rs", src).len(), 1);
        // method-call allocators are caught too
        for bad in [
            "fn f(w: &[f64]) { let _ = w.to_vec(); }\n",
            "fn f() { let _: Vec<u32> = (0..4).collect(); }\n",
            "fn f(s: &str) { let _ = s.to_owned(); }\n",
            "fn f() { let _ = vec![0.0; 8]; }\n",
        ] {
            assert_eq!(findings("crates/geom/src/kernel.rs", bad).len(), 1, "{bad}");
        }
        // a longer path is not bisected into a false positive
        assert!(findings("crates/geom/src/kernel.rs", "fn f() { MyVec::new(); }\n").is_empty());
        // annotated setup-path allocations are accepted
        let annotated = "// lint: allow(kernel-no-alloc) -- table construction, not a scan\n\
                         let rows: Vec<f64> = it.collect();\n";
        assert!(findings("crates/geom/src/kernel.rs", annotated).is_empty());
        // test code allocates freely, in a test module or a test target
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let v = Vec::new(); }\n}\n";
        assert!(findings("crates/geom/src/kernel.rs", test_src).is_empty());
        assert!(findings("crates/geom/benches/kernel.rs", src).is_empty());
    }

    #[test]
    fn allocation_is_rejected_in_the_reverse_top1_search() {
        // the listed hot-path file is in scope although nothing in its name
        // says "kernel": an allocation inside the per-access functions is a
        // finding, wherever in the file it sits
        let path = "crates/topk/src/reverse.rs";
        for (file, bad, token) in [
            (
                path,
                "impl ReverseTopOne {\n    pub fn best(&mut self) {\n        \
                 let dead: Vec<usize> = Vec::new();\n    }\n}\n",
                "Vec::new",
            ),
            (
                path,
                "impl ReverseTopOne {\n    fn advance(&mut self, dim: usize) {\n        \
                 let seen: Vec<usize> = self.queue.iter().map(|c| c.1).collect();\n    }\n}\n",
                ".collect()",
            ),
            (
                path,
                "impl ReverseTopOne {\n    fn current_threshold(&self, budget: f64) -> f64 {\n        \
                 let capped: Vec<f64> = self.last_seen.iter().copied().collect();\n        \
                 0.0\n    }\n}\n",
                ".collect()",
            ),
            // and so is the default search, the scan, and the kept rows both
            // sides of a loop select with: a scan or an offer keeps rows,
            // never allocates them
            (
                "crates/topk/src/scan.rs",
                "impl ScanTopOne {\n    fn best(&mut self, alive: &AliveFunctions) {\n        \
                 let rows = alive.rows().to_vec();\n    }\n}\n",
                ".to_vec()",
            ),
            (
                "crates/topk/src/kept.rs",
                "impl KeptRows {\n    pub fn scan(&mut self, query: &[f64]) {\n        \
                 let mut scores = Vec::new();\n    }\n}\n",
                "Vec::new",
            ),
            (
                "crates/topk/src/kept.rs",
                "impl KeptRows {\n    pub fn offer(&mut self, score: f64, id: usize) {\n        \
                 let rows: Vec<Row> = self.rows.iter().copied().collect();\n    }\n}\n",
                ".collect()",
            ),
            // and so is UpdateSkyline's pass 1, which consults its recent
            // owners once per pruned entry: they stay a stack array
            (
                "crates/skyline/src/maintain.rs",
                "fn update_skyline_filtered(removed: Vec<SkylineObject>) {\n    for object in removed {\n        \
                 let mut recent: Vec<usize> = Vec::new();\n    }\n}\n",
                "Vec::new",
            ),
        ] {
            let found = findings(file, bad);
            assert_eq!(found.len(), 1, "{bad}");
            assert!(
                found[0].starts_with(&format!("{file}:3: kernel-no-alloc:"))
                    && found[0].contains(token),
                "{}",
                found[0]
            );
        }
        // the constructor and the lazy bitset sizing are set-up: annotated
        let setup = "impl ReverseTopOne {\n    pub fn new(dims: usize) -> Self {\n        \
                     // lint: allow(kernel-no-alloc) -- set-up: one state per object\n        \
                     Self { cursors: vec![0; dims] }\n    }\n}\n";
        assert!(findings(path, setup).is_empty());
        // so is the function index the searches read: the alive block's
        // `remove` and `score` run once per search or per access, TA's
        // `next_alive` once per sorted access
        for (file, bad) in [
            (
                "crates/topk/src/alive.rs",
                "impl AliveFunctions {\n    pub fn remove(&mut self, function: usize) -> bool {\n        \
                 self.row_function = self.alive_functions().to_vec();\n        true\n    }\n}\n",
            ),
            (
                "crates/topk/src/lists.rs",
                "impl FunctionLists {\n    pub fn next_alive(&self, dim: usize) -> usize {\n        \
                 self.lists[dim].to_vec().len()\n    }\n}\n",
            ),
        ] {
            let found = findings(file, bad);
            assert_eq!(found.len(), 1, "{bad}");
            assert!(
                found[0].starts_with(&format!("{file}:3: kernel-no-alloc:"))
                    && found[0].contains(".to_vec()"),
                "{}",
                found[0]
            );
        }
        let built = "impl AliveFunctions {\n    pub fn new(n: usize) -> Self {\n        \
                     // lint: allow(kernel-no-alloc) -- set-up: one index per solve\n        \
                     Self { rows: (0..n).collect() }\n    }\n}\n";
        assert!(findings("crates/topk/src/alive.rs", built).is_empty());
        // the list names files, not crates or stems
        let src = "fn f() { let v: Vec<f64> = Vec::new(); }\n";
        assert!(findings("crates/topk/src/batch.rs", src).is_empty());
        assert!(findings("crates/bench/src/reverse.rs", src).is_empty());
        assert!(findings("crates/bench/src/lists.rs", src).is_empty());
        assert!(findings("crates/bench/src/scan.rs", src).is_empty());
        assert!(findings("crates/bench/src/kept.rs", src).is_empty());
        assert!(findings("crates/bench/src/alive.rs", src).is_empty());
        assert!(findings("crates/skyline/src/bbs.rs", src).is_empty());
        // and the file's own tests allocate freely
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let v = Vec::new(); }\n}\n";
        assert!(findings(path, test_src).is_empty());
    }

    // -- the exception grammar and the lexer, on the rules that stay -----

    #[test]
    fn exception_comments_suppress_a_single_finding() {
        let path = "crates/geom/src/kernel.rs";
        let same_line = "fn f() { Vec::new() } // lint: allow(kernel-no-alloc) -- set-up only\n";
        assert!(findings(path, same_line).is_empty());
        let line_above = "// lint: allow(kernel-no-alloc) -- set-up: one table per solve\n\
                          fn f() { Vec::new() }\n";
        assert!(findings(path, line_above).is_empty());
        // the exception names a rule; a different rule's marker does not leak
        let wrong_rule = "// lint: allow(ordering-comment) -- reason\nfn f() { Vec::new() }\n";
        assert_eq!(findings(path, wrong_rule).len(), 1);
        // and it only reaches one line
        let too_far = "// lint: allow(kernel-no-alloc) -- reason\n\nfn f() { Vec::new() }\n";
        assert_eq!(findings(path, too_far).len(), 1);
    }

    #[test]
    fn commented_out_code_is_not_linted() {
        let src = "// let v = Vec::new();\n//     a.load(Ordering::Acquire);\n";
        assert!(findings("crates/geom/src/kernel.rs", src).is_empty());
    }

    // -- the false-positive class the lexer closes ------------------------

    #[test]
    fn tokens_inside_strings_no_longer_trip_rules() {
        // lint: allow(ordering-comment) -- fixture: the string must stay invisible
        let in_string = "fn f() -> &'static str { \"Ordering::Relaxed\" }\n";
        assert!(findings("crates/x/src/m.rs", in_string).is_empty());
        let alloc_in_string = "const HELP: &str = \"no Vec::new() or .collect() in here\";\n";
        assert!(findings("crates/geom/src/kernel.rs", alloc_in_string).is_empty());
        let macro_in_string = "const HELP: &str = \"vec![0.0; 8] is banned here\";\n";
        assert!(findings("crates/geom/src/kernel.rs", macro_in_string).is_empty());
    }

    #[test]
    fn tokens_inside_block_comments_no_longer_trip_rules() {
        let path = "crates/geom/src/kernel.rs";
        let alloc_in_comment = "/* Vec::new() */ fn f() {}\n";
        assert!(findings(path, alloc_in_comment).is_empty());
        // nested block comments too — the line scanner could not even see
        // where they end
        let nested = "/* outer /* Vec::new() inner */ vec![0] outer */ fn f() {}\n";
        assert!(findings(path, nested).is_empty());
        // lint: allow(ordering-comment) -- fixture: the comment must stay invisible
        let ordering_in_comment = "/* a.load(Ordering::Acquire) */ fn f() {}\n";
        assert!(findings("crates/x/src/m.rs", ordering_in_comment).is_empty());
        // …while the same token as code on the same line is still caught
        // lint: allow(ordering-comment) -- lint self-test fixture
        let mixed = "fn f(a: &A) { /* Vec::new() */ a.load(Ordering::SeqCst); }\n";
        let found = findings(path, mixed);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("ordering-comment"));
    }

    // -- workspace-lints --------------------------------------------------

    #[test]
    fn manifests_must_inherit_the_workspace_lints() {
        let path = "crates/x/Cargo.toml";
        let package = "[package]\nname = \"x\"\nversion.workspace = true\n";
        let found: Vec<String> = lint_manifest(path, package)
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with("crates/x/Cargo.toml:1: workspace-lints:"),
            "{}",
            found[0]
        );
        let inherits = format!("{package}\n[lints]\nworkspace = true # the one opt-in\n");
        assert!(lint_manifest(path, &inherits).is_empty());
        // `workspace = true` in any other table is not the opt-in
        let elsewhere = format!(
            "{package}\n[dependencies.serde]\nworkspace = true\n\n[lints.rust]\nworkspace = true\n"
        );
        assert_eq!(lint_manifest(path, &elsewhere).len(), 1);
        let opted_out = format!("{package}\n[lints]\nworkspace = false\n");
        assert_eq!(lint_manifest(path, &opted_out).len(), 1);
    }
}
