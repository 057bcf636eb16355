//! Workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo run -p xtask -- lint [--json <path>]
//! ```
//!
//! A source-level static-analysis pass for the concurrency and determinism
//! rules this workspace commits to. Still zero-dependency, but no longer a
//! line scanner: `lexer` produces a full trivia-preserving Rust token stream
//! (strings, raw strings, char literals, nested block comments, lifetimes,
//! doc comments — with byte spans), `model` recovers the item skeleton
//! (structs and fields, fn items with parameter/return types, impl blocks,
//! `#[cfg(test)]` regions), and the rules match token sequences instead of
//! substrings — text inside string literals and comments can no longer trip
//! them.
//!
//! Single-file rules (`rules`):
//!
//! * **forbid-unsafe** — every crate root (`src/lib.rs`, `src/main.rs`,
//!   `src/bin/*.rs`) carries `#![forbid(unsafe_code)]`.
//! * **ordering-comment** — every use of an atomic memory ordering
//!   (`Ordering::Relaxed` / `Acquire` / `Release` / `AcqRel` / `SeqCst`)
//!   carries an adjacent `// ordering:` justification comment: on the same
//!   line, or in the contiguous comment block directly above. The variant
//!   names are disjoint from `cmp::Ordering`'s, so comparison code never
//!   trips this rule.
//! * **no-raw-sync** — `crates/service` and `crates/net` go through the
//!   `pref_sync` shim: no direct `std::sync::atomic` / `std::sync::Mutex` /
//!   `std::sync::Condvar` / `std::sync::RwLock` / `std::thread` in their
//!   non-test library code (`std::sync::Arc` is fine — it has no blocking or
//!   ordering behaviour for the model scheduler to interpose on).
//! * **no-unwrap** — no `.unwrap()` / `.expect(` in non-test library code of
//!   `crates/service`, `crates/net` and `crates/engine`.
//! * **no-raw-fs** — durable I/O is the storage crate's job: no `std::fs` in
//!   non-test library code outside the storage backend/WAL and this tool.
//! * **kernel-no-alloc** — scoring-kernel modules (by name) and the listed
//!   hot-path files (`crates/topk/src/{reverse,scan,lists}.rs`: the two
//!   reverse top-1 searches and the function index they read) are hot-loop
//!   code whose steady state must not allocate.
//! * **hash-iter** — no order-dependent iteration (`.iter()` / `.keys()` /
//!   `.values()` / `for … in`) over `HashMap` / `HashSet` in solver, engine
//!   and service library code: ROADMAP item 2 (deterministic log replay)
//!   makes hash-order iteration on an output or replay path a replica
//!   divergence. Keyed lookup stays allowed.
//! * **durability-order** — in `crates/service/src/{shard,durability}.rs`,
//!   any function that takes the shard durability handle and publishes a
//!   snapshot must call `log_batch` and `sync_for_ack` before the publish:
//!   WAL append + fsync dominate the visibility point.
//! * **no-raw-net** — sockets are `crates/net`'s job: no `std::net` in
//!   non-test library code outside the front door, so every wire byte goes
//!   through the one framed, checksummed, admission-controlled path. Plain
//!   address types (`std::net::SocketAddr` & co.) are allowed anywhere.
//!
//! Whole-program analysis (`lockorder`): every mutex acquisition site in
//! `crates/service` + `crates/sync` + `crates/net`, with held-lock sets propagated through
//! the intra-workspace call graph. The resulting static lock-order graph is
//! written to `target/lint/lock-order.dot` on every run and any cycle is a
//! finding — a potential deadlock no bounded model-checking schedule needs
//! to have hit.
//!
//! Suppress a single-file finding where it is genuinely intended with an
//! exception comment on the same line or the line above:
//!
//! ```text
//! // lint: allow(no-unwrap) -- internal invariant: ids are interned above
//! ```
//!
//! Test code is exempt from the scoped rules (`no-raw-sync`, `no-unwrap`,
//! `no-raw-fs`, `kernel-no-alloc`, `hash-iter`): everything after the first
//! `#[cfg(test)]` item in a file, and whole files named `tests.rs` /
//! `*_tests.rs`. `forbid-unsafe` and `ordering-comment` apply everywhere.

#![forbid(unsafe_code)]

mod lexer;
mod lockorder;
mod model;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let json = match args.get(1).map(String::as_str) {
                Some("--json") => match args.get(2) {
                    Some(path) => Some(PathBuf::from(path)),
                    None => {
                        eprintln!("xtask: --json needs a path");
                        return ExitCode::FAILURE;
                    }
                },
                Some(other) => {
                    eprintln!("xtask: unknown lint flag `{other}`");
                    return ExitCode::FAILURE;
                }
                None => None,
            };
            lint_workspace(json.as_deref())
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`");
            eprintln!("usage: cargo run -p xtask -- lint [--json <path>]");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint [--json <path>]");
            ExitCode::FAILURE
        }
    }
}

fn lint_workspace(json: Option<&Path>) -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for member_dir in ["crates", "tools"] {
        collect_rs_files(&root.join(member_dir), &mut files);
    }
    files.sort();

    let mut diagnostics = Vec::new();
    let mut checked = 0usize;
    let mut lock_files = Vec::new();
    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            eprintln!("xtask: cannot read {}", path.display());
            return ExitCode::FAILURE;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string();
        let cx = model::FileCtx::new(&rel, &source);
        diagnostics.extend(rules::lint_file_ctx(&cx));
        checked += 1;
        if (rel.starts_with("crates/service/src")
            || rel.starts_with("crates/sync/src")
            || rel.starts_with("crates/net/src"))
            && !rules::is_test_file(&rel)
        {
            lock_files.push(cx);
        }
    }

    let report = lockorder::analyze(&lock_files);
    let dot_path = root.join("target").join("lint").join("lock-order.dot");
    if let Some(parent) = dot_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&dot_path, lockorder::to_dot(&report)) {
        eprintln!("xtask: cannot write {}: {e}", dot_path.display());
        return ExitCode::FAILURE;
    }
    if report.acquire_sites == 0 {
        // an empty graph means the resolver silently stopped seeing locks —
        // fail loudly instead of reporting a vacuously acyclic workspace
        diagnostics.push(rules::Diagnostic {
            path: "crates/service/src".to_string(),
            line: 0,
            rule: rules::RULE_LOCK_ORDER,
            message: "lock-order analysis found no acquisition sites — the resolver has gone \
                      blind, not the workspace lock-free"
                .to_string(),
        });
    }
    diagnostics.extend(report.diagnostics);
    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });

    if let Some(json_path) = json {
        if let Some(parent) = json_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(json_path, render_json(&diagnostics)) {
            eprintln!("xtask: cannot write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "xtask lint: lock-order graph ({} edges, {} acquisition sites, {} cycles) -> {}",
        report.edges.len(),
        report.acquire_sites,
        report.cycles.len(),
        dot_path.display()
    );
    if diagnostics.is_empty() {
        println!("xtask lint: {checked} files clean");
        ExitCode::SUCCESS
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
        println!(
            "xtask lint: {} violation(s) in {checked} files",
            diagnostics.len()
        );
        ExitCode::FAILURE
    }
}

/// Machine-readable diagnostics: a JSON array of
/// `{"rule", "path", "line", "message"}` objects, hand-rendered (the
/// zero-dependency constraint covers serialization too).
fn render_json(diagnostics: &[rules::Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diagnostics.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            json_escape(&d.message),
            if i + 1 < diagnostics.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `tools/xtask` lives two levels below the workspace root.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask manifest has a workspace root two levels up")
        .to_path_buf()
}

/// Recursively collects `.rs` files under `dir`, looking only inside `src/`
/// trees (integration `tests/`, `benches/` and build outputs are out of
/// scope for the library-code rules).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == "vendor" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.components().any(|c| c.as_os_str() == "src")
        {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_well_formed_and_escaped() {
        let diags = vec![
            rules::Diagnostic {
                path: "crates/x/src/a.rs".to_string(),
                line: 3,
                rule: rules::RULE_NO_UNWRAP,
                message: "uses `.unwrap()` with a \"quote\"".to_string(),
            },
            rules::Diagnostic {
                path: "crates/x/src/b.rs".to_string(),
                line: 9,
                rule: rules::RULE_HASH_ITER,
                message: "back\\slash".to_string(),
            },
        ];
        let json = render_json(&diags);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(
            json.contains(r#""rule": "no-unwrap", "path": "crates/x/src/a.rs", "line": 3"#),
            "{json}"
        );
        assert!(json.contains(r#"a \"quote\""#), "{json}");
        assert!(json.contains(r#"back\\slash"#), "{json}");
        assert_eq!(render_json(&[]), "[\n]\n");
    }

    #[test]
    fn the_real_workspace_lints_clean() {
        // the end-to-end gate the CI job enforces, runnable locally: every
        // rule, over every file, zero findings
        let root = workspace_root();
        let mut files = Vec::new();
        for member_dir in ["crates", "tools"] {
            collect_rs_files(&root.join(member_dir), &mut files);
        }
        files.sort();
        assert!(files.len() > 20, "workspace walk found {}", files.len());
        let mut findings = Vec::new();
        for path in &files {
            let source = std::fs::read_to_string(path).unwrap();
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(path)
                .display()
                .to_string();
            let cx = model::FileCtx::new(&rel, &source);
            findings.extend(rules::lint_file_ctx(&cx).into_iter().map(|d| d.to_string()));
        }
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            findings.join("\n")
        );
    }
}
