//! Workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo run -p xtask -- lint [--json <path>]
//! ```
//!
//! A zero-dependency static analyzer for what no compiler, clippy lint or
//! type can state: `lexer` produces a trivia-preserving Rust token stream,
//! `model` adds the significant-token view and the line where a file's test
//! code starts, and the rules match token sequences, so text in string
//! literals and comments never trips them.
//!
//! * `rules` — `ordering-comment` and `kernel-no-alloc` per source file, and
//!   `workspace-lints` per manifest: every member outside `vendor/` must
//!   inherit `[workspace.lints]`.
//!
//! Lock order and WAL-before-publish are not here: every shim `Mutex` takes
//! a `LockRank` that debug and model builds check on each acquisition
//! (`pref_sync`), and a shard publishes only with the `Durable` token its
//! fsync returns (`pref_service`).
//!
//! Everything a lint can say is configured, not coded: `[workspace.lints]`,
//! the `clippy.toml` files and the `engine` / `service` / `net` crate roots
//! (see `rules` for the list), enforced by `cargo clippy --workspace
//! --all-targets -- -D warnings`.
//!
//! The walk covers every member's `src/`, `tests/`, `benches/` and
//! `examples/`, the root package, and every manifest. A genuinely intended
//! finding is suppressed with a comment on its line or the line above:
//!
//! ```text
//! // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
//! ```

mod lexer;
mod model;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The top-level directories walked below the workspace root: every
/// member's sources, test targets and manifest. `vendor/` (the stand-ins)
/// and the standalone `benchmark/` package are not workspace code.
const WALKED_DIRS: [&str; 5] = ["crates", "tools", "src", "tests", "examples"];

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

#[expect(clippy::disallowed_methods, reason = "the linter writes its reports")]
fn lint_workspace(json: Option<&Path>) -> ExitCode {
    let root = workspace_root();
    let files = match read_workspace(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checked = files.len();
    let mut diagnostics = lint_files(&files);
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

/// Runs the rules over walked (path, contents) pairs: the manifest check on
/// each `Cargo.toml`, the source rules on every other file.
fn lint_files(files: &[(String, String)]) -> Vec<rules::Diagnostic> {
    let mut diagnostics = Vec::new();
    for (rel, source) in files {
        if rel.ends_with("Cargo.toml") {
            diagnostics.extend(rules::lint_manifest(rel, source));
        } else {
            diagnostics.extend(rules::lint_file_ctx(&model::FileCtx::new(rel, source)));
        }
    }
    diagnostics
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

/// Every `.rs` file and `Cargo.toml` under [`WALKED_DIRS`] (build outputs
/// skipped), plus the root manifest, as (workspace-relative path, contents)
/// pairs sorted by path.
#[expect(clippy::disallowed_methods, reason = "the linter reads the tree")]
fn read_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths = vec![root.join("Cargo.toml")];
    let mut dirs: Vec<PathBuf> = WALKED_DIRS.iter().map(|dir| root.join(dir)).collect();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || entry.file_name() == "Cargo.toml"
            {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).display();
            Ok((rel.to_string(), source))
        })
        .collect()
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
                rule: rules::RULE_ORDERING_COMMENT,
                message: "`Ordering::Relaxed` with a \"quote\"".to_string(),
            },
            rules::Diagnostic {
                path: "crates/x/src/b.rs".to_string(),
                line: 9,
                rule: rules::RULE_KERNEL_NO_ALLOC,
                message: "back\\slash".to_string(),
            },
        ];
        let json = render_json(&diags);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(
            json.contains(r#""rule": "ordering-comment", "path": "crates/x/src/a.rs", "line": 3"#),
            "{json}"
        );
        assert!(json.contains(r#"a \"quote\""#), "{json}");
        assert!(json.contains(r#"back\\slash"#), "{json}");
        assert_eq!(render_json(&[]), "[\n]\n");
    }

    #[test]
    fn the_walk_covers_test_targets_the_root_package_and_manifests() {
        let files = read_workspace(&workspace_root()).unwrap();
        let walked = |rel: &str| files.iter().any(|(path, _)| path == rel);
        for rel in [
            "Cargo.toml",
            "crates/engine/Cargo.toml",
            "tools/xtask/Cargo.toml",
            "src/lib.rs",
            "tests/stable_matching.rs",
            "examples/quickstart.rs",
            "crates/service/tests/stress_service.rs",
            "crates/bench/benches/micro.rs",
            "crates/service/src/shard.rs",
        ] {
            assert!(walked(rel), "the walk missed {rel}");
        }
        assert!(
            files.iter().all(|(path, _)| !path.starts_with("vendor/")
                && !path.starts_with("benchmark/")
                && !path.contains("target/")),
            "the walk left the workspace's own code"
        );
        // integration tests are test code for the scoped rules
        assert!(rules::is_test_file(
            "crates/service/tests/stress_service.rs"
        ));
        assert!(!rules::is_test_file("crates/service/src/shard.rs"));
    }

    #[test]
    fn the_real_workspace_lints_clean() {
        // the end-to-end gate the CI job enforces, runnable locally: every
        // rule, over every walked file and manifest, zero findings
        let files = read_workspace(&workspace_root()).unwrap();
        assert!(files.len() > 20, "workspace walk found {}", files.len());
        let findings = lint_files(&files);
        let findings: Vec<String> = findings.iter().map(|d| d.to_string()).collect();
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            findings.join("\n")
        );
    }
}
