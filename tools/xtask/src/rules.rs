//! The lint rules, re-ported onto the token stream.
//!
//! The six original rules (`forbid-unsafe`, `ordering-comment`,
//! `no-raw-sync`, `no-unwrap`, `no-raw-fs`, `kernel-no-alloc`) keep their
//! exact scoping, messages and exception grammar from the line-scanner era —
//! the equivalence test in `legacy_tests` pins zero diffs over the real tree
//! — but now match *significant tokens*, so occurrences inside string
//! literals and (nested) block comments can no longer produce findings.
//!
//! New token-level rules ride on the same engine:
//!
//! * **hash-iter** — no iteration over `HashMap`/`HashSet` contents in
//!   library code of the crates that feed canonical output or replay
//!   (`crates/core`, `crates/engine`, `crates/service`, `crates/topk`,
//!   `crates/skyline`). Keyed lookup is fine; iteration order is not
//!   deterministic across processes, which silently diverges replicas under
//!   deterministic log replay (ROADMAP item 2). Escape hatch:
//!   `// lint: allow(hash-iter) -- <sortedness justification>`.
//! * **durability-order** — in `crates/service/src/shard.rs` and
//!   `durability.rs`, a function that receives the shard's durability handle
//!   and publishes a snapshot must have its WAL append (`log_batch`) and
//!   fsync (`sync_for_ack`) call sites precede the first `publish` call:
//!   acknowledged-but-unlogged state must be unrepresentable in the source,
//!   not just unobserved by the fault-injection battery.
//! * **no-raw-net** — sockets are `crates/net`'s job: no `std::net` outside
//!   it, so every byte that crosses a process boundary goes through the one
//!   length-prefixed, checksummed framing layer (and its admission control).
//!   Plain address *types* (`SocketAddr` & co.) are fine anywhere — they are
//!   how callers name a `pref_net` endpoint. Escape hatch:
//!   `// lint: allow(no-raw-net) -- <reason>`.
//! * `crates/net` itself is held to the `no-raw-sync` and `no-unwrap`
//!   discipline of `crates/service`, as a separate pass (`net_discipline`)
//!   so `classic` stays byte-equivalent to the pre-`crates/net` line
//!   scanner the equivalence sweep pins.
//!
//! The exception/justification comment grammar stays line-oriented on
//! purpose (comments are trivia in the token stream): an annotation applies
//! on its own line or the line above the finding, exactly as before.

use crate::model::{FileCtx, FnItem};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
pub const RULE_ORDERING_COMMENT: &str = "ordering-comment";
pub const RULE_NO_RAW_SYNC: &str = "no-raw-sync";
pub const RULE_NO_UNWRAP: &str = "no-unwrap";
pub const RULE_NO_RAW_FS: &str = "no-raw-fs";
pub const RULE_KERNEL_NO_ALLOC: &str = "kernel-no-alloc";
pub const RULE_HASH_ITER: &str = "hash-iter";
pub const RULE_DURABILITY_ORDER: &str = "durability-order";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_NO_RAW_NET: &str = "no-raw-net";

/// Files allowed to touch `std::fs` wholesale: the storage backends and the
/// WAL are the durable layer, and the linter itself must read the tree.
const RAW_FS_ALLOWED: [&str; 3] = [
    "crates/storage/src/backend.rs",
    "crates/storage/src/wal.rs",
    "tools/xtask/src/main.rs",
];

/// Hot-path files that are not named like a kernel module but are held to
/// `kernel-no-alloc` all the same. The workspace forbids `unsafe`, so a
/// counting allocator is not available to a test: this list is what keeps
/// a per-access allocation from creeping back into these loops. Set-up code
/// in them (constructors, lazy sizing) carries the usual annotation.
const HOT_PATH_FILES: [&str; 2] = ["crates/topk/src/reverse.rs", "crates/topk/src/lists.rs"];

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Raw primitives `crates/service` must route through the shim, as
/// (diagnostic name, path segments). `std::sync::Arc` is deliberately absent
/// (it has no blocking or ordering behaviour for the model scheduler to
/// interpose on).
const RAW_SYNC_PATHS: [(&str, &[&str]); 5] = [
    ("std::sync::atomic", &["std", "sync", "atomic"]),
    ("std::sync::Mutex", &["std", "sync", "Mutex"]),
    ("std::sync::Condvar", &["std", "sync", "Condvar"]),
    ("std::sync::RwLock", &["std", "sync", "RwLock"]),
    ("std::thread", &["std", "thread"]),
];

/// Crates whose library code feeds canonical output or deterministic replay:
/// the hash-iteration rule's scope.
const HASH_ITER_SCOPES: [&str; 5] = [
    "crates/core",
    "crates/engine",
    "crates/service",
    "crates/topk",
    "crates/skyline",
];

/// Iteration methods whose order depends on the hasher.
const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// `std::net` items that are plain address/port values with no socket
/// behaviour: allowed everywhere, because they are the vocabulary callers
/// use to talk to `pref_net`'s own API.
const RAW_NET_ADDR_TYPES: [&str; 8] = [
    "SocketAddr",
    "SocketAddrV4",
    "SocketAddrV6",
    "IpAddr",
    "Ipv4Addr",
    "Ipv6Addr",
    "AddrParseError",
    "ToSocketAddrs",
];

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

/// All per-file rules: the six classic ones plus `hash-iter` and
/// `durability-order`. (`lock-order` is whole-program; see `lockorder`.)
pub fn lint_file_ctx(cx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = classic(cx);
    out.extend(hot_path_no_alloc(cx));
    out.extend(hash_iter(cx));
    out.extend(durability_order(cx));
    out.extend(raw_net(cx));
    out.extend(net_discipline(cx));
    out
}

/// The six pre-existing rules on the token engine, with line-scanner-era
/// scoping and messages.
pub fn classic(cx: &FileCtx) -> Vec<Diagnostic> {
    let path = &cx.path;
    let mut out = Vec::new();

    if is_crate_root(path) && !has_forbid_unsafe(cx) {
        out.push(diag(
            path,
            1,
            RULE_FORBID_UNSAFE,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }

    let service_lib = path_in(path, "crates/service") && !is_test_file(path);
    let kernel_scoped = is_kernel_file(path) && !is_test_file(path);
    let unwrap_scoped =
        (path_in(path, "crates/service") || path_in(path, "crates/engine")) && !is_test_file(path);
    let raw_fs_scoped =
        !RAW_FS_ALLOWED.iter().any(|allowed| path.ends_with(allowed)) && !is_test_file(path);
    let in_tests = |line: u32| is_test_file(path) || cx.in_tests(line);

    // ordering-comment applies everywhere, tests included: a memory ordering
    // needs a justification no matter where it appears
    let mut seen_ordering: BTreeSet<(u32, &str)> = BTreeSet::new();
    for si in 0..cx.sig_len() {
        if !cx.is_ident(si, "Ordering") || !is_path_sep(cx, si + 1) {
            continue;
        }
        let Some(variant) = ATOMIC_ORDERINGS.iter().find(|v| cx.is_ident(si + 3, v)) else {
            continue;
        };
        let line = cx.sline(si);
        if !seen_ordering.insert((line, variant)) {
            continue;
        }
        if !has_adjacent_ordering_comment(&cx.lines, line)
            && !has_exception(&cx.lines, line, RULE_ORDERING_COMMENT)
        {
            out.push(diag(
                path,
                line,
                RULE_ORDERING_COMMENT,
                format!(
                    "`Ordering::{variant}` has no adjacent `// ordering:` justification comment"
                ),
            ));
        }
    }

    if service_lib {
        let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
        for si in 0..cx.sig_len() {
            for (name, segs) in RAW_SYNC_PATHS {
                if !matches_path(cx, si, segs) {
                    continue;
                }
                let line = cx.sline(si);
                if in_tests(line) || !seen.insert((line, name)) {
                    continue;
                }
                if !has_exception(&cx.lines, line, RULE_NO_RAW_SYNC) {
                    out.push(diag(
                        path,
                        line,
                        RULE_NO_RAW_SYNC,
                        format!(
                            "`{name}` in crates/service library code — use the `pref_sync` shim"
                        ),
                    ));
                }
            }
        }
    }

    if raw_fs_scoped {
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for si in 0..cx.sig_len() {
            if !matches_path(cx, si, &["std", "fs"]) {
                continue;
            }
            let line = cx.sline(si);
            if in_tests(line) || !seen.insert(line) {
                continue;
            }
            if !has_exception(&cx.lines, line, RULE_NO_RAW_FS) {
                out.push(diag(
                    path,
                    line,
                    RULE_NO_RAW_FS,
                    // lint: allow(no-raw-fs) -- diagnostic message text, not an fs call
                    "`std::fs` outside the storage backend/WAL — go through `pref_storage`, or \
                     annotate a deliberate non-durable write with \
                     `// lint: allow(no-raw-fs) -- <reason>`"
                        .to_string(),
                ));
            }
        }
    }

    if kernel_scoped {
        kernel_no_alloc(cx, &mut out);
    }

    if unwrap_scoped {
        let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
        for si in 0..cx.sig_len() {
            let pattern = if method_call(cx, si, "unwrap") && cx.is_punct(si + 3, ')') {
                ".unwrap()"
            } else if method_call(cx, si, "expect") {
                ".expect("
            } else {
                continue;
            };
            let line = cx.sline(si);
            if in_tests(line) || !seen.insert((line, pattern)) {
                continue;
            }
            if !has_exception(&cx.lines, line, RULE_NO_UNWRAP) {
                out.push(diag(
                    path,
                    line,
                    RULE_NO_UNWRAP,
                    format!(
                        "`{pattern}` in library code — propagate the error or annotate the \
                         invariant with `// lint: allow(no-unwrap) -- <reason>`"
                    ),
                ));
            }
        }
    }

    out
}

/// The `kernel-no-alloc` scan of one in-scope file: the allocator denylist
/// over its non-test code, at most one finding per line.
fn kernel_no_alloc(cx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let path = &cx.path;
    // in the line scanner's precedence order: path constructors before
    // method allocators
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

/// `kernel-no-alloc` beyond the kernel naming convention: the files on
/// [`HOT_PATH_FILES`]. A separate pass, like [`net_discipline`], so
/// [`classic`] stays equivalent to the line scanner it is pinned against.
pub fn hot_path_no_alloc(cx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !is_kernel_file(&cx.path) && HOT_PATH_FILES.iter().any(|f| cx.path.ends_with(f)) {
        kernel_no_alloc(cx, &mut out);
    }
    out
}

/// No iteration over hash collections in canonical/replay-adjacent library
/// code (see module docs).
pub fn hash_iter(cx: &FileCtx) -> Vec<Diagnostic> {
    let path = &cx.path;
    if is_test_file(path) || !HASH_ITER_SCOPES.iter().any(|s| path_in(path, s)) {
        return Vec::new();
    }
    let names = hash_names(cx);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut flag = |cx: &FileCtx, line: u32, name: &str, how: &str, out: &mut Vec<Diagnostic>| {
        if cx.in_tests(line)
            || has_exception(&cx.lines, line, RULE_HASH_ITER)
            || !seen.insert((line, name.to_string()))
        {
            return;
        }
        out.push(diag(
            path,
            line,
            RULE_HASH_ITER,
            format!(
                "{how} iterates hash collection `{name}` — hasher-dependent order diverges \
                 canonical output/replay; iterate a sorted or dense-ID structure, or annotate \
                 with `// lint: allow(hash-iter) -- <sortedness justification>`"
            ),
        ));
    };

    for si in 0..cx.sig_len() {
        // `name.iter()` / `name.keys()` / `name.drain(..)` …
        if cx.is_punct(si, '.') && cx.is_punct(si + 2, '(') {
            if let Some(m) = HASH_ITER_METHODS.iter().find(|m| cx.is_ident(si + 1, m)) {
                if si > 0
                    && cx.skind(si - 1) == crate::lexer::TokKind::Ident
                    && names.contains(cx.st(si - 1))
                {
                    let name = cx.st(si - 1).to_string();
                    flag(cx, cx.sline(si + 1), &name, &format!("`.{m}()`"), &mut out);
                }
            }
        }
        // `for pat in name` / `for pat in &mut name`
        if cx.is_ident(si, "for") && !cx.is_punct(si + 1, '<') {
            let mut j = si + 1;
            let mut depth = 0usize;
            let mut in_at = None;
            while j < cx.sig_len() {
                if cx.is_punct(j, '(') || cx.is_punct(j, '[') {
                    j = cx.matching(j);
                } else if cx.is_punct(j, '<') {
                    depth += 1;
                } else if cx.is_punct(j, '>') {
                    depth = depth.saturating_sub(1);
                } else if cx.is_punct(j, '{') || cx.is_punct(j, ';') {
                    break;
                } else if cx.is_ident(j, "in") && depth == 0 {
                    in_at = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(in_at) = in_at {
                // the loop expression: up to the body's `{`
                let mut k = in_at + 1;
                let mut last_ident: Option<usize> = None;
                let mut has_call = false;
                while k < cx.sig_len() && !cx.is_punct(k, '{') {
                    if cx.is_punct(k, '(') {
                        has_call = true;
                        k = cx.matching(k);
                    } else if cx.skind(k) == crate::lexer::TokKind::Ident {
                        last_ident = Some(k);
                    }
                    k += 1;
                }
                if let (Some(li), false) = (last_ident, has_call) {
                    if names.contains(cx.st(li)) {
                        let name = cx.st(li).to_string();
                        flag(cx, cx.sline(li), &name, "`for … in`", &mut out);
                    }
                }
            }
        }
    }
    out
}

/// Names (fields, params, locals) declared with a `HashMap`/`HashSet` type
/// or constructed from one.
fn hash_names(cx: &FileCtx) -> BTreeSet<String> {
    let is_hash_ty = |ty: &str| ty.contains("HashMap<") || ty.contains("HashSet<");
    let mut names = BTreeSet::new();
    for s in &cx.model.structs {
        for f in &s.fields {
            if is_hash_ty(&f.ty) {
                names.insert(f.name.clone());
            }
        }
    }
    for f in &cx.model.fns {
        for p in &f.params {
            if !p.name.is_empty() && is_hash_ty(&p.ty) {
                names.insert(p.name.clone());
            }
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut si = open;
        while si < close {
            if cx.is_ident(si, "let") {
                let mut j = si + 1;
                if cx.is_ident(j, "mut") {
                    j += 1;
                }
                if cx.skind(j) == crate::lexer::TokKind::Ident {
                    let name = cx.st(j).to_string();
                    if cx.is_punct(j + 1, ':') {
                        // explicit type up to `=` or `;`
                        let ty_start = j + 2;
                        let mut k = ty_start;
                        while k < close && !cx.is_punct(k, '=') && !cx.is_punct(k, ';') {
                            if cx.is_punct(k, '(') || cx.is_punct(k, '[') || cx.is_punct(k, '{') {
                                k = cx.matching(k);
                            }
                            k += 1;
                        }
                        if is_hash_ty(&cx.render(ty_start, k)) {
                            names.insert(name);
                        }
                    } else if cx.is_punct(j + 1, '=')
                        && (cx.is_ident(j + 2, "HashMap") || cx.is_ident(j + 2, "HashSet"))
                    {
                        names.insert(name);
                    }
                }
            }
            si += 1;
        }
    }
    names
}

/// Sockets live behind the front door: `std::net` outside `crates/net` is a
/// second wire path with no framing, checksums or admission control (see
/// module docs). Address types pass; test code is exempt like the other
/// scoped rules (unit tests that want a real socket should still exercise
/// the real server, but the rule does not force it).
pub fn raw_net(cx: &FileCtx) -> Vec<Diagnostic> {
    let path = &cx.path;
    if path_in(path, "crates/net") || is_test_file(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for si in 0..cx.sig_len() {
        if !matches_path(cx, si, &["std", "net"]) {
            continue;
        }
        // `std::net::SocketAddr` and friends carry no I/O
        if is_path_sep(cx, si + 4) && RAW_NET_ADDR_TYPES.iter().any(|t| cx.is_ident(si + 6, t)) {
            continue;
        }
        let line = cx.sline(si);
        if cx.in_tests(line) || !seen.insert(line) {
            continue;
        }
        if !has_exception(&cx.lines, line, RULE_NO_RAW_NET) {
            out.push(diag(
                path,
                line,
                RULE_NO_RAW_NET,
                "`std::net` outside crates/net — every wire byte goes through the framed, \
                 admission-controlled front door (`pref_net`); address types like \
                 `std::net::SocketAddr` are allowed, sockets are not. Annotate a deliberate \
                 exception with `// lint: allow(no-raw-net) -- <reason>`"
                    .to_string(),
            ));
        }
    }
    out
}

/// `no-raw-sync` + `no-unwrap` for `crates/net` library code. A separate
/// pass rather than a scope change in [`classic`]: the legacy line scanner
/// predates the crate, and the equivalence sweep pins `classic` to it
/// byte-for-byte.
pub fn net_discipline(cx: &FileCtx) -> Vec<Diagnostic> {
    let path = &cx.path;
    if !path_in(path, "crates/net") || is_test_file(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
    for si in 0..cx.sig_len() {
        for (name, segs) in RAW_SYNC_PATHS {
            if !matches_path(cx, si, segs) {
                continue;
            }
            let line = cx.sline(si);
            if cx.in_tests(line) || !seen.insert((line, name)) {
                continue;
            }
            if !has_exception(&cx.lines, line, RULE_NO_RAW_SYNC) {
                out.push(diag(
                    path,
                    line,
                    RULE_NO_RAW_SYNC,
                    format!(
                        "`{name}` in crates/net library code — use the `pref_sync` shim \
                         (admission and shutdown must stay model-checkable)"
                    ),
                ));
            }
        }
        let pattern = if method_call(cx, si, "unwrap") && cx.is_punct(si + 3, ')') {
            ".unwrap()"
        } else if method_call(cx, si, "expect") {
            ".expect("
        } else {
            continue;
        };
        let line = cx.sline(si);
        if cx.in_tests(line) || !seen.insert((line, pattern)) {
            continue;
        }
        if !has_exception(&cx.lines, line, RULE_NO_UNWRAP) {
            out.push(diag(
                path,
                line,
                RULE_NO_UNWRAP,
                format!(
                    "`{pattern}` in library code — propagate the error or annotate the \
                     invariant with `// lint: allow(no-unwrap) -- <reason>`"
                ),
            ));
        }
    }
    out
}

/// WAL-before-publish, statically (see module docs).
pub fn durability_order(cx: &FileCtx) -> Vec<Diagnostic> {
    let scoped = cx.path.ends_with("crates/service/src/shard.rs")
        || cx.path.ends_with("crates/service/src/durability.rs");
    if !scoped {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &cx.model.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        if !f.params.iter().any(|p| p.ty.contains("ShardDurability")) {
            continue;
        }
        let call_at = |name: &str, upto: usize| (open..upto).find(|&si| method_call(cx, si, name));
        let Some(publish_at) = call_at("publish", close) else {
            continue;
        };
        let line = cx.sline(publish_at + 1);
        let logged = call_at("log_batch", publish_at).is_some();
        let synced = call_at("sync_for_ack", publish_at).is_some();
        if (!logged || !synced) && !has_exception(&cx.lines, line, RULE_DURABILITY_ORDER) {
            let missing = if !logged { "log_batch" } else { "sync_for_ack" };
            out.push(diag(
                &cx.path,
                line,
                RULE_DURABILITY_ORDER,
                format!(
                    "`{}` publishes a snapshot without a preceding `.{missing}(…)` call — the \
                     WAL append + fsync must dominate every publish on a durable path \
                     (acks follow publication)",
                    f.name
                ),
            ));
        }
    }
    out
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

/// `#![forbid(unsafe_code)]` as real tokens (a string literal spelling it
/// cannot satisfy the rule, unlike under the line scanner).
fn has_forbid_unsafe(cx: &FileCtx) -> bool {
    (0..cx.sig_len()).any(|si| {
        cx.is_punct(si, '#')
            && cx.is_punct(si + 1, '!')
            && cx.is_punct(si + 2, '[')
            && cx.is_ident(si + 3, "forbid")
            && cx.is_punct(si + 4, '(')
            && cx.is_ident(si + 5, "unsafe_code")
            && cx.is_punct(si + 6, ')')
            && cx.is_punct(si + 7, ']')
    })
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

pub fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || (path.contains("src/bin/") && path.ends_with(".rs"))
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

/// Whole-file test modules (declared `#[cfg(test)] mod x;` at the crate
/// root) carry it in their name by workspace convention.
pub fn is_test_file(path: &str) -> bool {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    stem == "tests" || stem.ends_with("_tests")
}

pub fn path_in(path: &str, prefix: &str) -> bool {
    path.starts_with(prefix) || path.contains(&format!("/{prefix}/"))
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

/// Used by `lockorder` to look up function items by (impl type, name).
pub fn fn_key(f: &FnItem) -> (Option<String>, String) {
    (f.impl_type.clone(), f.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, source: &str) -> Vec<String> {
        let cx = FileCtx::new(path, source);
        lint_file_ctx(&cx).iter().map(|d| d.to_string()).collect()
    }

    // -- the six classic rules, ported behavior pins ----------------------

    #[test]
    fn crate_roots_must_forbid_unsafe() {
        let found = findings("crates/x/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("crates/x/src/lib.rs:1: forbid-unsafe:"));
        assert!(findings(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
        // non-root modules are not required to repeat the attribute
        assert!(findings("crates/x/src/util.rs", "pub fn f() {}\n").is_empty());
        // bin targets are crate roots too
        assert_eq!(
            findings("crates/x/src/bin/tool.rs", "fn main() {}\n").len(),
            1
        );
        // a string literal spelling the attribute does not satisfy it
        let spoofed = "const S: &str = \"#![forbid(unsafe_code)]\";\n";
        assert_eq!(findings("crates/x/src/lib.rs", spoofed).len(), 1);
    }

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
    }

    #[test]
    fn raw_sync_is_rejected_in_service_library_code_only() {
        let src = "use std::sync::Mutex;\n";
        let found = findings("crates/service/src/m.rs", src);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].starts_with("crates/service/src/m.rs:1: no-raw-sync:"),
            "{}",
            found[0]
        );
        // other crates may use std::sync directly (the shim itself must)
        assert!(findings("crates/sync/src/m.rs", src).is_empty());
        // Arc is not a blocking/ordering primitive — allowed
        assert!(findings("crates/service/src/m.rs", "use std::sync::Arc;\n").is_empty());
        // test code drives real threads on purpose
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::thread;\n}\n";
        assert!(findings("crates/service/src/m.rs", test_src).is_empty());
        let named_test_file = "use std::thread;\n";
        assert!(findings("crates/service/src/model_tests.rs", named_test_file).is_empty());
    }

    #[test]
    fn unwrap_and_expect_are_rejected_in_service_and_engine() {
        for path in ["crates/service/src/m.rs", "crates/engine/src/m.rs"] {
            let found = findings(path, "fn f() { g().unwrap(); }\n");
            assert_eq!(found.len(), 1, "{path}");
            assert!(found[0].contains(": no-unwrap:"), "{}", found[0]);
            assert_eq!(findings(path, "fn f() { g().expect(\"x\"); }\n").len(), 1);
        }
        // out-of-scope crates may unwrap
        assert!(findings("crates/geom/src/m.rs", "fn f() { g().unwrap(); }\n").is_empty());
        // doc-comment examples are comments, not code
        assert!(findings(
            "crates/service/src/m.rs",
            "/// let x = g().unwrap();\nfn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn raw_fs_is_confined_to_the_storage_backend_and_wal() {
        let src = "use std::fs;\nfn f() { std::fs::remove_file(\"x\").ok(); }\n";
        // the durable layer and the linter itself are allowed wholesale
        assert!(findings("crates/storage/src/backend.rs", src).is_empty());
        assert!(findings("crates/storage/src/wal.rs", src).is_empty());
        // the linter itself is a crate root, so satisfy forbid-unsafe too
        let root_src = format!("#![forbid(unsafe_code)]\n{src}");
        assert!(findings("tools/xtask/src/main.rs", &root_src).is_empty());
        // everything else is flagged, line by line
        let found = findings("crates/service/src/m.rs", src);
        assert_eq!(found.len(), 2);
        assert!(
            found[0].starts_with("crates/service/src/m.rs:1: no-raw-fs:"),
            "{}",
            found[0]
        );
        // the rest of the storage crate is NOT allow-listed: buffer-manager
        // code must go through its own backend abstraction too
        assert_eq!(findings("crates/storage/src/store.rs", src).len(), 2);
        // an annotated deliberate use is accepted
        let annotated = "// lint: allow(no-raw-fs) -- bench report, not durable state\n\
             let file = std::fs::File::create(&out)?;\n";
        assert!(findings("crates/bench/src/report.rs", annotated).is_empty());
        // test code cleans up scratch dirs freely
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { std::fs::remove_file(\"x\").ok(); }\n}\n";
        assert!(findings("crates/service/src/m.rs", test_src).is_empty());
        // comments and doc examples are not code
        assert!(findings("crates/service/src/m.rs", "//! touches `std::fs` never\n").is_empty());
    }

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
        let bin_src = format!("#![forbid(unsafe_code)]\n{src}");
        assert!(findings("crates/x/src/bin/kernels_bench.rs", &bin_src).is_empty());
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
        // test code allocates freely
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let v = Vec::new(); }\n}\n";
        assert!(findings("crates/geom/src/kernel.rs", test_src).is_empty());
    }

    #[test]
    fn allocation_is_rejected_in_the_reverse_top1_search() {
        // the listed hot-path file is in scope although nothing in its name
        // says "kernel": an allocation inside the per-access functions is a
        // finding, wherever in the file it sits
        let path = "crates/topk/src/reverse.rs";
        for (bad, token) in [
            (
                "impl ReverseTopOne {\n    pub fn best(&mut self) {\n        \
                 let dead: Vec<usize> = Vec::new();\n    }\n}\n",
                "Vec::new",
            ),
            (
                "impl ReverseTopOne {\n    fn advance(&mut self, dim: usize) {\n        \
                 let seen: Vec<usize> = self.queue.iter().map(|c| c.1).collect();\n    }\n}\n",
                ".collect()",
            ),
            (
                "impl ReverseTopOne {\n    fn current_threshold(&self, budget: f64) -> f64 {\n        \
                 let capped: Vec<f64> = self.last_seen.iter().copied().collect();\n        \
                 0.0\n    }\n}\n",
                ".collect()",
            ),
        ] {
            let found = findings(path, bad);
            assert_eq!(found.len(), 1, "{bad}");
            assert!(
                found[0].starts_with("crates/topk/src/reverse.rs:3: kernel-no-alloc:")
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
        // so is the function index the search reads: `remove`, `next_alive`
        // and the alive-block accessors run once per search or per access
        let lists = "crates/topk/src/lists.rs";
        let removed = "impl FunctionLists {\n    pub fn remove(&mut self, function: usize) -> bool {\n        \
                       self.row_function = self.alive_functions().to_vec();\n        true\n    }\n}\n";
        let found = findings(lists, removed);
        assert_eq!(found.len(), 1, "{removed}");
        assert!(
            found[0].starts_with("crates/topk/src/lists.rs:3: kernel-no-alloc:")
                && found[0].contains(".to_vec()"),
            "{}",
            found[0]
        );
        let built = "impl FunctionLists {\n    pub fn new(n: usize) -> Self {\n        \
                     // lint: allow(kernel-no-alloc) -- set-up: one index per solve\n        \
                     Self { alive: vec![true; n] }\n    }\n}\n";
        assert!(findings(lists, built).is_empty());
        // the list names files, not crates or stems
        let src = "fn f() { let v: Vec<f64> = Vec::new(); }\n";
        assert!(findings("crates/topk/src/batch.rs", src).is_empty());
        assert!(findings("crates/bench/src/reverse.rs", src).is_empty());
        assert!(findings("crates/bench/src/lists.rs", src).is_empty());
        // and the file's own tests allocate freely
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let v = Vec::new(); }\n}\n";
        assert!(findings(path, test_src).is_empty());
    }

    #[test]
    fn exception_comments_suppress_a_single_finding() {
        let same_line = "fn f() { g().unwrap() } // lint: allow(no-unwrap) -- startup only\n";
        assert!(findings("crates/service/src/m.rs", same_line).is_empty());
        let line_above = "// lint: allow(no-unwrap) -- internal invariant: id interned above\n\
                          fn f() { g().unwrap() }\n";
        assert!(findings("crates/service/src/m.rs", line_above).is_empty());
        // the exception names a rule; a different rule's marker does not leak
        let wrong_rule = "// lint: allow(no-raw-sync) -- reason\nfn f() { g().unwrap() }\n";
        assert_eq!(findings("crates/service/src/m.rs", wrong_rule).len(), 1);
        // and it only reaches one line
        let too_far = "// lint: allow(no-unwrap) -- reason\n\nfn f() { g().unwrap() }\n";
        assert_eq!(findings("crates/service/src/m.rs", too_far).len(), 1);
    }

    #[test]
    fn commented_out_code_is_not_linted() {
        let src = "// let x = g().unwrap();\n//     a.load(Ordering::Acquire);\n";
        assert!(findings("crates/service/src/m.rs", src).is_empty());
    }

    // -- the false-positive class the lexer closes ------------------------

    #[test]
    fn tokens_inside_strings_no_longer_trip_rules() {
        // lint: allow(ordering-comment) -- fixture: the string must stay invisible
        let in_string = "fn f() -> &'static str { \"Ordering::Relaxed\" }\n";
        assert!(findings("crates/x/src/m.rs", in_string).is_empty());
        let sync_in_string = "const HELP: &str = \"std::sync::Mutex is banned here\";\n";
        assert!(findings("crates/service/src/m.rs", sync_in_string).is_empty());
        let fs_in_string = "const HELP: &str = \"std::fs is banned here\";\n";
        assert!(findings("crates/service/src/m.rs", fs_in_string).is_empty());
        let unwrap_in_string = "const HELP: &str = \"never .unwrap() in here\";\n";
        assert!(findings("crates/service/src/m.rs", unwrap_in_string).is_empty());
    }

    #[test]
    fn tokens_inside_block_comments_no_longer_trip_rules() {
        let fs_in_comment = "/* std::fs */ fn f() {}\n";
        assert!(findings("crates/service/src/m.rs", fs_in_comment).is_empty());
        // nested block comments too — the line scanner could not even see
        // where they end
        let nested = "/* outer /* std::fs inner */ std::thread outer */ fn f() {}\n";
        assert!(findings("crates/service/src/m.rs", nested).is_empty());
        // lint: allow(ordering-comment) -- fixture: the comment must stay invisible
        let ordering_in_comment = "/* a.load(Ordering::Acquire) */ fn f() {}\n";
        assert!(findings("crates/x/src/m.rs", ordering_in_comment).is_empty());
        // …while the same token as code on the same line is still caught
        // lint: allow(ordering-comment) -- lint self-test fixture
        let mixed = "fn f(a: &A) { /* std::fs */ a.load(Ordering::SeqCst); }\n";
        let found = findings("crates/service/src/m.rs", mixed);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("ordering-comment"));
    }

    // -- hash-iter --------------------------------------------------------

    #[test]
    fn hash_iteration_is_flagged_in_scoped_library_code() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, f64>) -> f64 {\n\
                       let mut sum = 0.0;\n\
                       for (_k, v) in m.iter() {\n\
                           sum += v;\n\
                       }\n\
                       sum\n\
                   }\n";
        for path in ["crates/engine/src/m.rs", "crates/core/src/m.rs"] {
            let found = findings(path, src);
            assert_eq!(found.len(), 1, "{path}: {found:?}");
            assert!(found[0].contains(":4: hash-iter:"), "{}", found[0]);
        }
        // out of scope: the bench harness may use hash order freely
        assert!(findings("crates/bench/src/m.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_forms() {
        let header = "use std::collections::{HashMap, HashSet};\n";
        for (body, line) in [
            ("fn f(m: &HashMap<u32, u32>) { for k in m.keys() {} }", 2),
            (
                "fn f(m: &mut HashMap<u32, u32>) { m.values_mut().for_each(|v| *v += 1); }",
                2,
            ),
            (
                "fn f(s: HashSet<u32>) -> Vec<u32> { s.into_iter().collect() }",
                2,
            ),
            (
                "fn f(m: &mut HashMap<u32, u32>) { for kv in m.drain() {} }",
                2,
            ),
            ("fn f() { let m = HashMap::new(); for x in &m {} }", 2),
            (
                "fn g() { let mut s: HashSet<u8> = HashSet::new(); for x in &mut s {} }",
                2,
            ),
        ] {
            let src = format!("{header}{body}\n");
            let found = findings("crates/engine/src/m.rs", &src);
            assert_eq!(found.len(), 1, "{body}: {found:?}");
            assert!(
                found[0].contains(&format!(":{line}: hash-iter:")),
                "{}",
                found[0]
            );
        }
    }

    #[test]
    fn keyed_hash_lookup_stays_allowed() {
        let src = "use std::collections::HashMap;\n\
                   struct Index { obj_index: HashMap<u64, usize> }\n\
                   impl Index {\n\
                       fn get(&self, id: u64) -> Option<usize> { self.obj_index.get(&id).copied() }\n\
                       fn put(&mut self, id: u64, at: usize) { self.obj_index.insert(id, at); }\n\
                   }\n";
        assert!(findings("crates/engine/src/m.rs", src).is_empty());
        // iterating a *Vec* named like anything is fine: the rule tracks
        // declared hash names, not method names alone
        let vec_iter = "fn f(v: &Vec<u32>) -> u32 { v.iter().sum() }\n";
        assert!(findings("crates/engine/src/m.rs", vec_iter).is_empty());
    }

    #[test]
    fn hash_iter_exception_and_test_exemptions() {
        let annotated = "use std::collections::HashMap;\n\
                         fn f(m: &HashMap<u32, u32>) {\n\
                             // lint: allow(hash-iter) -- results are re-sorted by dense id below\n\
                             for k in m.keys() { let _ = k; }\n\
                         }\n";
        assert!(findings("crates/engine/src/m.rs", annotated).is_empty());
        let in_tests = "use std::collections::HashMap;\n\
                        #[cfg(test)]\n\
                        mod tests {\n\
                            fn f(m: &HashMap<u32, u32>) { for k in m.keys() {} }\n\
                        }\n";
        assert!(findings("crates/engine/src/m.rs", in_tests).is_empty());
    }

    // -- durability-order -------------------------------------------------

    const DUR_PATH: &str = "crates/service/src/shard.rs";

    #[test]
    fn publish_before_log_is_flagged_with_file_and_line() {
        let src = "fn writer(cell: &SnapshotCell, dur: &mut ShardDurability, b: &B) {\n\
                       cell.publish(snap(b));\n\
                       dur.log_batch(b).ok();\n\
                       dur.sync_for_ack().ok();\n\
                   }\n";
        let found = findings(DUR_PATH, src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with("crates/service/src/shard.rs:2: durability-order:"),
            "{}",
            found[0]
        );
    }

    #[test]
    fn publish_without_fsync_is_flagged() {
        let src = "fn writer(cell: &SnapshotCell, dur: &mut ShardDurability, b: &B) {\n\
                       dur.log_batch(b).ok();\n\
                       cell.publish(snap(b));\n\
                   }\n";
        let found = findings(DUR_PATH, src);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("sync_for_ack"), "{}", found[0]);
    }

    #[test]
    fn log_then_fsync_then_publish_passes() {
        let src = "fn writer(cell: &SnapshotCell, dur: &mut Option<ShardDurability>, b: &B) {\n\
                       if let Some(d) = dur.as_mut() { d.log_batch(b).ok(); d.sync_for_ack().ok(); }\n\
                       cell.publish(snap(b));\n\
                   }\n";
        assert!(findings(DUR_PATH, src).is_empty());
    }

    // -- no-raw-net -------------------------------------------------------

    #[test]
    fn raw_sockets_outside_the_front_door_are_flagged() {
        let src = "use std::net::TcpStream;\n\
                   fn f() { let _ = std::net::TcpListener::bind(\"127.0.0.1:0\"); }\n";
        let found = findings("crates/service/src/m.rs", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(
            found[0].starts_with("crates/service/src/m.rs:1: no-raw-net:"),
            "{}",
            found[0]
        );
        // the front door itself is the allowed home for sockets
        assert!(findings("crates/net/src/server.rs", src).is_empty());
        // brace imports mixing an address type with a socket type still flag
        let mixed = "use std::net::{SocketAddr, TcpStream};\n";
        assert_eq!(findings("crates/bench/src/m.rs", mixed).len(), 1);
    }

    #[test]
    fn address_types_are_not_sockets() {
        for ty in ["SocketAddr", "Ipv4Addr", "IpAddr", "ToSocketAddrs"] {
            let src = format!("use std::net::{ty};\nfn f(a: std::net::{ty}) {{ let _ = a; }}\n");
            assert!(
                findings("crates/bench/src/m.rs", &src).is_empty(),
                "std::net::{ty} is a value type, not a socket"
            );
        }
    }

    #[test]
    fn raw_net_exception_and_test_exemptions() {
        let annotated = "// lint: allow(no-raw-net) -- probe the listener without a client\n\
                         use std::net::TcpStream;\n";
        assert!(findings("crates/service/src/m.rs", annotated).is_empty());
        let in_tests =
            "#[cfg(test)]\nmod tests {\n    fn f() { std::net::TcpStream::connect(\"x\").ok(); }\n}\n";
        assert!(findings("crates/service/src/m.rs", in_tests).is_empty());
        assert!(findings(
            "crates/service/src/net_tests.rs",
            "use std::net::TcpStream;\n"
        )
        .is_empty());
        // a string literal naming the module is not a use of it
        let in_string = "const HELP: &str = \"std::net is banned here\";\n";
        assert!(findings("crates/service/src/m.rs", in_string).is_empty());
    }

    // -- net-discipline (no-raw-sync / no-unwrap in crates/net) -----------

    #[test]
    fn the_front_door_is_held_to_the_shim_and_unwrap_discipline() {
        let sync_src = "use std::thread;\n";
        let found = findings("crates/net/src/server.rs", sync_src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with("crates/net/src/server.rs:1: no-raw-sync:"),
            "{}",
            found[0]
        );
        let unwrap_src = "fn f() { g().unwrap(); }\n";
        let found = findings("crates/net/src/client.rs", unwrap_src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains(": no-unwrap:"), "{}", found[0]);
        // Arc stays allowed, as in crates/service
        assert!(findings("crates/net/src/server.rs", "use std::sync::Arc;\n").is_empty());
        // test modules and test files drive real threads and unwrap freely
        let test_src =
            "#[cfg(test)]\nmod tests {\n    use std::thread;\n    fn f() { g().unwrap(); }\n}\n";
        assert!(findings("crates/net/src/server.rs", test_src).is_empty());
        assert!(findings("crates/net/src/model_tests.rs", sync_src).is_empty());
        // and the exception grammar names the same rules
        let annotated = "// lint: allow(no-unwrap) -- poisoned registry is unreachable\n\
                         fn f() { g().unwrap(); }\n";
        assert!(findings("crates/net/src/server.rs", annotated).is_empty());
    }

    #[test]
    fn durability_rule_is_scoped_to_the_durable_path() {
        // a function that never sees the durability handle may publish
        // freely (the compactor: compaction never changes the matching)
        let src = "fn compactor(cell: &SnapshotCell, b: &B) { cell.publish(snap(b)); }\n";
        assert!(findings(DUR_PATH, src).is_empty());
        // and other files are out of scope entirely
        let bad = "fn writer(cell: &SnapshotCell, dur: &mut ShardDurability, b: &B) {\n\
                       cell.publish(snap(b));\n\
                   }\n";
        assert!(findings("crates/service/src/cell.rs", bad).is_empty());
    }
}
