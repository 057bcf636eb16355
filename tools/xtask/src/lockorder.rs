//! Whole-program static lock-order analysis over `crates/service` +
//! `crates/sync` + `crates/net`.
//!
//! The model checker proves the shard protocols deadlock-free per scenario;
//! this pass complements it with *whole-program* coverage: every
//! lock-acquisition site, in every function, under every call path the
//! intra-workspace call graph can resolve — no schedule enumeration, no
//! scenario authoring.
//!
//! How it works, in one pass-shaped paragraph: each `Mutex`-typed struct
//! field (`Progress.state`, `SnapshotCell.slot`) and each non-field mutex
//! with a plain content type, named by that type (a `&Mutex<Engine>` handed
//! to two functions is the one node `Mutex<Engine>`), becomes a lock node.
//! A lexical walk of every function body tracks which guards are live
//! (guard `let`-bindings, brace
//! scopes, `drop(guard)`, guard-returning helpers like the model
//! scheduler's `fn lock(&self) -> Guard<'_>`), records each acquisition with
//! the set of locks held at that point, and records each resolvable
//! intra-workspace call with the held set too. A fixpoint then propagates
//! transitive acquisitions over the call graph, every (held, acquired) pair
//! becomes an edge labeled with its `file:line` site, and a DFS reports
//! every cycle — a static lock-order cycle is a potential deadlock even if
//! no explored schedule has hit it yet.
//!
//! Conservative choices (all misses, never false cycles): calls whose
//! receiver cannot be typed (trait objects, closures, `match`-arm bindings
//! like the shim's routed scheduler handles) contribute no edges; mutexes
//! with generic content (`Mutex<T>` inside the shim itself) are containers,
//! not program locks, and are skipped; an array of same-typed mutexes
//! (`Shared.queues`) unifies into ONE node, so ordered same-type acquisition
//! (work-stealing) would be reported — the pool deliberately never holds two
//! queue locks, and the analysis proves that stays true.

use crate::model::{FileCtx, FnItem, StructDef};
use crate::rules::{Diagnostic, RULE_LOCK_ORDER};
use std::collections::{BTreeMap, BTreeSet};

/// `(impl type, fn name)` — `None` for free functions.
pub type FnKey = (Option<String>, String);

/// One lock-acquisition or call site.
#[derive(Clone)]
pub struct Site {
    pub path: String,
    pub line: u32,
}

/// The analysis result for one workspace.
pub struct LockOrderReport {
    /// `held → acquired`, with the first site that creates each edge.
    pub edges: BTreeMap<(String, String), Site>,
    /// Total direct acquisition sites seen (0 means the resolver broke).
    pub acquire_sites: usize,
    /// Every distinct lock-order cycle, as a node sequence.
    pub cycles: Vec<Vec<String>>,
    pub diagnostics: Vec<Diagnostic>,
}

/// Renders the lock graph as Graphviz DOT (deterministic order).
pub fn to_dot(report: &LockOrderReport) -> String {
    let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
    for ((from, to), site) in &report.edges {
        out.push_str(&format!(
            "  \"{from}\" -> \"{to}\" [label=\"{}:{}\"];\n",
            site.path, site.line
        ));
    }
    out.push_str("}\n");
    out
}

pub fn analyze(files: &[FileCtx]) -> LockOrderReport {
    let regs = Registry::build(files);

    // Pass 1: find guard-returning helpers (`fn lock(&self) -> Guard<'_>` in
    // the model scheduler): a helper is a fn returning a guard-ish type that
    // directly acquires exactly one lock. Callers binding its result hold
    // that lock until the binding dies.
    let no_helpers = BTreeMap::new();
    let first = walk_all(files, &regs, &no_helpers);
    let mut helpers: BTreeMap<FnKey, String> = BTreeMap::new();
    for (key, events) in &first {
        let f = &files[regs.fns[key].0].model.fns[regs.fns[key].1];
        if !f.ret.contains("Guard") {
            continue;
        }
        let direct: BTreeSet<&String> = events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { lock, .. } => Some(lock),
                Event::Call { .. } => None,
            })
            .collect();
        if direct.len() == 1 {
            helpers.insert(key.clone(), (*direct.iter().next().unwrap()).clone());
        }
    }

    // Pass 2: the real walk, with helper-acquired guards tracked as held.
    let events = walk_all(files, &regs, &helpers);

    // Fixpoint: transitive acquisitions over the call graph.
    let mut trans: BTreeMap<FnKey, BTreeSet<String>> = BTreeMap::new();
    for (key, evs) in &events {
        let direct = evs
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { lock, .. } => Some(lock.clone()),
                Event::Call { .. } => None,
            })
            .collect();
        trans.insert(key.clone(), direct);
    }
    loop {
        let mut changed = false;
        for (key, evs) in &events {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for e in evs {
                if let Event::Call { key: callee, .. } = e {
                    if let Some(t) = trans.get(callee) {
                        add.extend(t.iter().cloned());
                    }
                }
            }
            let cur = trans.entry(key.clone()).or_default();
            for l in add {
                changed |= cur.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: (held, acquired) from both direct acquisitions and calls.
    let mut edges: BTreeMap<(String, String), Site> = BTreeMap::new();
    let mut acquire_sites = 0usize;
    for (fi, cx) in files.iter().enumerate() {
        for key in regs.fns_in_file(fi) {
            let Some(evs) = events.get(&key) else {
                continue;
            };
            for e in evs {
                match e {
                    Event::Acquire { lock, line, held } => {
                        acquire_sites += 1;
                        for h in held {
                            edge(&mut edges, h, lock, cx, *line);
                        }
                    }
                    Event::Call {
                        key: callee,
                        line,
                        held,
                    } => {
                        if held.is_empty() {
                            continue;
                        }
                        if let Some(acquired) = trans.get(callee) {
                            for h in held {
                                for l in acquired {
                                    if h != l {
                                        edge(&mut edges, h, l, cx, *line);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    let cycles = find_cycles(&edges);
    let mut diagnostics = Vec::new();
    for cycle in &cycles {
        let mut legs = Vec::new();
        for i in 0..cycle.len() {
            let from = &cycle[i];
            let to = &cycle[(i + 1) % cycle.len()];
            if let Some(site) = edges.get(&(from.clone(), to.clone())) {
                legs.push(format!("{from} -> {to} at {}:{}", site.path, site.line));
            }
        }
        let first_site = edges
            .get(&(cycle[0].clone(), cycle[(1) % cycle.len()].clone()))
            .cloned()
            .unwrap_or(Site {
                path: String::new(),
                line: 0,
            });
        diagnostics.push(Diagnostic {
            path: first_site.path,
            line: first_site.line,
            rule: RULE_LOCK_ORDER,
            message: format!(
                "static lock-order cycle ({}): {}",
                cycle.join(" -> "),
                legs.join("; ")
            ),
        });
    }

    LockOrderReport {
        edges,
        acquire_sites,
        cycles,
        diagnostics,
    }
}

fn edge(
    edges: &mut BTreeMap<(String, String), Site>,
    from: &str,
    to: &str,
    cx: &FileCtx,
    line: u32,
) {
    edges
        .entry((from.to_string(), to.to_string()))
        .or_insert(Site {
            path: cx.path.clone(),
            line,
        });
}

/// DFS cycle enumeration; each cycle reported once, rotated to start at its
/// smallest node.
fn find_cycles(edges: &BTreeMap<(String, String), Site>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut stack: Vec<&str> = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();

    fn dfs<'a>(
        n: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        state: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        seen: &mut BTreeSet<Vec<String>>,
    ) {
        state.insert(n, 1);
        stack.push(n);
        for &m in adj.get(n).into_iter().flatten() {
            match state.get(m).copied().unwrap_or(0) {
                0 => dfs(m, adj, state, stack, seen),
                1 => {
                    let start = stack.iter().position(|&x| x == m).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[start..].iter().map(|s| s.to_string()).collect();
                    // rotate to the smallest node for a canonical form
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    seen.insert(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        state.insert(n, 2);
    }

    for n in nodes {
        if state.get(n).copied().unwrap_or(0) == 0 {
            dfs(n, &adj, &mut state, &mut stack, &mut seen);
        }
    }
    seen.into_iter().collect()
}

// ---- registry -------------------------------------------------------------

struct Registry<'a> {
    structs: BTreeMap<&'a str, &'a StructDef>,
    /// `(impl type, name)` → (file index, fn index); first definition wins
    /// (the shim and passthrough builds define identically-shaped types).
    fns: BTreeMap<FnKey, (usize, usize)>,
}

impl<'a> Registry<'a> {
    fn build(files: &'a [FileCtx]) -> Registry<'a> {
        let mut structs = BTreeMap::new();
        let mut fns = BTreeMap::new();
        for (fi, cx) in files.iter().enumerate() {
            for s in &cx.model.structs {
                structs.entry(s.name.as_str()).or_insert(s);
            }
            for (gi, f) in cx.model.fns.iter().enumerate() {
                if f.in_test || f.body.is_none() {
                    continue;
                }
                let key = (f.impl_type.clone(), f.name.clone());
                fns.entry(key).or_insert((fi, gi));
            }
        }
        Registry { structs, fns }
    }

    fn fns_in_file(&self, fi: usize) -> Vec<FnKey> {
        let mut keys: Vec<(usize, FnKey)> = self
            .fns
            .iter()
            .filter(|(_, &(f, _))| f == fi)
            .map(|(k, &(_, gi))| (gi, k.clone()))
            .collect();
        keys.sort();
        keys.into_iter().map(|(_, k)| k).collect()
    }
}

/// `Mutex<…>` / `StdMutex<…>` content type, if the type is a mutex.
/// `MutexGuard<…>` is not (its base name ends in `Guard`).
fn mutex_content(ty: &str) -> Option<String> {
    let base = base_name(ty);
    if !(base == "Mutex" || base.ends_with("Mutex")) {
        return None;
    }
    let open = ty.find('<')?;
    let mut depth = 0usize;
    for (i, c) in ty[open..].char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(ty[open + 1..open + i].trim().to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Strips references, lifetimes and transparent wrappers
/// (`Arc`/`Rc`/`Box`/`Option`), keeping the payload's own generics:
/// `&'a Arc<Mutex<Engine>>` → `Mutex<Engine>`.
fn ty_base(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        t = t.trim_start_matches('&').trim();
        if let Some(rest) = t.strip_prefix("mut ") {
            t = rest.trim();
            continue;
        }
        if t.starts_with('\'') {
            match t.find(' ') {
                Some(sp) => {
                    t = t[sp..].trim();
                    continue;
                }
                None => break,
            }
        }
        let mut unwrapped = false;
        for w in ["Arc<", "Rc<", "Box<", "Option<"] {
            if t.starts_with(w) && t.ends_with('>') {
                t = t[w.len()..t.len() - 1].trim();
                unwrapped = true;
                break;
            }
        }
        if !unwrapped {
            break;
        }
    }
    // last path segment (`std::sync::Mutex<T>` → `Mutex<T>`), path-sep
    // search limited to before the generics
    let cut = t.find('<').unwrap_or(t.len());
    match t[..cut].rfind("::") {
        Some(at) => t[at + 2..].to_string(),
        None => t.to_string(),
    }
}

/// The struct-registry name of a type: base, generics cut.
fn base_name(ty: &str) -> String {
    let b = ty_base(ty);
    match b.find('<') {
        Some(at) => b[..at].to_string(),
        None => b,
    }
}

fn is_plain_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

// ---- per-function walk ----------------------------------------------------

enum Event {
    Acquire {
        lock: String,
        line: u32,
        held: Vec<String>,
    },
    Call {
        key: FnKey,
        line: u32,
        held: Vec<String>,
    },
}

#[derive(Clone)]
enum Binding {
    Val(String),
    Guard { content: String },
}

fn walk_all<'a>(
    files: &'a [FileCtx],
    regs: &Registry<'a>,
    helpers: &BTreeMap<FnKey, String>,
) -> BTreeMap<FnKey, Vec<Event>> {
    let mut out = BTreeMap::new();
    for (key, &(fi, gi)) in &regs.fns {
        let cx = &files[fi];
        let f = &cx.model.fns[gi];
        let mut w = Walker {
            cx,
            f,
            regs,
            helpers,
            scopes: vec![Vec::new()],
            held: Vec::new(),
            events: Vec::new(),
        };
        w.run();
        out.insert(key.clone(), w.events);
    }
    out
}

struct Walker<'a, 'r> {
    cx: &'a FileCtx,
    f: &'a FnItem,
    regs: &'r Registry<'a>,
    helpers: &'r BTreeMap<FnKey, String>,
    /// Innermost scope last; each holds (name, binding).
    scopes: Vec<Vec<(String, Binding)>>,
    /// Live guards: (binding name, lock id).
    held: Vec<(String, String)>,
    events: Vec<Event>,
}

impl Walker<'_, '_> {
    fn run(&mut self) {
        for p in &self.f.params {
            if !p.name.is_empty() {
                self.bind(p.name.clone(), Binding::Val(p.ty.clone()));
            }
        }
        let Some((open, close)) = self.f.body else {
            return;
        };
        let mut si = open;
        while si <= close {
            si = self.step(si, close);
        }
    }

    fn bind(&mut self, name: String, b: Binding) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.push((name, b));
        }
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, b)) = scope.iter().rev().find(|(n, _)| n == name) {
                return Some(b);
            }
        }
        None
    }

    fn held_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.held.iter().map(|(_, l)| l.clone()).collect();
        ids.dedup();
        ids
    }

    fn release(&mut self, name: &str) {
        if let Some(at) = self.held.iter().rposition(|(n, _)| n == name) {
            self.held.remove(at);
        }
    }

    /// Processes the token at `si`; returns the next index to process.
    fn step(&mut self, si: usize, close: usize) -> usize {
        let cx = self.cx;
        if cx.is_punct(si, '{') {
            self.scopes.push(Vec::new());
            return si + 1;
        }
        if cx.is_punct(si, '}') {
            if let Some(scope) = self.scopes.pop() {
                for (name, b) in &scope {
                    if matches!(b, Binding::Guard { .. }) {
                        self.release(name);
                    }
                }
            }
            return si + 1;
        }
        if cx.is_ident(si, "let") {
            return self.handle_let(si, close);
        }
        // drop(guard) releases before scope end
        if cx.is_ident(si, "drop")
            && cx.is_punct(si + 1, '(')
            && cx.skind(si + 2) == crate::lexer::TokKind::Ident
            && cx.is_punct(si + 3, ')')
        {
            let name = cx.st(si + 2).to_string();
            self.release(&name);
            return si + 4;
        }
        // `recv.method(` — acquisition when method is `lock`, else a call
        if cx.is_punct(si, '.')
            && cx.skind(si + 1) == crate::lexer::TokKind::Ident
            && cx.is_punct(si + 2, '(')
        {
            let method = cx.st(si + 1).to_string();
            let line = cx.sline(si + 1);
            if method == "lock" {
                if let Some((lock, _)) = self.resolve_lock(si) {
                    self.events.push(Event::Acquire {
                        lock,
                        line,
                        held: self.held_ids(),
                    });
                }
                return si + 3;
            }
            if let Some(ty) = self.receiver_ty(si) {
                let key = (Some(base_name(&ty)), method);
                if self.regs.fns.contains_key(&key) {
                    self.events.push(Event::Call {
                        key,
                        line,
                        held: self.held_ids(),
                    });
                }
            }
            return si + 3;
        }
        // `Type::method(…)` and free `name(…)` calls
        if cx.skind(si) == crate::lexer::TokKind::Ident {
            let prev_dotted = si > 0 && (cx.is_punct(si - 1, '.') || cx.is_punct(si - 1, ':'));
            if !prev_dotted {
                if cx.is_punct(si + 1, ':')
                    && cx.is_punct(si + 2, ':')
                    && cx.skind(si + 3) == crate::lexer::TokKind::Ident
                    && cx.is_punct(si + 4, '(')
                {
                    let owner = if cx.st(si) == "Self" {
                        self.f.impl_type.clone()
                    } else {
                        Some(cx.st(si).to_string())
                    };
                    let key = (owner, cx.st(si + 3).to_string());
                    if self.regs.fns.contains_key(&key) {
                        self.events.push(Event::Call {
                            key,
                            line: cx.sline(si + 3),
                            held: self.held_ids(),
                        });
                    }
                    return si + 5;
                }
                if cx.is_punct(si + 1, '(') {
                    let key = (None, cx.st(si).to_string());
                    if self.regs.fns.contains_key(&key) {
                        self.events.push(Event::Call {
                            key,
                            line: cx.sline(si),
                            held: self.held_ids(),
                        });
                    }
                    return si + 2;
                }
            }
        }
        si + 1
    }

    /// `let [mut] name [: ty] = init ;` plus `if let` / `while let`.
    fn handle_let(&mut self, si: usize, close: usize) -> usize {
        let cx = self.cx;
        if si > 0 && (cx.is_ident(si - 1, "if") || cx.is_ident(si - 1, "while")) {
            return self.handle_cond_let(si, close);
        }
        let mut j = si + 1;
        if cx.is_ident(j, "mut") {
            j += 1;
        }
        if cx.skind(j) != crate::lexer::TokKind::Ident {
            return si + 1; // destructuring pattern: no binding tracked
        }
        let name = cx.st(j).to_string();
        let mut k = j + 1;
        let mut explicit_ty = None;
        if cx.is_punct(k, ':') {
            let ty_start = k + 1;
            let mut depth = 0usize;
            k = ty_start;
            while k < close {
                if cx.is_punct(k, '<') {
                    depth += 1;
                } else if cx.is_punct(k, '>') && !cx.is_punct(k - 1, '-') {
                    depth = depth.saturating_sub(1);
                } else if cx.is_punct(k, '(') || cx.is_punct(k, '[') {
                    k = cx.matching(k);
                } else if depth == 0 && (cx.is_punct(k, '=') || cx.is_punct(k, ';')) {
                    break;
                }
                k += 1;
            }
            explicit_ty = Some(cx.render(ty_start, k));
        }
        if cx.is_punct(k, ';') {
            if let Some(ty) = explicit_ty {
                self.bind(name, Binding::Val(ty));
            }
            return k + 1;
        }
        if !cx.is_punct(k, '=') {
            return si + 1;
        }
        let init = k + 1;

        // a pure guard chain: `<chain>.lock()` (+ tolerated residuals) `;`
        if let Some((chain, after)) = self.chain_forward(init, close) {
            // `<chain>.lock()` …
            if cx.is_punct(after, '.')
                && cx.is_ident(after + 1, "lock")
                && cx.is_punct(after + 2, '(')
            {
                let call_close = cx.matching(after + 2);
                if let Some(semi) = self.residuals_then_semi(call_close + 1, close) {
                    if let Some((lock, content)) = self.resolve_chain_lock(&chain) {
                        self.events.push(Event::Acquire {
                            lock: lock.clone(),
                            line: cx.sline(after + 1),
                            held: self.held_ids(),
                        });
                        self.held.push((name.clone(), lock));
                        self.bind(name, Binding::Guard { content });
                        return semi + 1;
                    }
                }
            }
            // `<chain>.helper()` where the helper returns a guard
            if cx.is_punct(after, '.')
                && cx.skind(after + 1) == crate::lexer::TokKind::Ident
                && cx.is_punct(after + 2, '(')
            {
                let call_close = cx.matching(after + 2);
                if let Some(semi) = self.residuals_then_semi(call_close + 1, close) {
                    if let Some(ty) = self.chain_ty(&chain) {
                        let key = (Some(base_name(&ty)), cx.st(after + 1).to_string());
                        if let Some(lock) = self.helpers.get(&key).cloned() {
                            self.events.push(Event::Call {
                                key,
                                line: cx.sline(after + 1),
                                held: self.held_ids(),
                            });
                            let content = mutex_content(&lock).unwrap_or_default();
                            self.held.push((name.clone(), lock));
                            self.bind(name, Binding::Guard { content });
                            return semi + 1;
                        }
                    }
                }
            }
            // a pure value chain (`let lock = guard.lock;`): type the binding
            if cx.is_punct(after, ';') {
                if let Some(ty) = explicit_ty.clone().or_else(|| self.chain_ty(&chain)) {
                    self.bind(name, Binding::Val(ty));
                }
                return after + 1;
            }
        }

        // general initializer: record the binding's type (explicit annotation
        // or constructor inference) and scan the initializer normally
        let ty = explicit_ty.or_else(|| self.infer_init_ty(init, close));
        if let Some(ty) = ty {
            self.bind(name, Binding::Val(ty));
        }
        init
    }

    /// `if let` / `while let`: binds `Some(name) = <chain>[.as_mut()/as_ref()]`
    /// by unwrapping one `Option`; other patterns bind nothing.
    fn handle_cond_let(&mut self, si: usize, close: usize) -> usize {
        let cx = self.cx;
        if !(cx.is_ident(si + 1, "Some")
            && cx.is_punct(si + 2, '(')
            && cx.skind(si + 3) == crate::lexer::TokKind::Ident
            && cx.is_punct(si + 4, ')')
            && cx.is_punct(si + 5, '='))
        {
            return si + 1;
        }
        let name = cx.st(si + 3).to_string();
        let expr = si + 6;
        if let Some((chain, mut after)) = self.chain_forward(expr, close) {
            // tolerate one `.as_mut()` / `.as_ref()` / `.as_deref()`
            if cx.is_punct(after, '.')
                && ["as_mut", "as_ref", "as_deref"]
                    .iter()
                    .any(|m| cx.is_ident(after + 1, m))
                && cx.is_punct(after + 2, '(')
            {
                after = cx.matching(after + 2) + 1;
            }
            if cx.is_punct(after, '{') {
                if let Some(ty) = self.chain_ty(&chain) {
                    let b = ty_base(&ty); // unwraps Option (and Arc/&)
                    self.bind(name, Binding::Val(b));
                }
                return after; // the `{` opens the body scope normally
            }
        }
        si + 6
    }

    /// Reads `[&][mut] ident (.ident | [index])*` starting at `si`; returns
    /// the chain names and the index just past it.
    fn chain_forward(&self, si: usize, close: usize) -> Option<(Vec<String>, usize)> {
        let cx = self.cx;
        let mut j = si;
        while cx.is_punct(j, '&') || cx.is_ident(j, "mut") {
            j += 1;
        }
        if cx.skind(j) != crate::lexer::TokKind::Ident || j >= close {
            return None;
        }
        let mut chain = vec![cx.st(j).to_string()];
        j += 1;
        loop {
            if cx.is_punct(j, '[') {
                j = cx.matching(j) + 1;
                continue;
            }
            if cx.is_punct(j, '.')
                && cx.skind(j + 1) == crate::lexer::TokKind::Ident
                && !cx.is_punct(j + 2, '(')
            {
                chain.push(cx.st(j + 1).to_string());
                j += 2;
                continue;
            }
            break;
        }
        Some((chain, j))
    }

    /// Zero or more `.unwrap_or_else(…)` / `.unwrap()` / `.expect(…)` then `;`.
    fn residuals_then_semi(&self, si: usize, close: usize) -> Option<usize> {
        let cx = self.cx;
        let mut j = si;
        while j < close {
            if cx.is_punct(j, ';') {
                return Some(j);
            }
            if cx.is_punct(j, '.')
                && ["unwrap_or_else", "unwrap", "expect"]
                    .iter()
                    .any(|m| cx.is_ident(j + 1, m))
                && cx.is_punct(j + 2, '(')
            {
                j = cx.matching(j + 2) + 1;
                continue;
            }
            return None;
        }
        None
    }

    /// The lock acquired by `<chain>.lock(` with the `.` at `si_dot`
    /// (receiver collected backwards).
    fn resolve_lock(&self, si_dot: usize) -> Option<(String, String)> {
        let chain = self.chain_backward(si_dot)?;
        self.resolve_chain_lock(&chain)
    }

    /// Receiver chain ending just before `si_dot`, walking back through
    /// `.field` hops and `[index]` strips. A `)` (call result) or `::`
    /// (path) receiver is unresolvable.
    fn chain_backward(&self, si_dot: usize) -> Option<Vec<String>> {
        let cx = self.cx;
        let mut chain = Vec::new();
        let mut k = si_dot;
        loop {
            let mut p = k.checked_sub(1)?;
            if cx.is_punct(p, ']') {
                // backward-matching bracket scan
                let mut depth = 0usize;
                loop {
                    if cx.is_punct(p, ']') {
                        depth += 1;
                    } else if cx.is_punct(p, '[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    p = p.checked_sub(1)?;
                }
                p = p.checked_sub(1)?;
            }
            if cx.skind(p) != crate::lexer::TokKind::Ident {
                return None;
            }
            chain.push(cx.st(p).to_string());
            if p > 0 && cx.is_punct(p - 1, '.') {
                if p > 1 && cx.is_punct(p - 2, ')') {
                    return None; // receiver is a call result
                }
                k = p - 1;
                continue;
            }
            if p > 0 && cx.is_punct(p - 1, ':') {
                return None; // path-qualified receiver
            }
            break;
        }
        chain.reverse();
        Some(chain)
    }

    /// Resolves a chain to `(lock id, content type)` when its type is a
    /// non-generic mutex. Field locks are `Owner.field`; others unify by
    /// content as `Mutex<Content>`.
    fn resolve_chain_lock(&self, chain: &[String]) -> Option<(String, String)> {
        let (ty, last_field) = self.chain_ty_with_field(chain)?;
        let base = ty_base(&ty);
        let content = mutex_content(&base)?;
        match last_field {
            Some((owner, field, owner_generics)) => {
                if owner_generics.contains(&content) {
                    return None; // a generic container, not a program lock
                }
                Some((format!("{owner}.{field}"), content))
            }
            None => {
                if !is_plain_ident(&content) || self.f.generics.contains(&content) {
                    return None;
                }
                Some((format!("Mutex<{content}>"), content))
            }
        }
    }

    fn chain_ty(&self, chain: &[String]) -> Option<String> {
        self.chain_ty_with_field(chain).map(|(ty, _)| ty)
    }

    /// Walks a chain through the struct registry; returns the final type and
    /// the last `.field` hop (owner base name, field, owner generics).
    #[allow(clippy::type_complexity)]
    fn chain_ty_with_field(
        &self,
        chain: &[String],
    ) -> Option<(String, Option<(String, String, Vec<String>)>)> {
        let head = chain.first()?;
        let mut cur: String = if head == "self" {
            self.f.impl_type.clone()?
        } else {
            match self.lookup(head)? {
                Binding::Val(ty) => ty.clone(),
                Binding::Guard { content, .. } => content.clone(),
            }
        };
        let mut last_field = None;
        for part in &chain[1..] {
            let owner = base_name(&cur);
            let s = self.regs.structs.get(owner.as_str())?;
            let field = s.fields.iter().find(|f| f.name == *part)?;
            last_field = Some((owner, part.clone(), s.generics.clone()));
            cur = field.ty.clone();
        }
        Some((cur, last_field))
    }

    /// Method-call receiver type (for `recv.method(…)` resolution).
    fn receiver_ty(&self, si_dot: usize) -> Option<String> {
        let chain = self.chain_backward(si_dot)?;
        self.chain_ty(&chain)
    }

    /// Constructor-shape inference for `let` initializers:
    /// `Arc::new(inner)` recurses, `Mutex::new(X …)` → `Mutex<X>`,
    /// `X { …` → `X`, `a::b::X::ctor(…)` → `X`.
    fn infer_init_ty(&self, si: usize, close: usize) -> Option<String> {
        let cx = self.cx;
        let mut j = si;
        while cx.is_punct(j, '&') || cx.is_ident(j, "mut") {
            j += 1;
        }
        if cx.skind(j) != crate::lexer::TokKind::Ident || j >= close {
            return None;
        }
        // collect the leading `a::b::C` path
        let mut segs = vec![cx.st(j).to_string()];
        let mut k = j + 1;
        while cx.is_punct(k, ':')
            && cx.is_punct(k + 1, ':')
            && cx.skind(k + 2) == crate::lexer::TokKind::Ident
        {
            segs.push(cx.st(k + 2).to_string());
            k += 3;
        }
        if cx.is_punct(k, '<') {
            // turbofish or generic ctor — take the path head as the type
            return Some(segs[segs.len().saturating_sub(2)].clone());
        }
        if cx.is_punct(k, '{') {
            return Some(segs.last().cloned().unwrap_or_default());
        }
        if !cx.is_punct(k, '(') || segs.len() < 2 {
            return None;
        }
        let ty_seg = segs[segs.len() - 2].clone();
        if ty_seg == "Arc" || ty_seg == "Rc" || ty_seg == "Box" {
            return self.infer_init_ty(k + 1, cx.matching(k));
        }
        if ty_seg == "Mutex" || ty_seg.ends_with("Mutex") {
            // Mutex::new(Content …)
            let inner = k + 1;
            if cx.skind(inner) == crate::lexer::TokKind::Ident {
                return Some(format!("Mutex<{}>", cx.st(inner)));
            }
            return None;
        }
        Some(ty_seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_src(srcs: &[(&str, &str)]) -> LockOrderReport {
        let files: Vec<FileCtx> = srcs
            .iter()
            .map(|(path, src)| FileCtx::new(path, src))
            .collect();
        analyze(&files)
    }

    fn edge_set(report: &LockOrderReport) -> Vec<(String, String)> {
        report.edges.keys().cloned().collect()
    }

    #[test]
    fn planted_three_mutex_cycle_through_the_call_graph_is_found() {
        // The seeded violation the acceptance criteria require: a 3-mutex
        // cycle where one leg (b -> c) exists only because `second` calls
        // `third` while holding b — no single function contains it.
        let src = "struct Planted { a: Mutex<Alpha>, b: Mutex<Beta>, c: Mutex<Gamma> }\n\
                   impl Planted {\n\
                       fn first(&self) {\n\
                           let ga = self.a.lock();\n\
                           let gb = self.b.lock();\n\
                           drop(gb);\n\
                           drop(ga);\n\
                       }\n\
                       fn second(&self) {\n\
                           let gb = self.b.lock();\n\
                           self.third();\n\
                       }\n\
                       fn third(&self) {\n\
                           let gc = self.c.lock();\n\
                       }\n\
                       fn fourth(&self) {\n\
                           let gc = self.c.lock();\n\
                           let ga = self.a.lock();\n\
                       }\n\
                   }\n";
        let report = analyze_src(&[("crates/service/src/planted.rs", src)]);
        let edges = edge_set(&report);
        let e = |a: &str, b: &str| (a.to_string(), b.to_string());
        assert!(edges.contains(&e("Planted.a", "Planted.b")), "{edges:?}");
        assert!(edges.contains(&e("Planted.b", "Planted.c")), "{edges:?}");
        assert!(edges.contains(&e("Planted.c", "Planted.a")), "{edges:?}");
        // the call-graph leg is sited at the `third()` call, line 11
        let site = &report.edges[&e("Planted.b", "Planted.c")];
        assert_eq!(
            (site.path.as_str(), site.line),
            ("crates/service/src/planted.rs", 11)
        );
        assert!(
            report.cycles.iter().any(|c| c.len() == 3),
            "expected the 3-lock cycle, got {:?}",
            report.cycles
        );
        assert_eq!(report.diagnostics.len(), 1);
        let rendered = report.diagnostics[0].to_string();
        assert!(
            rendered.starts_with("crates/service/src/planted.rs:")
                && rendered.contains("lock-order"),
            "{rendered}"
        );
        assert!(rendered.contains("Planted.a -> Planted.b"), "{rendered}");
    }

    #[test]
    fn scope_end_and_drop_both_release_guards() {
        let scoped = "struct S { a: Mutex<Alpha>, b: Mutex<Beta> }\n\
                      impl S {\n\
                          fn f(&self) {\n\
                              { let ga = self.a.lock(); }\n\
                              let gb = self.b.lock();\n\
                          }\n\
                      }\n";
        let report = analyze_src(&[("crates/service/src/x.rs", scoped)]);
        assert!(report.edges.is_empty(), "{:?}", edge_set(&report));
        assert_eq!(report.acquire_sites, 2);

        let dropped = "struct S { a: Mutex<Alpha>, b: Mutex<Beta> }\n\
                       impl S {\n\
                           fn f(&self) {\n\
                               let ga = self.a.lock();\n\
                               drop(ga);\n\
                               let gb = self.b.lock();\n\
                           }\n\
                       }\n";
        let report = analyze_src(&[("crates/service/src/x.rs", dropped)]);
        assert!(report.edges.is_empty(), "{:?}", edge_set(&report));

        let nested = "struct S { a: Mutex<Alpha>, b: Mutex<Beta> }\n\
                      impl S {\n\
                          fn f(&self) {\n\
                              let ga = self.a.lock();\n\
                              let gb = self.b.lock();\n\
                          }\n\
                      }\n";
        let report = analyze_src(&[("crates/service/src/x.rs", nested)]);
        assert_eq!(
            edge_set(&report),
            vec![("S.a".to_string(), "S.b".to_string())]
        );
    }

    #[test]
    fn non_field_mutexes_unify_by_content_type() {
        // the engine-slot shape: a standalone Mutex created by the owner,
        // passed to two loops by reference — same lock either way
        let src = "struct Cell { slot: Mutex<Snap> }\n\
                   impl Cell {\n\
                       fn publish(&self) { let s = self.slot.lock(); }\n\
                   }\n\
                   fn writer(m: &Mutex<Engine>, cell: &Cell) {\n\
                       let g = m.lock();\n\
                       cell.publish();\n\
                       drop(g);\n\
                   }\n\
                   fn compactor(m: &Mutex<Engine>, cell: &Cell) {\n\
                       let g = m.lock();\n\
                       cell.publish();\n\
                       drop(g);\n\
                   }\n";
        let report = analyze_src(&[("crates/service/src/x.rs", src)]);
        assert_eq!(
            edge_set(&report),
            vec![("Mutex<Engine>".to_string(), "Cell.slot".to_string())]
        );
        assert!(report.cycles.is_empty());
        // first site wins: writer's call, line 7
        assert_eq!(report.edges.values().next().unwrap().line, 7);
    }

    #[test]
    fn generic_mutex_containers_are_not_program_locks() {
        // the shim shape: Mutex<T> wrapping std::sync::Mutex<T>
        let src = "struct Mutex<T> { inner: StdMutex<T> }\n\
                   impl<T> Mutex<T> {\n\
                       fn lock(&self) { let g = self.inner.lock(); }\n\
                   }\n";
        let report = analyze_src(&[("crates/sync/src/x.rs", src)]);
        assert_eq!(report.acquire_sites, 0);
        assert!(report.edges.is_empty());
    }

    #[test]
    fn guard_returning_helpers_track_heldness_at_the_caller() {
        // the model scheduler shape: lock() returns the guard, callers hold
        // it across calls
        let src = "struct Sched { state: Mutex<State>, journal: Mutex<Journal> }\n\
                   impl Sched {\n\
                       fn lock(&self) -> Guard<'_> { self.state.lock() }\n\
                       fn log(&self) { let j = self.journal.lock(); }\n\
                       fn step(&self) {\n\
                           let st = self.lock();\n\
                           self.log();\n\
                       }\n\
                   }\n";
        let report = analyze_src(&[("crates/sync/src/x.rs", src)]);
        assert_eq!(
            edge_set(&report),
            vec![("Sched.state".to_string(), "Sched.journal".to_string())]
        );
    }

    #[test]
    fn unresolvable_receivers_contribute_nothing() {
        // match-arm bindings (the shim's routed scheduler handle) cannot be
        // typed: conservatively no events, never a false edge
        let src = "struct S { a: Mutex<Alpha> }\n\
                   impl S {\n\
                       fn f(&self, o: Option<Helper>) {\n\
                           let ga = self.a.lock();\n\
                           match o {\n\
                               Some(h) => h.go(),\n\
                               None => {}\n\
                           }\n\
                       }\n\
                   }\n";
        let report = analyze_src(&[("crates/service/src/x.rs", src)]);
        assert!(report.edges.is_empty());
        assert_eq!(report.acquire_sites, 1);
    }

    #[test]
    fn dot_output_is_deterministic_and_labeled() {
        let src = "struct S { a: Mutex<Alpha>, b: Mutex<Beta> }\n\
                   impl S {\n\
                       fn f(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
                   }\n";
        let report = analyze_src(&[("crates/service/src/x.rs", src)]);
        let dot = to_dot(&report);
        assert!(dot.starts_with("digraph lock_order {"), "{dot}");
        assert!(
            dot.contains("\"S.a\" -> \"S.b\" [label=\"crates/service/src/x.rs:3\"];"),
            "{dot}"
        );
    }

    #[test]
    fn real_workspace_graph_is_nonempty_acyclic_and_pins_the_shard_protocol() {
        let (_, files) =
            crate::lint_files(&crate::read_workspace(&crate::workspace_root()).unwrap());
        let report = analyze(&files);
        assert!(report.acquire_sites > 0, "the lock resolver went blind");
        assert!(!report.edges.is_empty(), "no lock ordering found at all");
        assert!(
            report.cycles.is_empty(),
            "lock-order cycle in the real workspace: {:?}",
            report.cycles
        );
        // The shard protocol must be visible: stats() reads the cell while
        // holding the progress lock. The writer owns its engine outright, so
        // no engine-slot lock may come back.
        let e = |a: &str, b: &str| (a.to_string(), b.to_string());
        let edges = edge_set(&report);
        assert!(
            !edges
                .iter()
                .any(|(a, b)| a == "Mutex<EngineSlot>" || b == "Mutex<EngineSlot>"),
            "the engine slot lock is back: {edges:?}"
        );
        assert!(
            edges.contains(&e("Progress.state", "SnapshotCell.slot")),
            "missing the stats-under-progress edge: {edges:?}"
        );
    }
}
