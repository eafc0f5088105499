//! The project-invariant rules and the engine that applies them.
//!
//! Each rule encodes a convention neither the compiler nor clippy can
//! check but the system's correctness arguments rely on (DESIGN.md §8).
//! Panic freedom, unchecked indexing, hash-order iteration, wall-clock
//! reads and raw threading are clippy lints instead, enabled at the
//! crate roots and in `clippy.toml` (docs/ANALYZER.md has the table).
//!
//! - **r2-float-reduce** — no `.sum::<f32>()`-style float reductions
//!   inside parallel closures (`map_partitions`, `spawn`): float
//!   addition does not commute, so cross-thread reduction order must be
//!   fixed by sequential merges.
//! - **r3-lock-order** — the static graph of nested `.lock()`
//!   acquisitions must be acyclic across the workspace.
//! - **r4-suppression** — `// lint:allow(<rule>): <reason>` is the only
//!   suppression form; a missing or empty reason, an unknown rule id
//!   (a rule that moved to clippy included), or a suppression that never
//!   fires (stale debt) is itself a violation.
//! - **r5-lock-across-pool** — no `MutexGuard`/`RwLockGuard` may be
//!   live across a worker-pool dispatch (`map_partitions`,
//!   `for_each_mut`, `matmul_pool*`, `paged_multi_token_pool*`,
//!   `step_replicas_to`): a guard held over the fan-out serializes the
//!   pool (or deadlocks it when a partition takes the same lock).
//! - **r5-pool-capture** — closures handed to the pool may not mutate
//!   captured state or touch interior-mutability cells: partitions must
//!   communicate results through the ordered-merge return path only.
//!
//! r2-float-reduce is token-stream based (see [`crate::lexer`]); the
//! others run on the scope tree from [`crate::scope`], which adds
//! closure boundaries, binder sets, and lock-guard liveness intervals on
//! top of the same stream (DESIGN.md §13). One guard pass feeds both
//! r3-lock-order and r5-lock-across-pool.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, TokKind};
use crate::scope::{ScopeKind, ScopeTree};

/// Every rule id the suppression grammar accepts.
pub const RULE_IDS: &[&str] = &[
    "r2-float-reduce",
    "r3-lock-order",
    "r4-suppression",
    "r5-lock-across-pool",
    "r5-pool-capture",
    "lex-error",
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Path the file was analyzed under (workspace-relative).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

/// A nested lock acquisition observed while one lock is held.
#[derive(Debug, Clone)]
struct LockEdge {
    held: String,
    acquired: String,
    path: String,
    line: u32,
}

/// One `// lint:allow` in the workspace, with its audit state — the
/// suppression-debt ledger CI archives (`--report`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionRecord {
    /// Rule the suppression silences.
    pub rule: String,
    /// File the suppression lives in (workspace-relative).
    pub path: String,
    /// 1-based line of the suppression comment.
    pub line: u32,
    /// The written reason (mandatory by r4).
    pub reason: String,
    /// True for `lint:allow-file` (whole-file scope).
    pub file_level: bool,
    /// Violations this suppression silenced in this run; zero means the
    /// suppression is stale debt (itself an r4 violation).
    pub fired: u32,
}

/// Final analysis results for a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations surviving suppression, sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Violations silenced by a reasoned suppression.
    pub suppressed: usize,
    /// Every well-formed suppression encountered, sorted by
    /// (path, line), with fired counts — the debt ledger.
    pub suppressions: Vec<SuppressionRecord>,
}

/// Accumulates per-file findings and the cross-file lock graph.
#[derive(Debug, Default)]
pub struct Analyzer {
    violations: Vec<Violation>,
    lock_edges: Vec<LockEdge>,
    files_scanned: usize,
    suppressed: usize,
    suppressions: Vec<SuppressionRecord>,
}

/// Paths are matched workspace-relative with forward slashes.
fn norm(path: &str) -> String {
    path.replace('\\', "/").trim_start_matches("./").to_string()
}

/// Scheduler/cache/kernel code whose float results are bit-identity
/// tested (r2-float-reduce).
fn in_float_scope(p: &str) -> bool {
    [
        "crates/core/src/",
        "crates/kvcache/src/",
        "crates/kernels/src/",
        "crates/obs/src/",
        "crates/cluster/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// Whole-file test-ish locations: integration tests, benches, examples.
fn is_test_path(p: &str) -> bool {
    p.starts_with("tests/")
        || p.starts_with("examples/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
}

/// A parsed `lint:allow` suppression.
#[derive(Debug)]
struct Suppression {
    rule: String,
    /// Line of the suppression comment itself.
    line: u32,
    /// Line of the first code token after the comment (the statement the
    /// suppression annotates); equals `line` for trailing comments.
    target_line: u32,
    file_level: bool,
    /// The written reason, for the suppression-debt ledger.
    reason: String,
}

impl Analyzer {
    /// Creates an empty analyzer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyzes one file. `path` determines rule scoping; fixture files
    /// may override it with a `// analyzer-fixture: <path>` header so
    /// the corpus exercises scoped rules from outside the scoped trees.
    pub fn analyze_file(&mut self, path: &str, src: &str) {
        self.files_scanned += 1;
        let real_path = norm(path);
        let toks = match lex(src) {
            Ok(t) => t,
            Err(e) => {
                self.violations.push(Violation {
                    rule: "lex-error",
                    path: real_path,
                    line: e.line,
                    msg: format!("cannot tokenize file: {}", e.msg),
                });
                return;
            }
        };
        // Virtual path header, for the fixture corpus.
        let scope_path = toks
            .first()
            .filter(|t| t.kind == TokKind::LineComment)
            .and_then(|t| t.text.strip_prefix("// analyzer-fixture:"))
            .map_or_else(|| real_path.clone(), |v| norm(v.trim()));

        let (sups, mut sup_violations) = collect_suppressions(&toks);
        let test_mask = compute_test_mask(&toks, &scope_path);

        // The scope tree gives the r3/r5 rules closure boundaries and
        // guard liveness on top of the same token stream.
        let tree = ScopeTree::build(&toks);
        let mut found = Vec::new();
        if in_float_scope(&scope_path) {
            rule_float_reduce(&toks, tree.code(), &test_mask, &mut found);
        }
        let guards = collect_guards(&toks, &tree);
        rule_pool_concurrency(&toks, &tree, &guards, &test_mask, &mut found);
        self.collect_lock_edges(&guards, &real_path);

        // Apply suppressions: file-level allows silence the whole file;
        // a line-level allow covers its own line and the next line (so
        // the comment can trail the code or sit on its own line above).
        // Each silenced violation is charged to the suppression(s) that
        // matched it, so a suppression that never fires is visible as
        // stale debt.
        let mut fired = vec![0u32; sups.len()];
        for v in found {
            let mut hit = false;
            for (si, s) in sups.iter().enumerate() {
                let matches = s.rule == v.rule
                    && (s.file_level || v.line == s.line || v.line == s.target_line);
                if matches {
                    fired[si] += 1;
                    hit = true;
                }
            }
            if hit {
                self.suppressed += 1;
            } else {
                self.violations.push(Violation {
                    path: real_path.clone(),
                    ..v
                });
            }
        }
        for (si, s) in sups.iter().enumerate() {
            if fired[si] == 0 {
                self.violations.push(Violation {
                    rule: "r4-suppression",
                    path: real_path.clone(),
                    line: s.line,
                    msg: format!(
                        "stale suppression: `lint:allow({})` silences nothing on this \
                         line — delete it (suppression debt must stay live)",
                        s.rule
                    ),
                });
            }
            self.suppressions.push(SuppressionRecord {
                rule: s.rule.clone(),
                path: real_path.clone(),
                line: s.line,
                reason: s.reason.clone(),
                file_level: s.file_level,
                fired: fired[si],
            });
        }
        for v in &mut sup_violations {
            v.path.clone_from(&real_path);
        }
        self.violations.append(&mut sup_violations);
    }

    /// Finishes the run: detects lock-order cycles across every analyzed
    /// file and returns the sorted report.
    #[must_use]
    pub fn finish(mut self) -> Report {
        self.detect_lock_cycles();
        self.violations
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        self.suppressions
            .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        Report {
            violations: self.violations,
            files_scanned: self.files_scanned,
            suppressed: self.suppressed,
            suppressions: self.suppressions,
        }
    }

    /// Records, for every `.lock()` acquisition, an edge from each lock
    /// whose guard is live there. Liveness is the guard pass's (binding
    /// to block end or `drop`); a temporary guard is never held. Locks
    /// are named by their receiver's token text (`self.inner.state`),
    /// the granularity the lock-order convention is written in.
    fn collect_lock_edges(&mut self, guards: &[Guard], path: &str) {
        for a in guards {
            let Some(acquired) = &a.lock else { continue };
            let live = guards.iter().filter(|g| g.live_at(a.bind));
            for held in live.filter_map(|g| g.lock.as_ref()) {
                if held != acquired {
                    self.lock_edges.push(LockEdge {
                        held: held.clone(),
                        acquired: acquired.clone(),
                        path: path.to_string(),
                        line: a.line,
                    });
                }
            }
        }
    }

    /// DFS over the acquisition graph; every distinct cycle becomes one
    /// violation at the edge that closes it.
    fn detect_lock_cycles(&mut self) {
        let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for e in &self.lock_edges {
            adj.entry(&e.held).or_default().push(e);
        }
        let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
        let mut cycle_violations = Vec::new();
        for start in adj.keys().copied().collect::<Vec<_>>() {
            // Path-stack DFS from each node, small graphs only.
            let mut stack: Vec<(&str, Vec<String>)> = vec![(start, vec![start.to_string()])];
            while let Some((node, path_nodes)) = stack.pop() {
                for e in adj.get(node).map_or(&[][..], |v| v) {
                    if e.acquired == start {
                        let mut key = path_nodes.clone();
                        key.sort();
                        if reported.insert(key) {
                            cycle_violations.push(Violation {
                                rule: "r3-lock-order",
                                path: e.path.clone(),
                                line: e.line,
                                msg: format!(
                                    "lock-order cycle: {} -> {} closes a cycle through [{}]",
                                    e.held,
                                    e.acquired,
                                    path_nodes.join(" -> ")
                                ),
                            });
                        }
                    } else if !path_nodes.contains(&e.acquired) && path_nodes.len() < 16 {
                        let mut p = path_nodes.clone();
                        p.push(e.acquired.clone());
                        stack.push((&e.acquired, p));
                    }
                }
            }
        }
        self.violations.append(&mut cycle_violations);
    }
}

/// Parses every `lint:allow(...)` comment. Returns well-formed
/// suppressions plus r4 violations for malformed ones (bare allows,
/// unknown rule ids).
fn collect_suppressions(toks: &[Tok]) -> (Vec<Suppression>, Vec<Violation>) {
    let mut sups = Vec::new();
    let mut violations = Vec::new();
    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment {
            continue;
        }
        // The statement a suppression annotates is the next code token,
        // possibly several comment lines below (multi-line reasons).
        let target_line = toks[ti + 1..]
            .iter()
            .find(|n| n.kind != TokKind::LineComment && n.kind != TokKind::BlockComment)
            .map_or(t.line, |n| n.line);
        // Strip the comment opener; doc comments (`///`, `//!`, `/**`,
        // `/*!`) are prose, never suppressions — a doc sentence that
        // *mentions* the grammar must not activate it.
        let body = if let Some(rest) = t.text.strip_prefix("//") {
            if rest.starts_with('/') || rest.starts_with('!') {
                continue;
            }
            rest
        } else if let Some(rest) = t.text.strip_prefix("/*") {
            if rest.starts_with('*') || rest.starts_with('!') {
                continue;
            }
            rest.trim_end_matches("*/")
        } else {
            continue;
        };
        // The marker must lead the comment (modulo whitespace): the
        // suppression is the comment's whole job, not an aside.
        let body = body.trim_start();
        let (after_marker, file_level) = if let Some(r) = body.strip_prefix("lint:allow-file") {
            (r, true)
        } else if let Some(r) = body.strip_prefix("lint:allow") {
            (r, false)
        } else {
            continue;
        };
        let Some(after) = after_marker.strip_prefix('(') else {
            violations.push(Violation {
                rule: "r4-suppression",
                path: String::new(),
                line: t.line,
                msg: "malformed suppression: expected `(` after `lint:allow`".to_string(),
            });
            continue;
        };
        let Some(close) = after.find(')') else {
            violations.push(Violation {
                rule: "r4-suppression",
                path: String::new(),
                line: t.line,
                msg: "malformed suppression: missing `)` after rule id".to_string(),
            });
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !RULE_IDS.contains(&rule.as_str()) {
            violations.push(Violation {
                rule: "r4-suppression",
                path: String::new(),
                line: t.line,
                msg: format!("suppression names unknown rule `{rule}`"),
            });
            continue;
        }
        let rest = after[close + 1..].trim_start();
        let reason = rest.strip_prefix(':').map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => {
                // A reason may spill across consecutive comment lines;
                // collect the continuation for the debt ledger.
                let mut full = r.to_string();
                for (expect, n) in (t.line + 1..).zip(&toks[ti + 1..]) {
                    if n.kind != TokKind::LineComment || n.line != expect {
                        break;
                    }
                    let tail = n.text.trim_start_matches('/').trim();
                    if tail.starts_with("lint:allow") {
                        break;
                    }
                    full.push(' ');
                    full.push_str(tail);
                }
                sups.push(Suppression {
                    rule,
                    line: t.line,
                    target_line,
                    file_level,
                    reason: full,
                });
            }
            _ => violations.push(Violation {
                rule: "r4-suppression",
                path: String::new(),
                line: t.line,
                msg: format!(
                    "bare suppression of `{rule}`: a written reason is mandatory \
                     (`// lint:allow({rule}): <why this is sound>`)"
                ),
            }),
        }
    }
    (sups, violations)
}

/// Marks every token inside test code: `#[cfg(test)]` / `#[test]`
/// items, and whole files under test-ish paths.
fn compute_test_mask(toks: &[Tok], scope_path: &str) -> Vec<bool> {
    let mut mask = vec![is_test_path(scope_path); toks.len()];
    if mask.first().copied().unwrap_or(false) {
        return mask;
    }
    let n = toks.len();
    let mut i = 0;
    while i < n {
        let is_attr_start = toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[");
        if !is_attr_start {
            i += 1;
            continue;
        }
        // Collect the attribute tokens between the matching brackets.
        let mut j = i + 2;
        let mut brackets = 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < n && brackets > 0 {
            match toks[j].text.as_str() {
                "[" => brackets += 1,
                "]" => brackets -= 1,
                "test" if toks[j].kind == TokKind::Ident => has_test = true,
                "not" if toks[j].kind == TokKind::Ident => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Mark from the attribute through the end of the annotated item:
        // skip any further attributes, then either a `;`-terminated item
        // or a braced body.
        let start = i;
        let mut k = j;
        loop {
            // Skip subsequent attributes wholesale.
            if k < n && toks[k].text == "#" && toks.get(k + 1).is_some_and(|t| t.text == "[") {
                let mut b = 1;
                k += 2;
                while k < n && b > 0 {
                    match toks[k].text.as_str() {
                        "[" => b += 1,
                        "]" => b -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                continue;
            }
            break;
        }
        let mut braces = 0;
        let mut entered = false;
        while k < n {
            match toks[k].text.as_str() {
                "{" => {
                    braces += 1;
                    entered = true;
                }
                "}" => {
                    braces -= 1;
                    if entered && braces == 0 {
                        k += 1;
                        break;
                    }
                }
                ";" if !entered => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k.min(n)).skip(start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// r2-float-reduce: `.sum::<f32>()` / `.product::<f64>()` inside the
/// argument list of a parallel combinator (`map_partitions`, `spawn`).
fn rule_float_reduce(toks: &[Tok], code: &[usize], test_mask: &[bool], out: &mut Vec<Violation>) {
    let mut depth = 0i32;
    // Paren depths at which a parallel call's argument list opened.
    let mut par_depths: Vec<i32> = Vec::new();
    for (w, &i) in code.iter().enumerate() {
        match toks[i].text.as_str() {
            "(" => {
                let callee = w
                    .checked_sub(1)
                    .map(|k| toks[code[k]].text.as_str())
                    .unwrap_or("");
                if callee == "map_partitions" || callee == "spawn" {
                    par_depths.push(depth);
                }
                depth += 1;
            }
            ")" => {
                depth -= 1;
                if par_depths.last().is_some_and(|d| *d >= depth) {
                    par_depths.pop();
                }
            }
            "sum" | "product" if toks[i].kind == TokKind::Ident => {
                if test_mask[i] || par_depths.is_empty() {
                    continue;
                }
                let turbofish_float = code.get(w + 1).is_some_and(|&k| toks[k].text == "::")
                    && code.get(w + 2).is_some_and(|&k| toks[k].text == "<")
                    && code
                        .get(w + 3)
                        .is_some_and(|&k| toks[k].text == "f32" || toks[k].text == "f64");
                let after_dot = w >= 1 && toks[code[w - 1]].text == ".";
                if after_dot && turbofish_float {
                    out.push(Violation {
                        rule: "r2-float-reduce",
                        path: String::new(),
                        line: toks[i].line,
                        msg: format!(
                            "float `.{}` inside a parallel closure: reduction order \
                             is not fixed; merge partials sequentially",
                            toks[i].text
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// The worker-pool dispatch surface guarded by the r5 rules: calling any
/// of these fans work out to pool threads.
const DISPATCH_FNS: &[&str] = &[
    "map_partitions",
    "for_each_mut",
    "matmul_pool",
    "matmul_pool_ungated",
    "paged_multi_token_pool",
    "paged_multi_token_pool_ungated",
    "step_replicas_to",
];

/// Methods that produce a lock guard.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Compound-assignment and assignment operators (mutation sites for the
/// capture rule).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// A lock-guard acquisition and, for a `let`-bound guard, its liveness
/// interval in code positions (empty for a temporary).
struct Guard {
    /// The bound name; empty for a temporary.
    name: String,
    /// The receiver chain of a `.lock()` call, the lock's node in the
    /// lock-order graph; `None` for `.read()`/`.write()` and the free
    /// `lock(&x)` helper.
    lock: Option<String>,
    bind: usize,
    end: usize,
    line: u32,
}

impl Guard {
    /// True when the guard is held at code position `p`.
    fn live_at(&self, p: usize) -> bool {
        self.bind < p && p < self.end
    }
}

/// True for identifiers that are type-ish rather than value-ish
/// (uppercase initial or primitive) — used to ignore `&mut T` in nested
/// closure parameter types.
fn type_like(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase)
        || matches!(
            name,
            "u8" | "u16"
                | "u32"
                | "u64"
                | "u128"
                | "usize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "i128"
                | "isize"
                | "f32"
                | "f64"
                | "bool"
                | "str"
                | "char"
                | "self"
        )
}

/// Identifiers declared with an interior-mutability cell type in this
/// file (`name: RefCell<..>`, `let name = Cell::new(..)`).
fn cell_names(toks: &[Tok], code: &[usize]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (w, &i) in code.iter().enumerate() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if !matches!(toks[i].text.as_str(), "RefCell" | "Cell" | "UnsafeCell") {
            continue;
        }
        // Walk back over an optional `std::cell::`-style path prefix.
        let mut j = w;
        while j >= 1 {
            let prev = &toks[code[j - 1]];
            let is_path = prev.text == "::"
                || (prev.kind == TokKind::Ident
                    && matches!(prev.text.as_str(), "std" | "core" | "cell"));
            if is_path {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 {
            let sep = &toks[code[j - 1]];
            let name = &toks[code[j - 2]];
            if (sep.text == ":" || sep.text == "=")
                && name.kind == TokKind::Ident
                && name.text != "use"
            {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

/// The one guard-liveness pass, shared by r3-lock-order and
/// r5-lock-across-pool. Both method guards (`x.lock()`, `x.read()`,
/// `x.write()`) and the workspace's poison-riding free helper
/// (`lock(&x)`) count; a `let`-bound guard lives from its binding to its
/// enclosing scope's end, or to an explicit `drop(guard)`. Unbound
/// `.lock()` calls are kept as acquisitions that hold nothing.
fn collect_guards(toks: &[Tok], tree: &ScopeTree) -> Vec<Guard> {
    let code = tree.code();
    let tok = |p: usize| &toks[code[p]];
    let mut guards = Vec::new();
    for w in 0..code.len() {
        if tok(w).kind != TokKind::Ident {
            continue;
        }
        let name = tok(w).text.as_str();
        let called = w + 1 < code.len() && tok(w + 1).text == "(";
        if !called {
            continue;
        }
        let after_dot = w >= 1 && tok(w - 1).text == ".";
        let is_method_guard = GUARD_METHODS.contains(&name) && after_dot;
        let is_free_guard = name == "lock" && !after_dot && (w == 0 || tok(w - 1).text != "fn");
        if !is_method_guard && !is_free_guard {
            continue;
        }
        // Start of the receiver chain (`self.inner.state.lock`), or the
        // call ident itself for the free helper.
        let mut j = w;
        if is_method_guard {
            j = w - 1; // the dot
            while j >= 1 {
                let prev = tok(j - 1);
                match prev.kind {
                    TokKind::Ident => {}
                    TokKind::Punct if prev.text == "." || prev.text == "::" => {}
                    _ => break,
                }
                j -= 1;
            }
        }
        let lock = (is_method_guard && name == "lock" && j + 1 < w)
            .then(|| (j..w - 1).map(|p| tok(p).text.as_str()).collect::<String>());
        // Binding shape: `let [mut] name = <chain>.lock()`; anything else
        // is a temporary, which holds nothing.
        let bound = j.checked_sub(2).filter(|&nm| {
            tok(nm + 1).text == "="
                && tok(nm).kind == TokKind::Ident
                && tok(nm).text != "_"
                && nm
                    .checked_sub(1)
                    .is_some_and(|p| matches!(tok(p).text.as_str(), "let" | "mut"))
        });
        let name = bound.map_or_else(String::new, |nm| tok(nm).text.clone());
        if name.is_empty() && lock.is_none() {
            continue;
        }
        // A bound guard lives to its scope's end or an explicit
        // `drop(name)`.
        let end = if name.is_empty() {
            w
        } else {
            let scope_end = tree.enclosing_end(w);
            let dropped = (w + 1..scope_end).find(|&d| {
                tok(d).kind == TokKind::Ident
                    && tok(d).text == "drop"
                    && d + 2 < code.len()
                    && tok(d + 1).text == "("
                    && tok(d + 2).text == name
            });
            dropped.unwrap_or(scope_end)
        };
        guards.push(Guard {
            name,
            lock,
            bind: w,
            end,
            line: tok(w).line,
        });
    }
    guards
}

/// r5-lock-across-pool + r5-pool-capture: the scope-tree concurrency
/// rules over the pool dispatch surface.
fn rule_pool_concurrency(
    toks: &[Tok],
    tree: &ScopeTree,
    guards: &[Guard],
    test_mask: &[bool],
    out: &mut Vec<Violation>,
) {
    let code = tree.code();
    let tok = |p: usize| &toks[code[p]];
    let cells = cell_names(toks, code);
    // Dedup: a closure body can hit the same capture on one line twice.
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    for w in 0..code.len() {
        if tok(w).kind != TokKind::Ident || !DISPATCH_FNS.contains(&tok(w).text.as_str()) {
            continue;
        }
        if test_mask[code[w]] {
            continue;
        }
        let called = w + 1 < code.len() && tok(w + 1).text == "(";
        let definition = w >= 1 && tok(w - 1).text == "fn";
        if !called || definition {
            continue;
        }
        // -- r5-lock-across-pool: any guard live over this dispatch.
        for g in guards {
            if g.live_at(w) {
                out.push(Violation {
                    rule: "r5-lock-across-pool",
                    path: String::new(),
                    line: tok(w).line,
                    msg: format!(
                        "lock guard `{}` (bound at line {}) is live across the \
                         `{}` pool dispatch: drop it before fanning out — a \
                         partition taking the same lock deadlocks the pool, and \
                         holding it serializes the batch",
                        g.name,
                        g.line,
                        tok(w).text
                    ),
                });
            }
        }
        // -- r5-pool-capture: closures in this call's argument list.
        let open = w + 1;
        let mut depth = 0i32;
        let mut close = code.len();
        for p in open..code.len() {
            match tok(p).text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        close = p;
                        break;
                    }
                }
                _ => {}
            }
        }
        for (cid, c) in tree.scopes().iter().enumerate() {
            if c.kind != ScopeKind::Closure || c.start <= open || c.start >= close {
                continue;
            }
            // Only outermost pool closures: captures of a *nested*
            // closure from its parent closure stay inside one partition
            // task and are sequential there.
            let mut p = c.parent;
            let nested = loop {
                let s = &tree.scopes()[p];
                if s.kind == ScopeKind::Closure && s.start > open && s.start < close {
                    break true;
                }
                if p == s.parent {
                    break false;
                }
                p = s.parent;
            };
            if nested {
                continue;
            }
            check_pool_closure(toks, tree, cid, &cells, test_mask, &mut seen, out);
        }
    }
}

/// Scans one pool closure for captured-state mutation and
/// interior-mutability use. `boundary` is the closure scope id; a name
/// declared at or below it (params, `let`, `for`) is partition-local and
/// exempt.
fn check_pool_closure(
    toks: &[Tok],
    tree: &ScopeTree,
    boundary: usize,
    cells: &BTreeSet<String>,
    test_mask: &[bool],
    seen: &mut BTreeSet<(u32, String)>,
    out: &mut Vec<Violation>,
) {
    let code = tree.code();
    let tok = |p: usize| &toks[code[p]];
    let c = &tree.scopes()[boundary];
    let body = c.start..c.end.min(code.len());
    let mut emit = |line: u32, what: String, out: &mut Vec<Violation>| {
        if seen.insert((line, what.clone())) {
            out.push(Violation {
                rule: "r5-pool-capture",
                path: String::new(),
                line,
                msg: format!(
                    "{what} inside a pool closure: partitions must stay \
                     independent and merge results through the ordered return \
                     path, not shared mutable state"
                ),
            });
        }
    };
    for p in body {
        if test_mask[code[p]] {
            continue;
        }
        let t = tok(p);
        // Mutation of a captured place: `<chain> op= ...`.
        if t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()) {
            if let Some(name) = assignment_target(toks, tree, p) {
                let inner = tree.innermost_at(p);
                if !tree.declared_within(inner, boundary, &name) && !type_like(&name) {
                    emit(t.line, format!("assignment to captured `{name}`"), out);
                }
            }
        }
        // `&mut <ident>` borrow of a captured place.
        if t.kind == TokKind::Punct
            && t.text == "&"
            && p + 2 < code.len()
            && tok(p + 1).text == "mut"
            && tok(p + 2).kind == TokKind::Ident
        {
            let name = tok(p + 2).text.clone();
            let inner = tree.innermost_at(p + 2);
            if !tree.declared_within(inner, boundary, &name) && !type_like(&name) {
                emit(
                    t.line,
                    format!("`&mut {name}` borrow of captured state"),
                    out,
                );
            }
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        // Interior mutability: `.borrow_mut()` always, and any use of an
        // identifier declared as a cell type in this file.
        if t.text == "borrow_mut"
            && p >= 1
            && tok(p - 1).text == "."
            && p + 1 < code.len()
            && tok(p + 1).text == "("
        {
            emit(t.line, "`.borrow_mut()`".to_string(), out);
        }
        if cells.contains(&t.text) {
            let inner = tree.innermost_at(p);
            if !tree.declared_within(inner, boundary, &t.text) {
                emit(
                    t.line,
                    format!("captured interior-mutability cell `{}`", t.text),
                    out,
                );
            }
        }
    }
}

/// For an assignment operator at code position `p`, resolves the
/// leftmost identifier of the assigned place (`self.replicas[i] = ..` →
/// `self`), or `None` when the shape is a declaration (`let x = ..`) or
/// not an assignment (`==`/`=>` are distinct tokens already).
fn assignment_target(toks: &[Tok], tree: &ScopeTree, p: usize) -> Option<String> {
    let code = tree.code();
    let tok = |q: usize| &toks[code[q]];
    let mut q = p.checked_sub(1)?;
    // Walk left over the place expression: `]`/`)` skip to their
    // opener; ident/`.`/`::` continue the chain.
    let mut leading: Option<String> = None;
    loop {
        let t = tok(q);
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "]" | ")") => {
                let close = t.text.clone();
                let open = if close == "]" { "[" } else { "(" };
                let mut depth = 1i32;
                while depth > 0 {
                    q = q.checked_sub(1)?;
                    if tok(q).text == close {
                        depth += 1;
                    } else if tok(q).text == open {
                        depth -= 1;
                    }
                }
            }
            (TokKind::Punct, "." | "::") => {}
            (TokKind::Ident, name) => {
                if matches!(name, "let" | "mut" | "ref") {
                    // Declaration, not mutation.
                    return None;
                }
                leading = Some(name.to_string());
            }
            (TokKind::Punct, "*") => {} // deref layers: `*x = ..`
            _ => break,
        }
        let Some(next) = q.checked_sub(1) else { break };
        q = next;
    }
    // `let <pat> = ..` where the pattern start was not adjacent (tuple
    // patterns): the token right before the chain is the discriminator.
    if tok(q).text == "let" || tok(q).text == "mut" {
        return None;
    }
    // A `:` right before the `=`'s chain start means a struct-literal
    // field or type ascription — not a mutation of a place.
    if tok(q).text == ":" {
        return None;
    }
    leading
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        let mut a = Analyzer::new();
        a.analyze_file(path, src);
        a.finish().violations
    }

    /// A float reduction inside a pool closure: one r2-float-reduce
    /// finding wherever that rule is in scope.
    const FLOAT_REDUCE: &str =
        "fn f(p: &P) -> Vec<f32> { p.map_partitions(|c| c.iter().sum::<f32>()) }\n";

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(p: &P) -> Vec<f32> { \
                   p.map_partitions(|c| c.iter().sum::<f32>()) }\n}\n";
        assert!(run("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_are_exempt() {
        let src = "/// pool.map_partitions(|c| c.iter().sum::<f32>());\nfn ok() {}\n";
        assert!(run("crates/kvcache/src/tiered.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn f(p: &P) -> Vec<f32> {\n    // lint:allow(r2-float-reduce): \
                   each partition sums its own rows in a fixed order\n    \
                   p.map_partitions(|c| c.iter().sum::<f32>())\n}\n";
        assert!(run("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn bare_suppression_is_a_violation() {
        let src = "fn f(p: &P) -> Vec<f32> {\n    // lint:allow(r2-float-reduce)\n    \
                   p.map_partitions(|c| c.iter().sum::<f32>())\n}\n";
        let v = run("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 2, "{v:?}"); // bare allow + unsuppressed reduction
        assert!(v.iter().any(|v| v.rule == "r4-suppression"));
        assert!(v.iter().any(|v| v.rule == "r2-float-reduce"));
    }

    #[test]
    fn unknown_rule_in_suppression_is_a_violation() {
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
        let v = run("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "r4-suppression");
    }

    #[test]
    fn btreemap_is_fine() {
        let src = "use std::collections::BTreeMap;\nstruct S { convs: BTreeMap<u64, u32> }\n\
                   impl S { fn walk(&self) { for (_k, _v) in &self.convs {} } }\n";
        assert!(run("crates/kvcache/src/tiered.rs", src).is_empty());
    }

    #[test]
    fn lock_cycle_detected() {
        let src = "fn ab(a: &M, b: &M) { let g = a.lock(); let h = b.lock(); }\n\
                   fn ba(a: &M, b: &M) { let g = b.lock(); let h = a.lock(); }\n";
        let v = run("crates/core/src/anywhere.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "r3-lock-order").count(), 1);
    }

    #[test]
    fn nested_same_order_is_fine() {
        let src = "fn ab(a: &M, b: &M) { let g = a.lock(); let h = b.lock(); }\n\
                   fn also_ab(a: &M, b: &M) { let g = a.lock(); let h = b.lock(); }\n";
        assert!(run("crates/core/src/anywhere.rs", src).is_empty());
    }

    /// Lock order and lock-across-pool share one liveness pass: a guard
    /// dropped before the second acquisition holds nothing there, and a
    /// temporary is an acquisition that is never held.
    #[test]
    fn dropped_and_temporary_guards_hold_nothing() {
        let src = "fn ab(a: &M, b: &M) { let g = a.lock(); drop(g); let h = b.lock(); }\n\
                   fn ba(a: &M, b: &M) { b.lock().push(1); let g = a.lock(); }\n";
        assert!(run("crates/core/src/anywhere.rs", src).is_empty());
        let held = "fn ab(a: &M, b: &M) { let g = a.lock(); b.lock().push(1); }\n\
                    fn ba(a: &M, b: &M) { let h = b.lock(); let g = a.lock(); }\n";
        let v = run("crates/core/src/anywhere.rs", held);
        assert_eq!(v.iter().filter(|v| v.rule == "r3-lock-order").count(), 1);
    }

    #[test]
    fn float_reduce_inside_parallel_closure() {
        let v = run("crates/kernels/src/ops.rs", FLOAT_REDUCE);
        assert_eq!(v.iter().filter(|v| v.rule == "r2-float-reduce").count(), 1);
        // The same reduction outside any parallel combinator is fine.
        let seq = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
        assert!(run("crates/kernels/src/ops.rs", seq).is_empty());
        // ...and so is the reduction in a crate outside the rule's scope.
        assert!(run("crates/workload/src/driver.rs", FLOAT_REDUCE).is_empty());
    }

    #[test]
    fn fixture_header_overrides_scope() {
        let src = format!("// analyzer-fixture: crates/core/src/hot.rs\n{FLOAT_REDUCE}");
        let v = run("crates/analyzer/fixtures/bad/p.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "r2-float-reduce");
    }
}
