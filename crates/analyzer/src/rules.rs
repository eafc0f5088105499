//! The project-invariant rules and the engine that applies them.
//!
//! Each rule encodes a convention the compiler cannot check but the
//! system's correctness arguments rely on (see DESIGN.md §8):
//!
//! - **r1-panic** — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!` in non-test code of the hot-path crates
//!   (`core`, `kvcache`, `kernels`, `sim`). Fallible paths must return
//!   their layer's typed error (`CacheError`, `TransferError`,
//!   `WorkerError`, …); deliberate documented panics carry a reasoned
//!   suppression.
//! - **r1-index** — no unchecked `x[i]` indexing/slicing in the cache
//!   crate (all of `kvcache/src/`, scoped by prefix) and the other
//!   hot-path files listed in `in_index_scope`: the swap-in/eviction
//!   path must be total.
//! - **r2-hash-iter** — no iteration over `HashMap`/`HashSet` in
//!   scheduler/cache/kernel code: eviction victim selection and
//!   partition merges are bit-identity-tested, so walk order must be
//!   deterministic (`BTreeMap` or explicitly sorted snapshots).
//! - **r2-float-reduce** — no `.sum::<f32>()`-style float reductions
//!   inside parallel closures (`map_partitions`, `spawn`): float
//!   addition does not commute, so cross-thread reduction order must be
//!   fixed by sequential merges.
//! - **r3-raw-spawn** — no raw `thread::spawn` outside the sanctioned
//!   concurrency layers (`shims/crossbeam`, `core::workers`).
//! - **r3-adhoc-scope** — no ad-hoc `thread::scope` fork/join outside
//!   the same sanctioned layers: scoped spawns re-pay thread startup on
//!   every call and bypass the persistent pool's accounting, so all
//!   data parallelism must route through `crossbeam::pool::Pool`.
//! - **r3-lock-order** — the static graph of nested `.lock()`
//!   acquisitions must be acyclic across the workspace.
//! - **r4-suppression** — `// lint:allow(<rule>): <reason>` is the only
//!   suppression form; a missing or empty reason, an unknown rule id,
//!   or a suppression that never fires (stale debt) is itself a
//!   violation.
//! - **r2-wall-clock** / **r2-ambient-rng** — no `Instant::now`/
//!   `SystemTime::now` and no ambient randomness (`thread_rng`,
//!   `rand::random`, `OsRng`, `from_entropy`) in the deterministic
//!   crates: simulated behavior must flow from `SimTime` and seeded
//!   `SplitMix64` streams only.
//! - **r5-lock-across-pool** — no `MutexGuard`/`RwLockGuard` may be
//!   live across a worker-pool dispatch (`map_partitions`,
//!   `for_each_mut`, `matmul_pool*`, `paged_multi_token_pool*`,
//!   `step_replicas_to`): a guard held over the fan-out serializes the
//!   pool (or deadlocks it when a partition takes the same lock).
//! - **r5-pool-capture** — closures handed to the pool may not mutate
//!   captured state or touch interior-mutability cells: partitions must
//!   communicate results through the ordered-merge return path only.
//!
//! The flat rules are token-stream based (see [`crate::lexer`]); the r5
//! family runs on the scope tree from [`crate::scope`], which adds
//! closure boundaries, binder sets, and lock-guard liveness intervals on
//! top of the same stream (DESIGN.md §13).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, TokKind};
use crate::scope::{ScopeKind, ScopeTree};

/// Every rule id the suppression grammar accepts.
pub const RULE_IDS: &[&str] = &[
    "r1-panic",
    "r1-index",
    "r2-hash-iter",
    "r2-float-reduce",
    "r2-wall-clock",
    "r2-ambient-rng",
    "r3-raw-spawn",
    "r3-adhoc-scope",
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

/// Crates whose non-test code must be panic-free (r1-panic).
fn in_panic_scope(p: &str) -> bool {
    [
        "crates/core/src/",
        "crates/kvcache/src/",
        "crates/kernels/src/",
        "crates/sim/src/",
        "crates/obs/src/",
        "crates/cluster/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// Hot-path files where unchecked indexing is banned (r1-index): the
/// cache swap-in/eviction path, the radix prefix index (walked on every
/// admission with caller-supplied token histories), the manifest
/// decoder and storage-device models (torn records are hostile input by
/// design), the cluster router + replication pump (every request and KV
/// delta crosses them), and the worker pool (an out-of-bounds panic
/// inside dispatch would poison the whole fleet).
fn in_index_scope(p: &str) -> bool {
    // The whole cache crate, by prefix: a file split out of `tiered.rs`
    // must not silently leave the rule's scope.
    p.starts_with("crates/kvcache/src/")
        || [
            "crates/sim/src/storage.rs",
            "crates/cluster/src/router.rs",
            "crates/cluster/src/replication.rs",
            "shims/crossbeam/src/lib.rs",
        ]
        .contains(&p)
}

/// Crates whose behavior must be a pure function of `SimTime` and the
/// seeded fault/RNG streams: wall-clock reads and ambient randomness are
/// banned (r2-wall-clock, r2-ambient-rng).
fn in_determinism_scope(p: &str) -> bool {
    [
        "crates/core/src/",
        "crates/kvcache/src/",
        "crates/kernels/src/",
        "crates/sim/src/",
        "crates/cluster/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// Scheduler/cache/kernel code where hash-order iteration is banned.
fn in_hash_scope(p: &str) -> bool {
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

/// The sanctioned spawn sites: the vendored concurrency shim and the
/// tensor-parallel worker fleet.
fn spawn_allowed(p: &str) -> bool {
    p.starts_with("shims/crossbeam/") || p == "crates/core/src/workers.rs"
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

        let mut found = Vec::new();
        if in_panic_scope(&scope_path) {
            rule_panic(&toks, &test_mask, &mut found);
        }
        if in_index_scope(&scope_path) {
            rule_index(&toks, &test_mask, &mut found);
        }
        if in_hash_scope(&scope_path) {
            rule_hash_iter(&toks, &test_mask, &mut found);
            rule_float_reduce(&toks, &test_mask, &mut found);
        }
        if !spawn_allowed(&scope_path) {
            rule_raw_spawn(&toks, &test_mask, &mut found);
            rule_adhoc_scope(&toks, &test_mask, &mut found);
        }
        if in_determinism_scope(&scope_path) {
            rule_wall_clock(&toks, &test_mask, &mut found);
            rule_ambient_rng(&toks, &test_mask, &mut found);
        }
        // The r5 concurrency rules run everywhere: the scope tree gives
        // them closure boundaries and guard liveness on top of the same
        // token stream.
        let tree = ScopeTree::build(&toks);
        rule_pool_concurrency(&toks, &tree, &test_mask, &mut found);
        self.collect_lock_edges(&toks, &real_path);

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

    /// Walks function bodies recording which locks are held when another
    /// `.lock()` is acquired. Heuristic: a guard bound with `let` is
    /// held until its enclosing block closes; a temporary guard lives
    /// for its statement only. Receivers are identified by their token
    /// text (`self.inner.state`), which is exactly the granularity the
    /// lock-order convention is written in.
    fn collect_lock_edges(&mut self, toks: &[Tok], path: &str) {
        let code: Vec<(usize, &Tok)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment)
            .collect();
        let mut depth: i32 = 0;
        // (receiver, depth at binding); cleared when depth drops below.
        let mut held: Vec<(String, i32)> = Vec::new();
        for w in 0..code.len() {
            let t = code[w].1;
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => depth += 1,
                (TokKind::Punct, "}") => {
                    depth -= 1;
                    held.retain(|(_, d)| *d <= depth);
                }
                // A new top-level item resets the held set (closures keep
                // it — they run on the same thread with guards live).
                (TokKind::Ident, "fn") if depth == 0 => held.clear(),
                (TokKind::Ident, "lock") => {
                    let is_call = w >= 1
                        && code[w - 1].1.text == "."
                        && code.get(w + 1).is_some_and(|(_, n)| n.text == "(");
                    if !is_call {
                        continue;
                    }
                    // Receiver: the longest ident/`.` chain before `.lock`.
                    let mut parts: Vec<&str> = Vec::new();
                    let mut j = w - 1; // points at the `.`
                    while j >= 1 {
                        let prev = code[j - 1].1;
                        match prev.kind {
                            TokKind::Ident => parts.push(&prev.text),
                            TokKind::Punct if prev.text == "." => {}
                            _ => break,
                        }
                        j -= 1;
                    }
                    parts.reverse();
                    if parts.is_empty() {
                        continue;
                    }
                    let recv = parts.join(".");
                    for (h, _) in &held {
                        if *h != recv {
                            self.lock_edges.push(LockEdge {
                                held: h.clone(),
                                acquired: recv.clone(),
                                path: path.to_string(),
                                line: t.line,
                            });
                        }
                    }
                    // Held only if bound: `let [mut] g = recv.lock()...`.
                    // The preceding-token check rejects `==` comparisons.
                    let bound = j >= 2
                        && code[j - 1].1.text == "="
                        && code[j - 2].1.kind == TokKind::Ident
                        && code[j - 2].1.text != "=";
                    if bound {
                        held.push((recv, depth));
                    }
                }
                _ => {}
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

/// Non-comment code tokens with their original indices.
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::LineComment && toks[i].kind != TokKind::BlockComment)
        .collect()
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// r1-panic: `.unwrap()`/`.expect(` calls and panic-family macros.
fn rule_panic(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if PANIC_METHODS.contains(&name) {
            let after_dot = w >= 1 && toks[code[w - 1]].text == ".";
            let called = code.get(w + 1).is_some_and(|&k| toks[k].text == "(");
            if after_dot && called {
                out.push(Violation {
                    rule: "r1-panic",
                    path: String::new(),
                    line: toks[i].line,
                    msg: format!(
                        "`.{name}()` on a hot path: return the layer's typed error \
                         or annotate the documented invariant"
                    ),
                });
            }
        } else if PANIC_MACROS.contains(&name)
            && code.get(w + 1).is_some_and(|&k| toks[k].text == "!")
        {
            out.push(Violation {
                rule: "r1-panic",
                path: String::new(),
                line: toks[i].line,
                msg: format!("`{name}!` on a hot path: return a typed error instead"),
            });
        }
    }
}

/// r1-index: `expr[...]` indexing/slicing in the cache hot-path files.
fn rule_index(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].text != "[" || toks[i].kind != TokKind::Punct {
            continue;
        }
        let Some(&p) = w.checked_sub(1).and_then(|k| code.get(k)) else {
            continue;
        };
        let prev = &toks[p];
        // `&mut [T]` / `dyn [..]` are slice *types*, not index sites: no
        // place expression can end in `mut` or `dyn`.
        let indexes = (prev.kind == TokKind::Ident && prev.text != "mut" && prev.text != "dyn")
            || (prev.kind == TokKind::Punct && matches!(prev.text.as_str(), ")" | "]" | "?"));
        if indexes {
            out.push(Violation {
                rule: "r1-index",
                path: String::new(),
                line: toks[i].line,
                msg: "unchecked index/slice on a cache hot path: use `.get()` and a \
                      typed error (or a reasoned suppression for a proven invariant)"
                    .to_string(),
            });
        }
    }
}

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers declared as `HashMap`/`HashSet` in this file: field and
/// binding type annotations (`name: HashMap<..>`) and constructor
/// bindings (`let name = HashMap::new()`).
fn hash_names(toks: &[Tok]) -> BTreeSet<String> {
    let code = code_indices(toks);
    let mut names = BTreeSet::new();
    for (w, &i) in code.iter().enumerate() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if toks[i].text != "HashMap" && toks[i].text != "HashSet" {
            continue;
        }
        // Walk back over an optional `std::collections::` path prefix.
        let mut j = w;
        while j >= 1 {
            let prev = &toks[code[j - 1]];
            let is_path = prev.text == "::"
                || (prev.kind == TokKind::Ident
                    && (prev.text == "std" || prev.text == "collections"));
            if is_path {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 {
            let sep = &toks[code[j - 1]];
            let name = &toks[code[j - 2]];
            let decl = sep.text == ":" && name.kind == TokKind::Ident;
            let ctor_bind = sep.text == "=" && name.kind == TokKind::Ident;
            if (decl || ctor_bind) && name.text != "use" {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

/// r2-hash-iter: iteration over identifiers known to be hash
/// collections, via iterator methods or `for .. in` loops.
fn rule_hash_iter(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let names = hash_names(toks);
    if names.is_empty() {
        return;
    }
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` and friends.
        if names.contains(&toks[i].text) {
            let dot = code.get(w + 1).is_some_and(|&k| toks[k].text == ".");
            let method = code.get(w + 2).map(|&k| toks[k].text.as_str());
            let called = code.get(w + 3).is_some_and(|&k| toks[k].text == "(");
            if dot && called && method.is_some_and(|m| HASH_ITER_METHODS.contains(&m)) {
                out.push(Violation {
                    rule: "r2-hash-iter",
                    path: String::new(),
                    line: toks[i].line,
                    msg: format!(
                        "iteration over hash-ordered `{}`: use a `BTreeMap`/sorted \
                         snapshot so eviction/merge order is deterministic",
                        toks[i].text
                    ),
                });
            }
        }
        // `for pat in [&[mut]] [self.]name {`.
        if toks[i].text == "for" {
            let mut k = w + 1;
            let mut saw_in = false;
            while k < code.len() && k < w + 24 {
                if toks[code[k]].text == "in" {
                    saw_in = true;
                    break;
                }
                k += 1;
            }
            if !saw_in {
                continue;
            }
            // Expression tokens between `in` and the loop body `{`.
            let mut expr: Vec<&Tok> = Vec::new();
            let mut m = k + 1;
            while m < code.len() && toks[code[m]].text != "{" && expr.len() < 12 {
                expr.push(&toks[code[m]]);
                m += 1;
            }
            // Simple chains only: [& [mut]] (ident .)* ident
            let chain_ok = expr
                .iter()
                .all(|t| t.kind == TokKind::Ident || matches!(t.text.as_str(), "&" | "." | "mut"));
            let last_ident = expr.iter().rev().find(|t| t.kind == TokKind::Ident);
            if chain_ok && last_ident.is_some_and(|t| names.contains(&t.text)) {
                out.push(Violation {
                    rule: "r2-hash-iter",
                    path: String::new(),
                    line: toks[i].line,
                    msg: format!(
                        "`for` over hash-ordered `{}`: iteration order is \
                         nondeterministic across runs",
                        last_ident.map_or("", |t| t.text.as_str())
                    ),
                });
            }
        }
    }
}

/// r2-float-reduce: `.sum::<f32>()` / `.product::<f64>()` inside the
/// argument list of a parallel combinator (`map_partitions`, `spawn`).
fn rule_float_reduce(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
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

/// r3-raw-spawn: `thread::spawn` outside the sanctioned layers.
fn rule_raw_spawn(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].kind != TokKind::Ident || toks[i].text != "thread" {
            continue;
        }
        let sep = code.get(w + 1).is_some_and(|&k| toks[k].text == "::");
        let spawn = code.get(w + 2).is_some_and(|&k| toks[k].text == "spawn");
        if sep && spawn {
            out.push(Violation {
                rule: "r3-raw-spawn",
                path: String::new(),
                line: toks[i].line,
                msg: "raw `thread::spawn`: route threading through \
                      `shims/crossbeam` scopes or `core::workers` so shutdown \
                      and panics stay contained"
                    .to_string(),
            });
        }
    }
}

/// r3-adhoc-scope: `thread::scope` fork/join outside the sanctioned
/// layers. Scoped spawns re-pay thread startup per call and dodge the
/// persistent pool's task count.
fn rule_adhoc_scope(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].kind != TokKind::Ident || toks[i].text != "thread" {
            continue;
        }
        let sep = code.get(w + 1).is_some_and(|&k| toks[k].text == "::");
        let scope = code.get(w + 2).is_some_and(|&k| toks[k].text == "scope");
        if sep && scope {
            out.push(Violation {
                rule: "r3-adhoc-scope",
                path: String::new(),
                line: toks[i].line,
                msg: "ad-hoc `thread::scope`: fork/join must go through the \
                      persistent `crossbeam::pool::Pool` so workers are \
                      reused and task accounting stays accurate"
                    .to_string(),
            });
        }
    }
}

/// r2-wall-clock: `Instant::now` / `SystemTime::now` in the
/// deterministic crates. Simulated behavior must be timed by `SimTime`;
/// a wall-clock read that leaks into scheduling or eviction decisions
/// breaks bit-identical replay.
fn rule_wall_clock(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        let sep = code.get(w + 1).is_some_and(|&k| toks[k].text == "::");
        let now = code.get(w + 2).is_some_and(|&k| toks[k].text == "now");
        if sep && now {
            out.push(Violation {
                rule: "r2-wall-clock",
                path: String::new(),
                line: toks[i].line,
                msg: format!(
                    "`{name}::now` in a deterministic crate: simulated behavior \
                     must be driven by `SimTime` (wall-clock observability reads \
                     need a reasoned suppression proving they never feed results)"
                ),
            });
        }
    }
}

/// Ambient (unseeded) randomness sources banned in the deterministic
/// crates (r2-ambient-rng).
const AMBIENT_RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// r2-ambient-rng: unseeded randomness in the deterministic crates.
/// Every stochastic decision must draw from a seeded `SplitMix64`
/// stream so fault schedules and arrivals replay bit-identically.
fn rule_ambient_rng(toks: &[Tok], test_mask: &[bool], out: &mut Vec<Violation>) {
    let code = code_indices(toks);
    for (w, &i) in code.iter().enumerate() {
        if test_mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let ambient = AMBIENT_RNG_IDENTS.contains(&name)
            || (name == "rand"
                && code.get(w + 1).is_some_and(|&k| toks[k].text == "::")
                && code.get(w + 2).is_some_and(|&k| toks[k].text == "random"));
        if ambient {
            out.push(Violation {
                rule: "r2-ambient-rng",
                path: String::new(),
                line: toks[i].line,
                msg: format!(
                    "ambient randomness (`{name}`) in a deterministic crate: draw \
                     from a seeded `SplitMix64` stream so runs replay bit-identically"
                ),
            });
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

/// Methods that produce a lock guard when `let`-bound.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Compound-assignment and assignment operators (mutation sites for the
/// capture rule).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// A `let`-bound lock guard's liveness interval, in code positions.
struct GuardLive {
    name: String,
    bind: usize,
    end: usize,
    line: u32,
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
fn cell_names(toks: &[Tok]) -> BTreeSet<String> {
    let code = code_indices(toks);
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

/// Collects `let`-bound lock-guard liveness intervals. Both method
/// guards (`x.lock()`, `x.read()`, `x.write()`) and the workspace's
/// poison-riding free helper (`lock(&x)`) count; a guard lives from its
/// binding to its enclosing scope's end, or to an explicit
/// `drop(guard)`.
fn collect_guards(toks: &[Tok], tree: &ScopeTree) -> Vec<GuardLive> {
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
        // Binding shape: `let [mut] name = <chain>.lock()`.
        let Some(eq) = j.checked_sub(1) else { continue };
        if tok(eq).text != "=" {
            continue;
        }
        let Some(nm) = eq.checked_sub(1) else {
            continue;
        };
        if tok(nm).kind != TokKind::Ident || tok(nm).text == "_" {
            continue;
        }
        let let_ok = nm
            .checked_sub(1)
            .is_some_and(|p| tok(p).text == "let" || tok(p).text == "mut");
        if !let_ok {
            continue;
        }
        let bound = tok(nm).text.clone();
        let scope_end = tree.enclosing_end(w);
        // An explicit `drop(name)` ends the guard early.
        let mut end = scope_end;
        for d in w + 1..scope_end.min(code.len()) {
            if tok(d).text == "drop"
                && tok(d).kind == TokKind::Ident
                && d + 2 < code.len()
                && tok(d + 1).text == "("
                && tok(d + 2).text == bound
            {
                end = d;
                break;
            }
        }
        guards.push(GuardLive {
            name: bound,
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
    test_mask: &[bool],
    out: &mut Vec<Violation>,
) {
    let code = tree.code();
    let tok = |p: usize| &toks[code[p]];
    let guards = collect_guards(toks, tree);
    let cells = cell_names(toks);
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
        for g in &guards {
            if g.bind < w && w < g.end {
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

    #[test]
    fn panics_flagged_in_scope_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(run("crates/core/src/engine.rs", src).len(), 1);
        assert!(run("crates/workload/src/driver.rs", src).is_empty());
    }

    /// The cache crate is in r1-index scope by prefix: a module split out
    /// of `tiered.rs` under a new name is covered without listing it.
    #[test]
    fn indexing_flagged_in_any_kvcache_file() {
        let src = "fn f(x: &[u32], i: usize) -> u32 { x[i] }\n";
        for path in [
            "crates/kvcache/src/tiered.rs",
            "crates/kvcache/src/ladder.rs",
        ] {
            let v = run(path, src);
            assert_eq!(v.iter().filter(|v| v.rule == "r1-index").count(), 1);
        }
        assert!(run("crates/workload/src/driver.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { panic!(\"x\") }\n}\n";
        assert!(run("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_are_exempt() {
        let src = "/// cache.append(c).unwrap();\nfn ok() {}\n";
        assert!(run("crates/kvcache/src/tiered.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(r1-panic): \
                   documented construction-time invariant\n    x.unwrap()\n}\n";
        assert!(run("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn bare_suppression_is_a_violation() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(r1-panic)\n    x.unwrap()\n}\n";
        let v = run("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 2, "{v:?}"); // bare allow + unsuppressed unwrap
        assert!(v.iter().any(|v| v.rule == "r4-suppression"));
        assert!(v.iter().any(|v| v.rule == "r1-panic"));
    }

    #[test]
    fn unknown_rule_in_suppression_is_a_violation() {
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
        let v = run("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "r4-suppression");
    }

    #[test]
    fn hash_iteration_flagged() {
        let src = "use std::collections::HashMap;\nstruct S { convs: HashMap<u64, u32> }\n\
                   impl S { fn walk(&self) { for (k, v) in &self.convs { let _ = (k, v); } \
                   let _n = self.convs.keys().count(); } }\n";
        let v = run("crates/kvcache/src/tiered.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "r2-hash-iter").count(), 2);
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

    #[test]
    fn raw_spawn_flagged_outside_sanctioned_files() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(run("crates/sim/src/gpu.rs", src).len(), 1);
        assert!(run("crates/core/src/workers.rs", src).is_empty());
        assert!(run("shims/crossbeam/src/lib.rs", src).is_empty());
    }

    #[test]
    fn adhoc_scope_flagged_outside_sanctioned_files() {
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        let v = run("crates/kernels/src/ops.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "r3-adhoc-scope").count(), 1);
        assert!(run("shims/crossbeam/src/lib.rs", src).is_empty());
        assert!(run("crates/core/src/workers.rs", src).is_empty());
        // Test code may still fork ad hoc.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { \
                        std::thread::scope(|s| { let _ = s; }); }\n}\n";
        assert!(run("crates/kernels/src/ops.rs", test_src).is_empty());
    }

    #[test]
    fn float_reduce_inside_parallel_closure() {
        let src = "fn f(p: &P, xs: &[f32]) { p.map_partitions(|c| \
                   c.iter().map(|x| x * x).sum::<f32>()); }\n";
        let v = run("crates/kernels/src/ops.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "r2-float-reduce").count(), 1);
        // The same reduction outside any parallel combinator is fine.
        let seq = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
        assert!(run("crates/kernels/src/ops.rs", seq).is_empty());
    }

    #[test]
    fn fixture_header_overrides_scope() {
        let src = "// analyzer-fixture: crates/core/src/hot.rs\nfn f(x: Option<u32>) \
                   -> u32 { x.unwrap() }\n";
        let v = run("crates/analyzer/fixtures/bad/p.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "r1-panic");
    }
}
