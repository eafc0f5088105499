//! Guards the builder-only construction contract.
//!
//! After the `EngineBuilder` / `Request::builder()` redesign, the only
//! place allowed to construct a `SimServingEngine` directly is the engine
//! module itself, and the only places allowed to write a `Request` struct
//! literal are the request module (the builder's own body) plus its
//! in-module tests. Everything else must go through the builders, so the
//! validation they perform cannot be bypassed. This test walks the
//! workspace sources and fails on any new offender.

use std::path::{Path, PathBuf};

/// Source roots scanned for offending construction sites.
const ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR for the root package is the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Returns true when `text[idx..]` starts a `Request { .. }` struct
/// literal, as opposed to a type position (`-> Request {`, `impl Request
/// {`, `struct Request {`, ...).
fn is_struct_literal(text: &str, idx: usize, name: &str) -> bool {
    // Word boundary on the left (rejects RunningRequest, RequestId, ...).
    if text[..idx].chars().next_back().is_some_and(is_ident_char) {
        return false;
    }
    let after = &text[idx + name.len()..];
    // Word boundary on the right, then the literal's opening brace.
    if after.chars().next().is_some_and(is_ident_char) {
        return false;
    }
    if !after.trim_start().starts_with('{') {
        return false;
    }
    // Look left past whitespace for contexts where `Name {` is not a
    // struct-literal expression.
    let before = text[..idx].trim_end();
    if before.ends_with("->") {
        return false; // function return type followed by the body brace
    }
    for kw in ["struct", "impl", "enum", "trait", "for", "dyn", "as"] {
        if before.ends_with(kw)
            && !before[..before.len() - kw.len()]
                .chars()
                .next_back()
                .is_some_and(is_ident_char)
        {
            return false;
        }
    }
    true
}

fn find_offenders(needle: &str, allowed: &[&str], literal_check: bool) -> Vec<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    for r in ROOTS {
        rust_sources(&root.join(r), &mut files);
    }
    files.sort();
    let mut offenders = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if allowed.iter().any(|a| rel == *a) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let mut search_from = 0;
        while let Some(pos) = text[search_from..].find(needle) {
            let idx = search_from + pos;
            search_from = idx + needle.len();
            let hit = if literal_check {
                is_struct_literal(&text, idx, needle)
            } else {
                !text[..idx].chars().next_back().is_some_and(is_ident_char)
            };
            if hit {
                let line = text[..idx].matches('\n').count() + 1;
                offenders.push(format!("{rel}:{line}"));
            }
        }
    }
    offenders
}

#[test]
fn requests_are_only_built_through_the_builder() {
    let offenders = find_offenders(
        "Request",
        &["crates/core/src/request.rs", "tests/api_construction.rs"],
        true,
    );
    assert!(
        offenders.is_empty(),
        "Request struct literals outside crates/core/src/request.rs — \
         use Request::builder() instead:\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn engines_are_only_built_through_the_builder() {
    let offenders = find_offenders(
        "SimServingEngine::new(",
        &["crates/core/src/engine.rs", "tests/api_construction.rs"],
        false,
    );
    assert!(
        offenders.is_empty(),
        "direct SimServingEngine::new calls — use SimServingEngine::builder():\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn caches_are_only_built_through_the_builder() {
    // After the content-addressed sharing redesign, `TieredKvCache::new`
    // is crate-private: every caller goes through
    // `TieredKvCache::builder()` so the eviction policy, deep tiers, and
    // recorder are wired in one validated place.
    let offenders = find_offenders(
        "TieredKvCache::new(",
        &[
            "crates/kvcache/src/tiered.rs",
            "crates/kvcache/src/tests/tiered.rs",
            "tests/api_construction.rs",
        ],
        false,
    );
    assert!(
        offenders.is_empty(),
        "direct TieredKvCache::new calls — use TieredKvCache::builder():\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn legacy_session_keyed_fetch_store_stays_deleted() {
    // `RawTokenStore` (session-keyed `fetch` of a contiguous private
    // slice) was replaced by the content-addressed `TokenChunkStore` +
    // `SessionView` read surface; the old name must not creep back.
    let offenders = find_offenders("RawTokenStore", &["tests/api_construction.rs"], false);
    assert!(
        offenders.is_empty(),
        "RawTokenStore references found — use TokenChunkStore + SessionView:\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn engine_level_setter_pairs_stay_deleted() {
    // The ad-hoc `with_*`/`set_*` pairs on the engine were collapsed into
    // `EngineBuilder`; make sure they do not creep back in at call sites.
    for needle in [
        ".with_fault_injector(",
        ".with_recovery_policy(",
        ".with_recorder(",
    ] {
        let offenders = find_offenders(needle, &["tests/api_construction.rs"], false);
        assert!(
            offenders.is_empty(),
            "`{needle}` call sites found — use EngineBuilder:\n  {}",
            offenders.join("\n  ")
        );
    }
}

#[test]
fn test_only_capabilities_stay_deleted() {
    // The timing cache's KV fork, the seeded link-partition windows, the
    // swap-in retry override and the mobile shared-chunk lifecycle
    // (registration, global materialization, eviction and its trace
    // event, pinned-sharer counts) were reached only by tests; the
    // functional engine's `fork_conversation` is the one fork,
    // `ClusterFaultKind::LinkPartition` the one link outage, and the
    // cache's pinned global preamble its one shared state. An export's
    // shared chain is `ManifestChunk`s, as a manifest's entries are.
    let needles = [
        "fork_session(",
        ".recovery_policy(",
        "PartitionSpec",
        "register_shared(",
        "materialize_global(",
        "SharedChunkEvicted",
        "pinned_refs",
        "SharedChunkRef",
    ];
    for needle in needles {
        let offenders = find_offenders(needle, &["tests/api_construction.rs"], false);
        assert!(
            offenders.is_empty(),
            "`{needle}` found — it was deleted as test-only surface:\n  {}",
            offenders.join("\n  ")
        );
    }
    // The engine and router keep counters and gauges only: every
    // histogram is built from a trace by the trace view in `crates/obs`.
    let setters = find_offenders("histogram_set(", &["tests/api_construction.rs"], false);
    let setters: Vec<_> = setters
        .into_iter()
        .filter(|at| !at.starts_with("crates/obs/"))
        .collect();
    assert!(
        setters.is_empty(),
        "`histogram_set(` found outside crates/obs — owners keep no histograms:\n  {}",
        setters.join("\n  ")
    );
}

#[test]
fn second_copies_of_fault_counts_stay_deleted() {
    // The fault injector counts the faults it fires, by kind, and each
    // replication link what it streams and loses; the engine, replicator
    // and router read those holders instead of keeping copies. Each
    // needle is a field declaration or an increment of a deleted copy,
    // searched under its path prefix ("" is everywhere): the trace
    // view's `TraceReport::torn_manifests` and the failover bench row's
    // `standby_bytes` are fields of the same names but hold no copy.
    let needles = [
        ("swap_in_retries: u64", ""),
        ("swap_in_retries += ", ""),
        ("gpu_alloc_faults: u64", ""),
        ("gpu_alloc_faults += ", ""),
        ("worker_stalls: u64", ""),
        ("worker_stalls += ", ""),
        ("standby_bytes: u64", "crates/cluster/"),
        ("standby_bytes += ", ""),
        ("lost_flushes: u64", ""),
        ("lost_flushes += ", ""),
        ("torn_manifests: u64", "crates/cluster/"),
        ("self.torn_manifests += ", ""),
    ];
    let mut offenders = Vec::new();
    for (needle, under) in needles {
        let found = find_offenders(needle, &["tests/api_construction.rs"], false);
        let found = found.into_iter().filter(|at| at.starts_with(under));
        offenders.extend(found.map(|at| format!("`{needle}` at {at}")));
    }
    assert!(
        offenders.is_empty(),
        "second copies of counts the fault injector or a replication link holds:\n  {}",
        offenders.join("\n  ")
    );
}
