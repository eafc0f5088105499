//! Shape checks: the paper's qualitative claims, asserted on what the
//! experiment commands write rather than pinned by digest, so a change
//! that keeps the shape may move the numbers. Each test cites the
//! `EXPERIMENTS.md` row it checks. These rows come from the cost model
//! alone and run in well under a second, in debug builds too.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

/// Runs `name` in a fresh scratch directory and returns the rows of the
/// `results/<name>.json` it writes.
fn rows(name: &str) -> Vec<Value> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("shapes-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_pensieve-bench"))
        .arg(name)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join("results").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    doc.as_array().expect("an array of rows").clone()
}

fn num(row: &Value, key: &str) -> f64 {
    row.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number {key:?} in {row:?}"))
}

/// EXPERIMENTS.md, "Figure 3 — prefill vs generation cost": prefill that
/// recomputes the history overtakes the whole 200-step generation phase
/// at ~4K tokens of history, while prefill over cached history stays
/// cheaper than recomputing it.
#[test]
fn fig3_recompute_overtakes_generation_near_4k_history() {
    let rows = rows("fig3");
    let first = rows
        .iter()
        .find(|r| num(r, "prefill_recompute_ms") > num(r, "generation_200_ms"))
        .map(|r| num(r, "history"));
    assert!(
        first.is_some_and(|h| h > 2048.0 && h <= 8192.0),
        "first history at which recompute exceeds generation: {first:?}"
    );
    for r in rows.iter().filter(|r| num(r, "history") > 0.0) {
        assert!(
            num(r, "prefill_cached_ms") < num(r, "prefill_recompute_ms"),
            "cached prefill is not cheaper: {r:?}"
        );
    }
}

/// EXPERIMENTS.md, "Figure 4 — attention cost vs context": the attention
/// time of a 32-token chunk grows linearly in context, so from 1024
/// tokens on each doubling of context about doubles it.
#[test]
fn fig4_attention_grows_linearly_in_context() {
    let points: Vec<(f64, f64)> = rows("fig4")
        .iter()
        .map(|r| (num(r, "context"), num(r, "attention_us")))
        .filter(|&(context, _)| context >= 1024.0)
        .collect();
    assert!(
        points.len() >= 2,
        "too few rows from 1024 tokens: {points:?}"
    );
    for pair in points.windows(2) {
        let [(c0, a0), (c1, a1)] = [pair[0], pair[1]];
        assert_eq!(c1, 2.0 * c0, "contexts double from row to row");
        let ratio = a1 / a0;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "context {c0} -> {c1} multiplies attention by {ratio:.3}"
        );
    }
}
