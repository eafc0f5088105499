//! Shape checks: the paper's qualitative claims, asserted on what the
//! experiment commands write rather than pinned by digest, so a change
//! that keeps the shape may move the numbers. Each test cites the
//! `EXPERIMENTS.md` row it checks. The cost-model rows (fig3, fig4) run
//! in well under a second, in debug builds too; the serving sweeps
//! (fig10 and fig11 about four seconds together, fig13 and fig15 about
//! half a second each, optimized, at the horizon their rows state) are
//! release only, like `golden.rs`, because every cache mutator
//! debug-asserts its accounting.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use serde_json::Value;

/// Runs `name` at its default horizon in a fresh scratch directory and
/// returns the rows of the `results/<name>.json` it writes.
fn rows(name: &str) -> Vec<Value> {
    rows_at(name, None)
}

/// [`rows`], with `PENSIEVE_DURATION` set to `horizon` seconds if given.
fn rows_at(name: &str, horizon: Option<&str>) -> Vec<Value> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("shapes-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pensieve-bench"));
    cmd.env_remove("PENSIEVE_DURATION");
    if let Some(secs) = horizon {
        cmd.env("PENSIEVE_DURATION", secs);
    }
    let out = cmd
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

/// A serving row's system name.
fn system(row: &Value) -> &str {
    row.get("system")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no system in {row:?}"))
}

/// A serving row's `summary` number `key`.
fn summary(row: &Value, key: &str) -> f64 {
    let summary = row.get("summary");
    num(
        summary.unwrap_or_else(|| panic!("no summary in {row:?}")),
        key,
    )
}

/// The `(request_rate, row)` pairs of `system`, in rate order.
fn by_rate<'a>(rows: &'a [Value], name: &str) -> Vec<(f64, &'a Value)> {
    let mut of: Vec<(f64, &Value)> = rows
        .iter()
        .filter(|r| system(r) == name)
        .map(|r| (num(r, "request_rate"), r))
        .collect();
    of.sort_by(|a, b| a.0.total_cmp(&b.0));
    of
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

/// EXPERIMENTS.md, "Figure 13 — unified vs separate scheduling": at its
/// default 400 s horizon unified batching has strictly lower p90
/// normalized latency and lower mean TTFT than separate prefill and
/// generation phases at every one of the six rates.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: a serving sweep")]
fn fig13_unified_scheduling_beats_separate_at_every_rate() {
    let rows = rows("fig13");
    let unified = by_rate(&rows, "Pensieve");
    let separate = by_rate(&rows, "Pensieve (separate phases)");
    assert_eq!(unified.len(), 6, "six rates: {unified:?}");
    let rates = |of: &[(f64, &Value)]| of.iter().map(|p| p.0).collect::<Vec<_>>();
    assert_eq!(rates(&unified), rates(&separate));
    for ((rate, u), (_, s)) in unified.into_iter().zip(separate) {
        for key in ["p90_normalized", "mean_ttft"] {
            assert!(
                summary(u, key) < summary(s, key),
                "rate {rate}: unified {key} {} is not below separate {}",
                summary(u, key),
                summary(s, key)
            );
        }
    }
}

/// EXPERIMENTS.md, "Figure 15 — think-time sweep": at the 400 s horizon
/// the row states, vLLM with 600 s think time sits well above Pensieve
/// with the same think time at every rate — 22–36 % higher p90
/// normalized latency when measured, checked here as 20–40 %.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: a serving sweep")]
fn fig15_vllm_sits_above_pensieve_at_600s_think_time() {
    let rows = rows_at("fig15", Some("400"));
    let vllm = by_rate(&rows, "vLLM (think 600s)");
    let pensieve = by_rate(&rows, "Pensieve (think 600s)");
    assert_eq!(vllm.len(), 5, "five rates: {vllm:?}");
    assert_eq!(vllm.len(), pensieve.len());
    for ((rate, v), (other, p)) in vllm.into_iter().zip(pensieve) {
        assert_eq!(rate, other, "the same rates");
        let gap = summary(v, "p90_normalized") / summary(p, "p90_normalized") - 1.0;
        assert!(
            (0.20..=0.40).contains(&gap),
            "rate {rate}: vLLM p90 is {:.1} % above Pensieve",
            100.0 * gap
        );
    }
}

/// One model × dataset cell of fig10 or fig11, with the p90 normalized
/// latency cut the paper reads its throughput at.
struct Cell {
    name: String,
    cut: f64,
    rows: Vec<Value>,
}

impl Cell {
    /// `system`'s best throughput among its points with p90 at or under
    /// the cut, 0 if none: what `sweeps.rs`'s `max_throughput` prints.
    fn best(&self, system: &str) -> f64 {
        by_rate(&self.rows, system)
            .into_iter()
            .filter(|(_, r)| summary(r, "p90_normalized") <= self.cut)
            .map(|(_, r)| summary(r, "throughput_rps"))
            .fold(0.0, f64::max)
    }
}

/// The six serving cells at their default horizon, run once per test
/// process: fig10's four at 120 ms/token, then fig11's OPT-66B at
/// 200 ms/token and Llama 2-70B at 400 ms/token, the cuts its
/// epilogue uses.
fn serving_cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut cells: Vec<Cell> = Vec::new();
        for fig in ["fig10", "fig11"] {
            for row in rows(fig) {
                let field = |key| row.get(key).and_then(Value::as_str).unwrap_or_default();
                let name = format!("{fig} {} on {}", field("model"), field("dataset"));
                let cut = match (fig, field("model")) {
                    ("fig10", _) => 0.120,
                    (_, "OPT-66B") => 0.200,
                    _ => 0.400,
                };
                match cells.iter_mut().find(|c| c.name == name) {
                    Some(cell) => cell.rows.push(row),
                    None => cells.push(Cell {
                        name,
                        cut,
                        rows: vec![row],
                    }),
                }
            }
        }
        assert_eq!(cells.len(), 6, "six model × dataset cells");
        cells
    })
}

/// EXPERIMENTS.md, "Figure 10" and "Figure 11": Pensieve sustains the
/// highest throughput at the paper's latency cut in all six model ×
/// dataset cells, above Pensieve (GPU cache), vLLM and TensorRT-LLM.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: serving sweeps")]
fn fig10_fig11_pensieve_has_the_highest_throughput_at_the_cut() {
    for cell in serving_cells() {
        let pensieve = cell.best("Pensieve");
        for other in ["Pensieve (GPU cache)", "vLLM", "TensorRT-LLM"] {
            assert!(
                pensieve > cell.best(other),
                "{}: Pensieve {pensieve:.2} req/s is not above {other} {:.2}",
                cell.name,
                cell.best(other)
            );
        }
    }
}

/// EXPERIMENTS.md, "Figure 10" and "Figure 11": TensorRT-LLM (the
/// compiled runtime) beats vLLM in throughput at the cut in all six
/// cells.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: serving sweeps")]
fn fig10_fig11_tensorrt_llm_beats_vllm_at_the_cut() {
    for cell in serving_cells() {
        let (trt, vllm) = (cell.best("TensorRT-LLM"), cell.best("vLLM"));
        assert!(
            trt > vllm,
            "{}: TensorRT-LLM {trt:.2} req/s is not above vLLM {vllm:.2}",
            cell.name
        );
    }
}

/// EXPERIMENTS.md, "Figure 10": Pensieve's gain over vLLM at the cut is
/// larger for Llama 2-13B than for OPT-13B on both datasets (GQA caches
/// four times the tokens per GB).
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: serving sweeps")]
fn fig10_gains_are_larger_on_llama_than_on_opt() {
    let gain = |model: &str, dataset: &str| {
        let name = format!("fig10 {model} on {dataset}");
        let cell = serving_cells().iter().find(|c| c.name == name);
        let cell = cell.unwrap_or_else(|| panic!("no cell {name}"));
        cell.best("Pensieve") / cell.best("vLLM")
    };
    for dataset in ["ShareGPT", "UltraChat"] {
        let (llama, opt) = (gain("Llama 2-13B", dataset), gain("OPT-13B", dataset));
        assert!(
            llama > opt,
            "{dataset}: Pensieve/vLLM is {llama:.2}x on Llama 2-13B, {opt:.2}x on OPT-13B"
        );
    }
}
