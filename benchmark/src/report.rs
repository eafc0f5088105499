//! The human-facing commands: `run` and `trace` (every workload, one
//! fresh child process per run, results gathered into one JSON file) and
//! `compare` (two such files against the bounds).

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{Map, Value};

use crate::metrics::{Better, Def, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max};
use crate::workloads::NAMES;

/// What one child process printed: its result line and its detail line.
struct ChildRun {
    result: Value,
    detail: Value,
}

/// Runs one workload once in a fresh child of this executable, so peak
/// RSS and allocation counts belong to that run alone.
fn child(
    name: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    chrome_out: Option<&Path>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if chrome_out.is_some() { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = chrome_out {
        cmd.arg("--chrome-out").arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child for {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child for {name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| format!("child for {name} printed no result line"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| format!("child for {name} printed no detail line"))?;
    Ok(ChildRun { result, detail })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn envelope(kind: &str, seed: u64, smoke: bool) -> Map {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut doc = Map::new();
    doc.insert("schema_version".into(), num(1.0));
    doc.insert("kind".into(), Value::String(kind.into()));
    doc.insert("seed".into(), num(seed as f64));
    doc.insert("smoke".into(), Value::Bool(smoke));
    doc.insert("available_cores".into(), num(cores as f64));
    doc
}

fn write_doc(doc: Map, out: Option<&str>) -> Result<(), String> {
    let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("infallible");
    match out {
        Some(path) => {
            std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Summary of one metric over a set's repeats.
fn summarize(def: &Def, values: &[f64]) -> Value {
    let mut row = Map::new();
    row.insert("unit".into(), Value::String(def.unit.into()));
    row.insert("better".into(), Value::String(def.better.as_str().into()));
    let (min, max) = min_max(values);
    row.insert("median".into(), num(median(values)));
    row.insert("min".into(), num(min));
    row.insert("max".into(), num(max));
    row.insert("n".into(), num(values.len() as f64));
    if def.bound > 0.0 {
        row.insert("bound".into(), num(def.bound));
    }
    Value::Object(row)
}

/// `run`: every workload, `repeats` fresh children each, tracing off.
/// Prints every metric by name with its unit; fails if any child reports
/// an incorrect run, or if the simulated metrics or the response digests
/// differ between the repeats of one workload.
pub fn run_set(
    seed: u64,
    repeats: usize,
    seconds: f64,
    smoke: bool,
    out: Option<&str>,
) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in NAMES {
        let runs = (0..repeats.max(1))
            .map(|_| child(name, seed, seconds, smoke, None))
            .collect::<Result<Vec<_>, _>>()?;
        let mut row = Map::new();
        row.insert("workload".into(), Value::String(name.into()));
        if smoke {
            row.insert("label".into(), Value::String("smoke".into()));
        }
        let mut metrics = Map::new();
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(&r.result, def.name))
                .collect();
            if values.len() != runs.len() {
                return Err(format!("{name}: a child omitted {}", def.name));
            }
            let simulated = def.name.starts_with("sim_");
            if simulated && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                eprintln!(
                    "CHECK FAILED {name}: {} differs between repeats: {values:?}",
                    def.name
                );
                ok = false;
            }
            let (min, max) = min_max(&values);
            println!(
                "{name:<16} {:<22} {:>16.6} {:<9} (min {min:.6} max {max:.6} n {})",
                def.name,
                median(&values),
                def.unit,
                values.len()
            );
            metrics.insert(def.name.into(), summarize(def, &values));
        }
        let digests: Vec<&Value> = runs
            .iter()
            .filter_map(|r| r.detail.get("response_digests"))
            .collect();
        if digests.len() != runs.len() || digests.iter().any(|d| *d != digests[0]) {
            eprintln!("CHECK FAILED {name}: response digests differ between repeats");
            ok = false;
        }
        let attempted: f64 = runs
            .iter()
            .filter_map(|r| r.result.get("attempted")?.as_f64())
            .sum();
        let failed: f64 = runs
            .iter()
            .filter_map(|r| r.result.get("failed")?.as_f64())
            .sum();
        if runs
            .iter()
            .any(|r| r.result.get("correct").and_then(Value::as_bool) != Some(true))
        {
            eprintln!("CHECK FAILED {name}: {failed} of {attempted} turns failed a check");
            ok = false;
        }
        row.insert("metrics".into(), Value::Object(metrics));
        row.insert("failed_share".into(), num(failed / attempted.max(1.0)));
        row.insert(
            "response_digests".into(),
            digests.first().map_or(Value::Null, |d| (*d).clone()),
        );
        for key in ["turns", "tail_percentile"] {
            if let Some(v) = runs[0].detail.get(key) {
                row.insert(key.into(), v.clone());
            }
        }
        rows.push(Value::Object(row));
    }
    let mut doc = envelope("run", seed, smoke);
    doc.insert("repeats".into(), num(repeats as f64));
    doc.insert("run_seconds".into(), num(seconds));
    doc.insert("checks_passed".into(), Value::Bool(ok));
    doc.insert("rows".into(), Value::Array(rows));
    write_doc(doc, out)?;
    Ok(ok)
}

/// `trace`: the traced run of every workload in a fresh child each; the
/// seam pass's raw spans go to `trace_<workload>.json` next to `out`.
pub fn trace_set(seed: u64, smoke: bool, out: Option<&str>) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in NAMES {
        let chrome = sibling(out, &format!("trace_{name}.json"));
        let run = child(name, seed, 0.0, smoke, Some(&chrome))?;
        ok &= run.result.get("correct").and_then(Value::as_bool) == Some(true);
        let mut row = Map::new();
        row.insert("workload".into(), Value::String(name.into()));
        if smoke {
            row.insert("label".into(), Value::String("smoke".into()));
        }
        let mut metrics = Map::new();
        for def in &PER_LAYER {
            let v = metric_value(&run.result, def.name)
                .ok_or_else(|| format!("{name}: the child omitted {}", def.name))?;
            println!("{name:<16} {:<42} {v:>18.6} {}", def.name, def.unit);
            let mut entry = Map::new();
            entry.insert("value".into(), num(v));
            entry.insert("unit".into(), Value::String(def.unit.into()));
            metrics.insert(def.name.into(), Value::Object(entry));
        }
        row.insert("metrics".into(), Value::Object(metrics));
        row.insert("detail".into(), run.detail);
        rows.push(Value::Object(row));
    }
    let mut doc = envelope("trace", seed, smoke);
    doc.insert("checks_passed".into(), Value::Bool(ok));
    doc.insert("rows".into(), Value::Array(rows));
    write_doc(doc, out)?;
    Ok(ok)
}

/// Verdict of one workload x metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own repeats spread wider than the bound: no verdict.
    Unresolved,
}

/// Compares B's median with A's. `spread_*` is (max - min) / median of a
/// set's own repeats. A bound of zero tolerates no worsening at all.
#[must_use]
pub fn judge(def: &Def, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if spread_a > def.bound || spread_b > def.bound {
        return Verdict::Unresolved;
    }
    let worsening = match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load_rows(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("run") {
        return Err(format!("{path} is not the output of `run`"));
    }
    doc.get("rows")
        .and_then(Value::as_array)
        .cloned()
        .ok_or_else(|| format!("{path} has no rows"))
}

fn field(row: &Value, metric: &str, key: &str) -> Option<f64> {
    row.get("metrics")?.get(metric)?.get(key)?.as_f64()
}

/// `compare`: per workload and end-to-end metric, the ratio of B's
/// median to A's (its base), the bound and the verdict. Returns false if
/// any verdict is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_rows, b_rows) = (load_rows(a_path)?, load_rows(b_path)?);
    let mut worse = 0;
    let mut unresolved = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for a_row in &a_rows {
        let name = a_row.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(b_row) = b_rows
            .iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("{b_path} has no row for {name}"));
        };
        if a_row.get("label") != b_row.get("label") {
            return Err(format!("{name}: one set is a smoke run, the other is not"));
        }
        for def in &END_TO_END {
            let get = |row: &Value, key: &str| {
                field(row, def.name, key).ok_or_else(|| format!("{name}: no {} {key}", def.name))
            };
            let (a, b) = (get(a_row, "median")?, get(b_row, "median")?);
            let spread = |row: &Value| -> Result<f64, String> {
                Ok((get(row, "max")? - get(row, "min")?) / get(row, "median")?)
            };
            let verdict = judge(def, a, b, spread(a_row)?, spread(b_row)?);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{name:<16} {:<22} {a:>14.6} {b:>14.6} {:>8.4} {:>7.3}  {}",
                def.name,
                b / a,
                def.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if a_row.get("response_digests") != b_row.get("response_digests") {
            println!("{name:<16} response_digests differ: the simulated outcome changed");
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

/// `file` in the directory of `out` (the working directory without one).
fn sibling(out: Option<&str>, file: &str) -> PathBuf {
    out.and_then(|o| Path::new(o).parent())
        .map_or_else(|| PathBuf::from(file), |dir| dir.join(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lower = &END_TO_END[0]; // setup_s, lower, 0.25
        let higher = &END_TO_END[1]; // host_req_per_s, higher
        assert_eq!(judge(lower, 1.0, 1.2, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(lower, 1.0, 1.3, 0.0, 0.0), Verdict::Worse);
        assert_eq!(judge(lower, 1.0, 0.5, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(higher, 100.0, 70.0, 0.0, 0.0), Verdict::Worse);
        assert_eq!(judge(higher, 100.0, 130.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(higher, 100.0, 70.0, 0.5, 0.0), Verdict::Unresolved);
    }
}
