//! One run of one workload in this process: the measured run (tracing
//! off, end-to-end metrics) and the traced run (per-layer metrics).
//!
//! A measured run serves `Spec::shards` independent traffic samples drawn
//! from the seed, each on a fresh backend, then keeps re-serving them in
//! order while `--seconds` lasts. The simulated-clock metrics are taken
//! over the first serving of every shard (so they depend on the seed
//! only, never on how fast the host is); host throughput is the median
//! over every pass, in reference seconds (`calibrate`); a re-served shard
//! must reproduce its digest.

use std::hint::black_box;
use std::time::Instant;

use pensieve_obs::SharedRecorder;
use serde_json::{Map, Value};

use crate::calibrate::slowdown;
use crate::layers;
use crate::measure::{
    build_engine, build_functional, build_router, check, run_pass, Metrics, Mode, Pass, Verdict,
};
use crate::metrics::{host_req_per_s, peak_rss_mb, sim_end_to_end, Def, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max, secs};
use crate::traced::SpanLog;
use crate::workloads::{shard_seed, Inputs, Kind, Spec};
use crate::{alloc, workloads};

/// Result of a run, ready to print.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Turns submitted over all passes.
    pub attempted: usize,
    /// Turns that failed a check.
    pub failed: usize,
    /// The metrics of this run kind, by name.
    pub metrics: Metrics,
    /// Pins and context that are not metrics: digests, sample sizes.
    pub detail: Map,
}

/// Host seconds of set-ups sampled before each pass. Sampling between
/// passes, not in one block, keeps a slow spell of the machine from
/// covering every sample.
const SETUP_SLICE_S: f64 = 0.04;
/// Calibration units timed before and after every pass (~25 ms each side).
const CALIBRATION_UNITS: usize = 5;

/// Everything a user pays before the first request: input generation and
/// backend construction (engines, router, functional model and twin).
fn set_up_once(spec: &Spec, seed: u64) -> f64 {
    let t0 = Instant::now();
    let inputs = spec.generate(shard_seed(seed, 0));
    match &spec.kind {
        Kind::Engine => {
            black_box(build_engine(spec, None));
        }
        Kind::Cluster { replicas, .. } => {
            let fleet = (0..*replicas).map(|_| build_engine(spec, None)).collect();
            black_box(build_router(spec, fleet));
        }
        Kind::Functional(shape) => {
            black_box(build_functional(spec, shape, 1));
            black_box(build_engine(spec, None));
        }
    }
    black_box(inputs);
    secs(t0)
}

/// One slice of set-up samples (at least three), in wall seconds.
fn sample_setups(spec: &Spec, seed: u64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || secs(start) < SETUP_SLICE_S {
        samples.push(set_up_once(spec, seed));
    }
    samples
}

fn hex(digest: u64) -> Value {
    Value::String(format!("{digest:016x}"))
}

/// The measured run: tracing off, end-to-end metrics.
#[must_use]
pub fn measured(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let shards: Vec<Inputs> = (0..spec.shards)
        .map(|i| spec.generate(shard_seed(seed, i)))
        .collect();
    let mut first: Vec<(Pass, Verdict)> = Vec::with_capacity(spec.shards);
    // Per pass: turns, wall seconds, and how much slower than the
    // reference the machine ran around it (see `calibrate`).
    let mut passes: Vec<(usize, f64, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut repeatable = true;
    let mut setups = Vec::new();
    for i in 0.. {
        let shard = i % spec.shards;
        let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
        if i >= spec.shards && secs(start) + median(&walls) > seconds {
            break;
        }
        let slice = sample_setups(spec, seed);
        let before = slowdown(CALIBRATION_UNITS);
        setups.extend(slice.iter().map(|s| s / before));
        let pass = run_pass(spec, &shards[shard], Mode::Plain);
        let after = slowdown(CALIBRATION_UNITS);
        // The reference decode is the expensive check; do it once.
        let verdict = check(spec, &shards[shard], &pass, i == 0);
        attempted += verdict.attempted;
        failed += verdict.failed;
        passes.push((pass.responses.len(), pass.wall_s, (before + after) / 2.0));
        match first.get(shard) {
            Some((_, v)) => repeatable &= v.digest == verdict.digest,
            None => first.push((pass, verdict)),
        }
    }
    let responses: Vec<&[pensieve_core::Response]> =
        first.iter().map(|(p, _)| p.responses.as_slice()).collect();
    let sent: usize = first.iter().map(|(_, v)| v.attempted).sum();
    let (mut metrics, tail_supported) = sim_end_to_end(&responses, sent, spec.tail_q);
    // Host-clock metrics in reference seconds: wall divided by slowdown.
    let reference: Vec<(usize, f64)> = passes.iter().map(|&(t, w, s)| (t, w / s)).collect();
    let raw: Vec<(usize, f64)> = passes.iter().map(|&(t, w, _)| (t, w)).collect();
    metrics.insert("setup_s", median(&setups));
    metrics.insert("host_req_per_s", host_req_per_s(&reference));
    metrics.insert("host_peak_rss_mb", peak_rss_mb());

    let per_pass: Vec<f64> = reference.iter().map(|&(t, w)| t as f64 / w).collect();
    let slowdowns: Vec<f64> = passes.iter().map(|p| p.2).collect();
    let mut detail = Map::new();
    detail.insert(
        "response_digests".into(),
        Value::Array(first.iter().map(|(_, v)| hex(v.digest)).collect()),
    );
    detail.insert("repeats_identical".into(), Value::Bool(repeatable));
    detail.insert("passes".into(), Value::Number(passes.len() as f64));
    detail.insert("turns".into(), Value::Number(sent as f64));
    detail.insert("tail_percentile".into(), Value::Number(spec.tail_q * 100.0));
    detail.insert("tail_supported".into(), Value::Bool(tail_supported));
    let (slowest, fastest) = min_max(&per_pass);
    detail.insert("host_req_per_s_min".into(), Value::Number(slowest));
    detail.insert("host_req_per_s_max".into(), Value::Number(fastest));
    detail.insert(
        "host_req_per_wall_s".into(),
        Value::Number(host_req_per_s(&raw)),
    );
    detail.insert("slowdown".into(), Value::Number(median(&slowdowns)));
    Outcome {
        correct: failed == 0 && repeatable && tail_supported,
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// The traced run over shard 0: (a) tracing off, (b) seam spans, (c) obs
/// recorder, (d) layer replays, (e) width 2. Writes the seam pass's raw
/// spans in Chrome format to `chrome_out` if given.
#[must_use]
pub fn traced(spec: &Spec, seed: u64, chrome_out: Option<&std::path::Path>) -> Outcome {
    let inputs = spec.generate(shard_seed(seed, 0));
    let requests = inputs.total_turns();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let sim = !matches!(spec.kind, Kind::Functional(_));
    let mut m = Metrics::new();

    // (a) Tracing off: the baseline wall and the exact counts.
    let allocs0 = alloc::snapshot();
    let base = run_pass(spec, &inputs, Mode::Plain);
    let allocs1 = alloc::snapshot();
    let verdict = check(spec, &inputs, &base, true);
    let mut failed = verdict.failed;
    m.extend(base.counts.clone());
    m.insert("workload.requests", requests as f64);
    m.insert("workload.total_tokens", inputs.total_tokens() as f64);
    m.insert(
        "host.allocs_per_req",
        (allocs1.0 - allocs0.0) as f64 / requests as f64,
    );
    m.insert(
        "host.alloc_mb_per_req",
        (allocs1.1 - allocs0.1) as f64 / 1e6 / requests as f64,
    );
    m.insert("host.available_cores", cores as f64);
    m.insert("host.threads", 1.0);
    let span_s = base
        .responses
        .iter()
        .map(|r| r.finish.as_secs())
        .fold(0.0, f64::max)
        - base
            .responses
            .iter()
            .map(|r| r.arrival.as_secs())
            .fold(f64::INFINITY, f64::min);
    let engines = match spec.kind {
        Kind::Cluster { replicas, .. } => replicas as f64,
        _ => 1.0,
    };
    let sim_busy = m.remove("engine.sim_busy_s").unwrap_or(0.0);
    if sim {
        m.insert("engine.gpu_busy_share", sim_busy / (span_s * engines));
    }
    if let Some((turn_ms, _)) = &base.functional {
        m.extend(layers::turn_latency(turn_ms));
    }

    // (b) Seam pass: decorators may not perturb the simulation.
    let log = SpanLog::default();
    let seam = run_pass(spec, &inputs, Mode::Seam(&log));
    let seam_ok = check(spec, &inputs, &seam, false).digest == verdict.digest;
    m.extend(layers::seam_metrics(spec, &log, &seam.counts, requests));
    if let Some(share) = seam.counts.get("router.affine_dispatch_share") {
        m.insert("router.affine_dispatch_share", *share);
    }
    m.insert("trace.overhead_ratio", seam.wall_s / base.wall_s);
    // Self times must add up to the pass: a gap means spans did not nest.
    let self_sum_s = log.total_self_s();
    let spans_add_up = (self_sum_s - seam.wall_s).abs() <= 0.02 * seam.wall_s;
    if let Some(path) = chrome_out {
        if let Err(e) = std::fs::write(path, log.chrome_trace()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    // (c) Obs pass and (d) the replays that feed on it.
    let mut reproduced = true;
    if sim {
        let recorder = SharedRecorder::new();
        let obs = run_pass(spec, &inputs, Mode::Obs(&recorder));
        reproduced = check(spec, &inputs, &obs, false).digest == verdict.digest;
        m.insert("obs.overhead_ratio", obs.wall_s / base.wall_s);
        m.extend(layers::obs_replays(&recorder.take_events(), requests));
        m.extend(layers::kvcache_replays(spec, &inputs, &base.responses));
    }
    m.extend(layers::kernel_replays(spec, &inputs));
    m.insert("workload.generate_s", layers::generate_s(spec, seed));

    // (e) Width 2, only where a second core exists.
    if cores >= 2 {
        match spec.kind {
            Kind::Cluster { .. } => {
                let one = layers::router_step_s(spec, &inputs, 1);
                let two = layers::router_step_s(spec, &inputs, 2);
                m.insert("router.step_speedup_2t", one / two);
            }
            Kind::Functional(_) => {
                let wide = run_pass(spec, &inputs, Mode::Wide);
                let wide_verdict = check(spec, &inputs, &wide, false);
                failed += wide_verdict.failed;
                reproduced &= wide_verdict.digest == verdict.digest;
                m.insert("kernels.speedup_2t", base.wall_s / wide.wall_s);
            }
            Kind::Engine => {}
        }
    }

    let mut detail = Map::new();
    detail.insert("response_digest".into(), hex(verdict.digest));
    detail.insert("seam_reproduces_digest".into(), Value::Bool(seam_ok));
    detail.insert(
        "obs_and_wide_reproduce_digest".into(),
        Value::Bool(reproduced),
    );
    detail.insert("baseline_wall_s".into(), Value::Number(base.wall_s));
    detail.insert("seam_wall_s".into(), Value::Number(seam.wall_s));
    detail.insert("seam_self_sum_s".into(), Value::Number(self_sum_s));
    detail.insert("seam_self_sums_to_wall".into(), Value::Bool(spans_add_up));
    detail.insert("span_stats".into(), span_stats(&log));
    Outcome {
        correct: failed == 0 && seam_ok && reproduced && spans_add_up,
        attempted: verdict.attempted,
        failed,
        metrics: m,
        detail,
    }
}

/// Per-name span aggregates of the seam pass.
fn span_stats(log: &SpanLog) -> Value {
    let mut out = Map::new();
    for ((layer, call), s) in log.stats() {
        let mut row = Map::new();
        row.insert("count".into(), Value::Number(s.count as f64));
        row.insert("total_s".into(), Value::Number(s.total_s));
        row.insert("max_s".into(), Value::Number(s.max_s));
        row.insert("self_s".into(), Value::Number(s.self_s));
        out.insert(format!("{layer}.{call}"), Value::Object(row));
    }
    Value::Object(out)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `defs`. A metric
/// the workload does not produce reads 0.
#[must_use]
pub fn result_line(outcome: &Outcome, defs: &[Def]) -> String {
    let mut metrics = Map::new();
    for d in defs {
        let mut entry = Map::new();
        entry.insert(
            "value".into(),
            Value::Number(outcome.metrics.get(d.name).copied().unwrap_or(0.0)),
        );
        entry.insert("unit".into(), Value::String(d.unit.into()));
        metrics.insert(d.name.into(), Value::Object(entry));
    }
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(outcome.correct));
    line.insert("attempted".into(), Value::Number(outcome.attempted as f64));
    line.insert("failed".into(), Value::Number(outcome.failed as f64));
    line.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).expect("the shim's writer is infallible")
}

/// Runs one workload as the driver asks and prints the result: the
/// metrics by name with units, a `detail` line, and the result line last.
/// Returns false when the workload name is unknown.
pub fn one(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    chrome_out: Option<&std::path::Path>,
) -> bool {
    let Some(spec) = workloads::spec(name, smoke) else {
        return false;
    };
    let (outcome, defs): (Outcome, &[Def]) = if trace {
        (traced(&spec, seed, chrome_out), &PER_LAYER)
    } else {
        (measured(&spec, seed, seconds), &END_TO_END)
    };
    for d in defs {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        println!("{:<44} {v:>18.6} {}", d.name, d.unit);
    }
    let mut detail = outcome.detail.clone();
    detail.insert("workload".into(), Value::String(spec.name.into()));
    detail.insert("seed".into(), Value::Number(seed as f64));
    detail.insert("smoke".into(), Value::Bool(smoke));
    println!(
        "detail {}",
        serde_json::to_string(&Value::Object(detail)).expect("infallible")
    );
    println!("{}", result_line(&outcome, defs));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke run of `chat_single` end to end: every check passes, every
    /// end-to-end metric is present and non-zero, and a second run of the
    /// same seed reproduces the simulated metrics and digests bit for bit.
    #[test]
    fn smoke_run_of_chat_single_is_correct_and_repeats() {
        let spec = workloads::spec("chat_single", true).expect("known workload");
        let a = measured(&spec, 42, 0.0);
        let b = measured(&spec, 42, 0.0);
        assert!(a.correct && a.failed == 0 && a.attempted > 0);
        for d in &END_TO_END {
            assert!(
                a.metrics[d.name] > 0.0,
                "{} is {}",
                d.name,
                a.metrics[d.name]
            );
            if d.name.starts_with("sim_") {
                assert_eq!(a.metrics[d.name].to_bits(), b.metrics[d.name].to_bits());
            }
        }
        assert_eq!(a.detail["response_digests"], b.detail["response_digests"]);
        let other = measured(&spec, 43, 0.0);
        assert_ne!(
            a.detail["response_digests"],
            other.detail["response_digests"]
        );
        let line: Value = serde_json::from_str(&result_line(&a, &END_TO_END)).expect("valid JSON");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics, units, directions, bounds and workloads this package
    /// prints.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let check = |key: &str, defs: &[Def], bounded: bool| {
            let listed = doc.get(key).and_then(Value::as_array).expect("array");
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(d.better.as_str())
                );
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, workloads::NAMES);
    }
}
