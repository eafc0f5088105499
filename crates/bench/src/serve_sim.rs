//! `serve_sim` — run one serving experiment from the command line — and
//! `trace_report`, which post-processes the trace it records.
//!
//! ```text
//! cargo run --release -p pensieve-bench -- serve_sim \
//!     --system pensieve --model llama2-13b --dataset sharegpt \
//!     --rate 6 --think 60 --duration 400 --seed 42 --trace-out t.jsonl
//! cargo run --release -p pensieve-bench -- trace_report t.jsonl
//! ```
//!
//! `--dataset` also accepts a path to a conversation-trace JSON file —
//! either a real ShareGPT dump or a file produced by
//! `pensieve_workload::save_conversations`. Event and field semantics of
//! the recorded trace are documented in `docs/OBSERVABILITY.md`.

use std::path::Path;

use pensieve_cluster::RouterPolicy;
use pensieve_core::{EngineConfig, ServingBackend};
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_obs::{parse_jsonl, to_jsonl, SharedRecorder, TraceReport};
use pensieve_workload::dataset::{Conversation, DatasetSpec, DatasetStats};
use pensieve_workload::driver::{run_closed_loop, DriverConfig};
use pensieve_workload::metrics::LatencySummary;
use pensieve_workload::trace::{load_conversations, load_sharegpt_json};

use crate::cli::{Args, Flag};
use crate::harness::{
    cluster_for, driver_for, engine_builder_for, print_table, raw_seed_driver, workload_for,
    PointSpec, DEFAULT_HORIZON,
};

pub(crate) const FLAGS: &[Flag] = &[
    Flag::valued("--system", "NAME"),
    Flag::valued("--model", "NAME"),
    Flag::valued("--dataset", "NAME|FILE"),
    Flag::valued("--rate", "REQ/S"),
    Flag::valued("--think", "SECONDS"),
    Flag::valued("--duration", "SECONDS"),
    Flag::valued("--gpus", "N"),
    Flag::valued("--system-prompt", "TOKENS"),
    Flag::valued("--seed", "N"),
    Flag::valued("--replicas", "N"),
    Flag::valued("--router", "POLICY"),
    Flag::valued("--trace-out", "PATH"),
    Flag::valued("--metrics-out", "PATH"),
    Flag::switch("--help"),
    Flag::switch("-h"),
];

const HELP: &str = "\
usage: pensieve-bench serve_sim [options]
  --system   pensieve | pensieve-gpu | pensieve-lru | pensieve-separate |
             vllm | trt | orca                       (default pensieve)
  --model    opt-13b | opt-66b | llama2-13b | llama2-70b  (default llama2-13b)
  --dataset  sharegpt | ultrachat | <trace.json>     (default sharegpt)
  --rate     offered request rate, req/s             (default 4)
  --think    mean user think time, seconds           (default 60)
  --duration simulated seconds of arrivals           (default 400)
  --gpus     tensor-parallel GPUs                    (default: model's)
  --system-prompt  shared system prompt tokens       (default 0)
  --seed     workload seed                           (default 42)
  --replicas cluster replicas behind a router        (default 1: no router)
  --router   round_robin | least_loaded | cache_aware  (default cache_aware)
  --trace-out    write a JSONL event trace here      (see docs/OBSERVABILITY.md)
  --metrics-out  write a Prometheus-style text dump here";

fn parse_engine(name: &str) -> Option<EngineConfig> {
    Some(match name {
        "pensieve" => EngineConfig::pensieve(),
        "pensieve-gpu" => EngineConfig::pensieve_gpu_cache(),
        "pensieve-lru" => EngineConfig::pensieve_lru(),
        "pensieve-separate" => EngineConfig::pensieve_non_unified(),
        "vllm" => EngineConfig::vllm(),
        "trt" | "tensorrt" => EngineConfig::tensorrt_llm(),
        "orca" => EngineConfig::orca(),
        _ => return None,
    })
}

fn parse_model(name: &str) -> Option<ModelConfig> {
    Some(match name {
        "opt-13b" => ModelConfig::opt_13b(),
        "opt-66b" => ModelConfig::opt_66b(),
        "llama2-13b" => ModelConfig::llama2_13b(),
        "llama2-70b" => ModelConfig::llama2_70b(),
        _ => return None,
    })
}

/// Serves `convs` on `backend`; returns the summary and history hit rate.
fn serve<B: ServingBackend>(
    backend: &mut B,
    convs: &[Conversation],
    driver: &DriverConfig,
) -> (LatencySummary, f64) {
    let result = run_closed_loop(backend, convs, driver);
    (result.summary(), backend.cache_stats().hit_rate())
}

pub(crate) fn serve_sim(args: &Args) -> Result<(), String> {
    if args.has("--help") || args.has("-h") {
        println!("{HELP}");
        return Ok(());
    }
    let unknown = |what: &str, name: &str| format!("unknown {what} {name:?}\n{HELP}");
    let system = args.get("--system").unwrap_or("pensieve");
    let mut engine = parse_engine(system).ok_or_else(|| unknown("system", system))?;
    let model = args.get("--model").unwrap_or("llama2-13b");
    let model = parse_model(model).ok_or_else(|| unknown("model", model))?;
    let router = args.get("--router").unwrap_or("cache_aware");
    let router = RouterPolicy::parse(router).ok_or_else(|| unknown("router", router))?;
    let replicas: usize = args.parsed("--replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".to_owned());
    }
    // The flag means a *shared* system prompt: pair the workload's extra
    // history with the engine-side pinned shared prefix, the same wiring
    // `bench_sharing` uses. Stateless baselines have no cache to share
    // it from.
    let system_prompt: usize = args.parsed("--system-prompt", 0)?;
    if system_prompt > 0 && engine.stateful {
        engine.shared_prefix_tokens = system_prompt;
    }

    // Dataset: a known synthetic spec, or a trace file.
    let (dataset, trace) = match args.get("--dataset").unwrap_or("sharegpt") {
        "sharegpt" => (DatasetSpec::sharegpt(), None),
        "ultrachat" => (DatasetSpec::ultrachat(), None),
        path => {
            let p = Path::new(path);
            let convs = load_conversations(p)
                .or_else(|_| load_sharegpt_json(p))
                .map_err(|e| format!("cannot load trace {path:?}: {e}"))?;
            let stats = DatasetStats::measure(&convs);
            println!(
                "trace: {} conversations, mean turns {:.2}, in {:.1}, out {:.1}",
                stats.conversations, stats.mean_turns, stats.mean_input, stats.mean_output
            );
            // The spec's dataset is a placeholder; convs come from the trace.
            (DatasetSpec::sharegpt(), Some(convs))
        }
    };

    let rate = args.parsed("--rate", 4.0)?;
    let mut spec = PointSpec::paper(engine, model, dataset, rate, args.parsed("--seed", 42)?);
    spec.think_time = args.parsed("--think", spec.think_time)?;
    spec.system_prompt_tokens = system_prompt;
    let gpus = args.parsed("--gpus", spec.model.default_num_gpus)?;
    spec.hardware = HardwareSpec::azure_nc_a100(gpus);
    let (convs, driver, dataset_label) = match trace {
        Some(convs) => (convs, raw_seed_driver(&spec), "trace"),
        None => {
            let duration = args.parsed("--duration", DEFAULT_HORIZON)?;
            let convs = workload_for(&spec, duration);
            (convs, driver_for(&spec), spec.dataset.name.as_str())
        }
    };

    // No recorder unless an output was requested, keeping the run
    // allocation-free on the trace path. The metrics dump needs one too:
    // its histograms and completed-request count are read from the trace.
    let (trace_out, metrics_out) = (args.get("--trace-out"), args.get("--metrics-out"));
    let recorder = (trace_out.is_some() || metrics_out.is_some()).then(SharedRecorder::new);
    let ((summary, hit_rate), label, mut metrics) = if replicas > 1 {
        let mut cluster = cluster_for(&spec, replicas, router, recorder.clone());
        let label = format!("{} x{replicas} ({router})", spec.engine.name);
        let served = serve(&mut cluster, &convs, &driver);
        (served, label, cluster.fleet_metrics())
    } else {
        let mut builder = engine_builder_for(&spec);
        if let Some(rec) = recorder.clone() {
            builder = builder.recorder(rec);
        }
        let mut engine = builder.build();
        let served = serve(&mut engine, &convs, &driver);
        (served, spec.engine.name.clone(), engine.metrics())
    };

    let events = recorder.map(|rec| rec.take_events()).unwrap_or_default();
    if let Some(path) = trace_out {
        std::fs::write(path, to_jsonl(&events))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        println!("wrote {} trace events to {path}", events.len());
    }
    if let Some(path) = metrics_out {
        TraceReport::from_events(&events).write_metrics(&mut metrics);
        std::fs::write(path, metrics.prometheus())
            .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        println!("wrote metrics dump to {path}");
    }

    let s = &summary;
    let ms = |seconds: f64| format!("{:.1} ms/token", seconds * 1e3);
    println!("\n{label} serving {} on {dataset_label}:", spec.model.name);
    print_table(
        &["metric", "value"],
        &[
            vec!["completed requests".into(), s.requests.to_string()],
            vec![
                "throughput (req/s)".into(),
                format!("{:.2}", s.throughput_rps),
            ],
            vec![
                "throughput (tok/s)".into(),
                format!("{:.0}", s.throughput_tps),
            ],
            vec!["mean norm latency".into(), ms(s.mean_normalized)],
            vec!["p50 norm latency".into(), ms(s.p50_normalized)],
            vec!["p90 norm latency".into(), ms(s.p90_normalized)],
            vec!["mean ttft".into(), format!("{:.1} ms", s.mean_ttft * 1e3)],
            vec!["cache hit rate".into(), format!("{:.1}%", hit_rate * 100.0)],
        ],
    );
    Ok(())
}

/// Parses the trace strictly (any malformed line is reported with its
/// line number and fails the run, so this doubles as a schema
/// validator), then prints per-turn cache-hit attribution and
/// PCIe/compute overlap statistics.
pub(crate) fn trace_report(args: &Args) -> Result<(), String> {
    if args.has("--help") || args.has("-h") {
        println!("{}", args.usage());
        return Ok(());
    }
    let path = args
        .operand()
        .ok_or_else(|| format!("missing <trace.jsonl>\n{}", args.usage()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    if events.is_empty() {
        return Err(format!("{path}: no events"));
    }
    println!("{path}: {} events", events.len());
    print!("{}", TraceReport::from_events(&events).render());
    Ok(())
}
