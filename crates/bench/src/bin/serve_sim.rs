//! `serve_sim` — run one serving experiment from the command line.
//!
//! ```text
//! cargo run --release -p pensieve-bench --bin serve_sim -- \
//!     --system pensieve --model llama2-13b --dataset sharegpt \
//!     --rate 6 --think 60 --duration 400 --seed 42
//! ```
//!
//! `--dataset` also accepts a path to a conversation-trace JSON file —
//! either a real ShareGPT dump or a file produced by
//! `pensieve_workload::save_conversations`.

use std::path::{Path, PathBuf};
use std::process::exit;

use pensieve_bench::{cluster_for, engine_builder_for, print_table, run_point_on, PointSpec};
use pensieve_cluster::RouterPolicy;
use pensieve_core::{EngineConfig, ServingBackend};
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_obs::{to_jsonl, SharedRecorder};
use pensieve_workload::dataset::{DatasetSpec, DatasetStats};
use pensieve_workload::trace::{load_conversations, load_sharegpt_json};

const USAGE: &str = "\
usage: serve_sim [options]
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut system = "pensieve".to_owned();
    let mut model_name = "llama2-13b".to_owned();
    let mut dataset = "sharegpt".to_owned();
    let mut rate = 4.0f64;
    let mut think = 60.0f64;
    let mut duration = 400.0f64;
    let mut gpus: Option<usize> = None;
    let mut system_prompt = 0usize;
    let mut seed = 42u64;
    let mut replicas = 1usize;
    let mut router = RouterPolicy::CacheAware;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return;
        }
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}\n{USAGE}");
            exit(2);
        };
        let ok = match flag.as_str() {
            "--system" => {
                system = value.clone();
                true
            }
            "--model" => {
                model_name = value.clone();
                true
            }
            "--dataset" => {
                dataset = value.clone();
                true
            }
            "--rate" => value.parse().map(|v| rate = v).is_ok(),
            "--think" => value.parse().map(|v| think = v).is_ok(),
            "--duration" => value.parse().map(|v| duration = v).is_ok(),
            "--gpus" => value.parse().map(|v| gpus = Some(v)).is_ok(),
            "--system-prompt" => value.parse().map(|v| system_prompt = v).is_ok(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--replicas" => value.parse().map(|v| replicas = v).is_ok() && replicas >= 1,
            "--router" => RouterPolicy::parse(value).map(|p| router = p).is_some(),
            "--trace-out" => {
                trace_out = Some(PathBuf::from(value));
                true
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(value));
                true
            }
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                exit(2);
            }
        };
        if !ok {
            eprintln!("invalid value {value:?} for {flag}\n{USAGE}");
            exit(2);
        }
    }

    let Some(mut engine) = parse_engine(&system) else {
        eprintln!("unknown system {system:?}\n{USAGE}");
        exit(2);
    };
    // The flag means a *shared* system prompt: pair the workload's extra
    // history with the engine-side pinned shared prefix, the same wiring
    // `bench_sharing` uses. Stateless baselines have no cache to share
    // it from.
    if system_prompt > 0 && engine.stateful {
        engine.shared_prefix_tokens = system_prompt;
    }
    let Some(model) = parse_model(&model_name) else {
        eprintln!("unknown model {model_name:?}\n{USAGE}");
        exit(2);
    };
    let num_gpus = gpus.unwrap_or(model.default_num_gpus);
    std::env::set_var("PENSIEVE_DURATION", format!("{duration}"));

    // Dataset: a known synthetic spec, or a trace file.
    let spec = match dataset.as_str() {
        "sharegpt" => DatasetSpec::sharegpt(),
        "ultrachat" => DatasetSpec::ultrachat(),
        path => {
            let p = Path::new(path);
            let convs = load_conversations(p)
                .or_else(|_| load_sharegpt_json(p))
                .unwrap_or_else(|e| {
                    eprintln!("cannot load trace {path:?}: {e}");
                    exit(2);
                });
            let stats = DatasetStats::measure(&convs);
            // Wrap the trace's statistics in a spec so the sweep sizes the
            // workload correctly, then substitute the real conversations.
            println!(
                "trace: {} conversations, mean turns {:.2}, in {:.1}, out {:.1}",
                stats.conversations, stats.mean_turns, stats.mean_input, stats.mean_output
            );
            return run_trace(
                engine,
                model,
                num_gpus,
                convs,
                rate,
                think,
                seed,
                system_prompt,
                (replicas, router),
                &Outputs {
                    trace_out,
                    metrics_out,
                },
            );
        }
    };

    let outputs = Outputs {
        trace_out,
        metrics_out,
    };
    let spec = PointSpec {
        engine,
        model,
        hardware: HardwareSpec::azure_nc_a100(num_gpus),
        dataset: spec,
        request_rate: rate,
        think_time: think,
        seed,
        system_prompt_tokens: system_prompt,
    };
    let recorder = outputs.recorder();
    let point = if replicas > 1 {
        let mut cluster = cluster_for(&spec, replicas, router, recorder.clone());
        run_point_on(&spec, &mut cluster)
    } else {
        let mut builder = engine_builder_for(&spec);
        if let Some(rec) = recorder.clone() {
            builder = builder.recorder(rec);
        }
        run_point_on(&spec, &mut builder.build())
    };
    outputs.write(recorder.as_ref());
    let system = system_label(&point.system, replicas, router);
    report(
        &system,
        &point.model,
        &point.dataset,
        &point.summary,
        point.cache.hit_rate,
    );
}

/// `pensieve` for one engine, `pensieve x4 (cache_aware)` for a cluster.
fn system_label(system: &str, replicas: usize, router: RouterPolicy) -> String {
    if replicas > 1 {
        format!("{system} x{replicas} ({router})")
    } else {
        system.to_owned()
    }
}

/// Where (if anywhere) to dump the trace and metrics after a run.
struct Outputs {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl Outputs {
    /// A recorder to attach to the engine, or `None` when neither output
    /// was requested (keeping the run allocation-free on the trace path).
    fn recorder(&self) -> Option<SharedRecorder> {
        if self.trace_out.is_some() || self.metrics_out.is_some() {
            Some(SharedRecorder::new())
        } else {
            None
        }
    }

    /// Writes the requested artifacts; exits nonzero on I/O failure.
    fn write(&self, recorder: Option<&SharedRecorder>) {
        let Some(rec) = recorder else { return };
        if let Some(path) = &self.trace_out {
            let events = rec.take_events();
            if let Err(e) = std::fs::write(path, to_jsonl(&events)) {
                eprintln!("cannot write trace {}: {e}", path.display());
                exit(1);
            }
            println!("wrote {} trace events to {}", events.len(), path.display());
        }
        if let Some(path) = &self.metrics_out {
            let text = rec.metrics().prometheus();
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write metrics {}: {e}", path.display());
                exit(1);
            }
            println!("wrote metrics dump to {}", path.display());
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_trace(
    engine: EngineConfig,
    model: ModelConfig,
    num_gpus: usize,
    convs: Vec<pensieve_workload::dataset::Conversation>,
    rate: f64,
    think: f64,
    seed: u64,
    system_prompt: usize,
    (replicas, router): (usize, RouterPolicy),
    outputs: &Outputs,
) {
    use pensieve_workload::driver::{run_closed_loop, DriverConfig};
    let name = system_label(&engine.name, replicas, router);
    let model_name = model.name.clone();
    let spec = PointSpec {
        engine,
        model,
        hardware: HardwareSpec::azure_nc_a100(num_gpus),
        dataset: DatasetSpec::sharegpt(), // placeholder; convs come from the trace
        request_rate: rate,
        think_time: think,
        seed,
        system_prompt_tokens: system_prompt,
    };
    let drv = DriverConfig {
        request_rate: rate,
        mean_think_time: think,
        seed,
        system_prompt_tokens: system_prompt,
    };
    let recorder = outputs.recorder();
    let (result, hit_rate) = if replicas > 1 {
        let mut cluster = cluster_for(&spec, replicas, router, recorder.clone());
        let result = run_closed_loop(&mut cluster, &convs, &drv);
        let hit = cluster.cache_stats().hit_rate();
        (result, hit)
    } else {
        let mut builder = engine_builder_for(&spec);
        if let Some(rec) = recorder.clone() {
            builder = builder.recorder(rec);
        }
        let mut e = builder.build();
        let result = run_closed_loop(&mut e, &convs, &drv);
        let hit = ServingBackend::cache_stats(&e).hit_rate();
        (result, hit)
    };
    outputs.write(recorder.as_ref());
    let s = result.summary();
    report(&name, &model_name, "trace", &s, hit_rate);
}

fn report(
    system: &str,
    model: &str,
    dataset: &str,
    s: &pensieve_workload::metrics::LatencySummary,
    hit_rate: f64,
) {
    println!("\n{system} serving {model} on {dataset}:");
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
            vec![
                "mean norm latency".into(),
                format!("{:.1} ms/token", s.mean_normalized * 1e3),
            ],
            vec![
                "p50 norm latency".into(),
                format!("{:.1} ms/token", s.p50_normalized * 1e3),
            ],
            vec![
                "p90 norm latency".into(),
                format!("{:.1} ms/token", s.p90_normalized * 1e3),
            ],
            vec!["mean ttft".into(), format!("{:.1} ms", s.mean_ttft * 1e3)],
            vec!["cache hit rate".into(), format!("{:.1}%", hit_rate * 100.0)],
        ],
    );
}
