//! The one-off studies: Tables 1-2, Figures 3-4, the §5 PCIe ablation,
//! the suspension-policy ablation and the cache-occupancy timeline. Each
//! is closed-form or a hand-driven run rather than a [`crate::sweeps`]
//! grid.

use std::cell::RefCell;

use pensieve_core::config::SuspendPolicy;
use pensieve_core::{EngineConfig, ServingBackend};
use pensieve_model::{
    BatchShape, CostModel, HardwareSpec, ModelConfig, PcieSpec, SeqShape, SimDuration, SimTime,
};
use pensieve_sim::{Direction, DuplexMode, PcieLink};
use pensieve_workload::dataset::{DatasetSpec, DatasetStats};
use pensieve_workload::driver::{run_closed_loop, run_closed_loop_probed};
use serde::Serialize;

use crate::cli::Args;
use crate::harness::{
    engine_for, horizon, print_records, print_table, raw_seed_driver, workload_for, write_json,
    PointSpec, DEFAULT_HORIZON,
};

/// Table 1: hyper-parameters of the evaluated models.
pub(crate) fn table1(_: &Args) -> Result<(), String> {
    println!("Table 1: Hyper-parameters for OPT and Llama 2 models\n");
    let models = ModelConfig::paper_models();
    type Field = fn(&ModelConfig) -> String;
    let rows: Vec<Vec<String>> = [
        (
            "# layer",
            (|m: &ModelConfig| m.num_layers.to_string()) as Field,
        ),
        ("# hidden", |m: &ModelConfig| m.hidden_size.to_string()),
        ("# head", |m: &ModelConfig| m.num_heads.to_string()),
        ("# KV head", |m: &ModelConfig| m.num_kv_heads.to_string()),
        ("Head size", |m: &ModelConfig| m.head_dim.to_string()),
        ("# GPU", |m: &ModelConfig| m.default_num_gpus.to_string()),
        ("KV bytes/token", |m: &ModelConfig| {
            format!(
                "{:.2} MiB",
                m.kv_bytes_per_token() as f64 / (1 << 20) as f64
            )
        }),
        ("~params", |m: &ModelConfig| {
            format!("{:.1}B", m.param_count() as f64 / 1e9)
        }),
    ]
    .iter()
    .map(|(name, f)| {
        let mut row = vec![(*name).to_owned()];
        row.extend(models.iter().map(f));
        row
    })
    .collect();

    let mut headers = vec!["Model"];
    let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    headers.extend(names);
    print_table(&headers, &rows);
    write_json("table1", &models);
    Ok(())
}

/// Table 2: dataset statistics — paper values vs our synthetic generators.
///
/// The paper's datasets have 48,159 (ShareGPT) and 1,468,352 (UltraChat)
/// conversations; we generate a scaled sample (the serving experiments
/// only ever consume a rate-dependent prefix) and compare the per-
/// conversation statistics that actually drive performance.
pub(crate) fn table2(_: &Args) -> Result<(), String> {
    #[derive(Serialize)]
    struct Row {
        dataset: String,
        paper_turns: f64,
        measured_turns: f64,
        paper_input: f64,
        measured_input: f64,
        paper_output: f64,
        measured_output: f64,
    }
    println!("Table 2: Dataset statistics (paper vs synthetic sample of 20k conversations)\n");
    let mut json = Vec::new();
    for spec in [DatasetSpec::sharegpt(), DatasetSpec::ultrachat()] {
        let sample = spec.generate(20_000, 1234);
        let s = DatasetStats::measure(&sample);
        json.push(Row {
            dataset: spec.name.clone(),
            paper_turns: spec.mean_turns,
            measured_turns: s.mean_turns,
            paper_input: spec.mean_input,
            measured_input: s.mean_input,
            paper_output: spec.mean_output,
            measured_output: s.mean_output,
        });
    }
    print_records(
        &json,
        &[
            ("Dataset", "dataset", 0),
            ("turns (paper)", "paper_turns", 2),
            ("turns (ours)", "measured_turns", 2),
            ("input (paper)", "paper_input", 2),
            ("input (ours)", "measured_input", 2),
            ("output (paper)", "paper_output", 2),
            ("output (ours)", "measured_output", 2),
        ],
    );
    println!("\n(Means drift slightly low vs paper because conversations are truncated at the 16,384-token context cap, as in §6.1.)");
    write_json("table2", &json);
    Ok(())
}

/// Figure 3: prefill cost vs generation cost as history grows.
///
/// A batch of 32 requests each prefills a 32-token prompt (with or
/// without a cached history of varying size) and then generates 200
/// tokens. Stateless systems re-prefill the history each turn; the
/// prefill cost overtakes the entire 200-step generation phase once the
/// history reaches a few thousand tokens.
pub(crate) fn fig3(_: &Args) -> Result<(), String> {
    #[derive(Serialize)]
    struct Row {
        history: usize,
        prefill_recompute_ms: f64,
        prefill_cached_ms: f64,
        generation_200_ms: f64,
    }
    println!(
        "Figure 3: execution time for a batch of 32 requests, 32-token prompts,\n200 generation steps, OPT-13B on one A100\n"
    );
    let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
    const BATCH: usize = 32;
    const PROMPT: usize = 32;
    const STEPS: usize = 200;

    let mut json = Vec::new();
    for history in [0usize, 512, 1024, 2048, 4096, 6144, 8192] {
        // Stateless: the history is recomputed together with the prompt.
        let recompute =
            cost.batch_step_time(&BatchShape::new(vec![
                SeqShape::prefill(history + PROMPT, 0);
                BATCH
            ]));
        // Stateful: only the prompt is prefetched on top of cached history.
        let cached = cost.batch_step_time(&BatchShape::new(vec![
            SeqShape::prefill(PROMPT, history);
            BATCH
        ]));
        // Generation: 200 steps, context growing from history+prompt.
        let mut generation = SimDuration::ZERO;
        for step in 0..STEPS {
            generation += cost.batch_step_time(&BatchShape::new(vec![
                SeqShape::decode(
                    history + PROMPT + step + 1
                );
                BATCH
            ]));
        }
        json.push(Row {
            history,
            prefill_recompute_ms: recompute.as_millis(),
            prefill_cached_ms: cached.as_millis(),
            generation_200_ms: generation.as_millis(),
        });
    }
    print_records(
        &json,
        &[
            ("history", "history", 0),
            ("prefill w/ recompute (ms)", "prefill_recompute_ms", 1),
            ("prefill w/ cache (ms)", "prefill_cached_ms", 1),
            ("generation x200 (ms)", "generation_200_ms", 1),
        ],
    );
    let crossover = json
        .iter()
        .find(|r| r.prefill_recompute_ms > r.generation_200_ms)
        .map(|r| r.history);
    match crossover {
        Some(h) => println!(
            "\nPrefill-with-recompute overtakes the whole generation phase at history ~{h} tokens\n(the paper's motivation: history recompute dominates)."
        ),
        None => println!("\nNo crossover in the swept range."),
    }
    write_json("fig3", &json);
    Ok(())
}

/// Figure 4: attention cost of a 32-token chunk vs context size,
/// normalized by the non-attention time of a transformer layer batch.
///
/// This is the measurement behind Pensieve's eviction policy: attention
/// cost grows linearly with context, so leading chunks (small context)
/// are cheaper to recompute than trailing ones (§3.2, §4.3.1).
pub(crate) fn fig4(_: &Args) -> Result<(), String> {
    #[derive(Serialize)]
    struct Row {
        context: usize,
        attention_us: f64,
        normalized: f64,
    }
    println!(
        "Figure 4: attention time for a 32-token chunk vs context size,\nnormalized by per-layer non-attention time (OPT-13B, A100)\n"
    );
    let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
    let non_attention = cost.non_attention_layer_time(32);
    let mut json = Vec::new();
    for p in 5..=14 {
        let context = 1usize << p;
        let attn = cost.attention_layer_time(SeqShape {
            query_len: 32,
            context_len: context,
        });
        let normalized = attn / non_attention;
        json.push(Row {
            context,
            attention_us: attn.as_micros(),
            normalized,
        });
    }
    print_records(
        &json,
        &[
            ("context", "context", 0),
            ("attention (us)", "attention_us", 1),
            ("normalized", "normalized", 3),
        ],
    );
    let first = json.first().expect("rows");
    let last = json.last().expect("rows");
    println!(
        "\nLinear growth: context x{} -> normalized cost x{:.0} (paper: cost grows linearly with context).",
        last.context / first.context,
        last.normalized / first.normalized
    );
    write_json("fig4", &json);
    Ok(())
}

/// §5 optimization: prioritize retrieval over eviction on the PCIe link.
///
/// The paper measured an 18–20 % throughput drop in both directions when
/// transfers overlap, and therefore holds evictions back while swap-ins
/// are in flight. This experiment drives both link disciplines with
/// concurrent swap-in/swap-out streams and reports the retrieval
/// completion times — the quantity on a request's critical path.
pub(crate) fn pcie_duplex(_: &Args) -> Result<(), String> {
    #[derive(Serialize)]
    struct Row {
        swap_in_gb: f64,
        naive_retrieval_s: f64,
        priority_retrieval_s: f64,
        naive_eviction_s: f64,
        priority_eviction_s: f64,
    }
    println!(
        "PCIe duplex ablation: naive full-duplex vs prioritize-retrieval (paper §5)\n\
         Concurrent streams: one swap-in and one equal-sized swap-out issued at t=0.\n"
    );
    let mut json = Vec::new();
    for gb in [1.0f64, 2.0, 5.0, 10.0] {
        let bytes = (gb * 1e9) as usize;
        let run = |mode: DuplexMode| {
            let mut link = PcieLink::new(PcieSpec::gen4_x16(), mode);
            // A retrieval burst (a returning conversation swapping in) and
            // an ahead-of-time eviction contend for the link.
            let (_, h2d_end) = link.schedule(SimTime::ZERO, Direction::HostToDevice, bytes);
            let (_, d2h_end) = link.schedule(SimTime::ZERO, Direction::DeviceToHost, bytes);
            (h2d_end.as_secs(), d2h_end.as_secs())
        };
        let (naive_in, naive_out) = run(DuplexMode::Naive);
        let (prio_in, prio_out) = run(DuplexMode::PrioritizeRetrieval);
        json.push(Row {
            swap_in_gb: gb,
            naive_retrieval_s: naive_in,
            priority_retrieval_s: prio_in,
            naive_eviction_s: naive_out,
            priority_eviction_s: prio_out,
        });
    }
    print_records(
        &json,
        &[
            ("GB each way", "swap_in_gb", 0),
            ("retrieval naive (s)", "naive_retrieval_s", 3),
            ("retrieval priority (s)", "priority_retrieval_s", 3),
            ("eviction naive (s)", "naive_eviction_s", 3),
            ("eviction priority (s)", "priority_eviction_s", 3),
        ],
    );
    let r = json.last().expect("rows");
    println!(
        "\nRetrieval speedup from prioritization: {:.0}% (paper's duplex penalty: 18-20%).\n\
         Eviction is delayed instead — harmless, because swap-out is ahead-of-time.",
        (r.naive_retrieval_s / r.priority_retrieval_s - 1.0) * 100.0
    );
    write_json("pcie_duplex", &json);
    Ok(())
}

/// Ablation: suspension victim selection under GPU memory pressure.
///
/// §4.3.5 suspends requests in descending arrival order (newest first).
/// This sweep compares that choice against oldest-first and
/// largest-context-first on a memory-starved configuration (8 GB KV
/// budget instead of 40 GB) where decode growth regularly outruns the
/// cache.
pub(crate) fn ablate_suspension(_: &Args) -> Result<(), String> {
    #[derive(Serialize)]
    struct Row {
        policy: String,
        rate: f64,
        throughput_rps: f64,
        p90_ms: f64,
        suspensions: u64,
    }
    println!("Ablation: suspension policy, OPT-13B with an 8 GB KV budget, ShareGPT\n");
    let mut hw = HardwareSpec::azure_nc_a100(1);
    hw.gpu_kv_budget_bytes = 8 << 30;
    let policies = [
        (SuspendPolicy::NewestFirst, "newest-first (paper)"),
        (SuspendPolicy::OldestFirst, "oldest-first"),
        (SuspendPolicy::LargestContext, "largest-context"),
    ];
    let mut json = Vec::new();
    for (policy, name) in policies {
        for rate in [2.0f64, 4.0, 6.0] {
            let mut engine_cfg = EngineConfig::pensieve();
            engine_cfg.suspend_policy = policy;
            engine_cfg.name = name.to_owned();
            let spec = PointSpec {
                hardware: hw.clone(),
                ..PointSpec::paper(
                    engine_cfg,
                    ModelConfig::opt_13b(),
                    DatasetSpec::sharegpt(),
                    rate,
                    52,
                )
            };
            let convs = workload_for(&spec, horizon(DEFAULT_HORIZON));
            let mut engine = engine_for(&spec);
            let result = run_closed_loop(&mut engine, &convs, &raw_seed_driver(&spec));
            let s = result.summary();
            eprintln!(
                "  {name} rate={rate}: p90={:.1}ms susp={}",
                s.p90_normalized * 1e3,
                engine.counters().suspensions
            );
            json.push(Row {
                policy: name.to_owned(),
                rate,
                throughput_rps: s.throughput_rps,
                p90_ms: s.p90_normalized * 1e3,
                suspensions: engine.counters().suspensions,
            });
        }
    }
    print_records(
        &json,
        &[
            ("policy", "policy", 0),
            ("offered req/s", "rate", 0),
            ("tp (req/s)", "throughput_rps", 2),
            ("p90 norm (ms/tok)", "p90_ms", 1),
            ("suspensions", "suspensions", 0),
        ],
    );
    write_json("ablate_suspension", &json);
    Ok(())
}

/// Cache-occupancy timeline: how the two tiers fill under load.
///
/// Samples GPU KV-slot and CPU-tier usage every 10 simulated seconds
/// while serving a ShareGPT workload, for Pensieve (stateful, two
/// tiers), Pensieve (GPU cache only), and vLLM (stateless). The stateful
/// systems accumulate inactive conversations' contexts until the 25 %
/// watermark pushes chunks to the CPU tier (and eventually out); the
/// stateless baseline's usage tracks only the running batch.
pub(crate) fn memory_timeline(_: &Args) -> Result<(), String> {
    #[derive(Serialize)]
    struct Sample {
        system: String,
        t: f64,
        gpu_tokens: usize,
        cpu_tokens: usize,
        running: usize,
        waiting: usize,
    }
    println!("Cache occupancy timeline: OPT-13B, ShareGPT @ 6 req/s, 600 s of arrivals\n");
    let dataset = DatasetSpec::sharegpt();
    let rate = 6.0;
    let duration = 600.0;
    let convs = dataset.generate(((rate / dataset.mean_turns) * duration) as usize, 77);
    let samples: RefCell<Vec<Sample>> = RefCell::new(Vec::new());
    let mut summary_rows = Vec::new();
    let gpu_capacity = 52_428usize; // 40 GiB / 0.78125 MiB (OPT-13B).
    for cfg in [
        EngineConfig::pensieve(),
        EngineConfig::pensieve_gpu_cache(),
        EngineConfig::vllm(),
    ] {
        let name = cfg.name.clone();
        let spec = PointSpec::paper(cfg, ModelConfig::opt_13b(), dataset.clone(), rate, 9);
        let mut engine = engine_for(&spec);
        let _ = run_closed_loop_probed(
            &mut engine,
            &convs,
            &raw_seed_driver(&spec),
            10.0,
            |t, e| {
                samples.borrow_mut().push(Sample {
                    system: name.clone(),
                    t,
                    gpu_tokens: e.gpu_slots_used(),
                    cpu_tokens: e.cpu_tokens_used(),
                    running: e.running_requests(),
                    waiting: e.waiting_requests(),
                });
            },
        );
        let s = samples.borrow();
        let mine = s.iter().filter(|x| x.system == name);
        let peak_gpu = mine.clone().map(|x| x.gpu_tokens).max().unwrap_or(0);
        let peak_cpu = mine.clone().map(|x| x.cpu_tokens).max().unwrap_or(0);
        let mean_gpu = {
            let v: Vec<usize> = mine.map(|x| x.gpu_tokens).collect();
            v.iter().sum::<usize>() / v.len().max(1)
        };
        summary_rows.push(vec![
            name.clone(),
            peak_gpu.to_string(),
            mean_gpu.to_string(),
            peak_cpu.to_string(),
            format!("{:.0}%", 100.0 * peak_gpu as f64 / gpu_capacity as f64),
        ]);
    }
    print_table(
        &[
            "system",
            "peak GPU tokens",
            "mean GPU tokens",
            "peak CPU tokens",
            "peak GPU util",
        ],
        &summary_rows,
    );
    println!("\nFull 10 s-resolution timeline in results/memory_timeline.json");
    write_json("memory_timeline", &samples.into_inner());
    Ok(())
}
