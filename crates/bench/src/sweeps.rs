//! The serving sweeps (Figures 10, 11, 13–15 and five ablations) as rows
//! of one table.
//!
//! A [`Sweep`] is a title, a grid of [`PointSpec`]s, the [`Column`]s to
//! print, a default horizon, and optionally a per-table heading and an
//! epilogue; [`run`] renders and writes any of them. Each grid is built
//! by `grid` on top of [`PointSpec::paper`], so a sweep states only
//! what it varies.

use pensieve_core::config::PolicyKind;
use pensieve_core::EngineConfig;
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_workload::dataset::DatasetSpec;

use crate::harness::{
    horizon, print_table, run_sweep, write_json, PointSpec, SweepPoint, DEFAULT_HORIZON,
};
use Column::{
    CpuHit, Hit, Label, MeanNorm, Offered, Recomputed, SwappedOut, Throughput, Ttft, P50, P90,
};

/// One printed column of a sweep table: its header and how a point's
/// cell is formatted, stated together in `Column::of`.
#[derive(Debug, Clone, Copy)]
pub enum Column {
    /// The engine's display name, under a sweep-specific header.
    Label(&'static str),
    /// Offered request rate.
    Offered,
    /// Steady-state throughput, requests/s.
    Throughput,
    /// p50 normalized latency, ms/token.
    P50,
    /// p90 normalized latency, ms/token.
    P90,
    /// Mean normalized latency, ms/token.
    MeanNorm,
    /// Mean time-to-first-token, ms.
    Ttft,
    /// Overall history hit rate, to this many decimals.
    Hit(usize),
    /// CPU-tier hit rate over non-GPU-resident tokens.
    CpuHit,
    /// Tokens recomputed after drops, under a sweep-specific header.
    Recomputed(&'static str),
    /// Tokens swapped GPU -> CPU.
    SwappedOut,
}

impl Column {
    /// `(header, cell)` of this column for point `p`.
    fn of(self, p: &SweepPoint) -> (&'static str, String) {
        let (s, c) = (&p.summary, &p.cache);
        let ms = |seconds: f64| format!("{:.1}", seconds * 1e3);
        match self {
            Label(header) => (header, p.system.clone()),
            Offered => ("offered req/s", format!("{:.1}", p.request_rate)),
            Throughput => ("tp (req/s)", format!("{:.2}", s.throughput_rps)),
            P50 => ("p50 norm (ms/tok)", ms(s.p50_normalized)),
            P90 => ("p90 norm (ms/tok)", ms(s.p90_normalized)),
            MeanNorm => ("mean norm (ms/tok)", ms(s.mean_normalized)),
            Ttft => ("mean ttft (ms)", ms(s.mean_ttft)),
            Hit(digits) => ("hit rate", format!("{:.digits$}%", c.hit_rate * 100.0)),
            CpuHit => ("cpu hit rate", format!("{:.1}%", c.cpu_hit_rate * 100.0)),
            Recomputed(header) => (header, c.recomputed_tokens.to_string()),
            SwappedOut => ("swapped out", c.swapped_out_tokens.to_string()),
        }
    }
}

/// One serving sweep.
pub struct Sweep {
    /// First line printed.
    title: &'static str,
    /// Seconds of arrivals per point unless `PENSIEVE_DURATION` is set.
    horizon: f64,
    /// The grid, in output order.
    specs: fn() -> Vec<PointSpec>,
    /// Columns of the printed table(s).
    columns: &'static [Column],
    /// `None`: one table. `Some(suffix)`: one table per (model, dataset),
    /// headed `--- <model> on <dataset><suffix> ---`.
    per_workload: Option<&'static str>,
    /// Printed under each table.
    epilogue: Option<fn(&[&SweepPoint])>,
}

impl Sweep {
    /// A sweep printed as one table over the default horizon.
    const fn table(
        title: &'static str,
        specs: fn() -> Vec<PointSpec>,
        columns: &'static [Column],
    ) -> Self {
        Sweep {
            title,
            horizon: DEFAULT_HORIZON,
            specs,
            columns,
            per_workload: None,
            epilogue: None,
        }
    }
}

/// Runs `sweep`, prints its table(s) and writes `results/<name>.json`.
pub fn run(name: &str, sweep: &Sweep) {
    println!("{}\n", sweep.title);
    let points = run_sweep(&(sweep.specs)(), horizon(sweep.horizon));
    // One table, or one per (model, dataset) in order of first appearance.
    let workload = |p: &SweepPoint| {
        sweep
            .per_workload
            .map(|_| (p.model.clone(), p.dataset.clone()))
    };
    let mut tables: Vec<Vec<&SweepPoint>> = Vec::new();
    for p in &points {
        match tables.iter_mut().find(|t| workload(t[0]) == workload(p)) {
            Some(table) => table.push(p),
            None => tables.push(vec![p]),
        }
    }
    for table in &tables {
        if let Some(suffix) = sweep.per_workload {
            println!(
                "\n--- {} on {}{suffix} ---",
                table[0].model, table[0].dataset
            );
        }
        let headers: Vec<&str> = sweep.columns.iter().map(|c| c.of(table[0]).0).collect();
        let rows: Vec<Vec<String>> = table
            .iter()
            .map(|p| sweep.columns.iter().map(|c| c.of(p).1).collect())
            .collect();
        print_table(&headers, &rows);
        if let Some(epilogue) = sweep.epilogue {
            epilogue(table);
        }
    }
    write_json(name, &points);
}

/// `engines` x `rates` (engine-major) of one model on one dataset.
fn grid(
    engines: impl IntoIterator<Item = EngineConfig>,
    model: &ModelConfig,
    dataset: &DatasetSpec,
    rates: &[f64],
    seed: u64,
) -> Vec<PointSpec> {
    let mut specs = Vec::new();
    for engine in engines {
        for &rate in rates {
            let (engine, model, dataset) = (engine.clone(), model.clone(), dataset.clone());
            specs.push(PointSpec::paper(engine, model, dataset, rate, seed));
        }
    }
    specs
}

/// [`grid`] on ShareGPT, the dataset of every sweep but Figure 10.
fn sharegpt_grid(
    engines: impl IntoIterator<Item = EngineConfig>,
    model: ModelConfig,
    rates: &[f64],
    seed: u64,
) -> Vec<PointSpec> {
    grid(engines, &model, &DatasetSpec::sharegpt(), rates, seed)
}

/// `engine` under a sweep-specific display name.
fn named(mut engine: EngineConfig, name: impl Into<String>) -> EngineConfig {
    engine.name = name.into();
    engine
}

/// Max sustainable throughput at a p90 latency cut, paper-style.
fn max_throughput(points: &[&SweepPoint], cut: f64, tp: &str, trt: &str) {
    let best = |system: &str| -> f64 {
        points
            .iter()
            .filter(|p| p.system == system && p.summary.p90_normalized <= cut)
            .map(|p| p.summary.throughput_rps)
            .fold(0.0, f64::max)
    };
    let (pensieve, vllm, trt_llm) = (best("Pensieve"), best("vLLM"), best("TensorRT-LLM"));
    if vllm > 0.0 && trt_llm > 0.0 {
        println!(
            "  max {tp} @ p90 <= {:.0} ms/token: Pensieve {pensieve:.2}, vLLM {vllm:.2} ({:.2}x), {trt} {trt_llm:.2} ({:.2}x)",
            cut * 1e3,
            pensieve / vllm,
            pensieve / trt_llm
        );
    }
}

/// Figure 10: single-GPU serving — throughput vs p90 normalized latency.
///
/// OPT-13B and Llama 2-13B on one A100, ShareGPT and UltraChat, for
/// Pensieve, Pensieve (GPU cache), vLLM, and TensorRT-LLM. Each point is
/// a closed-loop run at one offered request rate (think time 60 s).
pub const FIG10: Sweep = Sweep {
    per_workload: Some(""),
    // 120 ms/token, as used for OPT-13B in §6.2.
    epilogue: Some(|table| max_throughput(table, 0.120, "throughput", "TRT-LLM")),
    ..Sweep::table(
        "Figure 10: LLM serving performance on 1 GPU (sweep running)...",
        || {
            let mut specs = Vec::new();
            for model in [ModelConfig::opt_13b(), ModelConfig::llama2_13b()] {
                // GQA quadruples Llama's cached-token capacity, pushing its
                // saturation knee to higher request rates.
                let rates: &[f64] = if model.name.starts_with("OPT") {
                    &[1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
                } else {
                    &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0]
                };
                for dataset in [DatasetSpec::sharegpt(), DatasetSpec::ultrachat()] {
                    let systems = EngineConfig::figure10_systems();
                    specs.extend(grid(systems, &model, &dataset, rates, 42));
                }
            }
            specs
        },
        &[Label("system"), Offered, Throughput, P90, MeanNorm, Hit(0)],
    )
};

/// Figure 11: 4-GPU serving — OPT-66B and Llama 2-70B on ShareGPT.
///
/// Larger models amplify Pensieve's advantage: compute grows faster than
/// KV size (§6.3), and Llama 2-70B's GQA (group 8) shrinks KV-tokens 8x.
pub const FIG11: Sweep = Sweep {
    per_workload: Some(", 4x A100"),
    // Paper cuts: 200 ms/token (OPT-66B), 400 ms/token (Llama 2-70B).
    epilogue: Some(|table| {
        let cut = if table[0].model == "OPT-66B" {
            0.200
        } else {
            0.400
        };
        max_throughput(table, cut, "tp", "TRT");
    }),
    ..Sweep::table(
        "Figure 11: LLM serving performance on 4 GPUs, ShareGPT (sweep running)...",
        || {
            let mut specs = Vec::new();
            for model in [ModelConfig::opt_66b(), ModelConfig::llama2_70b()] {
                // Llama 2-70B's GQA (group 8) supports far higher rates
                // before its KV capacity saturates.
                let rates: &[f64] = if model.name.starts_with("OPT") {
                    &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0]
                } else {
                    &[1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0]
                };
                specs.extend(sharegpt_grid(
                    EngineConfig::figure10_systems(),
                    model,
                    rates,
                    43,
                ));
            }
            for spec in &mut specs {
                spec.hardware = HardwareSpec::azure_nc_a100(4);
            }
            specs
        },
        &[Label("system"), Offered, Throughput, P90, Hit(0)],
    )
};

/// Figure 13: unified vs separate prefill/generation scheduling.
///
/// Llama 2-13B on ShareGPT. Unified batching executes one invocation
/// mixing phases; the separate variant pays two invocations per iteration
/// and runs prefills with poor batch company (§6.5).
pub const FIG13: Sweep = Sweep::table(
    "Figure 13: unified vs separate scheduling, Llama 2-13B, ShareGPT",
    || {
        let engines = [
            EngineConfig::pensieve(),
            EngineConfig::pensieve_non_unified(),
        ];
        let rates = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        sharegpt_grid(engines, ModelConfig::llama2_13b(), &rates, 44)
    },
    &[Label("system"), Offered, Throughput, P90, Ttft],
);

/// Figure 14: retention-value eviction vs classic LRU.
///
/// OPT-13B on ShareGPT. The policies only separate once CPU-cache
/// pressure forces drops (the paper observes divergence past ~3 req/s);
/// the table adds the §6.6 internals — CPU-tier hit rate and
/// recomputed-token counts.
pub const FIG14: Sweep = Sweep {
    // §6.6 deltas at the highest rate with pressure.
    epilogue: Some(|points| {
        let at = |name: &str, rate: f64| {
            points
                .iter()
                .find(|p| p.system == name && p.request_rate == rate)
        };
        let pressured = points
            .iter()
            .rev()
            .filter(|p| p.system == "Pensieve (LRU)" && p.cache.recomputed_tokens > 0)
            .find_map(|lru| Some((at("Pensieve", lru.request_rate)?, lru)));
        if let Some((rv, lru)) = pressured {
            let delta_hit = (rv.cache.cpu_hit_rate - lru.cache.cpu_hit_rate) * 100.0;
            // Retention-value's change against LRU: negative is fewer
            // recomputed tokens, as in the paper's -14.6 %.
            let delta_rec = 100.0
                * (rv.cache.recomputed_tokens as f64 - lru.cache.recomputed_tokens as f64)
                / lru.cache.recomputed_tokens as f64;
            println!(
                "\nAt {} req/s: retention-value policy has {delta_hit:+.1} pp CPU hit rate and {delta_rec:+.1}% recomputed tokens against LRU\n(paper: up to +4.4 pp and -14.6%).",
                lru.request_rate
            );
        }
    }),
    ..Sweep::table(
        "Figure 14: eviction policy comparison, OPT-13B, ShareGPT",
        || {
            let engines = [
                EngineConfig::pensieve(),
                named(EngineConfig::pensieve_lru(), "Pensieve (LRU)"),
            ];
            assert!(engines[0].policy == PolicyKind::RetentionValue);
            assert!(engines[1].policy == PolicyKind::Lru);
            let rates = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0];
            sharegpt_grid(engines, ModelConfig::opt_13b(), &rates, 45)
        },
        &[
            Label("policy"),
            Offered,
            Throughput,
            P90,
            Hit(1),
            CpuHit,
            Recomputed("recomputed tokens"),
        ],
    )
};

/// Figure 15: impact of user think time.
///
/// Llama 2-13B on ShareGPT. Longer think times make cached KV-tokens age
/// out before reuse, shrinking Pensieve's edge; vLLM at 600 s is the
/// comparison point (§6.7).
pub const FIG15: Sweep = Sweep {
    // Think-time effects only materialize once enough conversations have
    // accumulated to pressure the CPU tier.
    horizon: 1200.0,
    ..Sweep::table(
        "Figure 15: impact of user think time, Llama 2-13B, ShareGPT",
        || {
            let mut systems: Vec<(EngineConfig, f64)> = [60.0f64, 120.0, 300.0, 600.0]
                .into_iter()
                .map(|think| {
                    let name = format!("Pensieve (think {think:.0}s)");
                    (named(EngineConfig::pensieve(), name), think)
                })
                .collect();
            systems.push((named(EngineConfig::vllm(), "vLLM (think 600s)"), 600.0));
            let mut specs = Vec::new();
            for (engine, think_time) in systems {
                let rates = [2.0, 4.0, 6.0, 8.0, 10.0];
                let points = sharegpt_grid([engine], ModelConfig::llama2_13b(), &rates, 46);
                specs.extend(
                    points
                        .into_iter()
                        .map(|spec| PointSpec { think_time, ..spec }),
                );
            }
            specs
        },
        &[Label("system"), Offered, Throughput, P90, Hit(0)],
    )
};

/// Ablation: eviction chunk size (the paper fixes 32 tokens, §4.3.1).
///
/// Smaller chunks evict more precisely but make more decisions and more,
/// smaller PCIe transfers; larger chunks waste cache space and recompute
/// more than necessary. OPT-13B on ShareGPT at a rate with cache
/// pressure.
pub const ABLATE_CHUNK: Sweep = Sweep::table(
    "Ablation: eviction chunk size, OPT-13B, ShareGPT @ 6 req/s",
    || {
        let engines = [8usize, 16, 32, 64, 128, 256].map(|chunk| {
            let mut engine = named(EngineConfig::pensieve(), format!("chunk={chunk}"));
            engine.chunk_tokens = chunk;
            engine
        });
        sharegpt_grid(engines, ModelConfig::opt_13b(), &[6.0], 47)
    },
    &[
        Label("config"),
        Throughput,
        P90,
        Hit(1),
        Recomputed("recomputed"),
        SwappedOut,
    ],
);

/// Ablation: ahead-of-time swap watermark and decode reserve.
///
/// The paper fixes the swap trigger at 25 % free GPU slots (§4.3.2) and
/// reserves 10 % for running decodes (§4.3.5). Low watermarks evict too
/// late (stalls), high ones evict hot data; a small reserve causes
/// suspensions, a large one wastes capacity.
pub const ABLATE_WATERMARK: Sweep = Sweep::table(
    "Ablation: swap watermark x decode reserve, OPT-13B, ShareGPT @ 6 req/s",
    || {
        let mut engines = Vec::new();
        for watermark in [0.05f64, 0.25, 0.50] {
            for reserve in [0.02f64, 0.10, 0.25] {
                let name = format!("wm={watermark:.2} rsv={reserve:.2}");
                let mut engine = named(EngineConfig::pensieve(), name);
                engine.swap_watermark = watermark;
                engine.decode_reserve = reserve;
                engines.push(engine);
            }
        }
        sharegpt_grid(engines, ModelConfig::opt_13b(), &[6.0], 48)
    },
    &[Label("config"), Throughput, P90, Ttft, Hit(1)],
);

/// Ablation: eviction shape — Pensieve vs the Table-3 alternatives.
///
/// Compares Pensieve's retention-value chunks against classic LRU chunks,
/// CachedAttention-style whole-conversation eviction, and SGLang-style
/// trailing-end eviction, all inside the same engine (only the policy
/// differs). OPT-13B on ShareGPT.
pub const ABLATE_EVICTION: Sweep = Sweep::table(
    "Ablation: eviction granularity/location (Table 3 shapes), OPT-13B, ShareGPT",
    || {
        let engines = [
            (PolicyKind::RetentionValue, "retention-value (Pensieve)"),
            (PolicyKind::Lru, "LRU chunks"),
            (
                PolicyKind::WholeConversation,
                "whole-conversation (CachedAttention)",
            ),
            (PolicyKind::TrailingEnd, "trailing-end (SGLang/RAGCache)"),
        ]
        .map(|(policy, name)| {
            let mut engine = named(EngineConfig::pensieve(), name);
            engine.policy = policy;
            engine
        });
        sharegpt_grid(engines, ModelConfig::opt_13b(), &[4.0, 6.0, 8.0], 49)
    },
    &[
        Label("policy"),
        Offered,
        Throughput,
        P90,
        CpuHit,
        Recomputed("recomputed"),
    ],
);

/// Ablation: KV allocation discipline — ORCA-style max-length
/// reservation vs vLLM-style paged growth vs Pensieve.
///
/// The paper's §2.2 background: FasterTransformer/ORCA reserve KV slots
/// for the maximum decoding length up front, wasting memory that paged
/// allocation (vLLM) reclaims, which in turn is the substrate Pensieve's
/// stateful cache builds on.
pub const ABLATE_RESERVATION: Sweep = Sweep {
    epilogue: Some(|_| {
        println!(
            "\nExpected ordering at load: ORCA-style < vLLM < Pensieve — paging\n\
             recovers the reserved-but-unused slots, statefulness then removes\n\
             the history recompute."
        );
    }),
    ..Sweep::table(
        "Ablation: KV allocation discipline, OPT-13B, ShareGPT",
        || {
            let engines = [
                EngineConfig::orca(),
                EngineConfig::vllm(),
                EngineConfig::pensieve(),
            ];
            sharegpt_grid(engines, ModelConfig::opt_13b(), &[2.0, 4.0, 6.0, 8.0], 51)
        },
        &[Label("discipline"), Offered, Throughput, P90, Ttft],
    )
};

/// Ablation: Sarathi-style chunked prefill on top of Pensieve.
///
/// Pensieve already shrinks prefills by serving history from cache, but
/// fresh conversations still bring multi-thousand-token prompts that
/// stall concurrent decodes for an iteration. Chunking bounds the
/// per-iteration prefill slice; this sweep quantifies the decode-latency
/// benefit and the TTFT cost.
pub const ABLATE_CHUNKED_PREFILL: Sweep = Sweep::table(
    "Ablation: chunked prefill, Llama 2-13B, ShareGPT",
    || {
        let chunked = [256usize, 512, 1024, 2048].map(EngineConfig::pensieve_chunked_prefill);
        let engines = std::iter::once(EngineConfig::pensieve()).chain(chunked);
        sharegpt_grid(engines, ModelConfig::llama2_13b(), &[4.0, 8.0, 12.0], 53)
    },
    &[Label("config"), Offered, Throughput, P50, P90, Ttft],
);
