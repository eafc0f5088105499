//! The five workloads: what each one is, why it is there, and how its
//! backend and inputs are built from a seed.
//!
//! Sizes are frozen here (and mirrored in `BENCHMARK.json`'s `why`
//! lines): one tracing-off pass of each workload takes 1.5-3 s on the
//! 2-core reference machine, so the shards of a run fit a 20 s run with
//! room to re-serve some of them.
//!
//! Load shape, common to the four simulated workloads: conversation
//! *starts* are an open Poisson schedule (`rate / mean_turns` per
//! simulated second); turns *inside* a conversation are closed-loop
//! (next turn = previous finish + exponential think time). That is
//! `pensieve_workload::driver::run_closed_loop` as is. Latency is on the
//! simulated clock, from each turn's scheduled arrival.

use pensieve_cluster::{ReplicationConfig, ReplicationMode, RouterConfig, RouterPolicy};
use pensieve_core::{EngineConfig, FunctionalConfig, SimServingEngine};
use pensieve_model::{HardwareSpec, ModelConfig, SimTime};
use pensieve_workload::dataset::{Conversation, DatasetSpec, Turn};
use pensieve_workload::driver::DriverConfig;

/// Which backend a workload drives.
#[derive(Debug, Clone)]
pub enum Kind {
    /// One `SimServingEngine`.
    Engine,
    /// A `Router` over `replicas` engines with async replication,
    /// manifest persistence and one scheduled fail-stop.
    Cluster {
        /// Fleet size.
        replicas: usize,
        /// `(replica, simulated seconds)` of the injected crash.
        fail_at: (usize, f64),
    },
    /// `FunctionalEngine` doing real arithmetic, plus its simulated twin
    /// (the same turn tape through a `SimServingEngine` of the same
    /// shape and memory budget) so the `sim_*` columns exist.
    Functional(FunctionalShape),
}

/// Shape of the functional workload's round-robin tape.
#[derive(Debug, Clone)]
pub struct FunctionalShape {
    /// Rounds: every conversation gets one turn per round.
    pub turns: usize,
    /// Mean prompt tokens per turn (lengths are uniform within a third).
    pub prompt_tokens: usize,
    /// Greedy-decoded tokens per turn.
    pub new_tokens: usize,
    /// Memory system of the functional engine.
    pub memory: FunctionalConfig,
    /// A turn is checked against `reference_decode` when its index in
    /// serving order is a multiple of this.
    pub check_every: usize,
}

/// One frozen workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Backend kind.
    pub kind: Kind,
    /// Engine behaviour (per replica for clusters; the twin for functional).
    pub engine: EngineConfig,
    /// Served model.
    pub model: ModelConfig,
    /// Hardware the engine is sized on.
    pub hardware: HardwareSpec,
    /// Conversation generator.
    pub dataset: DatasetSpec,
    /// Independent traffic samples one run serves (see [`shard_seed`]):
    /// six, more where the tail is a rare event (the cluster's failover,
    /// the agents' cold reads) that six samples leave too noisy.
    pub shards: usize,
    /// Conversations per shard.
    pub conversations: usize,
    /// Offered request rate, requests per simulated second.
    pub rate: f64,
    /// Mean think time, simulated seconds.
    pub think: f64,
    /// Percentile reported as `sim_ttft_tail_ms`: fixed per workload so
    /// it cannot flip between seeds, and chosen by `stats::tail_percentile`
    /// for the fewest turns a run of this workload serves.
    pub tail_q: f64,
}

/// Names of all workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "chat_single",
    "chat_pressure",
    "cluster4_repl",
    "agentic_deep",
    "functional_chat",
];

/// Tokens of the tool preamble every agentic conversation shares.
pub const AGENTIC_PREAMBLE: usize = 2048;

/// KV bytes per token the engine itself accounts with, read from a probe
/// engine so token budgets hold whatever the model's KV layout.
fn kv_bytes_per_token(model: &ModelConfig) -> usize {
    SimServingEngine::builder(
        EngineConfig::pensieve(),
        model.clone(),
        HardwareSpec::azure_nc_a100(1),
    )
    .build()
    .kv_bytes_per_token()
}

/// Paper hardware with the KV budgets cut to the given token counts (the
/// `bench_tiers::shrunken_hardware` recipe).
fn shrunken_hardware(model: &ModelConfig, gpu_tokens: usize, cpu_tokens: usize) -> HardwareSpec {
    let mut hw = HardwareSpec::azure_nc_a100(1);
    let bpt = kv_bytes_per_token(model);
    hw.gpu_kv_budget_bytes = bpt * gpu_tokens;
    hw.cpu_cache_bytes_per_gpu = bpt * cpu_tokens;
    hw
}

/// Looks a workload up by name. `smoke` divides conversation counts by
/// ten for a seconds-long sanity run; smoke rows are labelled by the
/// caller and never compared against full rows.
#[must_use]
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let paper = HardwareSpec::azure_nc_a100(1);
    let mut s = match name {
        // The paper's base case: the scheduler and the swap pipeline do
        // the work, the CPU tier never overflows (hit rate 1.0, nothing
        // dropped); router, deep tiers and kernels do nothing.
        "chat_single" => Spec {
            name: "chat_single",
            kind: Kind::Engine,
            engine: EngineConfig::pensieve(),
            model: ModelConfig::llama2_13b(),
            hardware: paper,
            dataset: DatasetSpec::sharegpt(),
            shards: 6,
            conversations: 450,
            rate: 6.0,
            think: 60.0,
            tail_q: 0.99,
        },
        // Same engine and cache layer used the other way: OPT-13B's
        // 4x-larger KV, 300 s think times and a 64 GiB host tier (the
        // paper's 220 GiB needs ~4x the conversations to overflow) make
        // eviction write drops and returns pay recomputation.
        "chat_pressure" => Spec {
            name: "chat_pressure",
            kind: Kind::Engine,
            engine: EngineConfig::pensieve(),
            model: ModelConfig::opt_13b(),
            hardware: HardwareSpec {
                cpu_cache_bytes_per_gpu: 64 << 30,
                ..paper
            },
            dataset: DatasetSpec::sharegpt(),
            shards: 6,
            conversations: 400,
            rate: 6.0,
            think: 300.0,
            tail_q: 0.99,
        },
        // Router dispatch, the replication pump and manifest persistence
        // dominate; eviction is nearly idle. One replica fail-stops
        // mid-run, so promotion and re-dispatch are on the path.
        "cluster4_repl" => Spec {
            name: "cluster4_repl",
            kind: Kind::Cluster {
                replicas: 4,
                fail_at: (1, 100.0),
            },
            engine: EngineConfig::pensieve(),
            model: ModelConfig::opt_13b(),
            hardware: paper,
            dataset: DatasetSpec::sharegpt(),
            shards: 10,
            conversations: 200,
            rate: 12.0,
            think: 60.0,
            tail_q: 0.99,
        },
        // Demotion ladder, deep-tier reads and the shared-prefix index:
        // budgets shrunk to 64 Ki GPU / 64 Ki CPU tokens push idle agents
        // down to the simulated SSD and cold store.
        "agentic_deep" => {
            let model = ModelConfig::opt_13b();
            let mut engine = EngineConfig::pensieve_deep_tiers(65_536, 1 << 22);
            engine.shared_prefix_tokens = AGENTIC_PREAMBLE;
            Spec {
                name: "agentic_deep",
                kind: Kind::Engine,
                engine,
                hardware: shrunken_hardware(&model, 65_536, 65_536),
                model,
                dataset: DatasetSpec::agentic(AGENTIC_PREAMBLE),
                shards: 8,
                conversations: 400,
                rate: 2.0,
                think: 120.0,
                tail_q: 0.99,
            }
        }
        // The only workload where real arithmetic runs: kernels are
        // nearly all of the wall; the tiered cache manager, the router
        // and the simulator are idle (the twin is a 128-turn tape).
        "functional_chat" => {
            let model = ModelConfig::tiny_llama();
            let memory = FunctionalConfig {
                block_size: 16,
                pool_blocks: 160,
                stash_blocks: 1024,
                free_watermark: 8,
            };
            Spec {
                name: "functional_chat",
                kind: Kind::Functional(FunctionalShape {
                    turns: 8,
                    prompt_tokens: 96,
                    new_tokens: 32,
                    check_every: 32,
                    memory: memory.clone(),
                }),
                engine: EngineConfig::pensieve(),
                hardware: shrunken_hardware(
                    &model,
                    memory.pool_blocks * memory.block_size,
                    memory.stash_blocks * memory.block_size,
                ),
                model,
                // Unused: the tape is fixed-shape round-robin.
                dataset: DatasetSpec::sharegpt(),
                shards: 6,
                conversations: 16,
                // The twin is driven as the functional engine is: all
                // conversations at once, turns back to back.
                rate: 1e6,
                think: 0.0,
                tail_q: 0.95,
            }
        }
        _ => return None,
    };
    if smoke {
        s.conversations = (s.conversations / 10).max(4);
        // A tenth of the turns supports p90, not p99.
        s.tail_q = 0.90;
        if let Kind::Cluster { fail_at, .. } = &mut s.kind {
            fail_at.1 /= 4.0;
        }
    }
    Some(s)
}

/// Everything the program under test sees: generated conversations and
/// the driver's arrival/think seed. Nothing else depends on `--seed`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The conversations, index = session id.
    pub convs: Vec<Conversation>,
    /// Closed-loop driver parameters.
    pub driver: DriverConfig,
    /// Prompt token ids, one vector per (round, conversation) in serving
    /// order (functional workload only; empty otherwise).
    pub prompts: Vec<Vec<u32>>,
}

impl Inputs {
    /// Turns across all conversations.
    #[must_use]
    pub fn total_turns(&self) -> usize {
        self.convs.iter().map(|c| c.turns.len()).sum()
    }

    /// Prompt plus output tokens across all turns.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.convs.iter().map(Conversation::total_tokens).sum()
    }
}

/// SplitMix64 step: decorrelates the arrival seed from the dataset seed
/// and feeds the functional prompt generator.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of shard `shard` of a run: shards of one run, and shards of runs
/// with neighbouring seeds, are decorrelated.
#[must_use]
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix(splitmix(seed) ^ shard as u64)
}

impl Spec {
    /// Generates the workload's inputs from `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Inputs {
        let driver = DriverConfig {
            request_rate: self.rate,
            mean_think_time: self.think,
            seed: splitmix(seed),
            // The shared preamble (agentic only) is pre-existing history.
            system_prompt_tokens: self.dataset.preamble_tokens,
        };
        match &self.kind {
            Kind::Functional(shape) => {
                // Serving order is round-robin: prompt k belongs to
                // conversation k % n. Lengths are uniform within a third
                // of the mean, so the tape (and its twin) vary with the
                // seed; token ids are uniform over the vocabulary.
                let n = self.conversations;
                let vocab = self.model.vocab_size as u64;
                let (lo, hi) = (shape.prompt_tokens * 2 / 3, shape.prompt_tokens * 4 / 3);
                let mut state = seed;
                let mut draw = |modulus: u64| {
                    state = splitmix(state);
                    state % modulus
                };
                let prompts: Vec<Vec<u32>> = (0..shape.turns * n)
                    .map(|_| {
                        let len = lo + draw((hi - lo + 1) as u64) as usize;
                        (0..len).map(|_| draw(vocab) as u32).collect()
                    })
                    .collect();
                let convs = (0..n)
                    .map(|c| Conversation {
                        turns: (0..shape.turns)
                            .map(|round| Turn {
                                input_tokens: prompts[round * n + c].len(),
                                output_tokens: shape.new_tokens,
                            })
                            .collect(),
                    })
                    .collect();
                Inputs {
                    convs,
                    driver,
                    prompts,
                }
            }
            _ => Inputs {
                convs: self.dataset.generate(self.conversations, seed),
                driver,
                prompts: Vec::new(),
            },
        }
    }

    /// Placement policy and configuration of the cluster workload's
    /// router: cache-aware, async replication, manifests persisted.
    #[must_use]
    pub fn router() -> (RouterPolicy, RouterConfig) {
        let config = RouterConfig {
            replication: ReplicationConfig {
                mode: ReplicationMode::Async,
                flush_threshold_tokens: 64,
                ..ReplicationConfig::default()
            },
            manifest_persistence: true,
            ..RouterConfig::default()
        };
        (RouterPolicy::CacheAware, config)
    }

    /// The scheduled fail-stop, if any.
    #[must_use]
    pub fn fail_at(&self) -> Option<(usize, SimTime)> {
        match self.kind {
            Kind::Cluster { fail_at, .. } => Some((fail_at.0, SimTime::from_secs(fail_at.1))),
            _ => None,
        }
    }
}
