//! A functional (real-math) serving engine for end-to-end validation.
//!
//! [`FunctionalEngine`] is the iteration-level [`SimServingEngine`] with a
//! real executor attached. The engine's scheduler admits, batches,
//! suspends and resumes requests and its
//! [`TieredKvCache`](pensieve_kvcache::TieredKvCache) makes every
//! placement decision — chunk-granular eviction in its policy's order,
//! lazy GPU reclamation, demotion down the host ladder, dropping — exactly
//! as in simulation; the simulated clock still comes from the cost model.
//! Each tick the executor moves the K/V bytes to match the cache, one
//! chunk per paged block, and runs the whole batch — prefill rows with
//! their dropped-range sub-requests, chunked-prefill slices and decode
//! rows — through one
//! [`TinyModel::forward`](pensieve_kernels::model::TinyModel::forward)
//! call.
//!
//! Host-memory faults route through the cache as the simulated engine's
//! do, except that an injected corruption flips a bit of held host bytes
//! and the checksum catches it before the owner's restore. Because every
//! step does real arithmetic, the tests can assert the strongest property
//! the design must preserve: **a stateful engine's output tokens are
//! identical to stateless recomputation from scratch** under every
//! eviction policy, ladder, batch mix and suspension — a chunk restored
//! or recomputed at the wrong position would change the logits.

use pensieve_kernels::ops::argmax;
use pensieve_kvcache::{CacheError, SessionId};
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_sim::{FaultCounters, FaultInjector};

use crate::backend::ServingBackend;
use crate::config::{EngineConfig, PolicyKind};
use crate::engine::SimServingEngine;
use crate::executor::Executor;
use crate::request::{Request, RequestId};

/// Configuration of the functional engine's memory system.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Tokens per KV block, and per cache chunk.
    pub block_size: usize,
    /// GPU KV budget in blocks: the cache may place `pool_blocks *
    /// block_size` tokens on the GPU. The cache charges tokens while a
    /// block holds one chunk, so the pool holds at most one more block
    /// per conversation, for its partial trailing chunk.
    pub pool_blocks: usize,
    /// CPU-tier capacity in blocks (0 disables the CPU tier: every
    /// eviction drops).
    pub stash_blocks: usize,
    /// Ahead-of-time swap-out keeps this many pool blocks effectively
    /// free (at most a quarter of the pool): the cache's swap watermark.
    pub free_watermark: usize,
}

impl Default for FunctionalConfig {
    fn default() -> Self {
        FunctionalConfig {
            block_size: 4,
            pool_blocks: 64,
            stash_blocks: 64,
            free_watermark: 8,
        }
    }
}

/// The functional serving engine: a [`SimServingEngine`] whose ticks its
/// executor carries out on real K/V bytes.
pub struct FunctionalEngine {
    engine: SimServingEngine,
    exec: Executor,
    /// Turns submitted: the last request id.
    turns: u64,
}

impl FunctionalEngine {
    /// Builds an engine with deterministic random weights, executing a
    /// two-tier cache under LRU eviction.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has a zero block size or pool.
    #[must_use]
    pub fn new(model_cfg: &ModelConfig, seed: u64, cfg: FunctionalConfig) -> Self {
        Self::with_engine(model_cfg, seed, &cfg, |e| e)
    }

    /// [`FunctionalEngine::new`] with its engine behaviour — Pensieve with
    /// LRU eviction, one chunk per block, the watermark as a fraction of
    /// the pool and no decode reserve — passed through `tweak`: another
    /// policy, a deeper ladder, chunked prefill.
    pub(crate) fn with_engine(
        model_cfg: &ModelConfig,
        seed: u64,
        cfg: &FunctionalConfig,
        tweak: impl FnOnce(EngineConfig) -> EngineConfig,
    ) -> Self {
        assert!(cfg.block_size > 0 && cfg.pool_blocks > 0);
        let engine = tweak(EngineConfig {
            policy: PolicyKind::Lru,
            chunk_tokens: cfg.block_size,
            swap_watermark: (cfg.free_watermark as f64 / cfg.pool_blocks as f64).min(0.25),
            decode_reserve: 0.0,
            ..EngineConfig::pensieve()
        });
        let block_bytes = model_cfg.kv_bytes_per_token() * cfg.block_size;
        let mut hw = HardwareSpec::azure_nc_a100(1);
        hw.gpu_kv_budget_bytes = block_bytes * cfg.pool_blocks;
        hw.cpu_cache_bytes_per_gpu = block_bytes * cfg.stash_blocks;
        FunctionalEngine {
            engine: SimServingEngine::builder(engine, model_cfg.clone(), hw).build(),
            exec: Executor::new(model_cfg, seed, cfg),
            turns: 0,
        }
    }

    /// Installs a deterministic fault injector. Each tick it may destroy
    /// a CPU-tier copy (loss) or flip a bit in held host bytes
    /// (corruption, caught by the checksum before the owner's restore);
    /// both downgrade to recomputation, so outputs stay bit-identical to
    /// the fault-free run.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.engine.set_fault_injector(faults);
    }

    /// Faults injected so far, if an injector is installed.
    #[must_use]
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.engine.fault_counters()
    }

    /// CPU-tier copies injected loss destroyed, and held host blocks
    /// whose checksum failed before a restore (on a deep rung the cache
    /// then drops the conversation's deep blocks, as after a failed deep
    /// read).
    #[must_use]
    pub fn fault_activity(&self) -> (u64, u64) {
        (self.engine.counters().chunk_faults, self.exec.corrupt)
    }

    /// Sets the number of worker threads used by the model's batched
    /// compute kernels (see
    /// [`TinyModel::set_threads`](pensieve_kernels::model::TinyModel::set_threads)). Served tokens are bit-identical at
    /// every setting, so this is purely a latency knob.
    pub fn set_compute_threads(&mut self, threads: usize) {
        self.exec.model.set_threads(threads);
    }

    /// Full raw history of a conversation, composed back into logical
    /// order from the store's shared chunk chain and private tail.
    #[must_use]
    pub fn history(&self, conv: SessionId) -> Vec<u32> {
        self.exec.history(conv)
    }

    /// Forks `parent` into a new conversation `child`. The raw-token
    /// history is shared by reference in the chunked store (no tokens
    /// are copied); the child starts with no resident KV and recomputes
    /// lazily on its first turn, so serving it is bit-identical to
    /// serving a fresh conversation fed the parent's full history.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownConversation`] if `parent` was never served;
    /// [`CacheError::SessionExists`] if `child` already has history.
    pub fn fork_conversation(
        &mut self,
        parent: SessionId,
        child: SessionId,
    ) -> Result<(), CacheError> {
        self.exec.store.fork(parent, child)
    }

    /// `(physical, logical)` raw-token counts in the chunked store; the
    /// ratio is the store's dedup factor across forked conversations.
    #[must_use]
    pub fn store_dedup(&self) -> (usize, usize) {
        let store = &self.exec.store;
        (store.physical_tokens(), store.logical_tokens())
    }

    /// Blocks' worth of tokens swapped out (lazy copies included) /
    /// brought back from a host rung / dropped, rounded down, and tokens
    /// recomputed, as the cache counted them.
    #[must_use]
    pub fn cache_activity(&self) -> (u64, u64, u64, u64) {
        let s = self.engine.cache_stats();
        let bs = self.engine.config().chunk_tokens as u64;
        let inn = s.swapped_in_tokens + s.ssd_hit_tokens + s.cold_hit_tokens;
        let [out, inn, dropped] = [s.swapped_out_tokens, inn, s.dropped_tokens].map(|t| t / bs);
        (out, inn, dropped, s.recomputed_tokens)
    }

    /// Serves one conversation turn: submits `prompt` on top of the
    /// conversation's history, runs the engine until it is idle, and
    /// returns the `max_new` tokens it greedily decoded.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty, `max_new` is zero, or the GPU pool is
    /// too small to hold a single turn's working set.
    pub fn serve_turn(&mut self, conv: SessionId, prompt: &[u32], max_new: usize) -> Vec<u32> {
        self.submit(conv, prompt, max_new);
        self.engine.run_on(&mut self.exec, None);
        self.engine.drain_responses();
        let store = &self.exec.store;
        let (len, view) = (store.len(conv), store.view(conv));
        let tail = view.and_then(|v| v.slice(len.saturating_sub(max_new)..len));
        tail.unwrap_or_default()
    }

    /// Submits one turn at the engine's clock, its prompt ids as the
    /// request's payload.
    fn submit(&mut self, conv: SessionId, prompt: &[u32], max_new: usize) {
        assert!(!prompt.is_empty() && max_new > 0);
        self.turns += 1;
        let req = Request::builder()
            .id(RequestId(self.turns))
            .session(conv)
            .arrival(self.engine.now())
            .prompt_ids(prompt.to_vec())
            .output_tokens(max_new)
            .history_tokens(self.exec.store.len(conv))
            .build();
        // The builder refuses only an empty prompt, asserted above.
        let Ok(req) = req else { return };
        self.engine.submit_on(req, &mut self.exec);
    }

    /// Stateless reference: greedy decode of `max_new` tokens after
    /// `context`, recomputing everything from scratch each step.
    #[must_use]
    pub fn reference_decode(&self, context: &[u32], max_new: usize) -> Vec<u32> {
        let mut ctx = context.to_vec();
        for _ in 0..max_new {
            ctx.push(argmax(&self.exec.model.forward_dense(&ctx)) as u32);
        }
        ctx.split_off(context.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SuspendPolicy;
    use pensieve_model::SimDuration;
    use pensieve_sim::FaultConfig;

    fn prompt(seed: u32, len: usize, vocab: u32) -> Vec<u32> {
        (0..len as u32)
            .map(|i| (seed * 31 + i * 7) % vocab)
            .collect()
    }

    /// Fault-stream seed: `PENSIEVE_FAULT_SEED` env var, default 1.
    fn fault_seed() -> u64 {
        std::env::var("PENSIEVE_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }

    /// What [`serve_checked`] saw: each turn's tokens, in schedule
    /// order; the most requests one tick started with; and the loss rolls
    /// that fired while the cache listed a CPU copy to destroy.
    struct Served {
        tokens: Vec<Vec<u32>>,
        widest: usize,
        listed_losses: u64,
    }

    /// Serves `schedule`'s turns, `max_new` tokens each, at most `width`
    /// at a time: the first unserved turn whose conversation is idle goes
    /// next, so `width` 1 serves the schedule in order and one per
    /// conversation runs each conversation as its own closed loop. The
    /// engine runs one tick at a time; after each the bytes are checked
    /// against the cache, and every finished turn against stateless
    /// decoding of its conversation's full history.
    fn serve_checked(
        e: &mut FunctionalEngine,
        schedule: &[(SessionId, Vec<u32>)],
        max_new: usize,
        width: usize,
        cell: &str,
    ) -> Served {
        let losses = |e: &FunctionalEngine| e.fault_counters().map_or(0, |c| c.cpu_chunk_losses);
        let mut served = Served {
            tokens: vec![Vec::new(); schedule.len()],
            widest: 0,
            listed_losses: 0,
        };
        let mut pending: Vec<usize> = (0..schedule.len()).collect();
        let mut in_flight = std::collections::BTreeMap::new();
        while !pending.is_empty() || !in_flight.is_empty() {
            while in_flight.len() < width {
                let idle = |t: &usize| !in_flight.contains_key(&schedule[*t].0);
                let Some(at) = pending.iter().position(idle) else {
                    break;
                };
                let t = pending.remove(at);
                let (conv, p) = &schedule[t];
                in_flight.insert(*conv, t);
                e.submit(*conv, p, max_new);
            }
            served.widest = served.widest.max(e.engine.running_requests());
            let listed = !e.engine.cache().cpu_resident_chunks().is_empty();
            let before = losses(e);
            let tick = e.engine.now() + SimDuration::from_micros(1.0);
            e.engine.run_on(&mut e.exec, Some(tick));
            served.listed_losses += if listed { losses(e) - before } else { 0 };
            e.exec.assert_agrees(e.engine.cache(), cell);
            for r in e.engine.drain_responses() {
                let t = in_flight.remove(&r.conv).unwrap();
                let history = e.history(r.conv);
                let (context, got) = history.split_at(history.len() - max_new);
                let want = e.reference_decode(context, max_new);
                assert_eq!(got, want, "{cell}: {:?} turn {t}", r.conv);
                served.tokens[t] = want;
            }
        }
        served
    }

    /// `turns` rounds of one turn per conversation, `len`-token prompts.
    fn round_robin(convs: u32, turns: u32, len: usize) -> Vec<(SessionId, Vec<u32>)> {
        let turn = |t: u32| {
            (0..convs).map(move |c| (SessionId(c.into()), prompt(t * convs + c, len, 128)))
        };
        (0..turns).flat_map(turn).collect()
    }

    /// Every policy × {two-tier, deep} ladder × {clean, seeded faults},
    /// with three conversations served one turn at a time and then all
    /// three in flight, each as its own closed loop, so forward passes
    /// carry several rows: each turn equals stateless decoding, the bytes
    /// agree with the cache's placement after every tick, and every cell
    /// swaps in and recomputes — and, with faults, has faults bite.
    #[test]
    fn policy_ladder_fault_matrix_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let mem = FunctionalConfig {
            block_size: 4,
            pool_blocks: 16,
            stash_blocks: 12,
            free_watermark: 2,
        };
        let policies = [
            PolicyKind::RetentionValue,
            PolicyKind::Lru,
            PolicyKind::WholeConversation,
            PolicyKind::TrailingEnd,
        ];
        for policy in policies {
            for deep in [0, 8] {
                for (faulty, width) in [(false, 1), (true, 1), (false, 3), (true, 3)] {
                    let cell = format!("{policy:?} deep={deep} faulty={faulty} width={width}");
                    let mut e = FunctionalEngine::with_engine(&cfg, 19, &mem, |e| EngineConfig {
                        policy,
                        ssd_capacity_tokens: deep,
                        cold_capacity_tokens: deep,
                        ..e
                    });
                    if faulty {
                        e.set_fault_injector(FaultInjector::new(FaultConfig {
                            cpu_chunk_loss: 0.5,
                            cpu_chunk_corruption: 0.5,
                            ..FaultConfig::disabled(fault_seed())
                        }));
                    }
                    let served = serve_checked(&mut e, &round_robin(3, 5, 6), 3, width, &cell);
                    assert_eq!(served.widest, width, "{cell}: rows per forward pass");
                    let activity = e.cache_activity();
                    let (_, swapped_in, _, recomputed) = activity;
                    assert!(
                        swapped_in > 0 && recomputed > 0,
                        "{cell}: vacuous {activity:?}"
                    );
                    if faulty {
                        assert_ne!(e.fault_activity(), (0, 0), "{cell}: no fault bit");
                    }
                }
            }
        }
    }

    /// Decode growth outruns the pool: requests are suspended, their
    /// blocks leave the pool, and they resume — under each suspension
    /// policy — with every token equal to stateless decoding. Five
    /// conversations in flight suspend victims both before the growing
    /// row (already grown this tick, some into a chunk no tick has
    /// written yet) and after it (not yet grown).
    #[test]
    fn suspended_requests_resume_exactly() {
        let cfg = ModelConfig::tiny_llama();
        let mem = FunctionalConfig {
            block_size: 4,
            pool_blocks: 11,
            stash_blocks: 64,
            free_watermark: 0,
        };
        for policy in [
            SuspendPolicy::NewestFirst,
            SuspendPolicy::OldestFirst,
            SuspendPolicy::LargestContext,
        ] {
            let cell = format!("{policy:?}");
            let mut e = FunctionalEngine::with_engine(&cfg, 21, &mem, |e| EngineConfig {
                suspend_policy: policy,
                ..e
            });
            serve_checked(&mut e, &round_robin(5, 2, 4), 10, 5, &cell);
            let c = e.engine.counters();
            assert!(c.suspensions > 0, "{cell}: nothing was suspended");
        }
    }

    /// Chunked prefill: prompts longer than the slice run over several
    /// ticks beside other rows' decodes, dropped ranges included, and
    /// every turn still equals stateless decoding.
    #[test]
    fn chunked_prefill_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let mem = FunctionalConfig {
            block_size: 4,
            pool_blocks: 24,
            stash_blocks: 4,
            free_watermark: 2,
        };
        let mut e = FunctionalEngine::with_engine(&cfg, 22, &mem, |e| EngineConfig {
            chunked_prefill: Some(5),
            ..e
        });
        serve_checked(&mut e, &round_robin(3, 4, 13), 4, 3, "chunked");
        let (_, _, dropped, recomputed) = e.cache_activity();
        assert!(dropped > 0 && recomputed > 0, "nothing was recomputed");
    }

    /// Block fragmentation is reconciled: conversations ending mid-block
    /// hold one block more than the cache charges them, and that block
    /// never strands the pool. Ten conversations — more than the pool
    /// has blocks — each end inside a block (6 tokens, then 13), and
    /// every one returns.
    #[test]
    fn mid_block_conversations_cannot_strand_the_pool() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(
            &cfg,
            20,
            FunctionalConfig {
                block_size: 4,
                pool_blocks: 8,
                stash_blocks: 64,
                free_watermark: 0,
            },
        );
        let mut transcripts = vec![Vec::new(); 10];
        for round in 0..2u32 {
            for (c, t) in transcripts.iter_mut().enumerate() {
                let conv = SessionId(c as u64);
                let p = prompt(100 + round * 10 + c as u32, 5, cfg.vocab_size as u32);
                let got = e.serve_turn(conv, &p, 2);
                t.extend_from_slice(&p);
                assert_eq!(got, e.reference_decode(t, 2), "conv {c} round {round}");
                t.extend_from_slice(&got);
                assert_ne!(e.exec.computed(conv) % 4, 0, "conv {c} ends mid-block");
                e.exec.assert_agrees(e.engine.cache(), "fragmentation");
            }
        }
    }

    #[test]
    fn single_turn_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, 11, FunctionalConfig::default());
        let conv = SessionId(1);
        let p = prompt(1, 6, cfg.vocab_size as u32);
        let got = e.serve_turn(conv, &p, 4);
        let expect = e.reference_decode(&p, 4);
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_turn_stateful_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, 12, FunctionalConfig::default());
        let conv = SessionId(1);
        let mut full: Vec<u32> = Vec::new();
        for turn in 0..3 {
            let p = prompt(turn + 1, 5, cfg.vocab_size as u32);
            let got = e.serve_turn(conv, &p, 3);
            full.extend_from_slice(&p);
            let expect = e.reference_decode(&full, 3);
            assert_eq!(got, expect, "turn {turn}");
            full.extend_from_slice(&got);
        }
        assert_eq!(e.history(conv), full);
    }

    #[test]
    fn eviction_and_swap_in_preserve_outputs() {
        let cfg = ModelConfig::tiny_llama();
        // Tiny pool: two conversations cannot both stay resident.
        let mut e = FunctionalEngine::new(
            &cfg,
            13,
            FunctionalConfig {
                block_size: 4,
                pool_blocks: 12,
                stash_blocks: 64,
                free_watermark: 2,
            },
        );
        let (a, b) = (SessionId(1), SessionId(2));
        let mut full_a: Vec<u32> = Vec::new();
        let mut full_b: Vec<u32> = Vec::new();
        for turn in 0..3 {
            let pa = prompt(10 + turn, 6, cfg.vocab_size as u32);
            let ga = e.serve_turn(a, &pa, 4);
            full_a.extend_from_slice(&pa);
            assert_eq!(ga, e.reference_decode(&full_a, 4), "conv a turn {turn}");
            full_a.extend_from_slice(&ga);

            let pb = prompt(20 + turn, 6, cfg.vocab_size as u32);
            let gb = e.serve_turn(b, &pb, 4);
            full_b.extend_from_slice(&pb);
            assert_eq!(gb, e.reference_decode(&full_b, 4), "conv b turn {turn}");
            full_b.extend_from_slice(&gb);
        }
        // A returns to chunks B's third turn reclaimed. (A's third turn
        // fills the pool exactly, 29 + 19 tokens, so the chunks of B it
        // copies ahead of time keep their slots until B is back.)
        let pa = prompt(13, 6, cfg.vocab_size as u32);
        let ga = e.serve_turn(a, &pa, 4);
        full_a.extend_from_slice(&pa);
        assert_eq!(ga, e.reference_decode(&full_a, 4), "conv a returns");
        let (out, inn, _, _) = e.cache_activity();
        assert!(out > 0, "pool pressure must have caused eviction");
        assert!(inn > 0, "returning conversations must have swapped in");
    }

    #[test]
    fn dropped_blocks_are_recomputed_correctly() {
        let cfg = ModelConfig::tiny_llama();
        // No stash: every eviction is a drop -> recompute on return.
        let mut e = FunctionalEngine::new(
            &cfg,
            14,
            FunctionalConfig {
                block_size: 4,
                pool_blocks: 12,
                stash_blocks: 0,
                free_watermark: 2,
            },
        );
        let (a, b) = (SessionId(1), SessionId(2));
        let mut full_a: Vec<u32> = Vec::new();
        for turn in 0..2 {
            let pa = prompt(30 + turn, 8, cfg.vocab_size as u32);
            let ga = e.serve_turn(a, &pa, 3);
            full_a.extend_from_slice(&pa);
            assert_eq!(ga, e.reference_decode(&full_a, 3), "conv a turn {turn}");
            full_a.extend_from_slice(&ga);
            // Interleave a competing conversation to force eviction.
            let pb = prompt(40 + turn, 8, cfg.vocab_size as u32);
            e.serve_turn(b, &pb, 3);
        }
        // A returns after B's growth evicted (and dropped) A's prefix.
        let pa = prompt(50, 8, cfg.vocab_size as u32);
        let ga = e.serve_turn(a, &pa, 3);
        full_a.extend_from_slice(&pa);
        assert_eq!(ga, e.reference_decode(&full_a, 3), "final returning turn");
        let (_, _, dropped, recomputed) = e.cache_activity();
        assert!(dropped > 0, "evictions must drop without a stash");
        assert!(recomputed > 0, "returning conversation recomputed a prefix");
    }

    #[test]
    fn stash_faults_keep_outputs_bit_identical() {
        let cfg = ModelConfig::tiny_llama();
        let small = FunctionalConfig {
            block_size: 4,
            pool_blocks: 16,
            stash_blocks: 64,
            free_watermark: 2,
        };
        // Clean engine and faulty engine run the same workload; loss and
        // corruption fire aggressively against the stash.
        let mut clean = FunctionalEngine::new(&cfg, 17, small.clone());
        let mut faulty = FunctionalEngine::new(&cfg, 17, small);
        let mut fc = FaultConfig::disabled(99);
        fc.cpu_chunk_loss = 0.7;
        fc.cpu_chunk_corruption = 0.7;
        faulty.set_fault_injector(FaultInjector::new(fc));
        let (a, b) = (SessionId(1), SessionId(2));
        let schedule: Vec<_> = (0..4)
            .flat_map(|turn| {
                [a, b].map(|conv| {
                    let p = prompt(60 + turn * 2 + conv.0 as u32, 6, cfg.vocab_size as u32);
                    (conv, p)
                })
            })
            .collect();
        let served = serve_checked(&mut faulty, &schedule, 4, 1, "faulty");
        for ((conv, p), got) in schedule.iter().zip(&served.tokens) {
            assert_eq!(*got, clean.serve_turn(*conv, p, 4), "conv {}", conv.0);
        }
        let (lost, corrupt) = faulty.fault_activity();
        assert!(lost > 0, "injected losses must have destroyed stash blocks");
        assert!(corrupt > 0, "checksum must have caught a corrupted block");
        // Every loss roll that found a listed CPU copy destroyed one.
        assert_eq!(served.listed_losses, lost);
        let (_, _, _, recomputed) = faulty.cache_activity();
        assert!(recomputed > 0, "faults must have forced recomputation");
        assert_eq!(clean.fault_activity(), (0, 0));
    }

    /// The compute-thread knob is a pure latency knob: served tokens are
    /// bit-identical at every setting.
    #[test]
    fn compute_threads_do_not_change_tokens() {
        let cfg = ModelConfig::tiny_llama();
        let mut serial = FunctionalEngine::new(&cfg, 18, FunctionalConfig::default());
        let mut par = FunctionalEngine::new(&cfg, 18, FunctionalConfig::default());
        par.set_compute_threads(4);
        let conv = SessionId(1);
        for turn in 0..2 {
            let p = prompt(70 + turn, 6, cfg.vocab_size as u32);
            assert_eq!(
                par.serve_turn(conv, &p, 3),
                serial.serve_turn(conv, &p, 3),
                "turn {turn}"
            );
        }
    }

    #[test]
    fn forked_conversation_matches_fresh_history_replay() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, 16, FunctionalConfig::default());
        let (parent, child) = (SessionId(1), SessionId(2));
        for turn in 0..2 {
            let p = prompt(80 + turn, 6, cfg.vocab_size as u32);
            e.serve_turn(parent, &p, 3);
        }
        e.fork_conversation(parent, child)
            .expect("parent exists, child fresh");
        assert_eq!(
            e.fork_conversation(parent, child),
            Err(CacheError::SessionExists(child)),
            "double fork must be rejected"
        );
        let (physical, logical) = e.store_dedup();
        assert!(
            physical < logical,
            "fork must share sealed chunks: physical {physical} logical {logical}"
        );
        // The forked branch serves exactly like a fresh conversation
        // whose context is the parent's full history.
        let base = e.history(parent);
        let p = prompt(90, 6, cfg.vocab_size as u32);
        let got = e.serve_turn(child, &p, 4);
        let mut full = base.clone();
        full.extend_from_slice(&p);
        assert_eq!(got, e.reference_decode(&full, 4), "forked branch");
        // The parent's own continuation is unaffected by the fork.
        let pp = prompt(91, 6, cfg.vocab_size as u32);
        let gp = e.serve_turn(parent, &pp, 4);
        let mut full_p = base;
        full_p.extend_from_slice(&pp);
        assert_eq!(gp, e.reference_decode(&full_p, 4), "parent after fork");
    }

    #[test]
    fn opt_family_also_served_correctly() {
        let cfg = ModelConfig::tiny_opt();
        let mut e = FunctionalEngine::new(&cfg, 15, FunctionalConfig::default());
        let conv = SessionId(1);
        let p1 = prompt(3, 5, cfg.vocab_size as u32);
        let g1 = e.serve_turn(conv, &p1, 3);
        let mut full = p1.clone();
        assert_eq!(g1, e.reference_decode(&full, 3));
        full.extend_from_slice(&g1);
        let p2 = prompt(4, 4, cfg.vocab_size as u32);
        let g2 = e.serve_turn(conv, &p2, 3);
        full.extend_from_slice(&p2);
        assert_eq!(g2, e.reference_decode(&full, 3));
    }
}
