//! A functional (real-math) serving engine for end-to-end validation.
//!
//! [`FunctionalEngine`] serves multi-turn conversations with the tiny
//! transformer from `pensieve-kernels` and *executes* the paper's cache
//! manager (§4.3) on real K/V bytes. A [`TieredKvCache`] it owns makes
//! every decision — chunk-granular eviction in its policy's order, lazy
//! GPU reclamation, demotion down the host ladder, dropping — and after
//! each call the engine moves the bytes to match, one chunk per
//! [`PagedKvCache`] block:
//!
//! * a chunk the cache places on the GPU, resident or lazily copied, has
//!   a pool block;
//! * one on a host rung (CPU, SSD or cold) has checksummed bytes in one
//!   host map, copied out when the cache reclaims its GPU slot — the
//!   lazy copy, made at the last moment it can be;
//! * a dropped one has neither, and the turn that restores it recomputes
//!   it from the raw tokens in [`TokenChunkStore`] as a leading
//!   sub-request (paper Figure 8).
//!
//! Host-memory faults route through the cache as the simulated engine's
//! do. Because every step does real arithmetic, the tests can assert the
//! strongest property the design must preserve: **a stateful engine's
//! output tokens are identical to stateless recomputation from scratch**
//! under every eviction policy and ladder — a chunk restored or
//! recomputed at the wrong position would change the logits.

use std::collections::BTreeMap;
use std::fmt;

use pensieve_kernels::model::{SegmentInput, SeqInput, TinyModel};
use pensieve_kernels::ops::argmax;
use pensieve_kernels::paged::{BlockTable, OutOfBlocks, PagedKvCache};
use pensieve_kvcache::{
    fnv1a, CacheConfig, CacheError, SessionId, Tier, TieredKvCache, TieredKvCacheBuilder,
    TokenChunkStore,
};
use pensieve_model::{ModelConfig, SimTime};
use pensieve_sim::{FaultCounters, FaultInjector, FaultKind};

/// KV data of one block held on a host rung.
struct HostBlock {
    /// The block as [`PagedKvCache::read_block`] copied it out.
    kv: Vec<f32>,
    /// [`checksum`] of `kv`, taken when the bytes left the pool and
    /// verified before the owner's restore, so silent host-memory
    /// corruption downgrades to a recompute instead of poisoning the KV
    /// state.
    checksum: u64,
}

/// FNV-1a over the bit patterns of every float.
fn checksum(kv: &[f32]) -> u64 {
    fnv1a(kv.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Configuration of the functional engine's memory system.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Tokens per KV block, and per cache chunk.
    pub block_size: usize,
    /// Physical GPU-pool blocks.
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

impl FunctionalConfig {
    /// The cache this memory system executes: one chunk per block, the
    /// pool and the stash as the GPU and CPU tiers.
    fn cache_config(&self) -> CacheConfig {
        let (bs, pool) = (self.block_size, self.pool_blocks);
        CacheConfig {
            swap_watermark: (self.free_watermark as f64 / pool as f64).min(0.25),
            decode_reserve: 0.0,
            ..CacheConfig::for_test(bs, pool * bs, self.stash_blocks * bs)
        }
    }
}

/// Greedy decoding of one turn, shared by every engine that serves one:
/// a pass over `prefill` (whose last segment ends at the turn's context
/// length), then one single-token pass per further token, each fed the
/// previous pass's argmax at the next position. `forward` returns the
/// logits of the pass's last token.
pub(crate) fn greedy_turn<E>(
    prefill: Vec<SegmentInput>,
    max_new: usize,
    mut forward: impl FnMut(Vec<SegmentInput>) -> Result<Vec<f32>, E>,
) -> Result<Vec<u32>, E> {
    let mut start_pos = prefill.last().map_or(0, |s| s.start_pos + s.tokens.len());
    let mut generated = vec![argmax(&forward(prefill)?) as u32];
    while generated.len() < max_new {
        let tokens = generated[generated.len() - 1..].to_vec();
        generated.push(argmax(&forward(vec![SegmentInput { tokens, start_pos }])?) as u32);
        start_pos += 1;
    }
    Ok(generated)
}

/// Unwraps a step the cache has made room for. Failing means the pool
/// cannot hold one turn's working set: the panic `serve_turn` documents.
fn fits<T: Default + fmt::Debug, E: fmt::Debug>(step: Result<T, E>) -> T {
    assert!(step.is_ok(), "GPU pool too small: {step:?}");
    step.unwrap_or_default()
}

/// The functional serving engine.
///
/// Sizing: the cache is charged whole blocks. A conversation that ends
/// mid-block holds its whole trailing block and is charged for it (13
/// tokens in 4-token blocks are 16 slots, charged 16), so the cache's
/// GPU occupancy is exactly the pool's used blocks and any number of
/// conversations may end mid-block. A turn fits when its conversation's
/// context, prompt and `max_new` tokens, rounded up to whole blocks, fit
/// in `pool_blocks`: everything else can be evicted.
pub struct FunctionalEngine {
    model: TinyModel,
    pool: PagedKvCache,
    block_size: usize,
    cache: TieredKvCache,
    /// Each conversation's logical-to-physical map: block `i` holds
    /// chunk `i`. The conversation being served holds its own.
    tables: BTreeMap<SessionId, BlockTable>,
    /// Bytes of every chunk the cache places on a host rung, keyed by
    /// (conversation, chunk).
    host: BTreeMap<(SessionId, usize), HostBlock>,
    store: TokenChunkStore,
    /// Turns served: the cache's clock, one simulated second each.
    turns: u64,
    /// Optional deterministic fault source targeting the host tiers.
    faults: Option<FaultInjector>,
}

impl FunctionalEngine {
    /// Builds an engine with deterministic random weights, executing a
    /// two-tier [`TieredKvCache`] under the builder's default policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has a zero block size or pool.
    #[must_use]
    pub fn new(model_cfg: &ModelConfig, seed: u64, cfg: FunctionalConfig) -> Self {
        let cache = TieredKvCache::builder(cfg.cache_config());
        Self::with_cache(model_cfg, seed, cfg, cache)
    }

    /// [`FunctionalEngine::new`] executing the cache `cache` builds over
    /// `cfg`'s capacities — another policy, or a deeper ladder.
    pub(crate) fn with_cache(
        model_cfg: &ModelConfig,
        seed: u64,
        cfg: FunctionalConfig,
        cache: TieredKvCacheBuilder,
    ) -> Self {
        assert!(cfg.block_size > 0 && cfg.pool_blocks > 0);
        let model = TinyModel::new_random(model_cfg, seed);
        let layout = model.kv_layout(cfg.block_size);
        FunctionalEngine {
            pool: PagedKvCache::new(layout, model_cfg.num_layers, cfg.pool_blocks),
            model,
            block_size: cfg.block_size,
            cache: cache.build(),
            tables: BTreeMap::new(),
            host: BTreeMap::new(),
            store: TokenChunkStore::new(cfg.block_size),
            turns: 0,
            faults: None,
        }
    }

    /// Installs a deterministic fault injector. Each turn it may destroy
    /// a CPU-tier copy (loss) or flip a bit in held host bytes
    /// (corruption, caught by the checksum before the owner's restore);
    /// both downgrade to recomputation, so outputs stay bit-identical to
    /// the fault-free run.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Faults injected so far, if an injector is installed.
    #[must_use]
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(FaultInjector::counters)
    }

    /// Blocks whose CPU-tier copy injected loss destroyed, and blocks
    /// invalidated by a failed checksum (on a deep rung the cache drops
    /// the conversation's deep blocks, as after a failed deep read).
    #[must_use]
    pub fn fault_activity(&self) -> (u64, u64) {
        let (s, bs) = (self.cache.stats(), self.block_size as u64);
        let corrupt = s.corrupted_chunk_tokens + s.cold_read_fault_tokens;
        (s.lost_chunk_tokens / bs, corrupt / bs)
    }

    /// Sets the number of worker threads used by the model's batched
    /// compute kernels (see
    /// [`TinyModel::set_threads`]). Served tokens are bit-identical at
    /// every setting, so this is purely a latency knob.
    pub fn set_compute_threads(&mut self, threads: usize) {
        self.model.set_threads(threads);
    }

    /// Full raw history of a conversation, composed back into logical
    /// order from the store's shared chunk chain and private tail.
    #[must_use]
    pub fn history(&self, conv: SessionId) -> Vec<u32> {
        let view = self.store.view(conv);
        view.map(|v| v.to_vec()).unwrap_or_default()
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
        self.store.fork(parent, child)
    }

    /// `(physical, logical)` raw-token counts in the chunked store; the
    /// ratio is the store's dedup factor across forked conversations.
    #[must_use]
    pub fn store_dedup(&self) -> (usize, usize) {
        (self.store.physical_tokens(), self.store.logical_tokens())
    }

    /// Blocks swapped out (lazy copies included) / brought back from a
    /// host rung / dropped, and tokens recomputed (whole blocks), as the
    /// cache counted them.
    #[must_use]
    pub fn cache_activity(&self) -> (u64, u64, u64, u64) {
        let (s, bs) = (self.cache.stats(), self.block_size as u64);
        let restored = s.swapped_in_tokens + s.ssd_hit_tokens + s.cold_hit_tokens;
        let [out, restored, dropped] =
            [s.swapped_out_tokens, restored, s.dropped_tokens].map(|t| t / bs);
        (out, restored, dropped, s.recomputed_tokens)
    }

    /// Serves one conversation turn: processes `prompt` on top of the
    /// conversation's cached context and greedily decodes `max_new`
    /// tokens. Returns the generated tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty, `max_new` is zero, or the GPU pool is
    /// too small to hold a single turn's working set.
    pub fn serve_turn(&mut self, conv: SessionId, prompt: &[u32], max_new: usize) -> Vec<u32> {
        assert!(!prompt.is_empty() && max_new > 0);
        self.turns += 1;
        let now = SimTime::from_secs(self.turns as f64);
        self.fault_tick();
        self.reject_corrupt(conv, now);

        // Restore: room for what the plan brings back, the plan, then a
        // block for every chunk it brought onto the GPU — filled from the
        // host map, or recomputed below if it was dropped.
        self.make_room(conv, self.cache.plan_restore(conv).new_gpu_slots(), now);
        let plan = fits(self.cache.commit_restore(conv, now));
        self.release();
        let bs = self.block_size;
        let mut table = self.tables.remove(&conv).unwrap_or(BlockTable::new(bs));
        let cached = table.len();
        for (b, phys) in fits(table.refill(&mut self.pool, 0..cached.div_ceil(bs))) {
            if let Some(bytes) = self.host.remove(&(conv, b)) {
                self.pool.write_block(phys, &bytes.kv);
            }
        }

        // Prefill: the dropped ranges as leading sub-requests, then the
        // raw history past the cached context (at least the previous
        // turn's final token) and the prompt.
        self.store.append(conv, prompt);
        let history = self.history(conv);
        let recompute = plan.recompute_ranges().into_iter();
        let segments = recompute
            .map(|r| r.start..r.end.min(cached))
            .chain(std::iter::once(cached..history.len()))
            .map(|r| SegmentInput {
                start_pos: r.start,
                tokens: history[r].to_vec(),
            })
            .collect();

        // Decode: the cache is charged for each block a pass opens.
        let generated = fits(greedy_turn(segments, max_new, |segments| {
            let end = segments.last().map_or(0, |s| s.start_pos + s.tokens.len());
            let tokens = (end.div_ceil(bs) - table.len().div_ceil(bs)) * bs;
            if tokens > 0 {
                self.make_room(conv, tokens, now);
                fits(self.cache.append_tokens(conv, tokens, now));
                self.release();
            }
            let table = &mut table;
            let batch = &mut [SeqInput { segments, table }];
            let logits = self.model.forward(&mut self.pool, batch)?;
            Ok::<_, OutOfBlocks>(logits.row(0).to_vec())
        }));
        self.tables.insert(conv, table);
        self.store.append(conv, &generated);
        self.cache.unpin(conv);
        self.cache.touch(conv, now);
        generated
    }

    /// Stateless reference: greedy decode of `max_new` tokens after
    /// `context`, recomputing everything from scratch each step.
    #[must_use]
    pub fn reference_decode(&self, context: &[u32], max_new: usize) -> Vec<u32> {
        let mut ctx = context.to_vec();
        for _ in 0..max_new {
            ctx.push(argmax(&self.model.forward_dense(&ctx)) as u32);
        }
        ctx.split_off(context.len())
    }

    /// Has the cache make `tokens` GPU slots (at least the swap
    /// watermark) effectively free for `conv`, and executes its
    /// evictions.
    fn make_room(&mut self, conv: SessionId, tokens: usize, now: SimTime) {
        let target = tokens.max(self.cache.config().swap_trigger_tokens());
        self.cache.swap_out_until_for(target, Some(conv), now);
        self.release();
    }

    /// Executes the cache's evictions on the bytes: a block whose chunk
    /// the cache no longer places on the GPU is freed — copied out first
    /// if the chunk went to a host rung — and a dropped chunk's host
    /// bytes go. The conversation being served holds its own table and
    /// is skipped: it is pinned, so nothing of it moves.
    fn release(&mut self) {
        let bs = self.block_size;
        for (&conv, table) in &mut self.tables {
            let plan = self.cache.plan_restore(conv);
            for (range, tier) in plan.segments.into_iter().filter(|s| s.1 != Tier::Gpu) {
                let blocks = range.start / bs..range.end.div_ceil(bs);
                for b in blocks.clone() {
                    if tier == Tier::Dropped {
                        self.host.remove(&(conv, b));
                    } else if let Some(phys) = table.get_block(b) {
                        let kv = self.pool.read_block(phys);
                        let checksum = checksum(&kv);
                        self.host.insert((conv, b), HostBlock { kv, checksum });
                    }
                }
                table.free_blocks(&mut self.pool, blocks);
            }
        }
    }

    /// One fault opportunity per turn against the host tiers, routed
    /// through the cache as the simulated engine's are: an injected loss
    /// destroys a CPU-tier copy the cache lists (the chunk is dropped, or
    /// keeps its GPU bytes if the copy was lazy); an injected corruption
    /// flips a bit of some held host bytes, which the owner's checksum
    /// check catches.
    fn fault_tick(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let listing = self.cache.cpu_resident_chunks();
        if !listing.is_empty() && f.roll(FaultKind::CpuChunkLoss) {
            let (conv, chunk, _) = listing[f.pick(listing.len())];
            if self.cache.mark_chunk_lost(conv, chunk).is_ok() {
                self.host.remove(&(conv, chunk));
            }
        }
        if !self.host.is_empty() && f.roll(FaultKind::CpuChunkCorruption) {
            let at = f.pick(self.host.len());
            let victim = self.host.values_mut().nth(at);
            // Flip a mantissa bit of the first stored value; the stale
            // checksum now disagrees with the data.
            if let Some(x) = victim.and_then(|b| b.kv.first_mut()) {
                *x = f32::from_bits(x.to_bits() ^ 0x0000_0400);
            }
        }
    }

    /// The checksum check before `conv`'s restore: held bytes that no
    /// longer match are reported to the cache, whose plan then
    /// recomputes them — a CPU copy as corrupt, a block demoted since as
    /// a failed deep read (the cache drops the conversation's deep run).
    fn reject_corrupt(&mut self, conv: SessionId, now: SimTime) {
        let held = self.host.range((conv, 0)..=(conv, usize::MAX));
        let bad = held.filter(|(_, b)| checksum(&b.kv) != b.checksum);
        let bad: Vec<usize> = bad.map(|(&(_, chunk), _)| chunk).collect();
        for chunk in bad {
            if self.cache.mark_chunk_corrupt(conv, chunk).is_err() {
                self.cache.drop_deep_chunks(conv, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_kvcache::{
        CachedAttentionPolicy, EvictionPolicy, LruPolicy, RetentionValuePolicy, TrailingEndPolicy,
    };
    use pensieve_model::{CostModel, HardwareSpec, ProfiledCostTable};
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

    /// The executor and the cache agree: a chunk has a pool block
    /// exactly when the cache places it on the GPU (resident or lazily
    /// copied), host bytes exactly when it places it on a host rung, and
    /// neither pool nor host map holds anything else.
    fn assert_agrees(e: &FunctionalEngine, cell: &str) {
        assert_eq!(e.cache.check_invariants(), Ok(()), "{cell}");
        let bs = e.block_size;
        let (mut on_gpu, mut on_host) = (0, 0);
        for conv in e.cache.sessions() {
            let table = &e.tables[&conv];
            for (range, tier) in e.cache.plan_restore(conv).segments {
                for b in range.start / bs..range.end.div_ceil(bs) {
                    let gpu = tier == Tier::Gpu;
                    let host = matches!(tier, Tier::Cpu | Tier::Ssd | Tier::Cold);
                    let at = format!("{cell}: {conv:?} chunk {b} in {tier:?}");
                    assert_eq!(table.get_block(b).is_some(), gpu, "{at}: pool block");
                    assert_eq!(e.host.contains_key(&(conv, b)), host, "{at}: host bytes");
                    on_gpu += usize::from(gpu);
                    on_host += usize::from(host);
                }
            }
        }
        let used = e.pool.num_blocks() - e.pool.num_free();
        assert_eq!(used, on_gpu, "{cell}: pool blocks the cache does not place");
        assert_eq!(
            e.host.len(),
            on_host,
            "{cell}: host bytes the cache does not place"
        );
    }

    /// The four eviction policies, fresh.
    fn policies() -> Vec<Box<dyn EvictionPolicy>> {
        let cost = CostModel::new(ModelConfig::tiny_llama(), HardwareSpec::azure_nc_a100(1));
        vec![
            Box::new(RetentionValuePolicy::new(ProfiledCostTable::profile(
                &cost, 4, 4096,
            ))),
            Box::new(LruPolicy),
            Box::new(CachedAttentionPolicy),
            Box::new(TrailingEndPolicy),
        ]
    }

    /// Every policy × {two-tier, deep} ladder × {clean, seeded faults}:
    /// each turn equals stateless decoding, the bytes agree with the
    /// cache's placement after every turn, and every cell swaps in and
    /// recomputes — and, with faults, has faults bite.
    #[test]
    fn policy_ladder_fault_matrix_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let vocab = cfg.vocab_size as u32;
        let mem = FunctionalConfig {
            block_size: 4,
            pool_blocks: 16,
            stash_blocks: 12,
            free_watermark: 2,
        };
        for p in 0..4 {
            for deep in [false, true] {
                for faulty in [false, true] {
                    let policy = policies().swap_remove(p);
                    let cell = format!("{} deep={deep} faulty={faulty}", policy.name());
                    let builder = TieredKvCache::builder(mem.cache_config()).policy(policy);
                    let builder = if deep {
                        builder.deep_tiers(8, 8)
                    } else {
                        builder
                    };
                    let mut e = FunctionalEngine::with_cache(&cfg, 19, mem.clone(), builder);
                    if faulty {
                        e.set_fault_injector(FaultInjector::new(FaultConfig {
                            cpu_chunk_loss: 0.5,
                            cpu_chunk_corruption: 0.5,
                            ..FaultConfig::disabled(fault_seed())
                        }));
                    }
                    let mut transcripts = vec![Vec::new(); 3];
                    for turn in 0..5u32 {
                        for (c, t) in transcripts.iter_mut().enumerate() {
                            let p = prompt(turn * 3 + c as u32, 6, vocab);
                            let got = e.serve_turn(SessionId(c as u64), &p, 3);
                            t.extend_from_slice(&p);
                            let want = e.reference_decode(t, 3);
                            assert_eq!(got, want, "{cell}: conv {c} turn {turn}");
                            t.extend_from_slice(&got);
                            assert_agrees(&e, &cell);
                        }
                    }
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

    /// Block fragmentation is reconciled: the cache is charged whole
    /// blocks, so conversations ending mid-block cannot strand the pool.
    /// Ten conversations — more than the pool has blocks — each end
    /// inside a block (6 tokens, then 13), and every one returns.
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
                assert_ne!(e.tables[&conv].len() % 4, 0, "conv {c} ends mid-block");
                assert_agrees(&e, "fragmentation");
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
        for turn in 0..4 {
            for &conv in &[a, b] {
                let p = prompt(60 + turn * 2 + conv.0 as u32, 6, cfg.vocab_size as u32);
                let want = clean.serve_turn(conv, &p, 4);
                let got = faulty.serve_turn(conv, &p, 4);
                assert_eq!(got, want, "conv {} turn {turn}", conv.0);
            }
        }
        let (lost, corrupt) = faulty.fault_activity();
        assert!(lost > 0, "injected losses must have destroyed stash blocks");
        assert!(corrupt > 0, "checksum must have caught a corrupted block");
        let ctrs = faulty.fault_counters().expect("injector installed");
        assert_eq!(ctrs.cpu_chunk_losses, lost);
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
