//! The real executor: [`SimServingEngine`](crate::SimServingEngine)
//! borrows one for every tick it runs through `run_on` and carries the
//! tick out on real K/V bytes (see [`crate::functional`]).
//!
//! Each tick it first moves the K/V bytes to match the tick's cache calls,
//! one chunk per [`PagedKvCache`] block:
//!
//! * a chunk the cache places on the GPU, resident or lazily copied, has
//!   a pool block;
//! * one on a host rung (CPU, SSD or cold) has checksummed bytes in one
//!   host map, copied out when the cache reclaims its GPU slot — the
//!   lazy copy, made at the last moment it can be;
//! * a dropped one has neither, and the row that restores it recomputes
//!   it from the raw tokens in [`TokenChunkStore`] as a leading
//!   sub-request (paper Figure 8).
//!
//! Then the whole batch — prefill rows with their dropped-range
//! sub-requests, chunked-prefill slices and decode rows — runs through
//! one [`TinyModel::forward`] call, and every row that reaches its
//! conversation's last token appends the argmax to the store. A chunk
//! that leaves the GPU before any tick wrote it (a request suspended in
//! the tick its growth opened the chunk) goes to the host map as a block
//! of zeros. A tick that runs no batch (possible only under injected
//! faults) moves no bytes; the next batch's sync catches up, and the
//! bytes it copies out are untouched meanwhile.

use std::collections::BTreeMap;

use pensieve_kernels::model::{SegmentInput, SeqInput, TinyModel};
use pensieve_kernels::ops::argmax;
use pensieve_kernels::paged::{BlockTable, PagedKvCache};
use pensieve_kvcache::{SessionId, Tier, TieredKvCache, TokenChunkStore};
use pensieve_model::{ModelConfig, SimTime};
use pensieve_sim::FaultInjector;

use crate::functional::FunctionalConfig;

/// FNV-1a's 64-bit step over the bit pattern of every float, one 32-bit
/// word per step instead of one byte. Each step is a bijection of the
/// running sum for a fixed word and of the word for a fixed sum, so
/// changing any one word, a single flipped bit included, always changes
/// the result.
fn checksum(kv: &[f32]) -> u64 {
    kv.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The model, the paged pool, the host map and the raw-token store.
pub(crate) struct Executor {
    pub(crate) model: TinyModel,
    pool: PagedKvCache,
    /// Each conversation's logical-to-physical map: block `i` holds
    /// chunk `i`.
    tables: BTreeMap<SessionId, BlockTable>,
    /// `(checksum, bytes)` of every chunk the cache places on a host rung,
    /// keyed by (conversation, chunk). The checksum is taken when the
    /// bytes leave the pool and verified before the owner's restore, so
    /// silent host-memory corruption downgrades to a recompute instead of
    /// poisoning the KV state.
    host: BTreeMap<(SessionId, usize), (u64, Vec<f32>)>,
    /// Computed positions whose bytes were dropped and whose block is back
    /// in the pool: the conversation's next rows recompute them first.
    stale: BTreeMap<SessionId, Vec<usize>>,
    pub(crate) store: TokenChunkStore,
    /// Held host blocks whose checksum failed before a restore.
    pub(crate) corrupt: u64,
}

impl Executor {
    /// An executor with `seed`'s deterministic random weights for `cfg`'s
    /// memory system. Its pool may hold one block per slot of the GPU
    /// budget — every GPU chunk holds at least one slot the cache charges,
    /// so no allocation the cache granted fails — and costs memory only
    /// for the blocks it has used.
    pub(crate) fn new(model_cfg: &ModelConfig, seed: u64, cfg: &FunctionalConfig) -> Self {
        let (bs, model) = (cfg.block_size, TinyModel::new_random(model_cfg, seed));
        let slots = cfg.pool_blocks * bs;
        Executor {
            pool: PagedKvCache::new(model.kv_layout(bs), model_cfg.num_layers, slots),
            model,
            tables: BTreeMap::new(),
            host: BTreeMap::new(),
            stale: BTreeMap::new(),
            store: TokenChunkStore::new(bs),
            corrupt: 0,
        }
    }

    /// Moves the bytes to match the cache. A block whose chunk the cache
    /// no longer places on the GPU is freed — copied out first if the
    /// chunk went to a host rung, where an unwritten chunk with no block
    /// is zeros — and a dropped chunk's host bytes go.
    /// Then every running conversation gets a block for each of its
    /// chunks, filled from the host map if the chunk came back from a
    /// host rung and otherwise recomputed or written by its next rows.
    fn sync(&mut self, cache: &TieredKvCache, running: impl Iterator<Item = SessionId>) {
        let bs = self.pool.layout().block_size;
        let zeros = 2 * self.pool.layout().block_floats() * self.model.config().num_layers;
        for (&conv, table) in &mut self.tables {
            let plan = cache.plan_restore(conv);
            for (range, tier) in plan.segments.into_iter().filter(|s| s.1 != Tier::Gpu) {
                let blocks = range.start / bs..range.end.div_ceil(bs);
                for b in blocks.clone() {
                    if tier == Tier::Dropped {
                        self.host.remove(&(conv, b));
                    } else if let Some(phys) = table.get_block(b) {
                        let kv = self.pool.read_block(phys);
                        self.host.insert((conv, b), (checksum(&kv), kv));
                    } else if b * bs >= table.len() {
                        let kv = vec![0.0; zeros];
                        self.host.entry((conv, b)).or_insert((checksum(&kv), kv));
                    }
                }
                table.free_blocks(&mut self.pool, blocks);
            }
        }
        for conv in running {
            let table = self.tables.entry(conv).or_insert(BlockTable::new(bs));
            let blocks = 0..cache.conversation_tokens(conv).div_ceil(bs);
            let filled = table.refill(&mut self.pool, blocks);
            assert!(filled.is_ok(), "a block the cache granted is missing");
            let stale = self.stale.entry(conv).or_default();
            for (b, phys) in filled.into_iter().flatten() {
                match self.host.remove(&(conv, b)) {
                    Some((_, kv)) => self.pool.write_block(phys, &kv),
                    None => stale.extend(b * bs..table.len().min((b + 1) * bs)),
                }
            }
        }
    }

    /// Carries one tick out: moves the bytes to match the cache, then runs
    /// the batch through one forward pass. Each row is a running
    /// conversation and, for a chunked-prefill slice that leaves prefill
    /// work, the query tokens it takes; a row without that limit runs to
    /// its conversation's last token and appends the next. A row takes
    /// its stale positions first, as leading sub-requests, then the
    /// positions past its table.
    pub(crate) fn execute(&mut self, cache: &TieredKvCache, rows: &[(SessionId, Option<usize>)]) {
        self.sync(cache, rows.iter().map(|&(conv, _)| conv));
        let mut batch = Vec::with_capacity(rows.len());
        for &(conv, limit) in rows {
            let table = self.tables.remove(&conv).unwrap_or_default();
            let (computed, end) = (table.len(), self.store.len(conv));
            let mut todo = self.stale.remove(&conv).unwrap_or_default();
            todo.extend(computed..end);
            let rest = todo.split_off(limit.map_or(todo.len(), |n| n.min(todo.len())));
            self.stale
                .insert(conv, rest.into_iter().filter(|&p| p < computed).collect());
            if todo.is_empty() {
                // Everything is computed: the last token's pass runs again
                // in place, with the same bits.
                todo.push(end - 1);
            }
            let view = self.store.view(conv);
            let segments = todo.chunk_by(|a, b| a + 1 == *b).map(|run| {
                let span = run[0]..run[0] + run.len();
                let tokens = view.as_ref().ok().and_then(|v| v.slice(span).ok());
                assert!(tokens.is_some(), "{conv:?}: a row runs past its tokens");
                SegmentInput {
                    tokens: tokens.unwrap_or_default(),
                    start_pos: run[0],
                }
            });
            batch.push((conv, table, segments.collect(), limit.is_none()));
        }
        let mut seqs: Vec<_> = batch
            .iter_mut()
            .map(|(_, table, segments, _)| SeqInput {
                segments: std::mem::take(segments),
                table,
            })
            .collect();
        let logits = self.model.forward(&mut self.pool, &mut seqs);
        assert!(logits.is_ok(), "a row outgrew its cache charge");
        for (i, (conv, table, _, emits)) in batch.into_iter().enumerate() {
            self.tables.insert(conv, table);
            if let (true, Ok(logits)) = (emits, &logits) {
                self.store.append(conv, &[argmax(logits.row(i)) as u32]);
            }
        }
    }

    /// `conv`'s raw tokens, in logical order.
    pub(crate) fn history(&self, conv: SessionId) -> Vec<u32> {
        let view = self.store.view(conv);
        view.map(|v| v.to_vec()).unwrap_or_default()
    }

    /// The checksum check before `conv`'s restore: held bytes that no
    /// longer match are discarded and reported to the cache, whose plan
    /// then recomputes them — a CPU copy as corrupt, a block demoted since
    /// as a failed deep read (the cache drops the conversation's deep
    /// run).
    pub(crate) fn verify(&mut self, conv: SessionId, cache: &mut TieredKvCache, now: SimTime) {
        let held = self.host.range((conv, 0)..=(conv, usize::MAX));
        let bad = held.filter(|(_, (sum, kv))| checksum(kv) != *sum);
        let bad: Vec<usize> = bad.map(|(&(_, chunk), _)| chunk).collect();
        for chunk in bad {
            self.host.remove(&(conv, chunk));
            self.corrupt += 1;
            if cache.mark_chunk_corrupt(conv, chunk).is_err() {
                cache.drop_deep_chunks(conv, now);
            }
        }
    }

    /// An injected corruption: flips a mantissa bit of the first value of
    /// some held host bytes, so their checksum no longer matches.
    pub(crate) fn corrupt_host_bytes(&mut self, faults: &mut FaultInjector) {
        let at = (!self.host.is_empty()).then(|| faults.pick(self.host.len()));
        let victim = at.and_then(|at| self.host.values_mut().nth(at));
        if let Some(x) = victim.and_then(|(_, kv)| kv.first_mut()) {
            *x = f32::from_bits(x.to_bits() ^ 0x0000_0400);
        }
    }
}

#[cfg(test)]
impl Executor {
    /// Positions of `conv` whose K/V the pool holds or held.
    pub(crate) fn computed(&self, conv: SessionId) -> usize {
        self.tables.get(&conv).map_or(0, BlockTable::len)
    }

    /// Asserts the bytes agree with `cache`: a chunk has a pool block
    /// exactly when the cache places it on the GPU (resident or lazily
    /// copied), host bytes exactly when it places it on a host rung, and
    /// neither pool nor host map holds anything else. The pool holds at
    /// most one block per conversation beyond the cache's GPU budget.
    pub(crate) fn assert_agrees(&self, cache: &TieredKvCache, cell: &str) {
        assert_eq!(cache.check_invariants(), Ok(()), "{cell}");
        let bs = self.pool.layout().block_size;
        let (mut on_gpu, mut on_host) = (0, 0);
        for conv in cache.sessions() {
            let table = &self.tables[&conv];
            for (range, tier) in cache.plan_restore(conv).segments {
                for b in range.start / bs..range.end.div_ceil(bs) {
                    let gpu = tier == Tier::Gpu;
                    let host = matches!(tier, Tier::Cpu | Tier::Ssd | Tier::Cold);
                    let at = format!("{cell}: {conv:?} chunk {b} in {tier:?}");
                    assert_eq!(table.get_block(b).is_some(), gpu, "{at}: pool block");
                    assert_eq!(self.host.contains_key(&(conv, b)), host, "{at}: host bytes");
                    on_gpu += usize::from(gpu);
                    on_host += usize::from(host);
                }
            }
        }
        let used = self.pool.num_blocks() - self.pool.num_free();
        assert_eq!(used, on_gpu, "{cell}: pool blocks the cache does not place");
        let budget = cache.config().gpu_capacity_tokens / bs;
        let convs = cache.sessions().len();
        assert!(
            used <= budget + convs,
            "{cell}: {used} blocks, budget {budget}"
        );
        let held = self.host.len();
        assert_eq!(held, on_host, "{cell}: host bytes the cache does not place");
    }
}
