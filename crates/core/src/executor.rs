//! The real executor: [`SimServingEngine`](crate::SimServingEngine)
//! borrows one for every tick it runs through `run_on` and carries the
//! tick out on real K/V bytes (see [`crate::functional`]), whatever the
//! model's shard count ([`PagedModel`]).
//!
//! Each tick it first moves the K/V bytes to match the tick's cache calls,
//! one chunk per block:
//!
//! * a chunk the cache places on the GPU, resident or lazily copied, has
//!   a block, numbered once for every shard by the executor's pool;
//! * one on a host rung (CPU, SSD or cold) has checksummed full-width
//!   bytes in one host map, copied out when the cache reclaims its GPU
//!   slot — the lazy copy, made at the last moment it can be;
//! * a dropped one has neither, and the row that restores it recomputes
//!   it from the raw tokens in [`TokenChunkStore`] as a leading
//!   sub-request (paper Figure 8).
//!
//! The sync's walk scales with what moved: it re-plans only the
//! conversations whose [`TieredKvCache::placement_stamp`] is past the
//! [`TieredKvCache::placement_clock`] it read at its last sync, and
//! refills blocks for the tick's running ones; every other conversation
//! costs one stamp lookup. The invariant that makes the skip exact: the
//! cache stamps a conversation from its one move clock whenever one of
//! its chunks changes tier, so an unstamped
//! conversation's plan differs from the one the last sync carried out
//! only by GPU tokens appended to its tail, which move no byte. Test
//! builds re-plan every conversation after each sync and assert it.
//!
//! Then the whole batch — prefill rows with their dropped-range
//! sub-requests, chunked-prefill slices and decode rows — runs through
//! one forward pass, and every row that reaches its conversation's last
//! token appends the argmax to the store. A chunk that leaves the GPU
//! before any tick wrote it (a request suspended in the tick its growth
//! opened the chunk) goes to the host map as a block of zeros. A tick
//! that runs no batch (possible only under injected faults) moves no
//! bytes; the next batch's sync catches up, and the bytes it copies out
//! are untouched meanwhile. Once the model fails (a worker of the
//! threaded fleet died) the executor does nothing more.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use pensieve_kernels::model::{PagedModel, SegmentInput, SeqInput};
use pensieve_kernels::ops::argmax;
use pensieve_kernels::paged::{BlockTable, PagedKvCache};
use pensieve_kvcache::{SessionId, Tier, TieredKvCache, TokenChunkStore};
use pensieve_model::SimTime;
use pensieve_sim::FaultInjector;

use crate::functional::FunctionalConfig;

/// FNV-1a's 64-bit offset basis and prime.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// One FNV-1a step over a 32-bit word instead of a byte. For a fixed
/// word it is a bijection of the running sum (xor, then a multiply by an
/// odd constant), and for a fixed sum a bijection of the word.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Lanes of [`checksum`].
const LANES: usize = 8;

/// FNV-1a over the bit pattern of every float, in [`LANES`] independent
/// lanes: word `i` goes into lane `i % LANES` (a length that is not a
/// multiple of the lane count leaves the last lanes a word short), and
/// then the lanes' sums go, in lane order, through the same step from
/// the basis.
/// The lanes have no data dependence on each other, so they overlap in
/// the pipeline instead of serializing one multiply chain. Changing any
/// one word, a single flipped bit included, always changes the result:
/// it changes its lane's sum, since every later step of that lane is a
/// bijection of the sum; the other lanes' sums are as they were, and the
/// final fold is a bijection of each lane's sum for the others fixed.
fn checksum(kv: &[f32]) -> u64 {
    let (groups, rest) = kv.as_chunks::<LANES>();
    let mut lanes = [FNV_BASIS; LANES];
    for group in groups {
        for (h, x) in lanes.iter_mut().zip(group) {
            *h = fnv(*h, u64::from(x.to_bits()));
        }
    }
    for (h, x) in lanes.iter_mut().zip(rest) {
        *h = fnv(*h, u64::from(x.to_bits()));
    }
    lanes.into_iter().fold(FNV_BASIS, fnv)
}

/// The model, its blocks, the host map and the raw-token store.
pub(crate) struct Executor<M: PagedModel> {
    pub(crate) model: M,
    /// Numbers the blocks of every table — and, for the whole model,
    /// stores them.
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
    /// The cache's move clock at the last sync: a conversation stamped
    /// no later has nothing to move.
    synced: u64,
    /// Host-map buffers whose bytes went back to the pool or were
    /// dropped, for the next copy-out.
    spare: Spare,
}

/// Host buffers [`Spare`] keeps: a few ticks' churn. Keeping every freed
/// one instead held 1.4 MB more at the peak on the benchmark's
/// `functional_chat`, memory the allocator would otherwise reuse.
const SPARE_BUFFERS: usize = 32;

/// Freed host-map buffers, at most [`SPARE_BUFFERS`], reused by the
/// next copy-outs.
#[derive(Default)]
struct Spare(Vec<Vec<f32>>);

impl Spare {
    /// A buffer to copy a block into: a kept one, or a new one.
    fn take(&mut self) -> Vec<f32> {
        self.0.pop().unwrap_or_default()
    }

    /// Keeps `kv`'s buffer, or frees it if enough are kept.
    fn put(&mut self, kv: Vec<f32>) {
        if self.0.len() < SPARE_BUFFERS {
            self.0.push(kv);
        }
    }
}

impl<M: PagedModel> Executor<M> {
    /// An executor running `model` on `cfg`'s memory system. It may use
    /// one block per slot of the GPU budget — every GPU chunk holds at
    /// least one slot the cache charges, so no allocation the cache
    /// granted fails — and a pool costs memory only for the blocks it
    /// has used.
    pub(crate) fn new(model: M, cfg: &FunctionalConfig) -> Self {
        let bs = cfg.block_size;
        Executor {
            pool: model.pool(bs, cfg.pool_blocks * bs),
            model,
            tables: BTreeMap::new(),
            host: BTreeMap::new(),
            stale: BTreeMap::new(),
            store: TokenChunkStore::new(bs),
            corrupt: 0,
            synced: 0,
            spare: Spare::default(),
        }
    }

    /// Moves the bytes to match the cache. A block whose chunk the cache
    /// no longer places on the GPU is freed — copied out first if the
    /// chunk went to a host rung, where an unwritten chunk with no block
    /// is zeros — and a dropped chunk's host bytes go. Only conversations
    /// the cache stamped since the last sync are re-planned: anyone else's
    /// plan differs from the one the last sync carried out by GPU tokens
    /// appended to its tail at most, which move no byte.
    /// Then every running conversation gets a block for each of its
    /// chunks, filled from the host map if the chunk came back from a
    /// host rung and otherwise recomputed or written by its next rows.
    fn sync(&mut self, cache: &TieredKvCache, running: impl Iterator<Item = SessionId>) {
        let bs = self.pool.layout().block_size;
        let cfg = self.model.config();
        let zeros = 2 * bs * cfg.kv_hidden() * cfg.num_layers;
        for (&conv, table) in &mut self.tables {
            if cache.placement_stamp(conv) <= self.synced {
                continue;
            }
            let plan = cache.plan_restore(conv);
            for (range, tier) in plan.segments.into_iter().filter(|s| s.1 != Tier::Gpu) {
                let blocks = range.start / bs..range.end.div_ceil(bs);
                for b in blocks.clone() {
                    if tier == Tier::Dropped {
                        if let Some((_, kv)) = self.host.remove(&(conv, b)) {
                            self.spare.put(kv);
                        }
                    } else if let Some(phys) = table.get_block(b) {
                        let mut kv = self.spare.take();
                        self.model.read_block(&self.pool, phys, &mut kv);
                        let old = self.host.insert((conv, b), (checksum(&kv), kv));
                        if let Some((_, kv)) = old {
                            self.spare.put(kv);
                        }
                    } else if b * bs >= table.len() {
                        if let Entry::Vacant(slot) = self.host.entry((conv, b)) {
                            let mut kv = self.spare.take();
                            kv.clear();
                            kv.resize(zeros, 0.0);
                            slot.insert((checksum(&kv), kv));
                        }
                    }
                }
                table.free_blocks(&mut self.pool, blocks);
            }
        }
        self.synced = cache.placement_clock();
        for conv in running {
            let table = self.tables.entry(conv).or_insert(BlockTable::new(bs));
            let blocks = 0..cache.conversation_tokens(conv).div_ceil(bs);
            let filled = table.refill(&mut self.pool, blocks);
            assert!(filled.is_ok(), "a block the cache granted is missing");
            let stale = self.stale.entry(conv).or_default();
            for (b, phys) in filled.into_iter().flatten() {
                match self.host.remove(&(conv, b)) {
                    Some((_, kv)) => {
                        self.model.write_block(&mut self.pool, phys, &kv);
                        self.spare.put(kv);
                    }
                    None => stale.extend(b * bs..table.len().min((b + 1) * bs)),
                }
            }
        }
        #[cfg(test)]
        self.assert_synced(cache);
    }

    /// Carries one tick out: moves the bytes to match the cache, then runs
    /// the batch through one forward pass. Each row is a running
    /// conversation and, for a chunked-prefill slice that leaves prefill
    /// work, the query tokens it takes; a row without that limit runs to
    /// its conversation's last token and appends the next. A row takes
    /// its stale positions first, as leading sub-requests, then the
    /// positions past its table.
    pub(crate) fn execute(&mut self, cache: &TieredKvCache, rows: &[(SessionId, Option<usize>)]) {
        if !self.model.alive() {
            return;
        }
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
        let logits = self.model.run(&mut self.pool, &mut seqs);
        let ran = logits.is_some() || !self.model.alive();
        assert!(ran, "a row outgrew its cache charge");
        for (i, (conv, table, _, emits)) in batch.into_iter().enumerate() {
            self.tables.insert(conv, table);
            if let (true, Some(logits)) = (emits, &logits) {
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
            if let Some((_, kv)) = self.host.remove(&(conv, chunk)) {
                self.spare.put(kv);
            }
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
impl<M: PagedModel> Executor<M> {
    /// A mutation: copies one held chunk's host bytes, checksum and all,
    /// over another held chunk of the same conversation, which is then
    /// restored with the wrong K/V. (Trading the two would not do:
    /// attention sums over its context in any order, so K/V pairs that
    /// swap places leave later rows' logits as they were.) False if no
    /// conversation holds two chunks.
    pub(crate) fn misplace_held_chunk(&mut self) -> bool {
        let keys = self.host.keys().zip(self.host.keys().skip(1));
        let Some((a, b)) = keys.map(|(a, b)| (*a, *b)).find(|(a, b)| a.0 == b.0) else {
            return false;
        };
        if let Some(held) = self.host.get(&b).cloned() {
            self.host.insert(a, held);
        }
        true
    }

    /// The differential check of a skipped sync, after every sync of
    /// every in-crate test: re-plans every conversation with a table —
    /// those the stamps let the sync skip among them — and asserts that
    /// a sync walking all of them would move no byte. Every block of a
    /// chunk off the GPU is already free, a dropped chunk holds no host
    /// bytes, and one on a host rung holds them unless its positions
    /// were computed and will be recomputed from the store.
    fn assert_synced(&self, cache: &TieredKvCache) {
        let bs = self.pool.layout().block_size;
        for (&conv, table) in &self.tables {
            let plan = cache.plan_restore(conv);
            for (range, tier) in plan.segments.into_iter().filter(|s| s.1 != Tier::Gpu) {
                for b in range.start / bs..range.end.div_ceil(bs) {
                    let held = self.host.contains_key(&(conv, b));
                    let settled = table.get_block(b).is_none()
                        && match tier {
                            Tier::Dropped => !held,
                            _ => held || b * bs < table.len(),
                        };
                    let stamp = cache.placement_stamp(conv);
                    assert!(
                        settled,
                        "{conv:?} chunk {b} in {tier:?}: stamp {stamp}, synced at {} \
                         — a skipped sync would have moved bytes",
                        self.synced
                    );
                }
            }
        }
    }

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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::checksum;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Flipping any one bit of any word of a block changes its
        /// checksum, at lengths that fill the lanes and lengths that
        /// leave some short.
        #[test]
        fn every_single_bit_flip_changes_the_checksum(
            words in prop::collection::vec(0u32..u32::MAX, 1..70),
        ) {
            let mut kv: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
            let sum = checksum(&kv);
            for i in 0..kv.len() {
                for bit in 0..32 {
                    let word = kv[i].to_bits();
                    kv[i] = f32::from_bits(word ^ (1 << bit));
                    prop_assert!(checksum(&kv) != sum, "len {} word {i} bit {bit}", kv.len());
                    kv[i] = f32::from_bits(word);
                }
            }
        }
    }
}
