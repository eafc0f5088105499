//! Golden op-tape for [`TieredKvCache`]: a seeded generator drives every
//! public mutator of two caches that hand sessions to each other, folds
//! everything observable after every op into an FNV-1a digest, and
//! compares the digest with a committed constant.
//!
//! The constants were captured *before* the tier ladder and the chunk
//! record in `src/tiered.rs` were unified, so they pin that refactor (and
//! any later one) to the bit: candidate order, snapshot reuse, which
//! rung a victim lands on, the order of trace events, every counter.
//! Capacities are a few chunks per tier, so every rung overflows, and
//! the shared pool is under the same pressure — non-global shared chunks
//! are moved GPU→CPU, demoted down the ladder and dropped once
//! unreferenced, which no benchmark workload does. Both caches'
//! accounting invariants (`check_invariants`) are checked after every
//! op, in release builds too, so the tape doubles as an accounting soak.
//!
//! Only the crate's public API is used. A failing run prints the table
//! that would replace `GOLDEN` — paste it only for an *intended*
//! behaviour change; otherwise `print_per_op_digests` (an ignored test)
//! locates the first op at which two builds part ways.

use std::collections::BTreeSet;

use pensieve_kvcache::{
    leaked_chunk_handles, synthetic_preamble, CacheConfig, CacheError, CacheStats,
    CachedAttentionPolicy, ChunkHandle, ChunkId, ChunkState, EvictionPolicy, LruPolicy,
    ManifestChunk, RequestPlan, RetentionValuePolicy, SessionId, SwapOutOp, Tier, TieredKvCache,
    TrailingEndPolicy,
};
use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable, SimTime};
use pensieve_obs::{to_jsonl, DropReason, SharedRecorder, TraceEvent};

const CHUNK: usize = 16;
const GPU: usize = 320;
const CPU: usize = 160;
/// Session ids in play; with [`CONTEXT_CAP`] their combined context is
/// well past the whole hierarchy, so the bottom rung overflows too.
const SESSIONS: u64 = 10;
/// A conversation past this many tokens ends at its next turn.
const CONTEXT_CAP: usize = 200;
/// Concurrently pinned ("running") conversations per cache.
const BATCH: usize = 3;
const OPS: usize = 3000;
const SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Shareable preambles as `(identity, tokens)`; 40 leaves a partial
/// trailing chunk that registration must ignore.
const PREAMBLES: [(u64, usize); 4] = [(1, 32), (2, 48), (3, 40), (4, 64)];

/// `(name, policy, ssd tokens, cold tokens)`. The first eight are the
/// policy × depth matrix; the last three leave one rung disabled or
/// smaller than a chunk, so the ladder must step over it.
const CONFIGS: [(&str, Policy, usize, usize); 11] = [
    ("retention/two-tier", Policy::Retention, 0, 0),
    ("retention/deep", Policy::Retention, 128, 96),
    ("lru/two-tier", Policy::Lru, 0, 0),
    ("lru/deep", Policy::Lru, 128, 96),
    ("cached-attention/two-tier", Policy::CachedAttention, 0, 0),
    ("cached-attention/deep", Policy::CachedAttention, 128, 96),
    ("trailing-end/two-tier", Policy::TrailingEnd, 0, 0),
    ("trailing-end/deep", Policy::TrailingEnd, 128, 96),
    ("retention/cold-only", Policy::Retention, 0, 96),
    ("retention/ssd-only", Policy::Retention, 128, 0),
    ("lru/ssd-under-a-chunk", Policy::Lru, 8, 96),
];

/// Digests captured on the pre-refactor `tiered.rs`, `[config][seed]`.
#[rustfmt::skip]
const GOLDEN: [[u64; 4]; 11] = [
    [0x8195e9c10eec88f2, 0xdebf40078830ae78, 0x4a34b56c04d2c79c, 0x799eeadc69e65a1c], // retention/two-tier
    [0x5cf0efc69ea82c40, 0x45a1fe5b6e359715, 0x726ddfb544f681f4, 0x78fa2d8c6cf0ec8f], // retention/deep
    [0xb48877816dd251db, 0x3850e95b5ad9bb9c, 0xc585f1c3f68125b3, 0x24d4997c74354956], // lru/two-tier
    [0xbe9c7b058118ebd0, 0xac9af189621716ea, 0x6b94adb2b0a44d0d, 0x46599c2cc7b54031], // lru/deep
    [0x9f990e97f160b84d, 0xdd94773af71b0490, 0x496f940faf9cb746, 0x74d7976502eb0ed2], // cached-attention/two-tier
    [0xabaa23f0a53cd0ea, 0x86fe8d11562e0811, 0x3ce589ac47c8e166, 0x029eeffcd3c2a907], // cached-attention/deep
    [0x2964aabd926a88f0, 0x866d5c92b58f1027, 0x0289cf5561d90b4e, 0x0f61104e622ae02b], // trailing-end/two-tier
    [0xf9e5b21820f1bbb1, 0x768350d46d9e2343, 0x7ac016af4e79acbc, 0xad1bab568708ed21], // trailing-end/deep
    [0xfb59c6512123da5f, 0x2806726116926dc7, 0xf59d02ae000b60c7, 0xab73aa5369c2f39f], // retention/cold-only
    [0x2768401740c14b37, 0x777d2e035720c865, 0xb4f1959546d46598, 0xf8f03e8f4ba7678e], // retention/ssd-only
    [0xfef714d817cc60d9, 0xd7f4899f0002b1aa, 0x0ae5a669c9b43dc6, 0x6e54a6a770c503fd], // lru/ssd-under-a-chunk
];

#[derive(Clone, Copy)]
enum Policy {
    Retention,
    Lru,
    CachedAttention,
    TrailingEnd,
}

impl Policy {
    fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            Policy::Retention => {
                let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
                Box::new(RetentionValuePolicy::new(ProfiledCostTable::profile(
                    &cost, CHUNK, 4096,
                )))
            }
            Policy::Lru => Box::new(LruPolicy),
            Policy::CachedAttention => Box::new(CachedAttentionPolicy),
            Policy::TrailingEnd => Box::new(TrailingEndPolicy),
        }
    }
}

/// SplitMix64, inlined so the tape does not move if the workspace's
/// `rand` stand-in ever does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn n(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn tier(&mut self, t: Tier) {
        self.word(match t {
            Tier::Gpu => 0,
            Tier::GpuCopied => 1,
            Tier::Cpu => 2,
            Tier::Ssd => 3,
            Tier::Cold => 4,
            Tier::Dropped => 5,
        });
    }

    fn err(&mut self, e: &CacheError) {
        match *e {
            CacheError::OutOfGpu { needed, free } => {
                self.word(101);
                self.n(needed);
                self.n(free);
            }
            CacheError::UnknownConversation(c) => {
                self.word(102);
                self.word(c.0);
            }
            CacheError::ChunkNotInCpuTier { conv, chunk } => {
                self.word(103);
                self.word(conv.0);
                self.n(chunk);
            }
            CacheError::SessionExists(c) => {
                self.word(104);
                self.word(c.0);
            }
            CacheError::HistoryRangeOutOfBounds { conv, end, len } => {
                self.word(105);
                self.word(conv.0);
                self.n(end);
                self.n(len);
            }
            CacheError::UnknownChunk(id) => {
                self.word(106);
                self.word(id.0);
            }
            CacheError::RefCountOverflow(id) => {
                self.word(107);
                self.word(id.0);
            }
            CacheError::RefCountUnderflow(id) => {
                self.word(108);
                self.word(id.0);
            }
            CacheError::BrokenSharedChain(id) => {
                self.word(109);
                self.word(id.0);
            }
        }
    }

    fn tokens(&mut self, r: &Result<usize, CacheError>) {
        match r {
            Ok(n) => {
                self.word(1);
                self.n(*n);
            }
            Err(e) => self.err(e),
        }
    }

    fn swap_ops(&mut self, ops: &[SwapOutOp]) {
        self.n(ops.len());
        for op in ops {
            self.word(op.conv.0);
            self.n(op.chunk);
            self.n(op.tokens);
            self.word(u64::from(op.dropped));
            self.word(op.shared.map_or(0, |id| id.0));
        }
    }

    fn plan(&mut self, p: &RequestPlan) {
        let RequestPlan {
            gpu_hit_tokens,
            revalidate_tokens,
            swap_in_tokens,
            ssd_read_tokens,
            cold_read_tokens,
            recompute_tokens,
            shared_hit_tokens,
            segments,
        } = p;
        for n in [
            gpu_hit_tokens,
            revalidate_tokens,
            swap_in_tokens,
            ssd_read_tokens,
            cold_read_tokens,
            recompute_tokens,
            shared_hit_tokens,
        ] {
            self.n(*n);
        }
        self.n(segments.len());
        for (range, tier) in segments {
            self.n(range.start);
            self.n(range.end);
            self.tier(*tier);
        }
    }

    /// Every counter, destructured without `..` so that a new
    /// [`CacheStats`] field fails to compile until it is folded here.
    fn stats(&mut self, s: &CacheStats) {
        let CacheStats {
            gpu_hit_tokens,
            cpu_hit_tokens,
            recomputed_tokens,
            swapped_out_tokens,
            swapped_in_tokens,
            dropped_tokens,
            revalidated_tokens,
            full_gpu_hits,
            partial_hits,
            lost_chunk_tokens,
            corrupted_chunk_tokens,
            swap_in_fault_tokens,
            ssd_hit_tokens,
            cold_hit_tokens,
            demoted_tokens,
            rehydrated_tokens,
            cold_read_fault_tokens,
            shared_hit_tokens,
        } = s;
        for w in [
            gpu_hit_tokens,
            cpu_hit_tokens,
            recomputed_tokens,
            swapped_out_tokens,
            swapped_in_tokens,
            dropped_tokens,
            revalidated_tokens,
            full_gpu_hits,
            partial_hits,
            lost_chunk_tokens,
            corrupted_chunk_tokens,
            swap_in_fault_tokens,
            ssd_hit_tokens,
            cold_hit_tokens,
            demoted_tokens,
            rehydrated_tokens,
            cold_read_fault_tokens,
            shared_hit_tokens,
        ] {
            self.word(*w);
        }
    }

    fn chunk_states(&mut self, chunks: &[ChunkState]) {
        self.n(chunks.len());
        for c in chunks {
            self.tier(c.tier);
            self.n(c.tokens);
            self.n(c.context_end);
        }
    }

    fn manifest(&mut self, m: &[ManifestChunk]) {
        self.n(m.len());
        for c in m {
            self.word(c.id.0);
            self.n(c.tokens);
        }
    }

    /// Occupancy, counters and the dedup numerators of one cache.
    fn cache(&mut self, c: &TieredKvCache) {
        self.n(c.gpu_slots_used());
        self.n(c.gpu_free_strict());
        self.n(c.gpu_free_effective());
        self.n(c.cpu_used());
        self.n(c.ssd_used());
        self.n(c.cold_used());
        self.stats(c.stats());
        self.n(c.logical_resident_tokens());
        self.n(c.physical_resident_tokens());
    }

    /// Everything the public API says about one session.
    fn session(&mut self, c: &TieredKvCache, s: SessionId) {
        self.word(u64::from(c.contains(s)));
        self.n(c.conversation_tokens(s));
        self.n(c.gpu_free_effective_for(s));
        self.n(c.global_shared_tokens(s));
        self.plan(&c.plan_restore(s));
    }
}

/// One cache plus what the generator must remember about it.
struct Side {
    cache: TieredKvCache,
    /// Conversations whose last restore succeeded and that have not been
    /// unpinned, suspended, removed or exported since: the only ones it
    /// is legal to append to without restoring first.
    running: BTreeSet<SessionId>,
    /// Chains returned by `register_shared`, in registration order.
    chains: Vec<Vec<ChunkId>>,
    handles: Vec<ChunkHandle>,
    has_global: bool,
}

struct Tape {
    rng: Rng,
    d: Digest,
    secs: f64,
    sides: [Side; 2],
    /// Sessions the current op addressed, folded after it.
    touched: Vec<(usize, SessionId)>,
    turns_ok: usize,
    /// The last op's dice roll (which op ran), for the trace.
    last_roll: u64,
}

impl Tape {
    fn new(policy: Policy, ssd: usize, cold: usize, seed: u64, rec: &SharedRecorder) -> Self {
        let side = || Side {
            cache: TieredKvCache::builder(CacheConfig::for_test(CHUNK, GPU, CPU))
                .policy(policy.build())
                .deep_tiers(ssd, cold)
                .recorder(rec.clone())
                .build(),
            running: BTreeSet::new(),
            chains: Vec::new(),
            handles: Vec::new(),
            has_global: false,
        };
        let mut tape = Tape {
            rng: Rng(seed),
            d: Digest(0xcbf2_9ce4_8422_2325),
            secs: 0.0,
            sides: [side(), side()],
            touched: Vec::new(),
            turns_ok: 0,
            last_roll: 0,
        };
        // Both caches know the first two preambles, so migrations can
        // re-attach by id; later registrations are one-sided, so some
        // cannot.
        for k in 0..2 {
            for p in 0..2 {
                tape.register(k, p);
            }
        }
        tape
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(self.secs)
    }

    fn session(&mut self) -> SessionId {
        SessionId(1 + self.rng.below(SESSIONS))
    }

    fn register(&mut self, k: usize, preamble: usize) {
        let (identity, len) = PREAMBLES[preamble];
        let tokens = synthetic_preamble(identity, len);
        let now = self.now();
        let side = &mut self.sides[k];
        let chain = side.cache.register_shared(&tokens, now);
        self.d.n(chain.len());
        for id in &chain {
            self.d.word(id.0);
        }
        // Discovery: the registered prefix followed by unrelated tokens
        // still matches the whole chain.
        let mut probe = tokens;
        probe.extend([7, 7, 7]);
        let found = side.cache.lookup_shared(&probe);
        self.d.n(found.len());
        side.chains.push(chain);
    }

    /// A content-addressed id some session on side `k` references (fork
    /// lineage ids included), or an id nobody registered.
    fn some_chunk_id(&mut self, k: usize) -> ChunkId {
        let conv = self.session();
        let shared: Vec<ChunkId> = self.sides[k]
            .cache
            .manifest_chunks(conv)
            .iter()
            .map(|m| m.id)
            .filter(|id| *id != ChunkId::NONE)
            .collect();
        if shared.is_empty() || self.rng.one_in(8) {
            ChunkId(0xDEAD_BEEF)
        } else {
            shared[self.rng.below(shared.len() as u64) as usize]
        }
    }

    /// True if forking `parent` would promote a private chunk under a
    /// lineage id the pool already holds. Fork ids chain over (parent id,
    /// position, length), so a session id that was forked, removed and
    /// re-created with the same shape derives the same ids again, and
    /// `fork_session` then overwrites the pooled chunk and its accounting
    /// (a defect that predates this tape and is recorded in CHANGES.md).
    /// The tape steps around it: a golden tape cannot pin a debug panic.
    fn fork_would_alias(&mut self, k: usize, parent: SessionId) -> bool {
        let cache = &mut self.sides[k].cache;
        let manifest = cache.manifest_chunks(parent);
        let chain_len = manifest
            .iter()
            .take_while(|m| m.id != ChunkId::NONE)
            .count();
        let mut prev = manifest[..chain_len].last().map_or(ChunkId::ROOT, |m| m.id);
        let mut alias = false;
        for (i, m) in manifest[chain_len..].iter().enumerate() {
            prev =
                ChunkId::derive_words(prev, &[parent.0, (chain_len + i) as u64, m.tokens as u64]);
            // `acquire` is the one public probe for "is this id pooled".
            if let Ok(handle) = cache.acquire(prev) {
                alias = true;
                cache.release(handle).expect("just acquired");
            }
        }
        alias
    }

    /// Restores `conv` and appends a prompt, evicting on its behalf when
    /// the GPU is short — the engine's admission sequence.
    fn turn(&mut self, k: usize, conv: SessionId) {
        let now = self.now();
        let n = 1 + self.rng.below(60) as usize;
        let side = &mut self.sides[k];
        while side.running.len() >= BATCH {
            let Some(oldest) = side.running.pop_first() else {
                break;
            };
            side.cache.unpin(oldest);
        }
        if side.cache.conversation_tokens(conv) > CONTEXT_CAP {
            side.cache.remove_conversation(conv);
            side.running.remove(&conv);
        }
        let mut restored = side.cache.commit_restore(conv, now);
        if let Err(CacheError::OutOfGpu { needed, .. }) = restored {
            let ops = side.cache.swap_out_until_for(needed, Some(conv), now);
            self.d.swap_ops(&ops);
            restored = side.cache.commit_restore(conv, now);
        }
        match &restored {
            Ok(plan) => self.d.plan(plan),
            Err(e) => self.d.err(e),
        }
        if restored.is_err() {
            return;
        }
        let mut appended = side.cache.append_tokens(conv, n, now);
        if appended.is_err() {
            let ops = side.cache.swap_out_until_for(n, Some(conv), now);
            self.d.swap_ops(&ops);
            appended = side.cache.append_tokens(conv, n, now);
        }
        self.d.tokens(&appended.map(|()| n));
        if side.cache.contains(conv) {
            side.running.insert(conv);
            self.turns_ok += 1;
        }
    }

    fn step(&mut self) {
        self.secs += self.rng.below(4000) as f64 / 1000.0;
        let now = self.now();
        let k = usize::from(self.rng.one_in(4));
        let conv = self.session();
        self.touched.push((k, conv));
        let roll = self.rng.below(100);
        self.d.word(roll);
        self.last_roll = roll;
        match roll {
            0..=21 => self.turn(k, conv),
            22..=31 => {
                // A decode step of some running conversation.
                let side = &mut self.sides[k];
                let pick = side.running.iter().nth(conv.0 as usize % BATCH).copied();
                if let Some(c) = pick {
                    let n = 1 + self.rng.below(4) as usize;
                    let r = side.cache.append_tokens(c, n, now);
                    self.d.tokens(&r.map(|()| n));
                    self.touched.push((k, c));
                }
            }
            32..=43 => {
                // A running conversation finishes its turn.
                let side = &mut self.sides[k];
                if let Some(c) = side.running.pop_first() {
                    side.cache.unpin(c);
                    self.touched.push((k, c));
                }
                let ops = side.cache.maybe_swap_out(now);
                self.d.swap_ops(&ops);
            }
            44..=46 => self.sides[k].cache.touch(conv, now),
            47 => self.sides[k].cache.pin(conv),
            48..=50 => {
                self.sides[k].cache.unpin(conv);
                self.sides[k].running.remove(&conv);
            }
            51..=54 => {
                let ops = self.sides[k].cache.maybe_swap_out(now);
                self.d.swap_ops(&ops);
            }
            55..=59 => {
                let target = self.rng.below(GPU as u64 + 1) as usize;
                let for_conv = (!self.rng.one_in(3)).then_some(conv);
                let ops = self.sides[k]
                    .cache
                    .swap_out_until_for(target, for_conv, now);
                self.d.swap_ops(&ops);
            }
            60..=64 => {
                let moved = self.sides[k].cache.suspend(conv, now);
                self.sides[k].running.remove(&conv);
                self.d.n(moved);
            }
            65..=67 => {
                self.sides[k].cache.remove_conversation(conv);
                self.sides[k].running.remove(&conv);
            }
            68..=73 => {
                // Migration: export, lose a chunk on the wire, import
                // into the other cache.
                match self.sides[k].cache.export_session(conv) {
                    None => self.d.word(0),
                    Some(mut export) => {
                        self.sides[k].running.remove(&conv);
                        self.d.n(export.shared.len());
                        for r in &export.shared {
                            self.d.word(r.id.0);
                            self.d.n(r.tokens);
                        }
                        self.d.chunk_states(&export.chunks);
                        if self.rng.one_in(3) {
                            let idx = self.rng.below(export.chunks.len() as u64 + 2) as usize;
                            let lost = export.mark_lost(idx);
                            self.d.n(lost);
                        }
                        self.d.n(export.streamable_tokens());
                        self.d.n(export.dropped_tokens());
                        let r = self.sides[1 - k].cache.import_session(export, now);
                        self.d.tokens(&r);
                        self.touched.push((1 - k, conv));
                    }
                }
            }
            74..=77 => {
                // Restart: rebuild a session from its manifest, here or
                // on the other cache, usually after forgetting it.
                let manifest = self.sides[k].cache.manifest_chunks(conv);
                self.d.manifest(&manifest);
                let target = if self.rng.one_in(2) { k } else { 1 - k };
                if !self.rng.one_in(3) {
                    self.sides[target].cache.remove_conversation(conv);
                    self.sides[target].running.remove(&conv);
                }
                let r = self.sides[target]
                    .cache
                    .rehydrate_session(conv, &manifest, now);
                self.d.tokens(&r);
                self.touched.push((target, conv));
            }
            78..=79 => {
                let p = self.rng.below(PREAMBLES.len() as u64) as usize;
                self.register(k, p);
            }
            80..=84 => {
                // Attach to a whole chain, a prefix of one, a reversed
                // (broken) one, or one holding an unregistered id.
                let chains = &self.sides[k].chains;
                let mut chain = chains[self.rng.below(chains.len() as u64) as usize].clone();
                match self.rng.below(8) {
                    0 => chain.reverse(),
                    1 => chain.truncate(1),
                    2 => chain.push(ChunkId(0xDEAD_BEEF)),
                    _ => {}
                }
                let r = self.sides[k].cache.attach_shared(conv, &chain, now);
                self.d.tokens(&r);
            }
            85..=87 => {
                let child = self.session();
                if self.fork_would_alias(k, conv) {
                    self.d.word(0);
                } else {
                    let r = self.sides[k].cache.fork_session(conv, child, now);
                    self.d.tokens(&r);
                    self.touched.push((k, child));
                }
            }
            88 => {
                let side = &mut self.sides[k];
                if !side.has_global {
                    let chain = side.chains[conv.0 as usize % side.chains.len()].clone();
                    match side.cache.materialize_global(&chain, now) {
                        Ok(handles) => {
                            self.d.n(handles.len());
                            side.handles.extend(handles);
                            side.has_global = true;
                        }
                        Err(e) => self.d.err(&e),
                    }
                }
            }
            89..=90 => {
                let id = self.some_chunk_id(k);
                match self.sides[k].cache.acquire(id) {
                    Ok(h) => {
                        self.d.word(h.id().0);
                        self.sides[k].handles.push(h);
                    }
                    Err(e) => self.d.err(&e),
                }
                self.d.n(self.sides[k].cache.shared_refs(id));
            }
            91..=92 => {
                // Give a handle back — now and then to the wrong cache,
                // which must answer with a typed error.
                if !self.sides[k].handles.is_empty() {
                    let at = self.rng.below(self.sides[k].handles.len() as u64) as usize;
                    let h = self.sides[k].handles.swap_remove(at);
                    let id = h.id();
                    let to = if self.rng.one_in(8) { 1 - k } else { k };
                    match self.sides[to].cache.release(h) {
                        Ok(()) => self.d.word(1),
                        Err(e) => self.d.err(&e),
                    }
                    self.d.n(self.sides[to].cache.shared_refs(id));
                }
            }
            93..=95 => {
                // Host-memory fault on a listed CPU copy, or on a chunk
                // picked blind.
                let listing = self.sides[k].cache.cpu_resident_chunks();
                self.d.n(listing.len());
                let (c, idx) = if listing.is_empty() || self.rng.one_in(4) {
                    (conv, self.rng.below(8) as usize)
                } else {
                    let (c, idx, _) = listing[self.rng.below(listing.len() as u64) as usize];
                    (c, idx)
                };
                let r = if self.rng.one_in(2) {
                    self.sides[k].cache.mark_chunk_lost(c, idx)
                } else {
                    self.sides[k].cache.mark_chunk_corrupt(c, idx)
                };
                self.d.tokens(&r);
                self.touched.push((k, c));
            }
            96 => {
                let n = self.sides[k].cache.drop_cpu_chunks(conv, now);
                self.d.n(n);
            }
            97 => {
                let n = self.sides[k].cache.drop_deep_chunks(conv, now);
                self.d.n(n);
            }
            98 => {
                let commits = self.sides[k].cache.take_commits();
                self.d.n(commits.len());
                for (s, n) in commits {
                    self.d.word(s.0);
                    self.d.n(n);
                }
            }
            _ => {
                let dirty = self.sides[k].cache.take_manifest_dirty();
                self.d.n(dirty.len());
                for s in dirty {
                    self.d.word(s.0);
                }
            }
        }
        for side in &self.sides {
            self.d.cache(&side.cache);
            self.d.n(side.cache.sessions().len());
        }
        for (k, s) in std::mem::take(&mut self.touched) {
            self.d.session(&self.sides[k].cache, s);
        }
        for (k, side) in self.sides.iter().enumerate() {
            if let Err(why) = side.cache.check_invariants() {
                panic!("side {k} after roll {roll}: {why}");
            }
        }
    }

    /// Returns every outstanding handle so the leak counter stays zero.
    fn finish(&mut self) {
        for side in &mut self.sides {
            for h in std::mem::take(&mut side.handles) {
                match side.cache.release(h) {
                    Ok(()) => self.d.word(1),
                    Err(e) => self.d.err(&e),
                }
            }
            self.d.cache(&side.cache);
        }
    }
}

/// What one run exercised, checked so the tape cannot silently stop
/// reaching the code it exists to pin.
#[derive(Debug, Default)]
struct Coverage {
    turns_ok: usize,
    private_copied: usize,
    private_dropped_at_gpu: usize,
    cpu_pressure_drops: usize,
    cold_pressure_drops: usize,
    private_demotions: usize,
    private_demoted_tokens: u64,
    shared_moved: usize,
    shared_dropped: usize,
    demoted_tokens: u64,
    deep_reads: usize,
    revalidations: usize,
    shared_attaches: usize,
}

/// Runs one tape. With `trace`, prints the running digest after every op
/// and the event stream at the end, so that two builds can be diffed
/// down to the first op — or the first event — that diverges.
fn run(policy: Policy, ssd: usize, cold: usize, seed: u64, trace: bool) -> (u64, Coverage) {
    let rec = SharedRecorder::new();
    let mut tape = Tape::new(policy, ssd, cold, seed, &rec);
    for op in 0..OPS {
        tape.step();
        if trace {
            let (roll, digest) = (tape.last_roll, tape.d.0);
            println!("op {op} roll {roll}: {digest:#018x}");
        }
    }
    tape.finish();
    let events = rec.events();
    let mut cov = Coverage {
        turns_ok: tape.turns_ok,
        demoted_tokens: tape
            .sides
            .iter()
            .map(|s| s.cache.stats().demoted_tokens)
            .sum(),
        ..Coverage::default()
    };
    for ev in &events {
        match *ev {
            TraceEvent::ChunkEvicted { dropped: false, .. } => cov.private_copied += 1,
            TraceEvent::ChunkEvicted { dropped: true, .. } => cov.private_dropped_at_gpu += 1,
            TraceEvent::ChunkDropped {
                reason: DropReason::CpuPressure,
                ..
            } => cov.cpu_pressure_drops += 1,
            TraceEvent::ChunkDropped {
                reason: DropReason::ColdPressure,
                ..
            } => cov.cold_pressure_drops += 1,
            TraceEvent::ChunkDemoted { tokens, .. } => {
                cov.private_demotions += 1;
                cov.private_demoted_tokens += tokens as u64;
            }
            TraceEvent::SharedChunkEvicted { dropped: false, .. } => cov.shared_moved += 1,
            TraceEvent::SharedChunkEvicted { dropped: true, .. } => cov.shared_dropped += 1,
            TraceEvent::TierReadCommitted { .. } => cov.deep_reads += 1,
            TraceEvent::Revalidated { .. } => cov.revalidations += 1,
            TraceEvent::SharedAttached { .. } => cov.shared_attaches += 1,
            _ => {}
        }
    }
    let jsonl = to_jsonl(&events);
    if trace {
        print!("{jsonl}");
    }
    let mut d = tape.d;
    d.n(events.len());
    for b in jsonl.bytes() {
        d.0 ^= u64::from(b);
        d.0 = d.0.wrapping_mul(0x0100_0000_01b3);
    }
    (d.0, cov)
}

#[test]
fn golden_digests_hold_and_the_tape_reaches_every_rung() {
    let mut table = String::new();
    let mut drifted = false;
    for (&(name, policy, ssd, cold), golden) in CONFIGS.iter().zip(&GOLDEN) {
        let mut cells = Vec::new();
        for (&seed, &expected) in SEEDS.iter().zip(golden) {
            let (digest, cov) = run(policy, ssd, cold, seed, false);
            drifted |= digest != expected;
            cells.push(format!("{digest:#018x}"));
            let at = format!("{name} seed {seed}: {cov:?}");
            assert!(cov.turns_ok > OPS / 8, "the tape wedged — {at}");
            assert!(cov.private_copied > 0 && cov.revalidations > 0, "{at}");
            assert!(
                cov.private_dropped_at_gpu > 0,
                "CPU tier never wedged — {at}"
            );
            assert!(cov.shared_attaches > 0, "{at}");
            assert!(cov.shared_moved > 0, "no shared chunk was moved — {at}");
            assert!(cov.shared_dropped > 0, "no shared chunk was dropped — {at}");
            if ssd >= CHUNK || cold >= CHUNK {
                assert!(cov.private_demotions > 0 && cov.deep_reads > 0, "{at}");
                assert!(
                    cov.demoted_tokens > cov.private_demoted_tokens,
                    "no shared chunk was demoted down the ladder — {at}"
                );
                assert!(cov.cold_pressure_drops > 0, "bottom never full — {at}");
            } else {
                assert!(cov.cpu_pressure_drops > 0, "CPU tier never full — {at}");
            }
        }
        table += &format!("    [{}], // {name}\n", cells.join(", "));
    }
    assert!(
        !drifted,
        "digest drift. `print_per_op_digests` finds the first divergent op; if the \
         change in behaviour is intended, GOLDEN becomes:\n{table}"
    );
    assert_eq!(leaked_chunk_handles(), 0);
}

/// The same seed must reproduce itself, and a different one must not.
#[test]
fn the_tape_is_deterministic_and_seed_sensitive() {
    let (a, _) = run(Policy::Lru, 128, 96, 9, false);
    let (b, _) = run(Policy::Lru, 128, 96, 9, false);
    let (c, _) = run(Policy::Lru, 128, 96, 10, false);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// Diagnostic, not a check: prints every config's per-op digests and
/// event stream. Run it on two builds and diff the output —
/// `cargo test -p pensieve-kvcache --test tape -- --ignored --nocapture`.
#[test]
#[ignore = "diagnostic output for diffing two builds"]
fn print_per_op_digests() {
    for &(name, policy, ssd, cold) in &CONFIGS {
        for seed in SEEDS {
            println!("== {name} seed {seed}");
            run(policy, ssd, cold, seed, true);
        }
    }
}
