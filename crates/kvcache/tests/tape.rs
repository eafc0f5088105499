//! Golden op-tape for [`TieredKvCache`]: a seeded generator drives every
//! public mutator of two caches that hand sessions to each other, folds
//! everything observable after every op into an FNV-1a digest, and
//! compares the digest with a committed constant.
//!
//! The constants pin every refactor of `src/tiered.rs` to the bit:
//! candidate order, snapshot reuse, which rung a victim lands on, the
//! order of trace events, every counter. Capacities are a few chunks per
//! tier, so every rung overflows. Each cache pins one global preamble at
//! construction, as the serving engine does, and conversations attach to
//! it; in some configurations the two caches pin different preambles, so
//! a migration or a rehydration either re-attaches the chain by id or
//! imports a foreign one as dropped spans. Both caches' accounting
//! invariants (`check_invariants`) are checked after every op, in
//! release builds too, so the tape doubles as an accounting soak.
//!
//! Only the crate's public API is used. A failing run prints the table
//! that would replace `GOLDEN` — paste it only for an *intended*
//! behaviour change; otherwise `print_per_op_digests` (an ignored test)
//! locates the first op at which two builds part ways.

use std::collections::BTreeSet;

use pensieve_kvcache::{
    synthetic_preamble, CacheConfig, CacheError, CacheStats, CachedAttentionPolicy, ChunkId,
    ChunkState, EvictionPolicy, LruPolicy, ManifestChunk, RequestPlan, RetentionValuePolicy,
    SessionId, SwapOutOp, Tier, TieredKvCache, TrailingEndPolicy,
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
/// The two caches' global preambles as `(identity, tokens)`, one pair
/// per configuration in turn: the same chain on both sides, one side's
/// chain a prefix of the other's (an import re-attaches part of it), two
/// foreign chains (40 leaves a partial trailing chunk that is not
/// pinned), and one side with no preamble at all.
const PREAMBLES: [[(u64, usize); 2]; 4] = [
    [(1, 48), (1, 48)],
    [(2, 64), (2, 32)],
    [(3, 40), (4, 64)],
    [(5, 64), (5, 0)],
];

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

/// Committed digests, `[config][seed]`.
#[rustfmt::skip]
const GOLDEN: [[u64; 4]; 11] = [
    [0x483cbf4418795a60, 0xa722533735cc669c, 0x18c71a730f5935d3, 0x226cb6220a1b0da6], // retention/two-tier
    [0x78237416e643ffb0, 0xf396dd140ce826bc, 0x5b5da56f78fa1cbb, 0x779035b9f931c048], // retention/deep
    [0xcb5dad9510ecd679, 0xe54eb286404c5ac6, 0x1a5ba054b4e6ade7, 0x1c2ef5e98372a1d4], // lru/two-tier
    [0x11590a3e527605ac, 0x0011172f0f0fc780, 0xa2c681e57bbb06a4, 0x328123c9bb4d41b0], // lru/deep
    [0x5ced9d19bfbaef8d, 0x96a8f1ef1babcf4c, 0xaadc3fe9ed280c8c, 0xd88dd899b65b0b35], // cached-attention/two-tier
    [0x1a7e3587f229f117, 0xdbda603bbfa81d1e, 0x64d6c012c35973e9, 0x61e5ef7ec5625854], // cached-attention/deep
    [0x18d239f747af0e55, 0x14af9fa0f0ab70c7, 0x777c219373421a60, 0xe77813111bbb1777], // trailing-end/two-tier
    [0x6d8a988e3af928c8, 0x49f16075faf42b9a, 0x57951ca7fe9bc447, 0x0488a1dc86c79267], // trailing-end/deep
    [0x1f47a7d97654028a, 0xca87d154b0817890, 0x89222549f3d9c9ea, 0x42ceb3357fd8c47f], // retention/cold-only
    [0x62db0b9153617707, 0x52e9f876fb1dc318, 0xdae897925ec8ecfd, 0x9881a204877b8472], // retention/ssd-only
    [0xee31a3dee2691d22, 0xfe20ae0d82b47d82, 0x3f98cd5599ce28b8, 0x796486025a904210], // lru/ssd-under-a-chunk
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
            CacheError::PreamblePinned => self.word(109),
            CacheError::ImportTooLarge(conv) => {
                self.word(110);
                self.word(conv.0);
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
    /// Imports and rehydrations that re-attached some of a session's
    /// chain ids, and those that kept some as dropped spans.
    reattached: usize,
    foreign: usize,
}

impl Tape {
    fn new(
        policy: Policy,
        (ssd, cold): (usize, usize),
        preambles: [(u64, usize); 2],
        seed: u64,
        rec: &SharedRecorder,
    ) -> Self {
        let mut d = Digest(0xcbf2_9ce4_8422_2325);
        let sides = preambles.map(|(identity, len)| {
            let cfg = CacheConfig::for_test(CHUNK, GPU, CPU).with_deep_tiers(ssd, cold);
            let mut cache = TieredKvCache::builder(cfg).policy(policy.build()).build();
            cache.set_recorder(Some(rec.clone()));
            // The engine's shape: one preamble, pinned before any session.
            let tokens = synthetic_preamble(identity, len);
            let chain = cache
                .pin_preamble(&tokens)
                .expect("the preamble fits the GPU");
            d.n(chain.len());
            for id in &chain {
                d.word(id.0);
            }
            Side {
                cache,
                running: BTreeSet::new(),
            }
        });
        Tape {
            rng: Rng(seed),
            d,
            secs: 0.0,
            sides,
            touched: Vec::new(),
            turns_ok: 0,
            last_roll: 0,
            reattached: 0,
            foreign: 0,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(self.secs)
    }

    fn session(&mut self) -> SessionId {
        SessionId(1 + self.rng.below(SESSIONS))
    }

    /// Counts how an import or rehydration of `conv` into side `k` that
    /// named `named` chain tokens treated them.
    fn count_import(&mut self, k: usize, conv: SessionId, named: usize) {
        let attached = self.sides[k].cache.global_shared_tokens(conv);
        self.reattached += usize::from(attached > 0);
        self.foreign += usize::from(named > attached);
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
        let roll = self.rng.below(89);
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
                        let named = export.shared.iter().map(|r| r.tokens).sum();
                        let r = self.sides[1 - k].cache.import_session(export, now);
                        self.d.tokens(&r);
                        if r.is_ok() {
                            self.count_import(1 - k, conv, named);
                        }
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
                if r.is_ok() {
                    let chained = manifest.iter().filter(|m| m.id != ChunkId::NONE);
                    self.count_import(target, conv, chained.map(|m| m.tokens).sum());
                }
                self.touched.push((target, conv));
            }
            78..=82 => {
                // A conversation new to the cache attaches the preamble.
                let r = self.sides[k].cache.attach_preamble(conv, now);
                self.d.tokens(&r);
            }
            83..=85 => {
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
            86 => {
                let n = self.sides[k].cache.drop_cpu_chunks(conv, now);
                self.d.n(n);
            }
            87 => {
                let n = self.sides[k].cache.drop_deep_chunks(conv, now);
                self.d.n(n);
            }
            _ => {
                let commits = self.sides[k].cache.take_commits();
                self.d.n(commits.len());
                for (s, n) in commits {
                    self.d.word(s.0);
                    self.d.n(n);
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

    /// Folds both caches' final state.
    fn finish(&mut self) {
        for side in &self.sides {
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
    deep_reads: usize,
    revalidations: usize,
    shared_attaches: usize,
    reattached: usize,
    foreign: usize,
}

/// Runs one tape. With `trace`, prints the running digest after every op
/// and the event stream at the end, so that two builds can be diffed
/// down to the first op — or the first event — that diverges.
fn run(
    policy: Policy,
    deep: (usize, usize),
    preambles: [(u64, usize); 2],
    seed: u64,
    trace: bool,
) -> (u64, Coverage) {
    let rec = SharedRecorder::new();
    let mut tape = Tape::new(policy, deep, preambles, seed, &rec);
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
        reattached: tape.reattached,
        foreign: tape.foreign,
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
            TraceEvent::ChunkDemoted { .. } => cov.private_demotions += 1,
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
    for (i, (&(name, policy, ssd, cold), golden)) in CONFIGS.iter().zip(&GOLDEN).enumerate() {
        let preambles = PREAMBLES[i % PREAMBLES.len()];
        let mut cells = Vec::new();
        for (&seed, &expected) in SEEDS.iter().zip(golden) {
            let (digest, cov) = run(policy, (ssd, cold), preambles, seed, false);
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
            // Whole chunks of the two preambles: do they share ids, and
            // do they differ?
            let [a, b] = preambles.map(|(identity, len)| (identity, len / CHUNK));
            if a.0 == b.0 && a.1.min(b.1) > 0 {
                assert!(cov.reattached > 0, "no import re-attached its chain — {at}");
            }
            if a != b {
                assert!(cov.foreign > 0, "no import dropped foreign ids — {at}");
            }
            if ssd >= CHUNK || cold >= CHUNK {
                assert!(cov.private_demotions > 0 && cov.deep_reads > 0, "{at}");
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
}

/// The same seed must reproduce itself, and a different one must not.
#[test]
fn the_tape_is_deterministic_and_seed_sensitive() {
    let preambles = PREAMBLES[2];
    let (a, _) = run(Policy::Lru, (128, 96), preambles, 9, false);
    let (b, _) = run(Policy::Lru, (128, 96), preambles, 9, false);
    let (c, _) = run(Policy::Lru, (128, 96), preambles, 10, false);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// Diagnostic, not a check: prints every config's per-op digests and
/// event stream. Run it on two builds and diff the output —
/// `cargo test -p pensieve-kvcache --test tape -- --ignored --nocapture`.
#[test]
#[ignore = "diagnostic output for diffing two builds"]
fn print_per_op_digests() {
    for (i, &(name, policy, ssd, cold)) in CONFIGS.iter().enumerate() {
        for seed in SEEDS {
            println!("== {name} seed {seed}");
            run(
                policy,
                (ssd, cold),
                PREAMBLES[i % PREAMBLES.len()],
                seed,
                true,
            );
        }
    }
}
