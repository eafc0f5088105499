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
    [0x863ad948fd3a8df3, 0x7f09d5199710fecc, 0xfab72130bc43a9a6, 0xc957f292636b28fd], // retention/two-tier
    [0xe3042cbb827ff73a, 0x0a09414d2e2b4bd3, 0xbb30f729d6b95c68, 0xc16166379c417716], // retention/deep
    [0x7b3485e766c15465, 0x491a30b584d70090, 0xdca89ebadeda84df, 0xa2480110ef363ddf], // lru/two-tier
    [0x08f65a5d24d41c42, 0x93b1b3e27d9a6b28, 0x5e5d39a369d5786c, 0xb5631549dab33c94], // lru/deep
    [0x47512bdf9f75bfa6, 0x742819873429b6a2, 0x3774ae79c3b43d9e, 0x321ed3d5ba608c45], // cached-attention/two-tier
    [0xe8619682d1cd66c4, 0x747d58eba576529a, 0xa03cf57db6cb6fb3, 0x42c78df826f91bba], // cached-attention/deep
    [0xb6b0a5753de12d1e, 0xd328b019b819cf5c, 0x7d19193cbb9e5de4, 0xebc304141c1fa9ea], // trailing-end/two-tier
    [0x79bac091a20b92cc, 0xfa6f07c1ef650508, 0xc6c8b67179654b4d, 0x3732207fcdc70ab4], // trailing-end/deep
    [0xdbb9d35d3296d33f, 0xf1467a2d056cf034, 0x61205979abd48ffe, 0x488516ad9638853e], // retention/cold-only
    [0x7ab30a6ee1e3a35f, 0xf48158048f532579, 0xdc41c699cd707fee, 0xeadfc128ebda75e3], // retention/ssd-only
    [0x10c9c1b46f7573c0, 0xe6d06511c297319f, 0xed215e001d01df60, 0x43001e445a9f0756], // lru/ssd-under-a-chunk
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
            CacheError::BrokenSharedChain(id) => {
                self.word(109);
                self.word(id.0);
            }
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
        let side = || {
            let cfg = CacheConfig::for_test(CHUNK, GPU, CPU).with_deep_tiers(ssd, cold);
            let mut cache = TieredKvCache::builder(cfg).policy(policy.build()).build();
            cache.set_recorder(Some(rec.clone()));
            Side {
                cache,
                running: BTreeSet::new(),
                chains: Vec::new(),
                has_global: false,
            }
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
        // Registering again, with a trailing partial chunk, is
        // idempotent: the same chain, nothing new pooled.
        let mut again = tokens;
        again.extend([7, 7, 7]);
        let again = side.cache.register_shared(&again, now);
        assert_eq!(again, chain, "re-registration moved the chain");
        self.d.n(again.len());
        side.chains.push(chain);
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
        let roll = self.rng.below(92);
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
            85 => {
                let side = &mut self.sides[k];
                if !side.has_global {
                    let chain = side.chains[conv.0 as usize % side.chains.len()].clone();
                    match side.cache.materialize_global(&chain, now) {
                        Ok(()) => {
                            self.d.n(chain.len());
                            side.has_global = true;
                        }
                        Err(e) => self.d.err(&e),
                    }
                }
            }
            86..=88 => {
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
            89 => {
                let n = self.sides[k].cache.drop_cpu_chunks(conv, now);
                self.d.n(n);
            }
            90 => {
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
