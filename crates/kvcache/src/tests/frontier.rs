//! The frontier queue against what it replaced, and what it may cost.
//!
//! * **Differential.** `TieredKvCache::collect_candidates` is the full
//!   sort the cache used to take once per pass and rung; it survives
//!   under `#[cfg(test)]` as the oracle. After every op of a generated
//!   sequence, for every tier a pass evicts from, a queue built by
//!   `candidate_queue` and drained through `next_candidate` must list
//!   exactly the oracle's victims in the oracle's order — all four
//!   policies on four ladder shapes. The maintained state the queue is
//!   built from (rows, spans, frontiers) is recounted by
//!   `check_invariants` after every op as well.
//! * **First need.** A chunk that lands on a rung after the pass built
//!   that rung's queue waits for the next pass
//!   (`an_entrant_after_first_need_waits_for_the_next_pass`).
//! * **Cost.** A pass scores the frontiers inside its floor band once
//!   and one successor per candidate it pops — counted, not timed; a tie class costs one member however large it
//!   is, and conversations with nothing in the tier cost nothing.
//! * **Pruning is invisible.** The same ops on two caches whose policies
//!   differ only in `score_floor` — the real one, and the default that
//!   visits every frontier — evict the same chunks in the same order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use super::ladder::CPU_RUNG;
use super::occupancy::ConvEntry;
use super::queue::{IdleKey, RungQueues};
use super::*;
use crate::policy::{CachedAttentionPolicy, RetentionValuePolicy, TrailingEndPolicy};
use crate::prefix::synthetic_preamble;
use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable};

const CHUNK: usize = 16;
const SESSIONS: u64 = 8;
/// The tiers a pass builds a queue over.
const EVICTED_FROM: [Tier; 4] = [Tier::Gpu, Tier::Cpu, Tier::Ssd, Tier::Cold];
/// `(ssd, cold)` capacities: two-tier, deep, one rung disabled, one rung
/// under a chunk.
const LADDERS: [(usize, usize); 4] = [(0, 0), (128, 96), (0, 96), (8, 96)];

fn t(secs: f64) -> SimTime {
    SimTime::from_secs(secs)
}

fn policies() -> Vec<Box<dyn EvictionPolicy>> {
    let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
    let table = ProfiledCostTable::profile(&cost, CHUNK, 4096);
    vec![
        Box::new(RetentionValuePolicy::new(table)),
        Box::new(LruPolicy),
        Box::new(CachedAttentionPolicy),
        Box::new(TrailingEndPolicy),
    ]
}

fn cache(policy: Box<dyn EvictionPolicy>, (ssd, cold): (usize, usize)) -> TieredKvCache {
    let mut cache =
        TieredKvCache::builder(CacheConfig::for_test(CHUNK, 320, 160).with_deep_tiers(ssd, cold))
            .policy(policy)
            .build();
    pin(&mut cache);
    cache
}

/// Pins a three-chunk preamble, as the serving engine does, for the
/// generated ops' attaches.
fn pin(cache: &mut TieredKvCache) {
    cache
        .pin_preamble(&synthetic_preamble(1, 3 * CHUNK))
        .unwrap();
}

/// `tier`'s queue at `now`, drained to exhaustion without evicting.
fn drained(
    cache: &mut TieredKvCache,
    tier: Tier,
    skip: Option<SessionId>,
    now: SimTime,
) -> Vec<Victim> {
    let mut queue = cache.candidate_queue(tier, skip);
    let all = std::iter::from_fn(|| cache.next_candidate(&mut queue, now)).collect();
    cache.recycle([queue]);
    all
}

/// The same list from the full sort.
fn sorted(cache: &TieredKvCache, tier: Tier, skip: Option<SessionId>, now: SimTime) -> Vec<Victim> {
    let all = cache.collect_candidates(tier, now).into_iter();
    all.map(|(victim, _)| victim)
        .filter(|&Victim(conv, _)| Some(conv) != skip)
        .collect()
}

/// Queue and oracle agree on every tier, with and without an excluded
/// conversation, now and after the retention curves have had time to
/// cross; and the maintained state recounts.
fn assert_queue_is_the_sort(cache: &mut TieredKvCache, secs: f64, what: &str) {
    assert_eq!(cache.check_invariants(), Ok(()), "after {what}");
    for tier in EVICTED_FROM {
        for later in [0.0, 0.5, 300.0] {
            for skip in [None, Some(SessionId(2))] {
                let now = t(secs + later);
                assert_eq!(
                    drained(cache, tier, skip, now),
                    sorted(cache, tier, skip, now),
                    "{} in {tier:?} at +{later} s skipping {skip:?}, after {what}",
                    cache.policy.name()
                );
            }
        }
    }
}

/// True if `append_tokens` may be called on `conv` as it stands.
fn appendable(cache: &TieredKvCache, conv: SessionId) -> bool {
    let last = cache.convs.get(&conv).and_then(|e| e.chunks.last());
    last.is_none_or(|c| c.tokens == CHUNK || c.tier == Tier::Gpu)
}

/// One applied op: its name, and what its eviction passes returned.
#[derive(Debug, PartialEq)]
struct Step {
    what: &'static str,
    swapped: Vec<SwapOutOp>,
    suspended: usize,
}

/// Applies one generated op. Ops that cannot apply are typed errors or
/// no-ops, as for any caller.
fn apply(
    cache: &mut TieredKvCache,
    (kind, session, amount): (u8, u64, usize),
    now: SimTime,
) -> Step {
    let conv = SessionId(1 + session);
    let (mut swapped, mut suspended) = (Vec::new(), 0);
    let what = match kind {
        0..=3 => {
            // A turn: restore (evicting on the conversation's behalf if
            // the GPU is short), then the prompt.
            if cache.conversation_tokens(conv) > 200 {
                cache.remove_conversation(conv);
            }
            if let Err(CacheError::OutOfGpu { needed, .. }) = cache.commit_restore(conv, now) {
                swapped.extend(cache.swap_out_until_for(needed, Some(conv), now));
            }
            if cache.commit_restore(conv, now).is_ok()
                && cache.append_tokens(conv, amount, now).is_err()
            {
                swapped.extend(cache.swap_out_until_for(amount, Some(conv), now));
                let _ = cache.append_tokens(conv, amount, now);
            }
            "turn"
        }
        4 => {
            // A bare append, pinned or not.
            if appendable(cache, conv) {
                let _ = cache.append_tokens(conv, 1 + amount % 5, now);
            }
            "append"
        }
        5..=6 => {
            cache.unpin(conv);
            swapped = cache.maybe_swap_out(now);
            "unpin"
        }
        7 => {
            cache.pin(conv);
            "pin"
        }
        8 => {
            cache.touch(conv, now);
            "touch"
        }
        9 => {
            suspended = cache.suspend(conv, now);
            "suspend"
        }
        10..=11 => {
            let for_conv = (amount % 3 > 0).then_some(conv);
            swapped = cache.swap_out_until_for(amount * 5, for_conv, now);
            "swap_out_until_for"
        }
        12 => {
            // Hand-off to itself with a chunk lost on the wire and the
            // rest spread over the host tiers.
            if let Some(mut export) = cache.export_session(conv) {
                export.mark_lost(amount % 4);
                let spread = [Tier::Cpu, Tier::Ssd, Tier::Cold, Tier::Cpu];
                for (c, tier) in export.chunks.iter_mut().zip(spread.iter().cycle()) {
                    if c.tier != Tier::Dropped {
                        c.tier = *tier;
                    }
                }
                let _ = cache.import_session(export, now);
            }
            "import"
        }
        13 => {
            let manifest = cache.manifest_chunks(conv);
            cache.remove_conversation(conv);
            let _ = cache.rehydrate_session(conv, &manifest, now);
            "rehydrate"
        }
        14..=15 => {
            let _ = cache.attach_preamble(conv, now);
            "attach"
        }
        16 => {
            cache.remove_conversation(conv);
            "remove"
        }
        17 => {
            cache.drop_cpu_chunks(conv, now);
            "drop_cpu_chunks"
        }
        18 => {
            cache.drop_deep_chunks(conv, now);
            "drop_deep_chunks"
        }
        _ => {
            let listing = cache.cpu_resident_chunks();
            if let Some(&(c, idx, _)) = listing.get(amount % listing.len().max(1)) {
                let _ = if amount % 2 == 0 {
                    cache.mark_chunk_lost(c, idx)
                } else {
                    cache.mark_chunk_corrupt(c, idx)
                };
            }
            "host-memory fault"
        }
    };
    Step {
        what,
        swapped,
        suspended,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential of the module docs.
    #[test]
    fn the_drained_queue_is_the_full_sort(
        ops in prop::collection::vec((0u8..21, 0u64..SESSIONS, 1usize..70), 20..120),
        steps in prop::collection::vec(0u32..3000, 120..121),
    ) {
        for ladder in LADDERS {
            for policy in policies() {
                let mut cache = cache(policy, ladder);
                let mut secs = 0.0;
                for (op, step) in ops.iter().zip(&steps) {
                    // Steps of zero keep ties in play.
                    secs += f64::from(step.saturating_sub(500)) / 1000.0;
                    let step = apply(&mut cache, *op, t(secs));
                    assert_queue_is_the_sort(&mut cache, secs, step.what);
                }
            }
        }
    }

    /// Pruning is invisible (module docs). In half the cases most steps
    /// are zero, so whole populations share a clock.
    #[test]
    fn pruned_and_unpruned_passes_are_one(
        ops in prop::collection::vec((0u8..21, 0u64..SESSIONS, 1usize..70), 20..120),
        steps in prop::collection::vec(0u32..3000, 120..121),
        zero_below in prop::sample::select(vec![500u32, 2500]),
    ) {
        for ladder in LADDERS {
            for mut pair in twins(ladder, CacheConfig::for_test(CHUNK, 320, 160)) {
                for (cache, _) in &mut pair {
                    pin(cache);
                }
                let mut secs = 0.0;
                for (op, step) in ops.iter().zip(&steps) {
                    secs += f64::from(step.saturating_sub(zero_below)) / 1000.0;
                    let what = step_both(&mut pair, *op, t(secs));
                    assert_same(&pair, what);
                }
            }
        }
    }
}

/// A cache and its trace.
type Traced = (TieredKvCache, SharedRecorder);

/// Each policy twice over `cfg` with `(ssd, cold)` deep tiers: as it is,
/// and with the default `score_floor`, which visits every frontier.
fn twins((ssd, cold): (usize, usize), cfg: CacheConfig) -> Vec<[Traced; 2]> {
    let traced = |policy| {
        let rec = SharedRecorder::new();
        let mut cache = TieredKvCache::builder(cfg.clone().with_deep_tiers(ssd, cold))
            .policy(policy)
            .build();
        cache.set_recorder(Some(rec.clone()));
        (cache, rec)
    };
    let pairs = policies().into_iter().zip(policies());
    pairs
        .map(|(real, same)| [traced(real), traced(Probe::unpruned(same))])
        .collect()
}

/// Applies `op` to both twins; asserts they returned and traced the same.
fn step_both(
    [(a, trace_a), (b, trace_b)]: &mut [Traced; 2],
    op: (u8, u64, usize),
    now: SimTime,
) -> &'static str {
    let step = apply(a, op, now);
    let name = a.policy.name();
    assert_eq!(step, apply(b, op, now), "{name}");
    let what = step.what;
    assert_eq!(
        trace_a.take_events(),
        trace_b.take_events(),
        "{name}: {what}"
    );
    what
}

/// Asserts the twins hold the same chunks in the same places, with the
/// same maintained state.
fn assert_same([(a, _), (b, _)]: &[Traced; 2], what: &str) {
    let state = |c: &TieredKvCache| {
        let convs = c.convs.iter();
        let convs: Vec<_> = convs
            .map(|(id, e)| (*id, e.chunks.clone(), e.spans))
            .collect();
        (convs, c.occ, c.stats.clone(), c.copied_fifo.clone())
    };
    let name = a.policy.name();
    assert_eq!(state(a), state(b), "{name} after {what}");
    assert!(
        a.members == b.members,
        "{name}: frontiers differ after {what}"
    );
}

/// The differential at scale: 10 000 members on the deep ladder at five
/// clocks, so tie classes run to thousands, and passes that demote
/// through every rung. Too slow for debug builds.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn pruned_and_unpruned_passes_are_one_at_10k_members() {
    const MEMBERS: u64 = 10_000;
    // 40 tokens a session: 500 fit the GPU, 3 000 each host rung.
    let cfg = CacheConfig::for_test(CHUNK, 500 * 40, 3_000 * 40);
    for mut pair in twins((3_000 * 40, 3_000 * 40), cfg) {
        for s in 0..MEMBERS {
            let now = t((s % 5) as f64);
            // A turn of 40 tokens, then the watermark pass.
            step_both(&mut pair, (0, s, 40), now);
            step_both(&mut pair, (5, s, 0), now);
        }
        assert_same(&pair, "setup");
        let mut rng = proptest::TestRng::from_name("10k");
        for turn in 0..2_000u64 {
            let now = t(5.0 + (turn / 100) as f64);
            let kind = (rng.next_u64() % 12) as u8;
            let op = (
                kind,
                rng.next_u64() % MEMBERS,
                1 + (rng.next_u64() % 69) as usize,
            );
            step_both(&mut pair, op, now);
        }
        assert_same(&pair, "turns");
        assert_eq!(pair[0].0.check_invariants(), Ok(()));
    }
}

/// One 32-token chunk in `tier`, as an export names it.
fn staged(tier: Tier) -> ChunkState {
    ChunkState {
        tier,
        tokens: 32,
        context_end: 0,
    }
}

/// A rung's candidate set is fixed when the pass first needs the rung. A
/// chunk that lands on it afterwards is not a candidate of that pass —
/// even when it sits right where its conversation's walk comes by — and
/// is one in the next.
#[test]
fn an_entrant_after_first_need_waits_for_the_next_pass() {
    let cfg = CacheConfig::for_test(32, 128, 32).with_deep_tiers(96, 256);
    let mut cache = TieredKvCache::builder(cfg).build();
    let a = SessionId(1);
    // a: chunks 0, 1 and 3 fill the SSD; chunk 2 fills the CPU tier.
    let layout = [Tier::Ssd, Tier::Ssd, Tier::Cpu, Tier::Ssd];
    let export = SessionExport {
        session: a,
        shared: Vec::new(),
        chunks: layout.map(staged).to_vec(),
    };
    assert_eq!(cache.import_session(export, t(0.0)), Ok(128));
    let tier_of = |cache: &TieredKvCache, idx: usize| cache.convs.get(&a).unwrap().chunks[idx].tier;

    // One pass. Demoting the CPU chunk needs the SSD for the first time:
    // its queue is built (frontier a.0), a.0 goes on to the cold store,
    // and a.2 lands on the SSD — after first need.
    let mut queues = RungQueues::default();
    cache.demote(Victim(a, 2), CPU_RUNG, None, t(1.0), &mut queues);
    assert_eq!(
        [0, 1, 2, 3].map(|i| tier_of(&cache, i)),
        [Tier::Cold, Tier::Ssd, Tier::Ssd, Tier::Ssd]
    );
    // Same pass, emptying the SSD: the walk a.1 → a.3 steps over a.2,
    // and the rung runs out of candidates with a.2 still on it.
    assert!(!cache.ensure_space(1, 96, None, t(1.0), &mut queues));
    assert_eq!(
        [0, 1, 2, 3].map(|i| tier_of(&cache, i)),
        [Tier::Cold, Tier::Cold, Tier::Ssd, Tier::Cold]
    );
    assert_eq!(cache.check_invariants(), Ok(()));
    // The next pass takes it.
    assert!(cache.ensure_space(1, 96, None, t(1.0), &mut RungQueues::default()));
    assert_eq!(tier_of(&cache, 2), Tier::Cold);
}

/// An entrant may land on a conversation the rung's queue has not
/// visited yet. That conversation's chunks already on the rung stay
/// candidates of the pass: here c.0 must go on to the cold store to make
/// room for c.2, pruned as unpruned.
#[test]
fn an_entrant_keeps_its_conversation_a_candidate_of_a_lazy_queue() {
    let cfg = CacheConfig::for_test(32, 128, 64);
    for mut pair in twins((64, 256), cfg) {
        let (a, c, d) = (SessionId(1), SessionId(2), SessionId(3));
        for (cache, _) in &mut pair {
            // a (idle since 0) and c.0 (since 10) fill the SSD, c.1 and
            // c.2 the CPU tier, d the GPU.
            let import = |session, layout: &[Tier]| SessionExport {
                session,
                shared: Vec::new(),
                chunks: layout.iter().copied().map(staged).collect(),
            };
            assert_eq!(
                cache.import_session(import(a, &[Tier::Ssd]), t(0.0)),
                Ok(32)
            );
            let layout = [Tier::Ssd, Tier::Cpu, Tier::Cpu];
            assert_eq!(cache.import_session(import(c, &layout), t(10.0)), Ok(96));
            cache.append_tokens(d, 128, t(5.0)).unwrap();
            cache.unpin(d);
            // Two GPU victims need the CPU tier twice. The first time c.1
            // leaves for the SSD, whose queue stops in front of c — a.0
            // ranks first — and a.0 makes room. The second time c.2
            // follows, and the SSD has to give up c.0.
            cache.swap_out_until(64, t(1000.0));
            let tiers = cache.convs.get(&c).unwrap().chunks.iter().map(|x| x.tier);
            assert_eq!(
                tiers.collect::<Vec<_>>(),
                [Tier::Cold, Tier::Ssd, Tier::Ssd]
            );
        }
        assert_same(&pair, "the pass");
    }
}

/// Wraps a policy: counts its `score` calls, and keeps its
/// `score_floor` or — `floor: false` — leaves the default, which makes
/// every pass visit every frontier.
#[derive(Debug)]
struct Probe {
    inner: Box<dyn EvictionPolicy>,
    calls: Arc<AtomicUsize>,
    floor: bool,
}

impl Probe {
    fn unpruned(inner: Box<dyn EvictionPolicy>) -> Box<dyn EvictionPolicy> {
        let calls = Arc::default();
        Box::new(Probe {
            inner,
            calls,
            floor: false,
        })
    }
}

impl EvictionPolicy for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score(&self, chunk: &ChunkState, last_active: SimTime, now: SimTime) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.score(chunk, last_active, now)
    }

    fn score_floor(&self, last_active: SimTime, now: SimTime) -> f64 {
        if self.floor {
            self.inner.score_floor(last_active, now)
        } else {
            f64::NEG_INFINITY
        }
    }

    fn granularity(&self) -> Granularity {
        self.inner.granularity()
    }

    fn within_order(&self) -> WithinOrder {
        self.inner.within_order()
    }
}

/// The GPU residents of [`gpu_pass`]: `sessions` × `chunks` 32-token
/// chunks, session `s` last active at `t(s)` — or every one at `t(0)`,
/// one tie class, when `tied` — beside a one-chunk pinned preamble, with
/// `idle` more sessions resident only on the CPU tier.
#[derive(Debug, Clone, Copy)]
struct Residents {
    sessions: u64,
    chunks: usize,
    tied: bool,
    idle: u64,
}

const SPREAD: Residents = Residents {
    sessions: 200,
    chunks: 64,
    tied: false,
    idle: 0,
};

/// What one [`gpu_pass`] cost.
#[derive(Debug, PartialEq)]
struct PassCost {
    /// `score` calls.
    calls: usize,
    victims: usize,
    /// Frontiers whose floor is at most the score of the candidate after
    /// the last victim — the most the pass may visit.
    band: usize,
}

/// One GPU pass over `residents` that frees `target_chunks` chunks' worth
/// of slots (a whole-conversation policy takes more).
fn gpu_pass(
    policy: impl EvictionPolicy + 'static,
    target_chunks: usize,
    residents: Residents,
) -> PassCost {
    let Residents {
        sessions,
        chunks,
        tied,
        idle,
    } = residents;
    let calls = Arc::new(AtomicUsize::new(0));
    let policy = Probe {
        inner: Box::new(policy),
        calls: Arc::clone(&calls),
        floor: true,
    };
    let tokens = chunks * 32;
    let gpu = sessions as usize * tokens + 32;
    let cfg = CacheConfig::for_test(32, gpu, 4 * gpu);
    let mut cache = TieredKvCache::builder(cfg).policy(Box::new(policy)).build();
    cache.pin_preamble(&synthetic_preamble(1, 32)).unwrap();
    let sharer = SessionId(1_000_000);
    cache.attach_preamble(sharer, t(0.0)).unwrap();
    cache.commit_restore(sharer, t(0.0)).unwrap();
    cache.unpin(sharer);
    for s in 0..sessions {
        let at = if tied { 0.0 } else { s as f64 };
        cache.append_tokens(SessionId(s), tokens, t(at)).unwrap();
        cache.unpin(SessionId(s));
    }
    for s in 0..idle {
        let export = SessionExport {
            session: SessionId(10_000 + s),
            shared: Vec::new(),
            chunks: vec![staged(Tier::Cpu)],
        };
        assert_eq!(cache.import_session(export, t(0.0)), Ok(32));
    }
    assert_eq!(cache.gpu_free_effective(), 0);
    let now = t(1000.0);
    let order = cache.collect_candidates(Tier::Gpu, now);
    let floors: Vec<f64> = (cache.members.by_idle.gpu.keys())
        .map(|key| cache.policy.score_floor(key.last_active, now))
        .collect();
    calls.store(0, Ordering::Relaxed);
    let victims = cache.swap_out_until(target_chunks * 32, now).len();
    let after = order
        .get(victims)
        .map_or(f64::INFINITY, |&(_, score)| score);
    PassCost {
        calls: calls.load(Ordering::Relaxed),
        victims,
        band: floors.iter().filter(|&&floor| floor <= after).count(),
    }
}

fn retention() -> RetentionValuePolicy {
    let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
    RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384))
}

/// A pass costs its floor band and its victims — by count, no clock: one
/// score per frontier it visits, which are inside the band, one per
/// successor of a popped candidate (at most one candidate more than it
/// takes). A tie class costs the members the
/// pass takes, not the members it has; conversations with nothing in
/// the tier cost nothing.
#[test]
fn a_pass_scores_its_members_and_its_victims_only() {
    let tied = |sessions| Residents {
        sessions,
        chunks: 4,
        tied: true,
        ..SPREAD
    };
    for target in [1, 70] {
        let passes = |residents| {
            [
                gpu_pass(retention(), target, residents),
                gpu_pass(LruPolicy, target, residents),
                gpu_pass(CachedAttentionPolicy, target, residents),
                gpu_pass(TrailingEndPolicy, target, residents),
            ]
        };
        for cost in passes(SPREAD) {
            let PassCost {
                calls,
                victims,
                band,
            } = cost;
            assert!(victims >= target);
            assert!(
                calls <= band + (victims + 1),
                "{calls} scores for {victims} victims in a band of {band}"
            );
            // Even seventy victims come from the oldest few residents,
            // and so does the band.
            assert!(10 * band as u64 <= SPREAD.sessions, "band of {band}");
        }
        // A tie class is one head at a time: the first, then per pop a
        // successor and the next head.
        for (small, large) in passes(tied(200)).into_iter().zip(passes(tied(2000))) {
            assert_eq!(small.calls, large.calls, "a tie class costs its size");
            assert!(small.calls <= 1 + 2 * (small.victims + 1));
        }
    }
    assert_eq!(
        gpu_pass(
            retention(),
            70,
            Residents {
                idle: 2000,
                ..SPREAD
            }
        ),
        gpu_pass(retention(), 70, SPREAD),
        "idle CPU-only sessions moved the cost of a GPU pass"
    );
}

/// `check_invariants` recounts each piece of the maintained state from
/// the chunk lists and names the one that drifted: a row, a span, and the
/// candidate index — an entry lost, a stale key, a wrong chunk index, an
/// entry for a conversation with no tokens in the tier, and one for a
/// pinned conversation.
#[test]
fn check_invariants_names_row_span_and_frontier_drift() {
    let build = || {
        let mut cache = cache(Box::new(LruPolicy), (128, 96));
        for s in 1..=3 {
            cache.append_tokens(SessionId(s), 40, t(s as f64)).unwrap();
            cache.unpin(SessionId(s));
        }
        cache.suspend(SessionId(1), t(4.0));
        assert_eq!(cache.check_invariants(), Ok(()));
        cache
    };
    fn entry(cache: &mut TieredKvCache, s: u64) -> &mut ConvEntry {
        cache.convs.get_mut(&SessionId(s)).unwrap()
    }
    /// Session `s`'s entry in the GPU index.
    fn gpu_key(cache: &TieredKvCache, s: u64) -> (IdleKey, usize) {
        let index = &cache.members.by_idle.gpu;
        let found = index.iter().find(|(k, _)| k.conv == SessionId(s));
        found.map(|(&key, &idx)| (key, idx)).unwrap()
    }
    let says = |cache: &TieredKvCache, what: &str| {
        let err = cache.check_invariants().unwrap_err();
        assert!(err.contains(what), "{err:?} does not name {what:?}");
    };

    let mut cache = build();
    entry(&mut cache, 2).row.gpu += 1;
    says(&cache, "SessionId(2): row drift");

    let mut cache = build();
    entry(&mut cache, 1).spans.cpu.hi = 1;
    says(&cache, "SessionId(1): chunk 1 in Cpu lies outside its span");

    // An entry lost.
    let mut cache = build();
    let (key, idx) = gpu_key(&cache, 3);
    cache.members.by_idle.gpu.remove(&key);
    says(&cache, "SessionId(3): index drift in Gpu");

    // A stale key: the clock it was seated at has moved.
    let mut cache = build();
    cache.members.by_idle.gpu.remove(&key);
    let stale = IdleKey {
        last_active: t(9.0),
        ..key
    };
    cache.members.by_idle.gpu.insert(stale, idx);
    says(&cache, "SessionId(3): index drift in Gpu");

    // A key at the wrong chunk.
    let mut cache = build();
    cache.members.by_idle.gpu.insert(key, idx + 1);
    says(&cache, "SessionId(3): index drift in Gpu");

    // An entry for a conversation with no tokens in the tier: session 1
    // is suspended, all of it on the CPU.
    let mut cache = build();
    cache.members.by_idle.gpu.insert(
        IdleKey {
            conv: SessionId(1),
            ..key
        },
        idx,
    );
    says(&cache, "index drift in Gpu: 3 entries for 2 members");

    // An entry for a pinned conversation.
    let mut cache = build();
    entry(&mut cache, 2).pinned = true;
    says(&cache, "SessionId(2): index drift in Gpu");
}
