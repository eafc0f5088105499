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
//! * **Cost.** A pass scores the tier's members once, one successor per
//!   candidate it pops, and the shared candidates — counted, not timed —
//!   and conversations with nothing in the tier cost it nothing.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use proptest::prelude::*;

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
    TieredKvCache::builder(CacheConfig::for_test(CHUNK, 320, 160))
        .policy(policy)
        .deep_tiers(ssd, cold)
        .build()
}

/// `tier`'s queue at `now`, drained to exhaustion without evicting.
fn drained(
    cache: &TieredKvCache,
    tier: Tier,
    skip: Option<SessionId>,
    now: SimTime,
) -> Vec<Victim> {
    let mut queue = cache.candidate_queue(tier, skip, now);
    std::iter::from_fn(|| cache.next_candidate(&mut queue, now)).collect()
}

/// The same list from the full sort.
fn sorted(cache: &TieredKvCache, tier: Tier, skip: Option<SessionId>, now: SimTime) -> Vec<Victim> {
    let all = cache.collect_candidates(tier, now).into_iter();
    all.map(|(victim, _)| victim)
        .filter(|v| !matches!(*v, Victim::Conv(conv, _) if Some(conv) == skip))
        .collect()
}

/// Queue and oracle agree on every tier, with and without an excluded
/// conversation, now and after the retention curves have had time to
/// cross; and the maintained state recounts.
fn assert_queue_is_the_sort(cache: &TieredKvCache, secs: f64, what: &str) {
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

/// Applies one generated op. Ops that cannot apply are typed errors or
/// no-ops, as for any caller.
fn apply(
    cache: &mut TieredKvCache,
    forked: &mut BTreeSet<SessionId>,
    (kind, session, amount): (u8, u64, usize),
    now: SimTime,
) -> &'static str {
    let conv = SessionId(1 + session);
    let other = SessionId(1 + (session + 1 + amount as u64 % (SESSIONS - 1)) % SESSIONS);
    match kind {
        0..=3 => {
            // A turn: restore (evicting on the conversation's behalf if
            // the GPU is short), then the prompt.
            if cache.conversation_tokens(conv) > 200 {
                cache.remove_conversation(conv);
            }
            if let Err(CacheError::OutOfGpu { needed, .. }) = cache.commit_restore(conv, now) {
                cache.swap_out_until_for(needed, Some(conv), now);
            }
            if cache.commit_restore(conv, now).is_ok()
                && cache.append_tokens(conv, amount, now).is_err()
            {
                cache.swap_out_until_for(amount, Some(conv), now);
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
            cache.maybe_swap_out(now);
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
            cache.suspend(conv, now);
            "suspend"
        }
        10..=11 => {
            let for_conv = (amount % 3 > 0).then_some(conv);
            cache.swap_out_until_for(amount * 5, for_conv, now);
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
        14 => {
            // A parent forks once: forking a re-created session again
            // re-derives pooled ids (a recorded defect the tape steps
            // around too).
            if !cache.contains(other) && forked.insert(conv) {
                let _ = cache.fork_session(conv, other, now);
            }
            "fork"
        }
        15 => {
            let chain = cache.register_shared(&synthetic_preamble(session % 2, 32 + CHUNK), now);
            let _ = cache.attach_shared(conv, &chain, now);
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
                let mut forked = BTreeSet::new();
                let mut secs = 0.0;
                for (op, step) in ops.iter().zip(&steps) {
                    // Steps of zero keep ties in play.
                    secs += f64::from(step.saturating_sub(500)) / 1000.0;
                    let what = apply(&mut cache, &mut forked, *op, t(secs));
                    assert_queue_is_the_sort(&cache, secs, what);
                }
            }
        }
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
    let tier_of = |cache: &TieredKvCache, idx: usize| cache.convs[&a].chunks[idx].tier;

    // One pass. Demoting the CPU chunk needs the SSD for the first time:
    // its queue is built (frontier a.0), a.0 goes on to the cold store,
    // and a.2 lands on the SSD — after first need.
    let mut queues = RungQueues::default();
    cache.demote(Victim::Conv(a, 2), CPU_RUNG, t(1.0), &mut queues);
    assert_eq!(
        [0, 1, 2, 3].map(|i| tier_of(&cache, i)),
        [Tier::Cold, Tier::Ssd, Tier::Ssd, Tier::Ssd]
    );
    // Same pass, emptying the SSD: the walk a.1 → a.3 steps over a.2,
    // and the rung runs out of candidates with a.2 still on it.
    assert!(!cache.ensure_space(1, 96, t(1.0), &mut queues));
    assert_eq!(
        [0, 1, 2, 3].map(|i| tier_of(&cache, i)),
        [Tier::Cold, Tier::Cold, Tier::Ssd, Tier::Cold]
    );
    assert_eq!(cache.check_invariants(), Ok(()));
    // The next pass takes it.
    assert!(cache.ensure_space(1, 96, t(1.0), &mut RungQueues::default()));
    assert_eq!(tier_of(&cache, 2), Tier::Cold);
}

/// Counts `score` calls of the policy it wraps.
#[derive(Debug)]
struct Counting<P> {
    inner: P,
    calls: Arc<AtomicUsize>,
}

impl<P: EvictionPolicy> EvictionPolicy for Counting<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score(&self, chunk: &ChunkState, last_active: SimTime, now: SimTime) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.score(chunk, last_active, now)
    }

    fn granularity(&self) -> Granularity {
        self.inner.granularity()
    }

    fn within_order(&self) -> WithinOrder {
        self.inner.within_order()
    }
}

/// `(score calls, victims)` of one GPU pass that frees `target_chunks`
/// chunks' worth of slots (a whole-conversation policy takes more) from
/// 200 sessions × 64 chunks on the GPU, one pooled shared chunk beside
/// them, with `idle` more sessions resident only on the CPU tier.
fn gpu_pass(
    policy: impl EvictionPolicy + 'static,
    target_chunks: usize,
    idle: u64,
) -> (usize, usize) {
    const SESSIONS: u64 = 200;
    const TOKENS: usize = 64 * 32;
    let calls = Arc::new(AtomicUsize::new(0));
    let policy = Counting {
        inner: policy,
        calls: Arc::clone(&calls),
    };
    let gpu = SESSIONS as usize * TOKENS + 32;
    let cfg = CacheConfig::for_test(32, gpu, 4 * gpu);
    let mut cache = TieredKvCache::builder(cfg).policy(Box::new(policy)).build();
    let shared = cache.register_shared(&synthetic_preamble(1, 32), t(0.0));
    let sharer = SessionId(1_000_000);
    cache.attach_shared(sharer, &shared, t(0.0)).unwrap();
    cache.commit_restore(sharer, t(0.0)).unwrap();
    cache.unpin(sharer);
    for s in 0..SESSIONS {
        cache
            .append_tokens(SessionId(s), TOKENS, t(s as f64))
            .unwrap();
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
    calls.store(0, Ordering::Relaxed);
    let ops = cache.swap_out_until(target_chunks * 32, t(1000.0));
    (calls.load(Ordering::Relaxed), ops.len())
}

/// A pass costs its members and its victims — by count, no clock: one
/// score per member conversation, one per successor of a popped
/// candidate (at most one candidate more than it takes), one per shared
/// candidate; and conversations with nothing in the tier cost nothing.
#[test]
fn a_pass_scores_its_members_and_its_victims_only() {
    let (members, shared) = (200, 1);
    let retention = || {
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384))
    };
    for target in [1, 70] {
        let passes = [
            gpu_pass(retention(), target, 0),
            gpu_pass(LruPolicy, target, 0),
            gpu_pass(CachedAttentionPolicy, target, 0),
            gpu_pass(TrailingEndPolicy, target, 0),
        ];
        for (calls, victims) in passes {
            assert!(victims >= target);
            assert!(
                calls <= members + (victims + 1) + shared,
                "{calls} scores for {victims} victims of {members} members"
            );
        }
    }
    assert_eq!(
        gpu_pass(retention(), 70, 2000),
        gpu_pass(retention(), 70, 0),
        "idle CPU-only sessions moved the cost of a GPU pass"
    );
}

/// `check_invariants` recounts each piece of the maintained state from
/// the chunk lists and names the one that drifted.
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

    let mut cache = build();
    let front = cache.members.tiers.gpu.remove(&SessionId(3));
    says(&cache, "SessionId(3): frontier drift in Gpu");
    // Kept for a conversation that is gone.
    cache.members.tiers.gpu.insert(SessionId(3), front.unwrap());
    cache.members.tiers.gpu.insert(SessionId(9), front.unwrap());
    says(
        &cache,
        "membership drift in Gpu: 3 frontiers held for 2 members",
    );

    let mut cache = build();
    cache.members.tiers.cpu.get_mut(&SessionId(1)).unwrap().idx = 1;
    says(&cache, "SessionId(1): frontier drift in Cpu");

    let mut cache = build();
    let front = cache.members.tiers.gpu.get_mut(&SessionId(2)).unwrap();
    front.last_active = t(9.0);
    says(&cache, "SessionId(2): frontier drift in Gpu");

    // A pinned conversation keeps no frontier.
    let mut cache = build();
    entry(&mut cache, 2).pinned = true;
    says(&cache, "SessionId(2): frontier drift in Gpu: found None");
}
