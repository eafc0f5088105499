//! The cache's behaviour through its own API, one scenario per test:
//! restore plans, the watermark and lazy copies, the ladder, handoff,
//! faults and the global preamble.

use std::collections::BTreeMap;

use proptest::prelude::*;

use super::ladder::CPU_RUNG;
use super::queue::RungQueues;
use super::*;
use crate::manifest::{ManifestChunk, SessionManifest};
use crate::policy::{CachedAttentionPolicy, LruPolicy, TrailingEndPolicy};
use crate::prefix::synthetic_preamble;

fn lru_cache(gpu: usize, cpu: usize) -> TieredKvCache {
    TieredKvCache::new(CacheConfig::for_test(32, gpu, cpu), Box::new(LruPolicy))
}

fn t(secs: f64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Manifest entries for private (non-shared) chunks of the given sizes.
fn private_manifest(tokens: &[usize]) -> Vec<ManifestChunk> {
    tokens
        .iter()
        .map(|&tokens| ManifestChunk {
            id: ChunkId::NONE,
            tokens,
        })
        .collect()
}

#[test]
fn append_builds_chunks() {
    let mut cache = lru_cache(1000, 1000);
    let c = SessionId(1);
    cache.append_tokens(c, 50, t(0.0)).unwrap();
    assert_eq!(cache.conversation_tokens(c), 50);
    cache.append_tokens(c, 20, t(1.0)).unwrap();
    assert_eq!(cache.conversation_tokens(c), 70);
    assert_eq!(cache.gpu_slots_used(), 70);
    // 70 tokens at chunk 32 = chunks of 32, 32, 6.
    let plan = cache.plan_restore(c);
    assert_eq!(plan.gpu_hit_tokens, 70);
    assert!(plan.is_full_gpu_hit());
}

#[test]
fn export_import_round_trip_preserves_layout() {
    let mut src = lru_cache(1000, 1000);
    let c = SessionId(7);
    src.append_tokens(c, 70, t(0.0)).unwrap();
    src.unpin(c);
    let export = src.export_session(c).expect("unpinned session exports");
    assert!(!src.contains(c));
    assert_eq!(src.gpu_slots_used(), 0);
    assert_eq!(src.cpu_used(), 0);
    assert_eq!(export.streamable_tokens(), 70);
    assert_eq!(export.dropped_tokens(), 0);
    assert!(export.chunks.iter().all(|ch| ch.tier == Tier::Cpu));

    let mut dst = lru_cache(1000, 1000);
    let admitted = dst.import_session(export, t(1.0)).unwrap();
    assert_eq!(admitted, 70);
    assert_eq!(dst.cpu_used(), 70);
    let plan = dst.plan_restore(c);
    assert_eq!(plan.swap_in_tokens, 70);
    assert_eq!(plan.recompute_tokens, 0);
}

#[test]
fn export_refuses_pinned_and_unknown_sessions() {
    let mut cache = lru_cache(1000, 1000);
    let c = SessionId(1);
    cache.append_tokens(c, 40, t(0.0)).unwrap();
    cache.pin(c);
    assert!(cache.export_session(c).is_none());
    assert_eq!(cache.conversation_tokens(c), 40);
    assert!(cache.export_session(SessionId(99)).is_none());
    cache.unpin(c);
    assert!(cache.export_session(c).is_some());
}

#[test]
fn lost_chunks_become_recompute_obligations() {
    let mut src = lru_cache(1000, 1000);
    let c = SessionId(2);
    src.append_tokens(c, 96, t(0.0)).unwrap();
    src.unpin(c);
    let mut export = src.export_session(c).unwrap();
    assert_eq!(export.mark_lost(0), 32);
    assert_eq!(export.mark_lost(0), 0, "double-loss is idempotent");
    assert_eq!(export.streamable_tokens(), 64);
    assert_eq!(export.dropped_tokens(), 32);

    let mut dst = lru_cache(1000, 1000);
    assert_eq!(dst.import_session(export, t(1.0)).unwrap(), 64);
    let plan = dst.plan_restore(c);
    // A dropped leading chunk forces recomputation of the prefix;
    // the surviving CPU chunks behind it are swapped in.
    assert_eq!(plan.recompute_tokens, 32);
    assert_eq!(plan.swap_in_tokens, 64);
}

#[test]
fn import_demotes_past_cpu_capacity() {
    let mut src = lru_cache(1000, 1000);
    let c = SessionId(3);
    src.append_tokens(c, 96, t(0.0)).unwrap();
    src.unpin(c);
    let export = src.export_session(c).unwrap();

    // Target CPU tier only fits one 32-token chunk.
    let mut dst = lru_cache(1000, 40);
    let before = dst.stats().dropped_tokens;
    assert_eq!(dst.import_session(export, t(1.0)).unwrap(), 32);
    assert_eq!(dst.stats().dropped_tokens - before, 64);
    assert_eq!(dst.conversation_tokens(c), 96);
    assert_eq!(dst.cpu_used(), 32);
}

#[test]
fn import_rejects_existing_session() {
    let mut a = lru_cache(1000, 1000);
    let c = SessionId(4);
    a.append_tokens(c, 32, t(0.0)).unwrap();
    a.unpin(c);
    let export = a.export_session(c).unwrap();

    let mut b = lru_cache(1000, 1000);
    b.append_tokens(c, 32, t(0.0)).unwrap();
    assert!(matches!(
        b.import_session(export, t(1.0)),
        Err(CacheError::SessionExists(s)) if s == c
    ));
    assert_eq!(b.conversation_tokens(c), 32);
}

/// An export whose counts no cache could track is refused before
/// anything is attached, split or counted: a span of `usize::MAX` or
/// `usize::MAX / 2` tokens (`usize::MAX / 2` sums fine but splits into
/// more chunks than a list can hold), a shared-ref total that overflows,
/// and a re-attached preamble chunk plus a span that overflow together. A
/// checksum-valid manifest whose two entries overflow is refused by
/// rehydration the same way.
#[test]
fn import_rejects_sizes_past_usize() {
    let mut dst = lru_cache(1000, 1000);
    let chain = dst.pin_preamble(&synthetic_preamble(3, 64)).unwrap();
    let c = SessionId(5);
    let private = |tokens| SessionExport {
        session: c,
        shared: Vec::new(),
        chunks: vec![ChunkState {
            tier: Tier::Cpu,
            tokens,
            context_end: 0,
        }],
    };
    let unknown = |tokens| ManifestChunk {
        id: ChunkId(u64::MAX),
        tokens,
    };
    let exports = [
        private(usize::MAX),
        private(usize::MAX / 2),
        SessionExport {
            shared: vec![unknown(usize::MAX / 2 + 1), unknown(usize::MAX / 2 + 1)],
            ..private(0)
        },
        SessionExport {
            shared: vec![ManifestChunk {
                id: chain[0],
                tokens: 32,
            }],
            ..private(usize::MAX - 1)
        },
    ];
    for export in exports {
        assert_eq!(
            dst.import_session(export, t(1.0)),
            Err(CacheError::ImportTooLarge(c))
        );
        assert!(!dst.contains(c), "nothing was attached");
        assert_eq!(dst.stats().dropped_tokens, 0, "nothing was counted");
        assert_eq!(dst.check_invariants(), Ok(()));
    }
    let entry = ManifestChunk {
        id: ChunkId::NONE,
        tokens: usize::MAX / 2 + 1,
    };
    let bytes = SessionManifest {
        session: c,
        chunks: vec![entry; 2],
    }
    .to_bytes();
    let manifest = SessionManifest::from_bytes(&bytes).expect("checksum-valid record");
    assert_eq!(
        dst.rehydrate_session(c, &manifest.chunks, t(1.0)),
        Err(CacheError::ImportTooLarge(c))
    );
    assert!(!dst.contains(c));
    assert_eq!(dst.stats().rehydrated_tokens, 0, "nothing was counted");
    assert_eq!(dst.check_invariants(), Ok(()));
}

#[test]
fn append_rejects_overflow() {
    let mut cache = lru_cache(64, 64);
    let c = SessionId(1);
    assert!(matches!(
        cache.append_tokens(c, 65, t(0.0)),
        Err(CacheError::OutOfGpu { needed: 65, .. })
    ));
    assert_eq!(cache.conversation_tokens(c), 0);
}

#[test]
fn watermark_triggers_ahead_of_time_swap() {
    // Capacity 128, watermark 25% -> swap when effective free < 32.
    let mut cache = lru_cache(128, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 64, t(0.0)).unwrap();
    cache.unpin(a);
    // 64 free (50%): above the watermark, nothing to do.
    assert!(cache.maybe_swap_out(t(0.5)).is_empty());
    cache.append_tokens(a, 36, t(1.0)).unwrap();
    cache.unpin(a);
    // 28 effectively free -> copy exactly one 32-token chunk.
    let ops = cache.maybe_swap_out(t(1.5));
    assert_eq!(ops.len(), 1);
    assert!(!ops[0].dropped);
    assert_eq!(ops[0].tokens, 32);
    assert!(cache.gpu_free_effective() >= 32);
    // The copied chunk still revalidates for free on return.
    let plan = cache.plan_restore(a);
    assert_eq!(plan.revalidate_tokens, 32);
    assert_eq!(plan.swap_in_tokens, 0);
}

#[test]
fn revalidation_restores_for_free() {
    let mut cache = lru_cache(128, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 100, t(0.0)).unwrap();
    cache.unpin(a);
    let ops = cache.maybe_swap_out(t(1.0));
    assert_eq!(ops.len(), 1, "one chunk copied reaches the watermark");
    let plan = cache.commit_restore(a, t(2.0)).unwrap();
    assert_eq!(plan.new_gpu_slots(), 0, "revalidation costs nothing");
    assert_eq!(cache.stats().revalidated_tokens, 32);
    assert_eq!(cache.stats().swapped_in_tokens, 0);
    assert!(cache.stats().full_gpu_hits == 1);
}

#[test]
fn lazy_copies_reclaimed_under_pressure_then_swapped_in() {
    let mut cache = lru_cache(128, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 100, t(0.0)).unwrap();
    cache.unpin(a);
    cache.maybe_swap_out(t(1.0));
    // A second conversation consumes the reclaimable slots.
    let b = SessionId(2);
    cache.append_tokens(b, 60, t(2.0)).unwrap();
    // A's copied chunk lost its GPU slot.
    let plan = cache.plan_restore(a);
    assert_eq!(plan.swap_in_tokens, 32);
    assert_eq!(plan.revalidate_tokens, 0);
    // B must release space before A can restore (b drops from gpu).
    cache.unpin(b);
    cache.suspend(b, t(3.0));
    let plan = cache.commit_restore(a, t(3.0)).unwrap();
    assert_eq!(plan.new_gpu_slots(), 32);
    assert_eq!(cache.stats().swapped_in_tokens, 32);
    assert_eq!(cache.stats().partial_hits, 1);
}

#[test]
fn chunk_too_big_for_cpu_tier_is_dropped() {
    // CPU tier smaller than one chunk: eviction must drop, not copy.
    let mut cache = lru_cache(128, 16);
    let a = SessionId(1);
    cache.append_tokens(a, 128, t(0.0)).unwrap();
    cache.unpin(a);
    let ops = cache.maybe_swap_out(t(1.0));
    assert_eq!(ops.len(), 1);
    assert!(ops[0].dropped);
    assert_eq!(ops[0].chunk, 0, "leading chunk goes first under LRU");
    assert_eq!(cache.stats().dropped_tokens, 32);
}

#[test]
fn cpu_pressure_drops_cpu_chunks_leading_first() {
    let mut cache = lru_cache(192, 64);
    // Conversation A is suspended to CPU (64 tokens fill the tier).
    let a = SessionId(1);
    cache.append_tokens(a, 64, t(0.0)).unwrap();
    cache.suspend(a, t(1.0));
    assert_eq!(cache.cpu_used(), 64);
    // Conversation B fills the GPU and triggers eviction; copying B's
    // chunk requires dropping A's leading CPU chunk.
    let b = SessionId(2);
    cache.append_tokens(b, 192, t(2.0)).unwrap();
    cache.unpin(b);
    let ops = cache.maybe_swap_out(t(3.0));
    assert!(!ops.is_empty());
    assert!(!ops[0].dropped, "B's chunk was copied, not dropped");
    assert!(cache.stats().dropped_tokens >= 32, "A lost a CPU chunk");
    let plan_a = cache.plan_restore(a);
    assert!(plan_a.recompute_tokens >= 32);
    assert_eq!(
        plan_a.segments.first().map(|(r, t)| (r.clone(), *t)),
        Some((0..64, Tier::Dropped)),
        "A's chunks dropped from the leading end"
    );
}

#[test]
fn restore_plan_splits_figure5_segments() {
    let mut cache = lru_cache(128, 64);
    let a = SessionId(1);
    cache.append_tokens(a, 128, t(0.0)).unwrap();
    // Suspending with a CPU tier that holds only two chunks: chunks
    // 0 and 1 get copied but are then dropped to make room for 2 and
    // 3, leaving the paper's Figure-5 layout — dropped prefix, CPU
    // middle.
    cache.suspend(a, t(1.0));
    let plan = cache.plan_restore(a);
    assert_eq!(plan.recompute_tokens, 64);
    assert_eq!(plan.swap_in_tokens, 64);
    assert_eq!(plan.segments.len(), 2);
    assert_eq!(plan.segments[0], (0..64, Tier::Dropped));
    assert_eq!(plan.segments[1], (64..128, Tier::Cpu));
    assert!(!plan.is_full_gpu_hit());
    assert_eq!(plan.new_gpu_slots(), 128);
}

#[test]
fn suspend_moves_everything_off_gpu() {
    let mut cache = lru_cache(256, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 100, t(0.0)).unwrap();
    let moved = cache.suspend(a, t(1.0));
    assert_eq!(moved, 100);
    assert_eq!(cache.gpu_slots_used(), 0);
    let plan = cache.plan_restore(a);
    assert_eq!(plan.swap_in_tokens, 100);
}

#[test]
fn pinned_conversations_are_not_evicted() {
    let mut cache = lru_cache(128, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 120, t(0.0)).unwrap();
    // Still pinned: swap-out finds no candidates.
    let ops = cache.maybe_swap_out(t(1.0));
    assert!(ops.is_empty());
    cache.unpin(a);
    assert!(!cache.maybe_swap_out(t(1.0)).is_empty());
}

#[test]
fn lru_evicts_least_recently_active_conversation() {
    let mut cache = lru_cache(96, 1000);
    let (a, b) = (SessionId(1), SessionId(2));
    cache.append_tokens(a, 32, t(0.0)).unwrap();
    cache.append_tokens(b, 32, t(5.0)).unwrap();
    cache.unpin(a);
    cache.unpin(b);
    // 32 free = 33% > 25%: no swap yet. Add one more chunk.
    let c = SessionId(3);
    cache.append_tokens(c, 32, t(6.0)).unwrap();
    let ops = cache.maybe_swap_out(t(7.0));
    assert_eq!(ops[0].conv, a, "oldest conversation evicted first");
}

#[test]
fn whole_conversation_policy_takes_all_chunks_of_one_conv() {
    let mut cache = TieredKvCache::new(
        CacheConfig::for_test(32, 192, 1000),
        Box::new(CachedAttentionPolicy),
    );
    let (a, b) = (SessionId(1), SessionId(2));
    cache.append_tokens(a, 64, t(0.0)).unwrap();
    cache.append_tokens(b, 96, t(5.0)).unwrap();
    cache.unpin(a);
    cache.unpin(b);
    // 32 free < 48 trigger: evict. Policy must take both of A's chunks
    // before any of B's.
    let ops = cache.maybe_swap_out(t(6.0));
    assert!(ops.len() >= 2);
    assert!(ops[0].conv == a && ops[1].conv == a);
}

#[test]
fn trailing_policy_evicts_from_the_back() {
    let mut cache = TieredKvCache::new(
        CacheConfig::for_test(32, 128, 1000),
        Box::new(TrailingEndPolicy),
    );
    let a = SessionId(1);
    cache.append_tokens(a, 128, t(0.0)).unwrap();
    cache.unpin(a);
    let ops = cache.maybe_swap_out(t(1.0));
    assert_eq!(ops[0].chunk, 3, "trailing chunk first");
}

#[test]
fn remove_conversation_frees_all_tiers() {
    let mut cache = lru_cache(128, 64);
    let a = SessionId(1);
    cache.append_tokens(a, 128, t(0.0)).unwrap();
    cache.unpin(a);
    cache.maybe_swap_out(t(1.0));
    cache.remove_conversation(a);
    assert_eq!(cache.gpu_slots_used(), 0);
    assert_eq!(cache.cpu_used(), 0);
    assert_eq!(cache.conversation_tokens(a), 0);
}

#[test]
fn commit_restore_fails_without_space_and_is_side_effect_free() {
    let mut cache = lru_cache(96, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 96, t(0.0)).unwrap();
    cache.unpin(a);
    cache.suspend(a, t(1.0));
    // Fill the GPU with another pinned conversation.
    let b = SessionId(2);
    cache.append_tokens(b, 96, t(2.0)).unwrap();
    let before = cache.plan_restore(a);
    assert!(cache.commit_restore(a, t(3.0)).is_err());
    assert_eq!(cache.plan_restore(a), before, "failed commit mutated state");
}

/// Retention-value eviction order: cheap-to-recompute leading chunks
/// of long-idle conversations go first; an active conversation's
/// trailing chunk goes last.
#[test]
fn retention_value_orders_evictions() {
    use crate::policy::RetentionValuePolicy;
    use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable};
    let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
    let policy = RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384));
    let mut cache = TieredKvCache::new(CacheConfig::for_test(32, 512, 4096), Box::new(policy));
    // Conversation A: long context, idle since t=0.
    let a = SessionId(1);
    cache.append_tokens(a, 256, t(0.0)).unwrap();
    cache.unpin(a);
    // Conversation B: short context, active recently.
    let b = SessionId(2);
    cache.append_tokens(b, 128, t(100.0)).unwrap();
    cache.unpin(b);
    // Force deep eviction.
    let ops = cache.swap_out_until(512, t(101.0));
    assert!(!ops.is_empty());
    // The very first eviction is A's leading chunk (idle + cheap).
    assert_eq!(ops[0].conv, a);
    assert_eq!(ops[0].chunk, 0);
    // All of A's chunks go before any of B's (A idle 101 s vs 1 s —
    // the idle-time ratio dominates the cost ratio here).
    let first_b = ops.iter().position(|o| o.conv == b);
    let last_a = ops.iter().rposition(|o| o.conv == a);
    if let (Some(fb), Some(la)) = (first_b, last_a) {
        assert!(la < fb, "A (idle) must evict before B (recent)");
    }
    // Within A, chunks leave leading-end first.
    let a_chunks: Vec<usize> = ops
        .iter()
        .filter(|o| o.conv == a)
        .map(|o| o.chunk)
        .collect();
    let mut sorted = a_chunks.clone();
    sorted.sort_unstable();
    assert_eq!(a_chunks, sorted, "leading chunks evicted first");
}

/// Stale lazy-copy FIFO entries (revalidated chunks) are skipped, and
/// re-copied chunks reclaim correctly afterwards.
#[test]
fn reclamation_skips_revalidated_copies() {
    let mut cache = lru_cache(128, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 100, t(0.0)).unwrap();
    cache.unpin(a);
    // Copy one chunk out, then revalidate it by restoring A.
    assert_eq!(cache.maybe_swap_out(t(1.0)).len(), 1);
    cache.commit_restore(a, t(2.0)).unwrap();
    assert_eq!(cache.stats().revalidated_tokens, 32);
    cache.unpin(a);
    // Copy again; the stale FIFO entry must not confuse reclamation.
    cache.append_tokens(a, 4, t(3.0)).unwrap();
    cache.unpin(a);
    let ops = cache.maybe_swap_out(t(4.0));
    assert!(!ops.is_empty());
    // A new conversation forces reclamation of the fresh copy.
    let b = SessionId(2);
    cache.append_tokens(b, 50, t(5.0)).unwrap();
    assert!(cache.gpu_slots_used() <= 128);
    let plan = cache.plan_restore(a);
    assert!(plan.swap_in_tokens >= 32, "fresh copy was reclaimed to CPU");
}

#[test]
fn lost_cpu_chunk_becomes_dropped_and_recomputes() {
    let mut cache = lru_cache(256, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 64, t(0.0)).unwrap();
    cache.suspend(a, t(1.0));
    let listing = cache.cpu_resident_chunks();
    assert_eq!(listing, vec![(a, 0, 32), (a, 1, 32)]);
    let tokens = cache.mark_chunk_lost(a, 0).unwrap();
    assert_eq!(tokens, 32);
    assert_eq!(cache.stats().lost_chunk_tokens, 32);
    let plan = cache.plan_restore(a);
    assert_eq!(plan.recompute_tokens, 32);
    assert_eq!(plan.swap_in_tokens, 32);
    // A second fault on the same chunk is rejected: no CPU copy left.
    assert_eq!(
        cache.mark_chunk_lost(a, 0),
        Err(CacheError::ChunkNotInCpuTier { conv: a, chunk: 0 })
    );
}

#[test]
fn corrupted_lazy_copy_reverts_to_gpu_resident() {
    let mut cache = lru_cache(128, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 100, t(0.0)).unwrap();
    cache.unpin(a);
    // One chunk gets lazily copied by the watermark pass.
    assert_eq!(cache.maybe_swap_out(t(1.0)).len(), 1);
    let listing = cache.cpu_resident_chunks();
    assert_eq!(listing.len(), 1);
    let (conv, idx, _) = listing[0];
    let tokens = cache.mark_chunk_corrupt(conv, idx).unwrap();
    assert_eq!(tokens, 32);
    assert_eq!(cache.stats().corrupted_chunk_tokens, 32);
    // The GPU bytes were never touched: a restore is still a full hit.
    let plan = cache.plan_restore(a);
    assert!(plan.is_full_gpu_hit());
    assert_eq!(cache.cpu_used(), 0);
    // The stale copied_fifo entry must not break later reclamation.
    let b = SessionId(2);
    cache.append_tokens(b, 28, t(2.0)).unwrap();
    assert!(cache.gpu_slots_used() <= 128);
}

#[test]
fn drop_cpu_chunks_forces_recompute_fallback() {
    let mut cache = lru_cache(256, 1000);
    let a = SessionId(1);
    cache.append_tokens(a, 96, t(0.0)).unwrap();
    cache.suspend(a, t(1.0));
    assert_eq!(cache.drop_cpu_chunks(a, t(2.0)), 96);
    assert_eq!(cache.stats().swap_in_fault_tokens, 96);
    assert_eq!(cache.cpu_used(), 0);
    let plan = cache.plan_restore(a);
    assert_eq!(plan.swap_in_tokens, 0);
    assert_eq!(plan.recompute_tokens, 96);
    // Idempotent and safe on unknown conversations.
    assert_eq!(cache.drop_cpu_chunks(a, t(2.0)), 0);
    assert_eq!(cache.drop_cpu_chunks(SessionId(99), t(2.0)), 0);
}

#[test]
fn fault_apis_reject_unknown_targets() {
    let mut cache = lru_cache(64, 64);
    assert_eq!(
        cache.mark_chunk_lost(SessionId(9), 0),
        Err(CacheError::UnknownConversation(SessionId(9)))
    );
    let a = SessionId(1);
    cache.append_tokens(a, 32, t(0.0)).unwrap();
    // GPU-resident chunk has no CPU copy.
    assert_eq!(
        cache.mark_chunk_corrupt(a, 0),
        Err(CacheError::ChunkNotInCpuTier { conv: a, chunk: 0 })
    );
    // Out-of-range chunk index.
    assert!(cache.mark_chunk_lost(a, 7).is_err());
}

#[test]
fn unknown_conversation_has_empty_plan() {
    let cache = lru_cache(10, 10);
    let plan = cache.plan_restore(SessionId(42));
    assert_eq!(plan, RequestPlan::default());
    assert!(plan.is_full_gpu_hit());
}

fn deep_cache(gpu: usize, cpu: usize, ssd: usize, cold: usize) -> TieredKvCache {
    TieredKvCache::new(
        CacheConfig::for_test(32, gpu, cpu).with_deep_tiers(ssd, cold),
        Box::new(LruPolicy),
    )
}

#[test]
fn eviction_cascades_down_the_tier_hierarchy() {
    // One 32-token chunk per host tier: each suspension pushes the
    // previous resident one tier further down until the oldest falls
    // off the bottom.
    let mut cache = deep_cache(128, 32, 32, 32);
    let (a, b, c, d) = (SessionId(1), SessionId(2), SessionId(3), SessionId(4));
    for (i, s) in [a, b, c, d].into_iter().enumerate() {
        let at = t(2.0 * i as f64);
        cache.append_tokens(s, 32, at).unwrap();
        cache.suspend(s, t(2.0 * i as f64 + 1.0));
    }
    let tier_of = |cache: &TieredKvCache, s: SessionId| {
        cache
            .plan_restore(s)
            .segments
            .first()
            .map(|(_, tier)| *tier)
            .unwrap()
    };
    assert_eq!(tier_of(&cache, a), Tier::Dropped, "oldest fell off");
    assert_eq!(tier_of(&cache, b), Tier::Cold);
    assert_eq!(tier_of(&cache, c), Tier::Ssd);
    assert_eq!(tier_of(&cache, d), Tier::Cpu);
    assert_eq!(cache.cpu_used(), 32);
    assert_eq!(cache.ssd_used(), 32);
    assert_eq!(cache.cold_used(), 32);
    // a: cpu->ssd, ssd->cold; b: cpu->ssd, ssd->cold; c: cpu->ssd.
    assert_eq!(cache.stats().demoted_tokens, 160);
    assert_eq!(cache.stats().dropped_tokens, 32);
}

/// A ladder one 32-token chunk deep on the GPU and the CPU and `deep`
/// tokens deep below: one chunk per `(session, tier)` of `staged`
/// imported oldest first, then an idle conversation, `SessionId(2)`,
/// filling the GPU.
fn one_chunk_ladder(deep: usize, staged: &[(SessionId, Tier)]) -> TieredKvCache {
    let mut cache = deep_cache(32, 32, deep, deep);
    for (i, &(session, tier)) in staged.iter().enumerate() {
        let chunk = ChunkState {
            tier,
            tokens: 32,
            context_end: 0,
        };
        let export = SessionExport {
            session,
            shared: Vec::new(),
            chunks: vec![chunk],
        };
        assert_eq!(cache.import_session(export, t(i as f64)), Ok(32));
    }
    cache.append_tokens(SessionId(2), 32, t(10.0)).unwrap();
    cache.unpin(SessionId(2));
    cache
}

/// The tier `session`'s first chunk sits on.
fn first_tier(cache: &TieredKvCache, session: SessionId) -> Tier {
    cache.plan_restore(session).segments[0].1
}

/// An admission's eviction pass never makes CPU room out of the admitted
/// conversation's own CPU chunk, the oldest there: the GPU victim is
/// dropped instead, and the chunk is still swapped in.
#[test]
fn admission_keeps_its_own_cpu_chunks() {
    let a = SessionId(1);
    let mut cache = one_chunk_ladder(0, &[(a, Tier::Cpu)]);
    let ops = cache.swap_out_until_for(32, Some(a), t(11.0));
    assert_eq!(ops.len(), 1);
    assert!(ops[0].dropped && ops[0].conv == SessionId(2));
    assert_eq!(cache.plan_restore(a).swap_in_tokens, 32);
    // Made for anyone, the same room costs the oldest chunk.
    let mut cache = one_chunk_ladder(0, &[(a, Tier::Cpu)]);
    cache.swap_out_until(32, t(11.0));
    assert_eq!(first_tier(&cache, a), Tier::Dropped);
}

/// ...nor SSD room, demoting a CPU victim, out of its SSD chunk: the
/// victim goes on to the cold store.
#[test]
fn admission_keeps_its_own_ssd_chunks() {
    let (a, c) = (SessionId(1), SessionId(3));
    let mut cache = one_chunk_ladder(32, &[(a, Tier::Ssd), (c, Tier::Cpu)]);
    cache.swap_out_until_for(32, Some(a), t(11.0));
    assert_eq!(first_tier(&cache, a), Tier::Ssd);
    assert_eq!(first_tier(&cache, c), Tier::Cold);
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// ...nor cold room, demoting an SSD victim, out of its cold chunk: that
/// victim is dropped instead.
#[test]
fn admission_keeps_its_own_cold_chunks() {
    let (a, c, d) = (SessionId(1), SessionId(3), SessionId(4));
    let staged = [(a, Tier::Cold), (d, Tier::Ssd), (c, Tier::Cpu)];
    let mut cache = one_chunk_ladder(32, &staged);
    cache.swap_out_until_for(32, Some(a), t(11.0));
    assert_eq!(first_tier(&cache, a), Tier::Cold);
    assert_eq!(first_tier(&cache, d), Tier::Dropped);
    assert_eq!(first_tier(&cache, c), Tier::Ssd);
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// Eviction-family events in recording order, rendered compactly:
/// `E` GPU eviction, `D` demotion, `X` drop.
fn moves(rec: &SharedRecorder) -> Vec<String> {
    rec.events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::ChunkEvicted {
                conv,
                chunk,
                dropped,
                ..
            } => Some(format!(
                "E {conv}.{chunk} {}",
                if dropped { "dropped" } else { "copied" }
            )),
            TraceEvent::ChunkDemoted {
                conv,
                chunk,
                from,
                to,
                ..
            } => Some(format!(
                "D {conv}.{chunk} {}>{}",
                from.as_str(),
                to.as_str()
            )),
            TraceEvent::ChunkDropped {
                conv,
                chunk,
                reason,
                ..
            } => Some(format!("X {conv}.{chunk} {}", reason.as_str())),
            _ => None,
        })
        .collect()
}

/// A rung's candidate queue is built once per pass and entries are
/// re-validated at use: a session pinned since then is skipped, not
/// evicted.
#[test]
fn a_session_re_pinned_after_the_snapshot_is_skipped() {
    let mut cache = lru_cache(256, 64);
    let rec = SharedRecorder::new();
    cache.set_recorder(Some(rec.clone()));
    let (a, b) = (SessionId(1), SessionId(2));
    for (i, s) in [a, b].into_iter().enumerate() {
        cache.append_tokens(s, 32, t(2.0 * i as f64)).unwrap();
        cache.suspend(s, t(2.0 * i as f64 + 1.0));
    }
    assert_eq!(cache.cpu_used(), 64);
    let mut queues = RungQueues::default();
    // First need: the queue holds a.0 and b.0; the older a.0 goes.
    assert!(cache.ensure_space(CPU_RUNG, 32, None, t(4.0), &mut queues));
    cache.pin(b);
    // Same pass: b.0 is still queued but now pinned, so it is passed
    // over and the rung runs out of candidates.
    assert!(!cache.ensure_space(CPU_RUNG, 64, None, t(4.0), &mut queues));
    assert_eq!(moves(&rec), ["X 1.0 cpu-pressure"]);
    assert_eq!(cache.plan_restore(b).swap_in_tokens, 32);
    // Unpinned again, a fresh pass may take it.
    cache.unpin(b);
    assert!(cache.ensure_space(CPU_RUNG, 64, None, t(5.0), &mut RungQueues::default()));
    assert_eq!(moves(&rec), ["X 1.0 cpu-pressure", "X 2.0 cpu-pressure"]);
}

/// A hand-built export is outside input. Offsets that do not add up
/// and shared-ref sizes that disagree with this cache's preamble must
/// import to a consistent layout — debug builds check the accounting
/// invariants inside `import_session` — and never panic or wrap. The
/// refs stop matching the preamble partway: the leading match
/// re-attaches, and everything from the first foreign id on, its own
/// chain ids included, imports as dropped spans.
#[test]
fn hostile_export_imports_to_a_consistent_layout() {
    let mut cache = lru_cache(1024, 1024);
    let chain = cache.pin_preamble(&synthetic_preamble(1, 64)).unwrap();
    let s = SessionId(1);
    let export = SessionExport {
        session: s,
        shared: vec![
            // The preamble's first chunk (32 tokens), but the sender
            // says 7.
            ManifestChunk {
                id: chain[0],
                tokens: 7,
            },
            // Foreign here, and larger than a chunk.
            ManifestChunk {
                id: ChunkId(42),
                tokens: 40,
            },
            // The preamble's, but behind the break: not re-attachable.
            ManifestChunk {
                id: chain[1],
                tokens: 32,
            },
        ],
        chunks: vec![
            // `context_end < tokens` used to underflow.
            ChunkState {
                tier: Tier::Cpu,
                tokens: 48,
                context_end: 3,
            },
            ChunkState {
                tier: Tier::Gpu,
                tokens: 8,
                context_end: usize::MAX,
            },
            ChunkState {
                tier: Tier::Cpu,
                tokens: 0,
                context_end: 0,
            },
        ],
    };
    // The re-attached chunk by this cache's size, and the CPU bytes.
    assert_eq!(cache.import_session(export, t(1.0)).unwrap(), 32 + 48);
    assert_eq!(cache.global_shared_tokens(s), 32);
    // The unattached spans split to chunk size and dropped, the CPU
    // bytes admitted, the stray GPU chunk dropped — positions running
    // with no gap.
    assert_eq!(cache.conversation_tokens(s), 32 + 72 + 48 + 8);
    assert_eq!(
        cache.plan_restore(s).segments,
        vec![
            (0..32, Tier::Gpu),
            (32..104, Tier::Dropped),
            (104..152, Tier::Cpu),
            (152..160, Tier::Dropped)
        ]
    );
    assert_eq!(cache.cpu_used(), 48);
    assert_eq!(cache.stats().dropped_tokens, 72 + 8);
    // The session is servable: restore, then grow.
    cache.commit_restore(s, t(2.0)).unwrap();
    cache.append_tokens(s, 5, t(2.0)).unwrap();
    assert_eq!(cache.conversation_tokens(s), 165);
}

#[test]
fn deep_tier_chunks_restore_as_hits() {
    let mut cache = deep_cache(128, 32, 32, 32);
    let (a, b, c) = (SessionId(1), SessionId(2), SessionId(3));
    for (i, s) in [a, b, c].into_iter().enumerate() {
        let at = t(2.0 * i as f64);
        cache.append_tokens(s, 32, at).unwrap();
        cache.suspend(s, t(2.0 * i as f64 + 1.0));
    }
    // a is cold, b is SSD, c is CPU.
    let plan_b = cache.plan_restore(b);
    assert_eq!(plan_b.ssd_read_tokens, 32);
    assert_eq!(plan_b.new_gpu_slots(), 32);
    assert!(!plan_b.is_full_gpu_hit());
    let committed = cache.commit_restore(b, t(10.0)).unwrap();
    assert_eq!(committed.ssd_read_tokens, 32);
    assert_eq!(cache.stats().ssd_hit_tokens, 32);
    assert_eq!(cache.ssd_used(), 0, "SSD chunk promoted to GPU");

    let plan_a = cache.plan_restore(a);
    assert_eq!(plan_a.cold_read_tokens, 32);
    cache.commit_restore(a, t(11.0)).unwrap();
    assert_eq!(cache.stats().cold_hit_tokens, 32);
    assert_eq!(cache.cold_used(), 0);
    // Both restores were served entirely from the deep tiers.
    assert_eq!(cache.stats().hit_rate(), 1.0);
}

#[test]
fn zero_capacity_deep_tiers_reduce_to_two_tier_dropping() {
    // with_deep_tiers(0, 0) is the default everywhere: CPU pressure
    // must drop, exactly as before this hierarchy existed.
    let mut cache = deep_cache(128, 32, 0, 0);
    let (a, b) = (SessionId(1), SessionId(2));
    cache.append_tokens(a, 32, t(0.0)).unwrap();
    cache.suspend(a, t(1.0));
    cache.append_tokens(b, 32, t(2.0)).unwrap();
    cache.suspend(b, t(3.0));
    assert_eq!(cache.stats().demoted_tokens, 0);
    assert_eq!(cache.stats().dropped_tokens, 32);
    assert_eq!(cache.plan_restore(a).recompute_tokens, 32);
}

#[test]
fn drop_deep_chunks_forces_recompute() {
    let mut cache = deep_cache(128, 32, 32, 32);
    let (a, b) = (SessionId(1), SessionId(2));
    cache.append_tokens(a, 32, t(0.0)).unwrap();
    cache.suspend(a, t(1.0));
    cache.append_tokens(b, 32, t(2.0)).unwrap();
    cache.suspend(b, t(3.0));
    // a is on SSD now; a failed device read drops it for recompute.
    assert_eq!(cache.drop_deep_chunks(a, t(4.0)), 32);
    assert_eq!(cache.stats().cold_read_fault_tokens, 32);
    assert_eq!(cache.ssd_used(), 0);
    assert_eq!(cache.plan_restore(a).recompute_tokens, 32);
    // Unknown conversations and warm sessions are no-ops.
    assert_eq!(cache.drop_deep_chunks(SessionId(9), t(4.0)), 0);
    assert_eq!(cache.drop_deep_chunks(b, t(4.0)), 0);
}

#[test]
fn rehydrate_installs_cold_chunks_up_to_capacity() {
    let mut cache = deep_cache(128, 32, 32, 64);
    let a = SessionId(7);
    // Three chunks, cold tier fits two: trailing chunk drops to a
    // recompute obligation.
    assert_eq!(
        cache
            .rehydrate_session(a, &private_manifest(&[32, 32, 32]), t(0.0))
            .unwrap(),
        64
    );
    assert_eq!(cache.cold_used(), 64);
    assert_eq!(cache.stats().rehydrated_tokens, 64);
    assert_eq!(cache.conversation_tokens(a), 96);
    let plan = cache.plan_restore(a);
    assert_eq!(plan.cold_read_tokens, 64);
    assert_eq!(plan.recompute_tokens, 32);
    // Restoring after rehydration promotes the cold chunks to GPU.
    cache.commit_restore(a, t(1.0)).unwrap();
    assert_eq!(cache.stats().cold_hit_tokens, 64);
    assert_eq!(cache.cold_used(), 0);
    // A second rehydration of a live session is rejected unchanged.
    assert!(matches!(
        cache.rehydrate_session(a, &private_manifest(&[32]), t(2.0)),
        Err(CacheError::SessionExists(s)) if s == a
    ));
}

#[test]
fn deep_tiers_round_trip_through_export_import() {
    let mut src = deep_cache(128, 32, 32, 32);
    let (a, b) = (SessionId(1), SessionId(2));
    src.append_tokens(a, 32, t(0.0)).unwrap();
    src.suspend(a, t(1.0));
    src.append_tokens(b, 32, t(2.0)).unwrap();
    src.suspend(b, t(3.0));
    // a sits on SSD; export stages it back to CPU for the wire.
    let export = src.export_session(a).unwrap();
    assert_eq!(src.ssd_used(), 0);
    assert!(export.chunks.iter().all(|c| c.tier == Tier::Cpu));

    let mut dst = deep_cache(128, 64, 0, 0);
    assert_eq!(dst.import_session(export, t(4.0)).unwrap(), 32);
    assert_eq!(dst.cpu_used(), 32);
    assert_eq!(dst.plan_restore(a).swap_in_tokens, 32);
}

// ---- The global preamble ----

#[test]
fn attach_shares_one_physical_copy_across_sharers() {
    let mut cache = lru_cache(4096, 4096);
    let chain = cache.pin_preamble(&synthetic_preamble(1, 96)).unwrap();
    assert_eq!(chain.len(), 3, "3 chunks of 32");
    assert_eq!(cache.gpu_slots_used(), 96, "charged once, when pinned");
    for i in 0..4u64 {
        let conv = SessionId(i + 1);
        assert_eq!(cache.attach_preamble(conv, t(0.1)).unwrap(), 96);
        cache.commit_restore(conv, t(0.2)).unwrap();
        cache.append_tokens(conv, 32, t(0.3)).unwrap();
        cache.unpin(conv);
    }
    // Every restore hits the resident chain; nothing is recomputed.
    assert_eq!(cache.stats().shared_hit_tokens, 4 * 96);
    assert_eq!(cache.stats().recomputed_tokens, 0);
    // One chain + four private turns, not four chains.
    assert_eq!(cache.gpu_slots_used(), 96 + 4 * 32);
    assert_eq!(cache.physical_resident_tokens(), 96 + 4 * 32);
    assert_eq!(cache.logical_resident_tokens(), 4 * 96 + 4 * 32);
    // Positions: private context starts after the chain, which
    // manifests name by id.
    assert_eq!(cache.conversation_tokens(SessionId(1)), 128);
    let ids: Vec<ChunkId> = cache
        .manifest_chunks(SessionId(1))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(ids, [chain[0], chain[1], chain[2], ChunkId::NONE]);
}

#[test]
fn attach_validates_chain_and_session() {
    // Without a preamble an attach starts an empty conversation.
    let mut bare = lru_cache(64, 64);
    assert_eq!(bare.attach_preamble(SessionId(1), t(0.0)), Ok(0));
    assert_eq!(bare.conversation_tokens(SessionId(1)), 0);
    // A chain past the GPU is refused and mutates nothing.
    let too_long = bare.pin_preamble(&synthetic_preamble(2, 96));
    assert_eq!(
        too_long,
        Err(CacheError::OutOfGpu {
            needed: 96,
            free: 64
        })
    );
    assert_eq!(bare.gpu_slots_used(), 0);
    // Whole chunks only, pinned once.
    let mut cache = lru_cache(1024, 1024);
    let chain = cache.pin_preamble(&synthetic_preamble(2, 80)).unwrap();
    assert_eq!(chain.len(), 2, "the partial trailing chunk is not pinned");
    let again = cache.pin_preamble(&synthetic_preamble(3, 64));
    assert_eq!(again, Err(CacheError::PreamblePinned));
    assert_eq!(cache.gpu_slots_used(), 64);
    // The same tokens derive the same ids on any cache.
    let mut peer = lru_cache(1024, 1024);
    assert_eq!(
        peer.pin_preamble(&synthetic_preamble(2, 64)).unwrap(),
        chain
    );
    // A tracked session is refused.
    assert_eq!(cache.attach_preamble(SessionId(1), t(0.1)), Ok(64));
    assert_eq!(
        cache.attach_preamble(SessionId(1), t(0.2)),
        Err(CacheError::SessionExists(SessionId(1)))
    );
    assert_eq!(cache.check_invariants(), Ok(()));
}

#[test]
fn shared_chunk_survives_eviction_while_referenced() {
    // GPU fits the preamble plus one private chunk; CPU has room.
    let mut cache = lru_cache(64, 256);
    cache.pin_preamble(&synthetic_preamble(3, 32)).unwrap();
    let (a, b) = (SessionId(1), SessionId(2));
    cache.attach_preamble(a, t(0.1)).unwrap();
    cache.commit_restore(a, t(0.2)).unwrap();
    cache.append_tokens(a, 32, t(0.3)).unwrap();
    cache.unpin(a);
    // Forcing full free space takes a's private chunk and nothing else.
    let ops = cache.swap_out_until(64, t(1.0));
    assert_eq!(
        ops,
        [SwapOutOp {
            conv: a,
            chunk: 0,
            tokens: 32,
            dropped: false
        }]
    );
    assert_eq!(cache.plan_restore(a).segments, [(0..64, Tier::Gpu)]);
    // With its sharer gone the same pressure still leaves it, and a
    // later sharer finds it resident.
    cache.remove_conversation(a);
    assert!(cache.swap_out_until(64, t(2.0)).is_empty());
    assert_eq!(cache.gpu_slots_used(), 32);
    cache.attach_preamble(b, t(3.0)).unwrap();
    let plan = cache.plan_restore(b);
    assert_eq!((plan.gpu_hit_tokens, plan.shared_hit_tokens), (32, 32));
}

#[test]
fn placement_stamps_follow_private_moves() {
    let mut cache = lru_cache(128, 256);
    cache.pin_preamble(&synthetic_preamble(6, 32)).unwrap();
    let (a, b, c) = (SessionId(1), SessionId(2), SessionId(3));
    cache.attach_preamble(a, t(0.1)).unwrap();
    cache.attach_preamble(b, t(0.1)).unwrap();
    let attached = cache.placement_clock();
    assert!(cache.placement_stamp(a) > 0 && cache.placement_stamp(b) <= attached);
    assert_eq!(cache.placement_stamp(SessionId(9)), 0);
    // Restoring the preamble moves nothing.
    cache.commit_restore(a, t(0.2)).unwrap();
    assert_eq!(cache.placement_clock(), attached);
    // Appends only grow the GPU tail: no stamp.
    let before = cache.placement_stamp(a);
    cache.append_tokens(a, 40, t(0.3)).unwrap();
    assert_eq!(cache.placement_stamp(a), before);
    cache.append_tokens(c, 32, t(0.4)).unwrap();
    let seen = cache.placement_clock();
    let b_before = cache.placement_stamp(b);
    cache.commit_restore(b, t(0.5)).unwrap();
    // Evicting everything idle: each conversation whose private chunks
    // moved is stamped past `seen`; `b` holds the preamble only.
    for conv in [a, b, c] {
        cache.unpin(conv);
    }
    cache.swap_out_until(128, t(1.0));
    for conv in [a, c] {
        assert!(cache.placement_stamp(conv) > seen, "{conv:?} unstamped");
        assert!(cache.placement_stamp(conv) <= cache.placement_clock());
    }
    assert_eq!(cache.placement_stamp(b), b_before);
    assert_eq!(cache.plan_restore(b).segments, [(0..32, Tier::Gpu)]);
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// The preamble is never a candidate on any rung: with every tier
/// full, passes that empty the GPU and then each ladder rung in turn
/// take private chunks only, and every sharer still restores the whole
/// chain as a GPU hit.
#[test]
fn global_chunks_are_never_evicted() {
    let mut cache = deep_cache(128, 32, 32, 32);
    cache.pin_preamble(&synthetic_preamble(5, 64)).unwrap();
    let sessions = [1, 2, 3, 4, 5, 6].map(SessionId);
    for (i, &s) in sessions.iter().enumerate() {
        let at = t(i as f64);
        if i % 2 == 0 {
            cache.attach_preamble(s, at).unwrap();
            cache.commit_restore(s, at).unwrap();
        }
        cache.append_tokens(s, 32, at).unwrap();
        cache.suspend(s, at);
    }
    assert!(cache.stats().dropped_tokens > 0, "the bottom overflowed");
    let now = t(10.0);
    let gpu = cache.swap_out_until(128, now);
    assert!(gpu.iter().all(|op| sessions.contains(&op.conv)));
    for (rung, capacity) in [(0, 32), (1, 32), (2, 32)] {
        let mut queues = RungQueues::default();
        cache.ensure_space(rung, capacity, None, now, &mut queues);
        cache.recycle(queues.into_iter().flatten());
        assert_eq!(cache.gpu_slots_used(), 64, "after emptying rung {rung}");
    }
    for s in [sessions[0], sessions[2], sessions[4]] {
        let plan = cache.plan_restore(s);
        assert_eq!(plan.segments.first(), Some(&(0..64, Tier::Gpu)));
        assert_eq!(plan.shared_hit_tokens, 64);
    }
    assert_eq!(cache.check_invariants(), Ok(()));
}

/// A manifest names the preamble by id. Rehydrated on a cache that pins
/// the same preamble it re-attaches; on one whose preamble it stops
/// matching partway, or a foreign one, the chain entries past the match
/// become dropped spans, as an import's do (chain bytes are never
/// persisted, so a cold read could serve nothing), and only the private
/// entry installs cold.
#[test]
fn manifest_round_trips_shared_chain_through_rehydrate() {
    let preamble = synthetic_preamble(8, 64);
    let mut cache = deep_cache(4096, 64, 64, 256);
    let chain = cache.pin_preamble(&preamble).unwrap();
    let a = SessionId(1);
    cache.attach_preamble(a, t(0.1)).unwrap();
    cache.commit_restore(a, t(0.2)).unwrap();
    cache.append_tokens(a, 32, t(0.3)).unwrap();
    cache.unpin(a);
    let manifest = cache.manifest_chunks(a);
    assert_eq!(manifest.len(), 3);
    assert_eq!(manifest[0].id, chain[0]);
    assert_eq!(manifest[2].id, ChunkId::NONE);
    cache.remove_conversation(a);
    // `(peer preamble, re-attached, dropped)`; the cache itself first.
    let peers: [(Option<Vec<u32>>, usize, usize); 4] = [
        (None, 64, 0),
        (Some(preamble.clone()), 64, 0),
        (Some(synthetic_preamble(8, 32)), 32, 32),
        (Some(synthetic_preamble(7, 64)), 0, 64),
    ];
    for (pinned, attached, dropped) in peers {
        let mut peer = deep_cache(4096, 64, 64, 256);
        let target = match &pinned {
            None => &mut cache,
            Some(tokens) => {
                peer.pin_preamble(tokens).unwrap();
                &mut peer
            }
        };
        let got = target.rehydrate_session(a, &manifest, t(1.0)).unwrap();
        assert_eq!(got, attached + 32, "re-attached + the cold private chunk");
        assert_eq!(target.global_shared_tokens(a), attached);
        assert_eq!(target.cold_used(), 32);
        assert_eq!(target.conversation_tokens(a), 96);
        assert_eq!(target.plan_restore(a).recompute_tokens, dropped);
        assert_eq!(target.stats().dropped_tokens, dropped as u64);
        assert_eq!(target.stats().rehydrated_tokens, got as u64);
    }
}

/// An export names the preamble by id and releases nothing but private
/// space. The target re-attaches the ids that are its own preamble —
/// all of them, a leading part, or none — and keeps the rest as dropped
/// spans, while the private tail transfers as bytes.
#[test]
fn export_releases_and_import_reattaches_shared_chain() {
    let preamble = synthetic_preamble(9, 64);
    let mut src = lru_cache(4096, 4096);
    src.pin_preamble(&preamble).unwrap();
    let a = SessionId(1);
    src.attach_preamble(a, t(0.1)).unwrap();
    src.commit_restore(a, t(0.2)).unwrap();
    src.append_tokens(a, 32, t(0.3)).unwrap();
    src.unpin(a);
    let export = src.export_session(a).unwrap();
    assert!(!src.contains(a));
    assert_eq!(src.gpu_slots_used(), 64, "the preamble stays");
    assert_eq!(export.shared.len(), 2);
    // `(target preamble, re-attached, dropped)`.
    let targets = [
        (preamble, 64, 0),
        (synthetic_preamble(9, 32), 32, 32),
        (synthetic_preamble(10, 64), 0, 64),
    ];
    for (pinned, attached, dropped) in targets {
        let mut dst = lru_cache(4096, 4096);
        dst.pin_preamble(&pinned).unwrap();
        dst.import_session(export.clone(), t(1.0)).unwrap();
        assert_eq!(dst.global_shared_tokens(a), attached);
        assert_eq!(dst.conversation_tokens(a), 96);
        let plan = dst.plan_restore(a);
        assert_eq!(plan.gpu_hit_tokens, attached);
        assert_eq!(plan.recompute_tokens, dropped);
        assert_eq!(plan.swap_in_tokens, 32);
        assert_eq!(dst.stats().dropped_tokens, dropped as u64);
    }
}

/// Private tokens of `conv` (0 if untracked) — what the commit log's
/// drain reports for it.
fn private_tokens(cache: &TieredKvCache, conv: SessionId) -> usize {
    cache.convs.get(&conv).map_or(0, |e| e.private_tokens())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lazily drained commit log against the eager one it replaced:
    /// the model records `(session, private tokens)` at every successful
    /// append and forgets a session where the old log did (removal,
    /// export). Tier moves, suspension, drops, host
    /// faults, imports, rehydration and attaches in between; every drain
    /// must return exactly the model, and every op keeps the flag and
    /// the log in step (`check_invariants`).
    #[test]
    fn commit_drains_equal_the_eager_log(
        ops in prop::collection::vec((0u8..14, 0u64..6, 1usize..80), 10..150),
    ) {
        let mut cache = deep_cache(320, 160, 128, 256);
        cache.pin_preamble(&synthetic_preamble(1, 64)).unwrap();
        let mut eager: BTreeMap<SessionId, usize> = BTreeMap::new();
        for (step, &(kind, s, amount)) in ops.iter().enumerate() {
            let now = t(step as f64);
            let conv = SessionId(1 + s);
            let what = match kind {
                0..=2 => {
                    if cache.conversation_tokens(conv) > 200 {
                        cache.remove_conversation(conv);
                        eager.remove(&conv);
                    }
                    if let Err(CacheError::OutOfGpu { needed, .. }) = cache.commit_restore(conv, now) {
                        cache.swap_out_until_for(needed, Some(conv), now);
                    }
                    if cache.commit_restore(conv, now).is_ok()
                        && cache.append_tokens(conv, amount, now).is_ok()
                    {
                        eager.insert(conv, private_tokens(&cache, conv));
                    }
                    "turn"
                }
                3 => {
                    cache.unpin(conv);
                    cache.maybe_swap_out(now);
                    "unpin"
                }
                4 => {
                    cache.suspend(conv, now);
                    "suspend"
                }
                5 => {
                    cache.drop_cpu_chunks(conv, now);
                    "drop_cpu_chunks"
                }
                6 => {
                    let listing = cache.cpu_resident_chunks();
                    if let Some(&(c, idx, _)) = listing.get(amount % listing.len().max(1)) {
                        cache.mark_chunk_lost(c, idx).unwrap();
                    }
                    "mark_chunk_lost"
                }
                8 => {
                    cache.remove_conversation(conv);
                    eager.remove(&conv);
                    "remove"
                }
                9 => {
                    if let Some(mut export) = cache.export_session(conv) {
                        eager.remove(&conv);
                        export.mark_lost(amount % 3);
                        cache.import_session(export, now).unwrap();
                    }
                    "export/import"
                }
                10 => {
                    let manifest = cache.manifest_chunks(conv);
                    cache.remove_conversation(conv);
                    eager.remove(&conv);
                    if !manifest.is_empty() {
                        cache.rehydrate_session(conv, &manifest, now).unwrap();
                    }
                    "rehydrate"
                }
                7 | 11 => {
                    let _ = cache.attach_preamble(conv, now);
                    "attach"
                }
                _ => {
                    let expected: Vec<_> = std::mem::take(&mut eager).into_iter().collect();
                    assert_eq!(cache.take_commits(), expected, "drain at step {step}");
                    "drain"
                }
            };
            assert_eq!(cache.check_invariants(), Ok(()), "after {what} at step {step}");
        }
        let expected: Vec<_> = eager.into_iter().collect();
        assert_eq!(cache.take_commits(), expected, "final drain");
        assert!(cache.take_commits().is_empty(), "a drain empties the log");
    }
}
