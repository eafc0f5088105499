//! The cache's behaviour through its own API, one scenario per test:
//! restore plans, the watermark and lazy copies, the ladder, handoff,
//! faults and the shared pool.

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
/// and a pooled chain plus a span that overflow together. A
/// checksum-valid manifest whose two entries overflow is refused by
/// rehydration the same way.
#[test]
fn import_rejects_sizes_past_usize() {
    let mut dst = lru_cache(1000, 1000);
    let chain = dst.register_shared(&synthetic_preamble(3, 64), t(0.0));
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
    let unknown = |tokens| SharedChunkRef {
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
            shared: vec![SharedChunkRef {
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
        assert!(!dst.contains(c));
        assert_eq!(dst.shared_refs(chain[0]), 0, "nothing was attached");
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

/// Eviction-family events in recording order, rendered compactly:
/// `E` GPU eviction of a private chunk, `D` demotion, `X` drop,
/// `S` any move of a shared chunk (labelled by `names`).
fn moves(rec: &SharedRecorder, names: &[(ChunkId, &str)]) -> Vec<String> {
    let name = |id: u64| {
        names
            .iter()
            .find(|(c, _)| c.0 == id)
            .map_or("?", |(_, n)| *n)
    };
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
            TraceEvent::SharedChunkEvicted {
                chunk,
                refs,
                dropped,
                ..
            } => Some(format!(
                "S {} refs={refs} {}",
                name(chunk),
                if dropped { "dropped" } else { "moved" }
            )),
            _ => None,
        })
        .collect()
}

/// Shared chunks ride the same ladder as private ones: pressure
/// pushes a *referenced* chunk `Cpu → Ssd → Cold` and keeps it at
/// the bottom (its sharer outweighs the incomer), while an
/// *unreferenced* one beside it falls off. Deeper victims' events
/// precede the victim that displaced them.
#[test]
fn shared_chunks_ride_the_ladder_and_only_unreferenced_ones_fall_off() {
    let mut cache = deep_cache(128, 32, 32, 64);
    let rec = SharedRecorder::new();
    cache.set_recorder(Some(rec.clone()));
    let kept = cache.register_shared(&synthetic_preamble(1, 32), t(0.0))[0];
    let orphan = cache.register_shared(&synthetic_preamble(2, 32), t(0.0))[0];
    let names = [(kept, "kept"), (orphan, "orphan")];
    let (a, x) = (SessionId(1), SessionId(9));
    cache.attach_shared(a, &[kept], t(1.0)).unwrap();
    cache.commit_restore(a, t(1.0)).unwrap();
    cache.unpin(a);
    cache.attach_shared(x, &[orphan], t(2.0)).unwrap();
    cache.commit_restore(x, t(2.0)).unwrap();
    cache.remove_conversation(x);
    assert_eq!(cache.shared_refs(kept), 1);
    assert_eq!(cache.shared_refs(orphan), 0);

    // Emptying the GPU moves both to the one-chunk CPU tier: the
    // older `kept` first, then pushed on to SSD by `orphan`.
    let ops = cache.swap_out_until(128, t(3.0));
    assert_eq!(ops.len(), 2);
    assert!(ops.iter().all(|op| op.shared.is_some() && !op.dropped));
    // Three private chunks arrive one by one and push the rest down.
    for (i, s) in [SessionId(2), SessionId(3), SessionId(4)]
        .into_iter()
        .enumerate()
    {
        cache.append_tokens(s, 32, t(4.0 + 2.0 * i as f64)).unwrap();
        cache.suspend(s, t(5.0 + 2.0 * i as f64));
    }
    assert_eq!(
        moves(&rec, &names),
        [
            // swap_out_until: kept GPU→CPU, then CPU→SSD for orphan.
            "S kept refs=1 moved",
            "S kept refs=1 moved",
            "S orphan refs=0 moved",
            // Session 2 suspends: kept SSD→cold, orphan CPU→SSD.
            "S kept refs=1 moved",
            "S orphan refs=0 moved",
            // Session 3 suspends: orphan SSD→cold beside kept.
            "S orphan refs=0 moved",
            "D 2.0 cpu>ssd",
            // Session 4 suspends with the cold tier full: `kept`
            // sorts first but is referenced, so it stays; `orphan`
            // is dropped to admit session 2's chunk.
            "S orphan refs=0 dropped",
            "D 2.0 ssd>cold",
            "D 3.0 cpu>ssd",
        ]
    );
    assert_eq!(
        cache.plan_restore(a).cold_read_tokens,
        32,
        "kept at the bottom"
    );
    assert_eq!(cache.plan_restore(a).shared_hit_tokens, 32);
    assert_eq!(cache.cold_used(), 64);
    assert_eq!(cache.stats().dropped_tokens, 32);
    // kept ×2, orphan ×2, and the three private demotions.
    assert_eq!(cache.stats().demoted_tokens, 7 * 32);
}

/// Equal scores tie-break private before shared.
#[test]
fn equal_scores_evict_the_private_chunk_before_the_shared_one() {
    let mut cache = lru_cache(128, 128);
    let rec = SharedRecorder::new();
    cache.set_recorder(Some(rec.clone()));
    let shared = cache.register_shared(&synthetic_preamble(1, 32), t(0.0))[0];
    let a = SessionId(1);
    cache.attach_shared(a, &[shared], t(5.0)).unwrap();
    cache.commit_restore(a, t(5.0)).unwrap();
    cache.append_tokens(a, 32, t(5.0)).unwrap();
    cache.unpin(a);
    // LRU scores: the private chunk 5.0, the shared one 5.0 × 1 ref.
    let ops = cache.swap_out_until(96, t(6.0));
    assert_eq!(ops.len(), 1);
    assert_eq!((ops[0].conv, ops[0].chunk, ops[0].shared), (a, 0, None));
    cache.swap_out_until(128, t(6.0));
    assert_eq!(
        moves(&rec, &[(shared, "shared")]),
        ["E 1.0 copied", "S shared refs=1 moved"]
    );
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
    assert!(cache.ensure_space(CPU_RUNG, 32, t(4.0), &mut queues));
    cache.pin(b);
    // Same pass: b.0 is still queued but now pinned, so it is passed
    // over and the rung runs out of candidates.
    assert!(!cache.ensure_space(CPU_RUNG, 64, t(4.0), &mut queues));
    assert_eq!(moves(&rec, &[]), ["X 1.0 cpu-pressure"]);
    assert_eq!(cache.plan_restore(b).swap_in_tokens, 32);
    // Unpinned again, a fresh pass may take it.
    cache.unpin(b);
    assert!(cache.ensure_space(CPU_RUNG, 64, t(5.0), &mut RungQueues::default()));
    assert_eq!(
        moves(&rec, &[]),
        ["X 1.0 cpu-pressure", "X 2.0 cpu-pressure"]
    );
}

/// A hand-built export is outside input. Offsets that do not add up
/// and shared-ref sizes that disagree with this cache's pool must
/// import to a consistent layout — debug builds check the accounting
/// invariants inside `import_session` — and never panic or wrap.
#[test]
fn hostile_export_imports_to_a_consistent_layout() {
    let mut cache = lru_cache(1024, 1024);
    let chain = cache.register_shared(&synthetic_preamble(1, 64), t(0.0));
    let s = SessionId(1);
    let export = SessionExport {
        session: s,
        shared: vec![
            // Pooled here (32 tokens), but the sender says 7.
            SharedChunkRef {
                id: chain[0],
                tokens: 7,
            },
            // Unknown here, and larger than a chunk.
            SharedChunkRef {
                id: ChunkId(42),
                tokens: 40,
            },
            // Pooled, but behind the break: not re-attachable.
            SharedChunkRef {
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
    assert_eq!(cache.import_session(export, t(1.0)).unwrap(), 48);
    assert_eq!(cache.shared_refs(chain[0]), 1);
    assert_eq!(cache.shared_refs(chain[1]), 0);
    // The re-attached chunk by the pool's size (never materialized,
    // so it recomputes), the unattached spans split to chunk size
    // and dropped, the CPU bytes admitted, the stray GPU chunk
    // dropped — positions running with no gap.
    assert_eq!(cache.conversation_tokens(s), 32 + 72 + 48 + 8);
    assert_eq!(
        cache.plan_restore(s).segments,
        vec![
            (0..104, Tier::Dropped),
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

// ---- Cross-conversation shared chunks ----

#[test]
fn attach_shares_one_physical_copy_across_sharers() {
    let mut cache = lru_cache(4096, 4096);
    let preamble = synthetic_preamble(1, 96); // 3 chunks of 32
    let chain = cache.register_shared(&preamble, t(0.0));
    assert_eq!(chain.len(), 3);
    assert_eq!(cache.lookup_shared(&preamble), chain);
    for i in 0..4u64 {
        let conv = SessionId(i + 1);
        assert_eq!(cache.attach_shared(conv, &chain, t(0.1)).unwrap(), 96);
        cache.commit_restore(conv, t(0.2)).unwrap();
        cache.append_tokens(conv, 32, t(0.3)).unwrap();
        cache.unpin(conv);
    }
    // First restore computes the chain once; later ones hit it.
    assert_eq!(cache.stats().shared_hit_tokens, 3 * 96);
    for id in &chain {
        assert_eq!(cache.shared_refs(*id), 4);
    }
    // One chain + four private turns, not four chains.
    assert_eq!(cache.physical_resident_tokens(), 96 + 4 * 32);
    assert_eq!(cache.logical_resident_tokens(), 4 * 96 + 4 * 32);
    // Positions: private context starts after the shared chain.
    assert_eq!(cache.conversation_tokens(SessionId(1)), 128);
}

#[test]
fn attach_validates_chain_and_session() {
    let mut cache = lru_cache(1024, 1024);
    let chain = cache.register_shared(&synthetic_preamble(2, 64), t(0.0));
    cache.attach_shared(SessionId(1), &chain, t(0.1)).unwrap();
    assert!(matches!(
        cache.attach_shared(SessionId(1), &chain, t(0.2)),
        Err(CacheError::SessionExists(s)) if s == SessionId(1)
    ));
    assert!(matches!(
        cache.attach_shared(SessionId(2), &[ChunkId(42)], t(0.3)),
        Err(CacheError::UnknownChunk(id)) if id == ChunkId(42)
    ));
    // Out-of-order ids break context continuity.
    let reversed: Vec<ChunkId> = chain.iter().rev().copied().collect();
    assert!(matches!(
        cache.attach_shared(SessionId(2), &reversed, t(0.4)),
        Err(CacheError::BrokenSharedChain(_))
    ));
    assert!(
        !cache.contains(SessionId(2)),
        "failed attach mutates nothing"
    );
}

#[test]
fn shared_chunk_survives_eviction_while_referenced() {
    // GPU fits the shared chunk plus one private chunk; CPU has room.
    let mut cache = lru_cache(64, 256);
    let chain = cache.register_shared(&synthetic_preamble(3, 32), t(0.0));
    let (a, b) = (SessionId(1), SessionId(2));
    cache.attach_shared(a, &chain, t(0.1)).unwrap();
    cache.commit_restore(a, t(0.2)).unwrap();
    cache.append_tokens(a, 32, t(0.3)).unwrap();
    cache.unpin(a);
    // Forcing full free space must evict, but the shared chunk moves
    // to CPU (its sharer still references it) instead of dropping.
    cache.swap_out_until(64, t(1.0));
    assert_eq!(cache.stats().dropped_tokens, 0);
    let plan = cache.plan_restore(a);
    assert_eq!(plan.recompute_tokens, 0);
    // A second sharer attaching later still finds the chunk.
    cache.attach_shared(b, &chain, t(2.0)).unwrap();
    assert_eq!(cache.shared_refs(chain[0]), 2);
    assert!(cache.plan_restore(b).shared_hit_tokens > 0);
}

#[test]
fn last_release_makes_shared_chunk_droppable() {
    let mut cache = lru_cache(64, 0); // no CPU tier: eviction = drop
    let chain = cache.register_shared(&synthetic_preamble(4, 32), t(0.0));
    let a = SessionId(1);
    cache.attach_shared(a, &chain, t(0.1)).unwrap();
    cache.commit_restore(a, t(0.2)).unwrap();
    cache.unpin(a);
    // Referenced with nowhere to go: eviction keeps it resident.
    cache.swap_out_until(64, t(1.0));
    assert_eq!(cache.gpu_slots_used(), 32);
    // Last sharer leaves; now the same pressure drops it.
    cache.remove_conversation(a);
    assert_eq!(cache.shared_refs(chain[0]), 0);
    cache.swap_out_until(64, t(2.0));
    assert_eq!(cache.gpu_slots_used(), 0);
    assert_eq!(cache.stats().dropped_tokens, 32);
    // Identity survives the drop: a new attach recomputes, not errors.
    let b = SessionId(2);
    cache.attach_shared(b, &chain, t(3.0)).unwrap();
    assert_eq!(cache.plan_restore(b).recompute_tokens, 32);
}

#[test]
fn global_chunks_are_never_evicted() {
    let mut cache = lru_cache(96, 0);
    let chain = cache.register_shared(&synthetic_preamble(5, 32), t(0.0));
    cache.materialize_global(&chain, t(0.0)).unwrap();
    assert_eq!(cache.gpu_slots_used(), 32);
    cache.swap_out_until(96, t(1.0));
    assert_eq!(cache.gpu_slots_used(), 32, "global chunk stays resident");
}

#[test]
fn fork_shares_parent_history_without_copying() {
    let mut cache = lru_cache(4096, 4096);
    let (parent, child) = (SessionId(1), SessionId(2));
    cache.append_tokens(parent, 96, t(0.0)).unwrap();
    cache.unpin(parent);
    let before_physical = cache.physical_resident_tokens();
    assert_eq!(cache.fork_session(parent, child, t(1.0)).unwrap(), 96);
    // No bytes copied: physical stays put, logical doubles.
    assert_eq!(cache.physical_resident_tokens(), before_physical);
    assert_eq!(cache.logical_resident_tokens(), 2 * before_physical);
    assert_eq!(cache.conversation_tokens(parent), 96);
    assert_eq!(cache.conversation_tokens(child), 96);
    // Both continue independently from the same point.
    cache.commit_restore(parent, t(2.0)).unwrap();
    cache.append_tokens(parent, 32, t(2.1)).unwrap();
    cache.unpin(parent);
    cache.commit_restore(child, t(3.0)).unwrap();
    cache.append_tokens(child, 16, t(3.1)).unwrap();
    cache.unpin(child);
    assert_eq!(cache.conversation_tokens(parent), 128);
    assert_eq!(cache.conversation_tokens(child), 112);
    // Fork errors are typed and non-mutating.
    assert!(matches!(
        cache.fork_session(SessionId(9), SessionId(10), t(4.0)),
        Err(CacheError::UnknownConversation(_))
    ));
    assert!(matches!(
        cache.fork_session(parent, child, t(4.0)),
        Err(CacheError::SessionExists(_))
    ));
}

/// Fork ids chain over (parent, position, length), and the pool keeps a
/// chunk after its sharers leave: a parent forked, removed and re-created
/// with the same shape derives the same ids again. The second fork must
/// refuse with a typed error instead of overwriting the pooled chunks.
#[test]
fn refork_of_a_recreated_parent_leaves_the_pool_alone() {
    let mut cache = lru_cache(4096, 4096);
    let (parent, child, again) = (SessionId(1), SessionId(2), SessionId(3));
    cache.append_tokens(parent, 48, t(0.0)).unwrap();
    cache.unpin(parent);
    cache.fork_session(parent, child, t(1.0)).unwrap();
    cache.remove_conversation(parent);
    cache.append_tokens(parent, 48, t(2.0)).unwrap();
    cache.unpin(parent);
    let observe = |c: &TieredKvCache| {
        (
            c.manifest_chunks(parent),
            c.manifest_chunks(child),
            c.physical_resident_tokens(),
            c.logical_resident_tokens(),
            c.gpu_slots_used(),
            c.stats().clone(),
        )
    };
    let before = observe(&cache);
    let pooled = cache.manifest_chunks(child)[0].id;
    assert_eq!(
        cache.fork_session(parent, again, t(3.0)),
        Err(CacheError::ChunkAlreadyPooled(pooled))
    );
    assert_eq!(observe(&cache), before, "a refused fork mutates nothing");
    assert!(!cache.contains(again));
    assert_eq!(cache.shared_refs(pooled), 1, "the child keeps its count");
    assert_eq!(cache.check_invariants(), Ok(()));
}

#[test]
fn manifest_round_trips_shared_chain_through_rehydrate() {
    let mut cache = deep_cache(4096, 64, 64, 256);
    let chain = cache.register_shared(&synthetic_preamble(8, 64), t(0.0));
    let a = SessionId(1);
    cache.attach_shared(a, &chain, t(0.1)).unwrap();
    cache.commit_restore(a, t(0.2)).unwrap();
    cache.append_tokens(a, 32, t(0.3)).unwrap();
    cache.unpin(a);
    let manifest = cache.manifest_chunks(a);
    assert_eq!(manifest.len(), 3);
    assert_eq!(manifest[0].id, chain[0]);
    assert_eq!(manifest[2].id, ChunkId::NONE);
    cache.remove_conversation(a);
    // Rehydration re-attaches the chain (still pooled) and installs
    // the private tail cold.
    let got = cache.rehydrate_session(a, &manifest, t(1.0)).unwrap();
    assert_eq!(got, 96, "64 shared re-attached + 32 cold-admitted");
    assert_eq!(cache.shared_refs(chain[0]), 1);
    assert_eq!(cache.conversation_tokens(a), 96);
    assert_eq!(cache.plan_restore(a).recompute_tokens, 0);
}

#[test]
fn export_releases_and_import_reattaches_shared_chain() {
    let mut src = lru_cache(4096, 4096);
    let mut dst = lru_cache(4096, 4096);
    let preamble = synthetic_preamble(9, 64);
    let chain = src.register_shared(&preamble, t(0.0));
    // The destination knows the same preamble (content addressing
    // derives identical ids).
    assert_eq!(dst.register_shared(&preamble, t(0.0)), chain);
    let a = SessionId(1);
    src.attach_shared(a, &chain, t(0.1)).unwrap();
    src.commit_restore(a, t(0.2)).unwrap();
    src.append_tokens(a, 32, t(0.3)).unwrap();
    src.unpin(a);
    let export = src.export_session(a).unwrap();
    assert_eq!(src.shared_refs(chain[0]), 0, "export releases the ref");
    assert_eq!(export.shared.len(), 2);
    dst.import_session(export, t(1.0)).unwrap();
    assert_eq!(dst.shared_refs(chain[0]), 1);
    assert_eq!(dst.conversation_tokens(a), 96);
    // The chain was never materialized at dst, so it recomputes once
    // — but the private tail transferred as bytes.
    let plan = dst.plan_restore(a);
    assert_eq!(plan.swap_in_tokens, 32);
    assert_eq!(plan.recompute_tokens, 64);
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
    /// export, a fork's parent). Tier moves, suspension, drops, host
    /// faults, imports, rehydration and attaches in between; every drain
    /// must return exactly the model, and every op keeps the flag and
    /// the log in step (`check_invariants`).
    #[test]
    fn commit_drains_equal_the_eager_log(
        ops in prop::collection::vec((0u8..14, 0u64..6, 1usize..80), 10..150),
    ) {
        let mut cache = deep_cache(320, 160, 128, 256);
        let mut eager: BTreeMap<SessionId, usize> = BTreeMap::new();
        let mut forked = BTreeSet::new();
        for (step, &(kind, s, amount)) in ops.iter().enumerate() {
            let now = t(step as f64);
            let conv = SessionId(1 + s);
            let other = SessionId(1 + (s + 1 + amount as u64 % 5) % 6);
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
                7 => {
                    // A parent forks once (see the frontier differential).
                    if !cache.contains(other)
                        && forked.insert(conv)
                        && cache.fork_session(conv, other, now).is_ok()
                    {
                        eager.remove(&conv);
                    }
                    "fork"
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
                11 => {
                    let chain = cache.register_shared(&synthetic_preamble(s % 2, 64), now);
                    let _ = cache.attach_shared(conv, &chain, now);
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
