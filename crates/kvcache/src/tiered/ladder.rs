//! Where a victim goes: GPU swap-out with lazy copies (§4.3.2),
//! suspension (§4.3.5), lazy-copy reclamation, and the host-side
//! demotion ladder `[Cpu, Ssd, Cold]` below them.

use pensieve_model::SimTime;
use pensieve_obs::{DropReason, Recorder as _, StorageTier, TraceEvent};

use super::queue::RungQueues;
use super::{CacheError, TieredKvCache, Victim};
use crate::policy::Granularity;
use crate::types::{CacheConfig, ChunkState, SessionId, Tier};

/// One chunk chosen for ahead-of-time swap-out (GPU -> CPU copy), or for
/// direct dropping when the CPU tier cannot hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutOp {
    /// Owning conversation.
    pub conv: SessionId,
    /// Chunk index within the conversation's private chunks.
    pub chunk: usize,
    /// Tokens to copy.
    pub tokens: usize,
    /// True if the chunk was dropped instead of copied (no CPU space).
    pub dropped: bool,
}

/// One rung of the host-side demotion ladder `[Cpu, Ssd, Cold]`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Rung {
    pub(super) tier: Tier,
    /// The tier's name in trace events.
    obs: StorageTier,
    /// Capacity in tokens; `0` disables the rung.
    pub(super) capacity: usize,
    /// Why a chunk evicted from this rung with no room below is dropped.
    drop_reason: DropReason,
}

impl Rung {
    /// The ladder, top to bottom, with the capacities of `cfg`.
    pub(super) fn ladder(cfg: &CacheConfig) -> [Rung; 3] {
        let rung = |tier, obs, capacity, drop_reason| Rung {
            tier,
            obs,
            capacity,
            drop_reason,
        };
        [
            rung(
                Tier::Cpu,
                StorageTier::Cpu,
                cfg.cpu_capacity_tokens,
                DropReason::CpuPressure,
            ),
            rung(
                Tier::Ssd,
                StorageTier::Ssd,
                cfg.ssd_capacity_tokens,
                DropReason::ColdPressure,
            ),
            rung(
                Tier::Cold,
                StorageTier::Cold,
                cfg.cold_capacity_tokens,
                DropReason::ColdPressure,
            ),
        ]
    }
}

/// Position of the CPU rung — the only one a GPU eviction can land on
/// (KV leaves the device over PCIe into host memory, nowhere else).
pub(super) const CPU_RUNG: usize = 0;

impl TieredKvCache {
    /// Tokens occupying `tier`'s device. Lazy GPU copies count against
    /// the CPU tier as well as the GPU.
    pub(super) fn used(&self, tier: Tier) -> usize {
        if tier == Tier::Cpu {
            self.cpu_used()
        } else {
            *self.occ.get(tier)
        }
    }

    /// True if the ladder rung holding `tier` can take `tokens` more
    /// without evicting anything. Non-ladder tiers never have room.
    pub(super) fn has_room(&self, tier: Tier, tokens: usize) -> bool {
        self.ladder
            .iter()
            .any(|r| r.tier == tier && self.used(tier) + tokens <= r.capacity)
    }

    /// Ahead-of-time swap-out (§4.3.2): if strictly-free GPU slots are
    /// below the watermark, copies policy-chosen chunks to the CPU tier
    /// until the watermark is met or no candidate remains. Chunks that the
    /// CPU tier cannot hold (and nothing droppable remains) are dropped
    /// directly.
    ///
    /// Returns the operations performed, for transfer timing.
    pub fn maybe_swap_out(&mut self, now: SimTime) -> Vec<SwapOutOp> {
        self.swap_out_until(self.cfg.swap_trigger_tokens(), now)
    }

    /// Evicts (copies or drops) policy-chosen chunks until at least
    /// `target_free` GPU tokens are effectively free, or no candidate
    /// remains. Used both for the watermark-triggered ahead-of-time pass
    /// and for forced eviction when an admission cannot fit.
    pub fn swap_out_until(&mut self, target_free: usize, now: SimTime) -> Vec<SwapOutOp> {
        self.swap_out_until_for(target_free, None, now)
    }

    /// [`TieredKvCache::swap_out_until`] targeting the effective space
    /// available *to `for_conv`* (see
    /// [`TieredKvCache::gpu_free_effective_for`]): that conversation's own
    /// chunks are not eviction candidates, since demoting them cannot
    /// create space for its restore.
    pub fn swap_out_until_for(
        &mut self,
        target_free: usize,
        for_conv: Option<SessionId>,
        now: SimTime,
    ) -> Vec<SwapOutOp> {
        let mut ops = Vec::new();
        // Target *effective* free space: a copied chunk's GPU slot is
        // reclaimed lazily, so the copy itself already makes room.
        if self.gpu_free_for(for_conv) >= target_free {
            return ops;
        }
        // One candidate queue per tier per pass, each built the first time
        // the pass needs it and consumed lazily: the pass pays for the
        // frontiers it ranks and the victims it takes, not for what is
        // resident.
        let mut gpu = self.candidate_queue(Tier::Gpu, for_conv);
        let mut queues = RungQueues::default();
        let conversation_granularity = self.policy.granularity() == Granularity::Conversation;
        let mut active_conv: Option<SessionId> = None;
        while let Some(victim) = self.next_candidate(&mut gpu, now) {
            let Victim(conv, chunk) = victim;
            let finishing = conversation_granularity && Some(conv) == active_conv;
            // Conversation-granularity policies finish the conversation
            // they started evicting before honoring the watermark.
            if self.gpu_free_for(for_conv) >= target_free && !finishing {
                break;
            }
            active_conv = Some(conv);
            // Candidates were queued this pass, but the walk is total
            // anyway: a stale entry is skipped, not a panic on the
            // eviction path.
            let Some(tokens) = self.evictable(victim, Tier::Gpu) else {
                continue;
            };
            // Make CPU room and copy; if impossible, drop the chunk. A
            // copied chunk keeps its GPU slot until someone needs it:
            // its conversation may be back first.
            let copied = self.ensure_space(CPU_RUNG, tokens, for_conv, now, &mut queues);
            let landed = if copied {
                self.copied_fifo.push_back((conv, chunk));
                self.retier(victim, Tier::GpuCopied);
                self.stats.swapped_out_tokens += tokens as u64;
                self.ladder.first().copied()
            } else {
                self.retier(victim, Tier::Dropped);
                self.stats.dropped_tokens += tokens as u64;
                None
            };
            self.record_move(victim, tokens, None, landed, now);
            ops.push(SwapOutOp {
                conv,
                chunk,
                tokens,
                dropped: !copied,
            });
        }
        self.recycle(std::iter::once(gpu).chain(queues.into_iter().flatten()));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        ops
    }

    /// Suspends a running request (§4.3.5): moves all its GPU-resident
    /// chunks to the CPU tier immediately and unpins it. Returns the
    /// number of tokens that must be transferred.
    pub fn suspend(&mut self, conv: SessionId, now: SimTime) -> usize {
        self.set_pinned(conv, false);
        let Some(chunks) = self.convs.get(&conv).map(|e| e.chunks.len()) else {
            return 0;
        };
        let mut transferred = 0;
        for i in 0..chunks {
            let Some(&ChunkState { tier, tokens, .. }) =
                self.convs.get(&conv).and_then(|e| e.chunks.get(i))
            else {
                continue;
            };
            let to = match tier {
                // The CPU already holds a copy; just release the GPU slot.
                Tier::GpuCopied => Tier::Cpu,
                Tier::Gpu => {
                    // Each chunk evicts against fresh queues, so this
                    // conversation's own just-moved chunks are candidates.
                    let mut queues = RungQueues::default();
                    let copied = self.ensure_space(CPU_RUNG, tokens, None, now, &mut queues);
                    self.recycle(queues.into_iter().flatten());
                    if copied {
                        self.stats.swapped_out_tokens += tokens as u64;
                        transferred += tokens;
                        Tier::Cpu
                    } else {
                        self.stats.dropped_tokens += tokens as u64;
                        Tier::Dropped
                    }
                }
                _ => continue,
            };
            self.retier(Victim(conv, i), to);
        }
        self.recorder.record(TraceEvent::Suspended {
            at: now,
            conv: conv.0,
            tokens: transferred,
        });
        debug_assert_eq!(self.check_invariants(), Ok(()));
        transferred
    }

    /// Moves `victim`'s chunk to tier `to` through `ConvEntry::retier` —
    /// also the one place a victim resolves to its chunk record. A victim
    /// that no longer resolves is left alone.
    fn retier(&mut self, Victim(conv, idx): Victim, to: Tier) {
        if let Some(e) = self.convs.get_mut(&conv) {
            e.retier(
                conv,
                idx,
                to,
                &mut self.occ,
                &mut self.moves,
                &mut self.members,
            );
        }
    }

    /// Re-validates a candidate at use: its tokens if `victim` is still
    /// in `tier` and its conversation still unpinned. `None` means the
    /// queue outlived the entry and it is skipped.
    fn evictable(&self, Victim(conv, idx): Victim, tier: Tier) -> Option<usize> {
        let e = self.convs.get(&conv)?;
        let c = e.chunks.get(idx)?;
        (!e.pinned && c.tier == tier).then_some(c.tokens)
    }

    /// Names one eviction move in the trace — the one place the event
    /// kind is chosen. `from` is the ladder rung left (`None`: the GPU),
    /// `to` the rung landed on (`None`: dropped).
    fn record_move(
        &self,
        Victim(conv, chunk): Victim,
        tokens: usize,
        from: Option<Rung>,
        to: Option<Rung>,
        now: SimTime,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.record(match (from, to) {
            (None, _) => TraceEvent::ChunkEvicted {
                at: now,
                conv: conv.0,
                chunk,
                tokens,
                dropped: to.is_none(),
            },
            (Some(from), Some(to)) => TraceEvent::ChunkDemoted {
                at: now,
                conv: conv.0,
                chunk,
                tokens,
                from: from.obs,
                to: to.obs,
            },
            (Some(from), None) => TraceEvent::ChunkDropped {
                at: now,
                conv: conv.0,
                chunk,
                tokens,
                reason: from.drop_reason,
            },
        });
    }

    /// Frees room for `tokens` on ladder rung `rung` by demoting
    /// policy-chosen residents further down (dropping them off the
    /// bottom). The rung's candidate queue is built at first need and
    /// kept in `queues` for the rest of the pass; it never offers a chunk
    /// of `skip`, the conversation the pass makes room for, whose chunks
    /// it is about to restore. Returns false if the rung does not exist,
    /// is disabled or smaller than the chunk, or runs out of candidates —
    /// the caller then looks further down, or drops instead.
    pub(super) fn ensure_space(
        &mut self,
        rung: usize,
        tokens: usize,
        skip: Option<SessionId>,
        now: SimTime,
        queues: &mut RungQueues,
    ) -> bool {
        let Some(Rung { tier, capacity, .. }) = self.ladder.get(rung).copied() else {
            return false;
        };
        if tokens > capacity {
            return false;
        }
        while self.used(tier) + tokens > capacity {
            let Some(slot) = queues.get_mut(rung) else {
                return false;
            };
            let queue = slot.get_or_insert_with(|| self.candidate_queue(tier, skip));
            let Some(victim) = self.next_candidate(queue, now) else {
                return false;
            };
            self.demote(victim, rung, skip, now, queues);
        }
        true
    }

    /// Moves one candidate off ladder rung `from`: onto the first rung
    /// below that has (or can make) room, else — with nowhere to go —
    /// dropped. Deeper victims, never chunks of `skip`, are displaced,
    /// and their events recorded, before this one moves. A stale
    /// candidate is a no-op.
    pub(super) fn demote(
        &mut self,
        victim: Victim,
        from: usize,
        skip: Option<SessionId>,
        now: SimTime,
        queues: &mut RungQueues,
    ) {
        let Some(source) = self.ladder.get(from).copied() else {
            return;
        };
        let Some(tokens) = self.evictable(victim, source.tier) else {
            return;
        };
        // Find room *before* touching the victim, so a failed placement
        // leaves it exactly where it was.
        let landing = (from + 1..self.ladder.len())
            .find(|&rung| self.ensure_space(rung, tokens, skip, now, queues))
            .and_then(|rung| self.ladder.get(rung).copied());
        match landing {
            Some(rung) => {
                self.retier(victim, rung.tier);
                self.stats.demoted_tokens += tokens as u64;
                // A rung whose queue this pass has already built does not
                // see the newcomer until the next pass.
                let built = queues.iter_mut().flatten().find(|q| q.tier == rung.tier);
                if let Some(queue) = built {
                    self.step_over(queue, victim, now);
                }
            }
            None => {
                self.retier(victim, Tier::Dropped);
                self.stats.dropped_tokens += tokens as u64;
            }
        }
        self.record_move(victim, tokens, Some(source), landing, now);
    }

    /// GPU slots effectively free for new allocations of `conv` — or of
    /// anyone, with `None`.
    fn gpu_free_for(&self, conv: Option<SessionId>) -> usize {
        conv.map_or_else(
            || self.gpu_free_effective(),
            |c| self.gpu_free_effective_for(c),
        )
    }

    /// Makes `needed` GPU slots strictly free for an allocation of
    /// `favored` (or of anyone) by converting lazily-copied chunks back to
    /// CPU-only; `favored` conversations' copies are reclaimed last (they
    /// are about to be revalidated).
    ///
    /// Runs in amortized O(1) per reclaimed chunk: copies are queued in
    /// copy order (which follows the eviction policy's order) and stale
    /// entries are skipped on pop.
    ///
    /// # Errors
    ///
    /// [`CacheError::OutOfGpu`], before anything moves, if even the
    /// effectively-free space is short.
    pub(super) fn reclaim_gpu_slots(
        &mut self,
        needed: usize,
        favored: Option<SessionId>,
    ) -> Result<(), CacheError> {
        // Strictly-free slots are also effectively free to anyone: when
        // they cover the allocation there is nothing to check or reclaim.
        if self.gpu_free_strict() >= needed {
            return Ok(());
        }
        let free = self.gpu_free_for(favored);
        if needed > free {
            return Err(CacheError::OutOfGpu { needed, free });
        }
        if self.occ.gpu_copied == 0 {
            return Ok(());
        }
        let mut kept = Vec::new();
        while self.gpu_free_strict() < needed {
            let Some((conv, idx)) = self.copied_fifo.pop_front() else {
                break;
            };
            if Some(conv) == favored {
                kept.push((conv, idx));
                continue;
            }
            let Some(e) = self.convs.get_mut(&conv) else {
                continue; // Conversation removed; stale entry.
            };
            if e.chunks.get(idx).is_none_or(|c| c.tier != Tier::GpuCopied) {
                continue; // Revalidated/suspended since copying; stale.
            }
            e.retier(
                conv,
                idx,
                Tier::Cpu,
                &mut self.occ,
                &mut self.moves,
                &mut self.members,
            );
        }
        // Favored entries stay queued for future reclamation.
        for entry in kept.into_iter().rev() {
            self.copied_fifo.push_front(entry);
        }
        Ok(())
    }
}
