//! The global preamble: the one content-addressed chunk chain a cache
//! shares across conversations — pinned once, GPU-resident and charged
//! once for the cache's lifetime, and attached by id.

use pensieve_model::SimTime;
use pensieve_obs::{Recorder as _, TraceEvent};

use super::occupancy::ConvEntry;
use super::{CacheError, TieredKvCache};
use crate::types::{ChunkId, SessionId, Tier};

impl TieredKvCache {
    /// Pins `tokens` as the cache's global preamble — the deployment-wide
    /// system prompt every conversation starts with — and returns its
    /// content-addressed chunk chain (each id derived from its parent's
    /// and its tokens, so every cache pinning the same tokens holds the
    /// same ids). Whole chunks only: a trailing partial chunk is not
    /// shareable under chunked eviction and is ignored. The chain is
    /// computed once, here, occupies GPU slots for the cache's lifetime
    /// and is never an eviction candidate; conversations attach to it
    /// with [`TieredKvCache::attach_preamble`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::PreamblePinned`] if the cache already pins
    /// a preamble, or [`CacheError::OutOfGpu`] when the chain exceeds
    /// effectively-free GPU space. The cache is unchanged on error.
    pub fn pin_preamble(&mut self, tokens: &[u32]) -> Result<Vec<ChunkId>, CacheError> {
        if !self.preamble.is_empty() {
            return Err(CacheError::PreamblePinned);
        }
        let mut chain: Vec<ChunkId> = Vec::new();
        for chunk in tokens.chunks_exact(self.cfg.chunk_tokens.max(1)) {
            chain.push(ChunkId::derive(
                chain.last().copied().unwrap_or(ChunkId::ROOT),
                chunk,
            ));
        }
        let needed = chain.len() * self.cfg.chunk_tokens;
        self.reclaim_gpu_slots(needed, None)?;
        self.occ.admit(Tier::Gpu, needed);
        self.preamble.clone_from(&chain);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(chain)
    }

    /// Tokens the global preamble covers (0 with none pinned).
    #[must_use]
    pub fn preamble_tokens(&self) -> usize {
        self.preamble.len() * self.cfg.chunk_tokens
    }

    /// Starts a new conversation whose context begins with the global
    /// preamble: no KV bytes are duplicated, and private tokens appended
    /// later sit after the chain. Returns the logical tokens covered by
    /// the chain (0, and an empty conversation, with none pinned).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if `conv` is already
    /// tracked; the cache is unchanged.
    pub fn attach_preamble(&mut self, conv: SessionId, now: SimTime) -> Result<usize, CacheError> {
        if self.convs.contains_key(&conv) {
            return Err(CacheError::SessionExists(conv));
        }
        let tokens = self.attach_chain(conv, self.preamble.len(), now);
        self.track(conv, ConvEntry::new(tokens, Vec::new(), now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(tokens)
    }

    /// The leading ids of `ids` that are this cache's preamble chain, in
    /// order: how many chunks of it a session arriving with `ids`
    /// re-attaches. A foreign id, or one out of place, ends the run.
    pub(super) fn preamble_run(&self, ids: impl Iterator<Item = ChunkId>) -> usize {
        ids.zip(&self.preamble)
            .take_while(|(id, own)| id == *own)
            .count()
    }

    /// Attaches `conv` to the first `chunks` chunks of the preamble — the
    /// one way a conversation gains shared context, whether by attach,
    /// import or rehydration. No bytes move. Returns the tokens covered,
    /// all GPU-resident.
    pub(super) fn attach_chain(&mut self, conv: SessionId, chunks: usize, now: SimTime) -> usize {
        let tokens = chunks * self.cfg.chunk_tokens;
        if chunks > 0 {
            self.recorder.record(TraceEvent::SharedAttached {
                at: now,
                conv: conv.0,
                tokens,
                chunks,
            });
        }
        tokens
    }

    /// Tokens of `conv`'s context held by the global preamble — context
    /// the engine serves without charging the conversation any cache
    /// space (0 if unknown).
    #[must_use]
    pub fn global_shared_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, |e| e.shared_tokens)
    }

    /// Logical resident KV tokens: what the cache would hold if every
    /// sharer kept a private copy — each conversation's non-dropped
    /// private chunks plus its share of the preamble, counted once *per
    /// sharer*. The denominator of the dedup ratio.
    #[must_use]
    pub fn logical_resident_tokens(&self) -> usize {
        self.convs
            .values()
            .map(|e| e.shared_tokens + e.private_tokens() - e.row.dropped)
            .sum()
    }

    /// Physical resident KV tokens actually held: non-dropped private
    /// chunks plus the preamble counted *once*, however many
    /// conversations attach to it. The numerator of the dedup ratio.
    #[must_use]
    pub fn physical_resident_tokens(&self) -> usize {
        let private = self.convs.values();
        let held = private.map(|e| e.private_tokens() - e.row.dropped);
        self.preamble_tokens() + held.sum::<usize>()
    }
}
