//! The shared pool: content-addressed, reference-counted chunks shared
//! across conversations — registration and discovery, attach, global
//! materialization, and forking a session's history into the pool.

use pensieve_model::SimTime;
use pensieve_obs::{Recorder as _, TraceEvent};

use super::occupancy::{ConvEntry, Occupancy};
use super::{CacheError, TieredKvCache};
use crate::types::{ChunkId, ChunkState, SessionId, Tier};

/// One physical, content-addressed, reference-counted chunk shared
/// across conversations. Shared chunks never enter [`Tier::GpuCopied`]:
/// lazy reclamation is a per-conversation return-soon bet that has no
/// owner to bet on here, so GPU eviction moves them straight to the CPU
/// tier.
#[derive(Debug, Clone)]
pub(super) struct SharedChunk {
    /// Tier, tokens and context offset — the same record a private
    /// chunk is (`context_end` is the position within its chain).
    pub(super) chunk: ChunkState,
    /// References: chain memberships across conversations.
    pub(super) refs: usize,
    /// References held by *pinned* (running-batch) conversations; a
    /// chunk with any is exempt from eviction.
    pub(super) pinned_refs: usize,
    /// True for globally-materialized chunks (e.g. the deployment-wide
    /// tool preamble): exempt from eviction regardless of refs.
    pub(super) global: bool,
    /// Last time any sharer touched the chunk.
    pub(super) last_active: SimTime,
}

impl TieredKvCache {
    /// Registers `tokens` as a shareable prefix (tool preamble, RAG
    /// document, common system prompt) and returns its content-addressed
    /// chunk chain. Whole chunks only — a trailing partial chunk is not
    /// shareable under chunked eviction and is silently ignored. Chunks
    /// enter the pool at [`Tier::Dropped`] (identity without bytes) and
    /// gain residency the first time a sharer restores them or via
    /// [`TieredKvCache::materialize_global`]. Registering the same
    /// prefix twice is idempotent.
    pub fn register_shared(&mut self, tokens: &[u32], now: SimTime) -> Vec<ChunkId> {
        let chain = self.index.insert(tokens);
        let chunk_tokens = self.index.chunk_tokens();
        let mut end = 0usize;
        for id in &chain {
            end += chunk_tokens;
            if let Some(s) = self.shared.get_mut(id) {
                s.last_active = now;
            } else {
                self.occ.admit(Tier::Dropped, chunk_tokens);
                self.pool(
                    *id,
                    SharedChunk {
                        chunk: ChunkState {
                            tier: Tier::Dropped,
                            tokens: chunk_tokens,
                            context_end: end,
                        },
                        refs: 0,
                        pinned_refs: 0,
                        global: false,
                        last_active: now,
                    },
                );
            }
        }
        chain
    }

    /// Enters a new, non-global chunk into the pool and the walk of
    /// eviction passes.
    fn pool(&mut self, id: ChunkId, chunk: SharedChunk) {
        self.walkable.insert(id);
        self.shared.insert(id, chunk);
    }

    /// Longest registered chunk chain matching a prefix of `tokens` —
    /// the discovery half of sharing. Token bytes are compared at every
    /// hop, so a hash collision shortens the match instead of sharing
    /// the wrong KV.
    #[must_use]
    pub fn lookup_shared(&self, tokens: &[u32]) -> Vec<ChunkId> {
        self.index.longest_match(tokens)
    }

    /// Starts a new conversation whose context begins with the shared
    /// chunk chain `chain` (typically from
    /// [`TieredKvCache::lookup_shared`]): every chunk's reference count
    /// rises by one and no KV bytes are duplicated. Private tokens
    /// appended later sit after the chain. Returns the logical tokens
    /// covered by the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if `conv` is already
    /// tracked, [`CacheError::UnknownChunk`] for an unregistered id, or
    /// [`CacheError::BrokenSharedChain`] when the ids are not
    /// consecutive chunks of one prefix. The cache is unchanged on
    /// error.
    pub fn attach_shared(
        &mut self,
        conv: SessionId,
        chain: &[ChunkId],
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if self.convs.contains_key(&conv) {
            return Err(CacheError::SessionExists(conv));
        }
        // Validate the whole chain before mutating anything.
        let mut total = 0usize;
        for id in chain {
            let s = self.shared.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            if s.chunk.context_end != total + s.chunk.tokens {
                return Err(CacheError::BrokenSharedChain(*id));
            }
            total += s.chunk.tokens;
        }
        self.attach_chain(conv, chain, now);
        self.track(conv, ConvEntry::new(chain.to_vec(), total, Vec::new(), now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(total)
    }

    /// Adds `conv` as one more sharer of every chunk of `chain` (ids this
    /// cache pools) — the one way a conversation gains a shared prefix,
    /// whether by attach, import or rehydration. No bytes move. Returns
    /// the tokens the chain covers and how many of them are resident,
    /// both by the pool's own counts.
    pub(super) fn attach_chain(
        &mut self,
        conv: SessionId,
        chain: &[ChunkId],
        now: SimTime,
    ) -> (usize, usize) {
        let (mut tokens, mut resident) = (0, 0);
        for id in chain {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
                tokens += s.chunk.tokens;
                if s.chunk.tier != Tier::Dropped {
                    resident += s.chunk.tokens;
                }
            }
        }
        if !chain.is_empty() {
            self.recorder.record(TraceEvent::SharedAttached {
                at: now,
                conv: conv.0,
                tokens,
                chunks: chain.len(),
            });
        }
        (tokens, resident)
    }

    /// Promotes a registered chain to permanent GPU residency — the
    /// deployment-wide tool preamble every request shares. Global chunks
    /// are exempt from eviction for the cache's lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] for an unregistered id or
    /// [`CacheError::OutOfGpu`] when the non-resident part of the chain
    /// exceeds effectively-free GPU space. The cache is unchanged on
    /// error.
    pub fn materialize_global(
        &mut self,
        chain: &[ChunkId],
        now: SimTime,
    ) -> Result<(), CacheError> {
        // Validate everything up front so a failure mutates nothing.
        let mut needed = 0usize;
        for id in chain {
            let s = self.shared.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            if s.chunk.tier != Tier::Gpu {
                needed += s.chunk.tokens;
            }
        }
        self.reclaim_gpu_slots(needed, None)?;
        for id in chain {
            let Some(s) = self.shared.get_mut(id) else {
                continue; // Validated above; the walk stays total.
            };
            // A dropped chunk is computed once, here.
            Self::promote(&mut self.occ, &mut self.stats, &mut s.chunk);
            s.global = true;
            self.walkable.remove(id);
            s.last_active = now;
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// Outstanding references on a pooled shared chunk (0 if unknown):
    /// its chain memberships.
    #[must_use]
    pub fn shared_refs(&self, id: ChunkId) -> usize {
        self.shared.get(&id).map_or(0, |s| s.refs)
    }

    /// Tokens of `conv`'s chain held by *global* (permanently resident)
    /// shared chunks — context the engine serves without charging the
    /// conversation any cache space.
    #[must_use]
    pub fn global_shared_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, |e| {
            e.shared
                .iter()
                .filter_map(|id| self.shared.get(id))
                .filter(|s| s.global)
                .map(|s| s.chunk.tokens)
                .sum()
        })
    }

    /// Logical resident KV tokens: what the cache would hold if every
    /// sharer kept a private copy — each conversation's non-dropped
    /// private chunks plus its chain's non-dropped chunks, counted once
    /// *per sharer*. The denominator of the dedup ratio.
    #[must_use]
    pub fn logical_resident_tokens(&self) -> usize {
        self.convs
            .values()
            .flat_map(|e| {
                let chain = e.shared.iter().filter_map(|id| self.shared.get(id));
                chain.map(|s| &s.chunk).chain(&e.chunks)
            })
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Physical resident KV tokens actually held: non-dropped private
    /// chunks plus each non-dropped pooled shared chunk counted *once*,
    /// however many conversations reference it. The numerator of the
    /// dedup ratio.
    #[must_use]
    pub fn physical_resident_tokens(&self) -> usize {
        let private = self.convs.values().flat_map(|e| &e.chunks);
        let pooled = self.shared.values().map(|s| &s.chunk);
        private
            .chain(pooled)
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Forks `child` from `parent`, sharing the parent's entire current
    /// context instead of copying it. The parent's private chunks are
    /// *promoted* into the shared pool (their physical placement is
    /// untouched; lazy GPU copies revalidate, since shared chunks never
    /// stay [`Tier::GpuCopied`]) under lineage-derived ids, and both
    /// conversations continue from the same chain with refcount 2 per
    /// chunk. Returns the logical tokens now shared.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownConversation`] if `parent` is not
    /// tracked, [`CacheError::SessionExists`] if `child` is, or
    /// [`CacheError::ChunkAlreadyPooled`] if a lineage id is already in
    /// the pool (the parent's session id was forked before, removed and
    /// re-created with the same shape). The cache is unchanged on error.
    pub fn fork_session(
        &mut self,
        parent: SessionId,
        child: SessionId,
        now: SimTime,
    ) -> Result<usize, CacheError> {
        let Some(e) = self.convs.get(&parent) else {
            return Err(CacheError::UnknownConversation(parent));
        };
        if self.convs.contains_key(&child) {
            return Err(CacheError::SessionExists(child));
        }
        // Each private chunk is promoted under a lineage-derived id: the
        // timing model tracks token *counts*, so identity chains over
        // (parent, position, length) exactly as content ids chain over
        // token bytes — deterministic across replicas and reruns. Every
        // id is derived before anything moves, because the pool keeps a
        // chunk after its sharers leave: a re-created parent of the same
        // shape derives the same ids again.
        let inherited = e.shared.len();
        let mut prev = e.shared.last().copied().unwrap_or(ChunkId::ROOT);
        let mut ids = Vec::with_capacity(e.chunks.len());
        for (i, chunk) in e.chunks.iter().enumerate() {
            let words = [parent.0, (inherited + i) as u64, chunk.tokens as u64];
            prev = ChunkId::derive_words(prev, &words);
            if self.shared.contains_key(&prev) {
                return Err(CacheError::ChunkAlreadyPooled(prev));
            }
            ids.push(prev);
        }
        let Some(e) = self.convs.get_mut(&parent) else {
            return Err(CacheError::UnknownConversation(parent));
        };
        let parent_pinned = e.pinned;
        // The pool holds them from here on: the parent's row empties and
        // its keys go (the occupancy table keeps counting the chunks
        // where they are).
        let (mut chain, private) = e.rekey(parent, &mut self.members, |e| {
            e.row = Occupancy::default();
            (std::mem::take(&mut e.shared), std::mem::take(&mut e.chunks))
        });
        let mut context_end = e.shared_tokens;
        for (mut chunk, id) in private.into_iter().zip(ids) {
            context_end += chunk.tokens;
            if chunk.tier == Tier::GpuCopied {
                // Revalidate the lazy copy: keep the GPU slot, drop the
                // CPU-side copy. The chunk's copied_fifo entry goes
                // stale and is skipped at reclamation.
                Self::promote(&mut self.occ, &mut self.stats, &mut chunk);
            }
            self.pool(
                id,
                SharedChunk {
                    chunk,
                    refs: 2,
                    pinned_refs: usize::from(parent_pinned),
                    global: false,
                    last_active: now,
                },
            );
            chain.push(id);
        }
        // Pre-existing chain chunks gain the child as one more sharer.
        for id in chain.iter().take(inherited) {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
            }
        }
        if let Some(e) = self.convs.get_mut(&parent) {
            e.shared.clone_from(&chain);
            e.shared_tokens = context_end;
            e.last_active = now;
            // The parent's committed private context is now shared; the
            // replication stream ships shared state by id, not bytes.
            e.committed = false;
        }
        self.commit_log.remove(&parent);
        self.recorder.record(TraceEvent::SharedAttached {
            at: now,
            conv: child.0,
            tokens: context_end,
            chunks: chain.len(),
        });
        self.track(child, ConvEntry::new(chain, context_end, Vec::new(), now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(context_end)
    }
}
