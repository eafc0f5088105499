//! Persistent raw-token store (paper Figure 7, "persistent store"),
//! deduplicated by content-addressed chunks.
//!
//! Pensieve keeps every conversation's raw token ids durably so that
//! dropped KV chunks can be recomputed: the scheduler reads the dropped
//! range's raw tokens and prepends them to the new prompt (§4.3.4). This
//! in-memory implementation stands in for the paper's external store; it
//! is the source of truth for conversation *text*, while the tiered
//! cache — every level of it, from GPU slots down to the simulated cold
//! object store — is only ever an optimization. (The cold tier's
//! *manifests* live separately in [`crate::manifest::ColdObjectStore`];
//! this store holds the tokens themselves.)
//!
//! Storage is chunked and content-addressed: each conversation owns a
//! chain of refcounted [`ChunkId`]s plus a private unsealed tail, so N
//! conversations sharing a tool preamble — or forked from one history —
//! store the shared tokens once. There is no session-keyed `fetch`
//! returning a contiguous slice; callers read through a [`SessionView`],
//! which composes the shared chain and the tail back into logical
//! history order.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::tiered::CacheError;
use crate::types::{ChunkId, SessionId};

/// One physical chunk of raw tokens, shared by every conversation whose
/// chain references it.
#[derive(Debug, Clone)]
struct StoredChunk {
    tokens: Vec<u32>,
    refs: usize,
}

/// A conversation's logical history: a chain of sealed shared chunks
/// plus a private unsealed tail (the not-yet-chunk-aligned suffix).
#[derive(Debug, Clone, Default)]
struct ConvTokens {
    chain: Vec<ChunkId>,
    tail: Vec<u32>,
}

/// Durable, deduplicated store of each conversation's raw-token history.
///
/// Keyed by `BTreeMap`s so any iteration over the store is deterministic
/// by construction (the replay/recomputation paths are bit-identity
/// tested). Chunks are sealed at `chunk_tokens` tokens and keyed by
/// [`ChunkId::derive`], so identical prefixes collapse to one copy with
/// a reference count; a chunk is garbage-collected when its last
/// referencing conversation is removed.
#[derive(Debug)]
pub struct TokenChunkStore {
    chunk_tokens: usize,
    chunks: BTreeMap<ChunkId, StoredChunk>,
    convs: BTreeMap<SessionId, ConvTokens>,
}

/// Read-only composed view of one conversation's logical token history,
/// in order: sealed shared chunks first, then the private tail.
///
/// This is the only read surface the store offers — it replaces the old
/// session-keyed `fetch` that handed out a contiguous private slice and
/// therefore could not represent shared storage.
#[derive(Debug, Clone)]
pub struct SessionView<'a> {
    conv: SessionId,
    chunks: Vec<&'a [u32]>,
    tail: &'a [u32],
}

impl TokenChunkStore {
    /// Creates an empty store sealing chunks at `chunk_tokens` tokens.
    #[must_use]
    pub fn new(chunk_tokens: usize) -> Self {
        TokenChunkStore {
            chunk_tokens: chunk_tokens.max(1),
            chunks: BTreeMap::new(),
            convs: BTreeMap::new(),
        }
    }

    /// Appends tokens to a conversation's history, creating it on first
    /// use. Full chunks are sealed and content-addressed as they fill;
    /// identical prefixes across conversations share one stored copy.
    pub fn append(&mut self, conv: SessionId, tokens: &[u32]) {
        let entry = self.convs.entry(conv).or_default();
        entry.tail.extend_from_slice(tokens);
        while entry.tail.len() >= self.chunk_tokens {
            let rest = entry.tail.split_off(self.chunk_tokens);
            let sealed = std::mem::replace(&mut entry.tail, rest);
            let parent = entry.chain.last().copied().unwrap_or(ChunkId::ROOT);
            let id = ChunkId::derive(parent, &sealed);
            entry.chain.push(id);
            self.chunks
                .entry(id)
                .or_insert_with(|| StoredChunk {
                    tokens: sealed,
                    refs: 0,
                })
                .refs += 1;
        }
    }

    /// Total stored tokens for a conversation (0 if unknown).
    #[must_use]
    pub fn len(&self, conv: SessionId) -> usize {
        self.convs
            .get(&conv)
            .map_or(0, |c| c.chain.len() * self.chunk_tokens + c.tail.len())
    }

    /// True if the conversation has no stored tokens.
    #[must_use]
    pub fn is_empty(&self, conv: SessionId) -> bool {
        self.len(conv) == 0
    }

    /// Opens a composed read view of the conversation's logical history.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownConversation`] for a never-stored
    /// conversation, and [`CacheError::UnknownChunk`] if the chain
    /// references a chunk the store no longer holds (a refcount logic
    /// error the caller must surface, not a panic).
    pub fn view(&self, conv: SessionId) -> Result<SessionView<'_>, CacheError> {
        let entry = self
            .convs
            .get(&conv)
            .ok_or(CacheError::UnknownConversation(conv))?;
        let mut chunks = Vec::with_capacity(entry.chain.len());
        for id in &entry.chain {
            let chunk = self.chunks.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            chunks.push(chunk.tokens.as_slice());
        }
        Ok(SessionView {
            conv,
            chunks,
            tail: &entry.tail,
        })
    }

    /// Forks `parent`'s full history into a new conversation `child`:
    /// the sealed chain is shared by reference (each chunk's refcount
    /// increments — no tokens are copied) and the unsealed tail is
    /// cloned, after which the two histories diverge independently.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownConversation`] if `parent` is not stored;
    /// [`CacheError::SessionExists`] if `child` already is.
    pub fn fork(&mut self, parent: SessionId, child: SessionId) -> Result<(), CacheError> {
        if self.convs.contains_key(&child) {
            return Err(CacheError::SessionExists(child));
        }
        let src = self
            .convs
            .get(&parent)
            .ok_or(CacheError::UnknownConversation(parent))?
            .clone();
        for id in &src.chain {
            if let Some(chunk) = self.chunks.get_mut(id) {
                chunk.refs += 1;
            }
        }
        self.convs.insert(child, src);
        Ok(())
    }

    /// Removes a conversation's history (end of conversation), releasing
    /// its chain references; chunks no other conversation references are
    /// garbage-collected.
    pub fn remove(&mut self, conv: SessionId) {
        let Some(entry) = self.convs.remove(&conv) else {
            return;
        };
        for id in entry.chain {
            if let Some(chunk) = self.chunks.get_mut(&id) {
                chunk.refs = chunk.refs.saturating_sub(1);
                if chunk.refs == 0 {
                    self.chunks.remove(&id);
                }
            }
        }
    }

    /// Tokens physically stored: each shared chunk counted once, plus
    /// every conversation's private tail.
    #[must_use]
    pub fn physical_tokens(&self) -> usize {
        let sealed: usize = self.chunks.values().map(|c| c.tokens.len()).sum();
        let tails: usize = self.convs.values().map(|c| c.tail.len()).sum();
        sealed + tails
    }

    /// Tokens logically stored: the sum of every conversation's history
    /// length. `logical / physical` is the store's dedup factor.
    #[must_use]
    pub fn logical_tokens(&self) -> usize {
        self.convs.keys().map(|&c| self.len(c)).sum()
    }
}

impl SessionView<'_> {
    /// Logical tokens visible through the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum::<usize>() + self.tail.len()
    }

    /// True when the conversation has no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the tokens in logical `range` out of the composed history
    /// (for dropped-chunk recomputation).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::HistoryRangeOutOfBounds`] when the range
    /// exceeds the stored history — the store is durable, so this
    /// indicates a scheduler logic error the caller must surface, not a
    /// panic.
    pub fn slice(&self, range: Range<usize>) -> Result<Vec<u32>, CacheError> {
        let len = self.len();
        if range.end > len || range.start > range.end {
            return Err(CacheError::HistoryRangeOutOfBounds {
                conv: self.conv,
                end: range.end,
                len,
            });
        }
        let mut out = Vec::with_capacity(range.end - range.start);
        let mut at = 0usize;
        for part in self.chunks.iter().copied().chain([self.tail]) {
            let part_range = at..at + part.len();
            let lo = range.start.max(part_range.start);
            let hi = range.end.min(part_range.end);
            if lo < hi {
                if let Some(s) = part.get(lo - at..hi - at) {
                    out.extend_from_slice(s);
                }
            }
            at = part_range.end;
        }
        Ok(out)
    }

    /// Copies the full logical history out of the view.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for part in self.chunks.iter().copied().chain([self.tail]) {
            out.extend_from_slice(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_slice_ranges() {
        let mut s = TokenChunkStore::new(2);
        let c = SessionId(1);
        s.append(c, &[1, 2, 3]);
        s.append(c, &[4, 5]);
        assert_eq!(s.len(c), 5);
        let v = s.view(c).unwrap();
        assert_eq!(v.slice(1..4).unwrap(), vec![2, 3, 4]);
        assert_eq!(v.slice(0..0).unwrap(), Vec::<u32>::new());
        assert_eq!(v.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn unknown_conversation_is_empty() {
        let s = TokenChunkStore::new(4);
        assert!(s.is_empty(SessionId(9)));
        assert_eq!(s.len(SessionId(9)), 0);
        assert!(matches!(
            s.view(SessionId(9)),
            Err(CacheError::UnknownConversation(SessionId(9)))
        ));
    }

    #[test]
    fn slice_past_history_is_a_typed_error() {
        let mut s = TokenChunkStore::new(2);
        let c = SessionId(3);
        s.append(c, &[1, 2]);
        assert!(matches!(
            s.view(c).unwrap().slice(0..5),
            Err(CacheError::HistoryRangeOutOfBounds { end: 5, len: 2, .. })
        ));
    }

    #[test]
    fn identical_prefixes_share_physical_chunks() {
        let mut s = TokenChunkStore::new(2);
        s.append(SessionId(1), &[7, 8, 9, 10, 1]);
        s.append(SessionId(2), &[7, 8, 9, 10, 2]);
        // Two sealed chunks stored once each, two one-token tails.
        assert_eq!(s.physical_tokens(), 4 + 2);
        assert_eq!(s.logical_tokens(), 10);
    }

    #[test]
    fn fork_shares_the_chain_then_diverges() {
        let mut s = TokenChunkStore::new(2);
        let (p, f) = (SessionId(1), SessionId(2));
        s.append(p, &[1, 2, 3, 4, 5]);
        s.fork(p, f).unwrap();
        assert_eq!(s.view(f).unwrap().to_vec(), vec![1, 2, 3, 4, 5]);
        assert_eq!(s.physical_tokens(), 4 + 2); // chain shared, tail cloned
        s.append(f, &[6]);
        s.append(p, &[7]);
        assert_eq!(s.view(f).unwrap().to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(s.view(p).unwrap().to_vec(), vec![1, 2, 3, 4, 5, 7]);
        assert!(matches!(s.fork(p, f), Err(CacheError::SessionExists(_))));
        assert!(matches!(
            s.fork(SessionId(9), SessionId(10)),
            Err(CacheError::UnknownConversation(_))
        ));
    }

    #[test]
    fn remove_releases_refs_and_collects_unshared_chunks() {
        let mut s = TokenChunkStore::new(2);
        let (p, f) = (SessionId(1), SessionId(2));
        s.append(p, &[1, 2, 3, 4]);
        s.fork(p, f).unwrap();
        assert_eq!((s.physical_tokens(), s.logical_tokens()), (4, 8));
        s.remove(p);
        assert_eq!(
            (s.physical_tokens(), s.logical_tokens()),
            (4, 4),
            "the survivor keeps the chunks alive"
        );
        assert_eq!(s.view(f).unwrap().to_vec(), vec![1, 2, 3, 4]);
        s.remove(f);
        assert_eq!(
            (s.physical_tokens(), s.logical_tokens()),
            (0, 0),
            "the last release collects them"
        );
    }
}
