//! Radix prefix index mapping token prefixes to content-addressed chunk
//! chains.
//!
//! The index is the discovery side of cross-conversation KV sharing: a
//! registered prefix (tool preamble, RAG document) is split into whole
//! chunks, each chunk's [`ChunkId`] derived from its tokens plus its
//! prefix hash, and the chain stored as a path in a radix tree keyed by
//! chunk id. A new conversation's history is matched
//! chunk-by-chunk from the root; the longest matching path is the chain
//! of physical chunks it can share instead of recomputing.
//!
//! Because a [`ChunkId`] already commits to the *entire* preceding
//! context, each tree edge is a single id and matching is a hash lookup
//! per chunk. Stored token bytes are still compared on every match as a
//! collision guard — a hash match with different tokens is treated as a
//! miss, never as shared state.

use std::collections::BTreeMap;

use crate::types::ChunkId;

/// One node of the radix tree: the chunk that ends the path to it, plus
/// edges to every registered continuation.
#[derive(Debug, Clone)]
struct Node {
    /// Children keyed by the continuing chunk's id (deterministic order).
    children: BTreeMap<ChunkId, usize>,
    /// The tokens of the chunk this node represents (empty at the root).
    tokens: Vec<u32>,
    /// The content-addressed id of the chunk this node represents.
    id: ChunkId,
}

/// Radix tree from token prefixes to content-addressed chunk chains.
///
/// Only *whole* chunks are indexed: a trailing partial chunk of a
/// registered prefix is ignored, because a partial chunk's KV is not
/// reusable under chunked eviction.
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    /// Arena of nodes; index 0 is the root.
    nodes: Vec<Node>,
    /// Tokens per chunk (the cache's eviction granularity).
    chunk_tokens: usize,
}

impl PrefixIndex {
    /// Creates an empty index over chunks of `chunk_tokens` tokens.
    #[must_use]
    pub fn new(chunk_tokens: usize) -> Self {
        PrefixIndex {
            nodes: vec![Node {
                children: BTreeMap::new(),
                tokens: Vec::new(),
                id: ChunkId::ROOT,
            }],
            chunk_tokens: chunk_tokens.max(1),
        }
    }

    /// Registers `tokens` as a shareable prefix, returning the chunk
    /// chain covering its whole chunks (a trailing partial chunk is not
    /// indexed). Registering the same prefix twice returns the same
    /// chain and allocates nothing.
    pub fn insert(&mut self, tokens: &[u32]) -> Vec<ChunkId> {
        let mut chain = Vec::new();
        let mut at = 0usize;
        for chunk in tokens.chunks_exact(self.chunk_tokens) {
            let parent = self.nodes.get(at).map_or(ChunkId::ROOT, |n| n.id);
            let id = ChunkId::derive(parent, chunk);
            let next = match self.nodes.get(at).and_then(|n| n.children.get(&id)) {
                Some(&child) if self.tokens_match(child, chunk) => child,
                _ => {
                    let child = self.nodes.len();
                    self.nodes.push(Node {
                        children: BTreeMap::new(),
                        tokens: chunk.to_vec(),
                        id,
                    });
                    if let Some(node) = self.nodes.get_mut(at) {
                        node.children.insert(id, child);
                    }
                    child
                }
            };
            chain.push(id);
            at = next;
        }
        chain
    }

    /// Longest registered chain matching a prefix of `tokens`, walking
    /// whole chunks from the root. Tokens are byte-compared at every hop
    /// so a hash collision degrades to a shorter match, never to sharing
    /// the wrong KV.
    #[must_use]
    pub fn longest_match(&self, tokens: &[u32]) -> Vec<ChunkId> {
        let mut chain = Vec::new();
        let mut at = 0usize;
        for chunk in tokens.chunks_exact(self.chunk_tokens) {
            let parent = self.nodes.get(at).map_or(ChunkId::ROOT, |n| n.id);
            let id = ChunkId::derive(parent, chunk);
            match self.nodes.get(at).and_then(|n| n.children.get(&id)) {
                Some(&child) if self.tokens_match(child, chunk) => {
                    chain.push(id);
                    at = child;
                }
                _ => break,
            }
        }
        chain
    }

    /// Number of indexed chunks (nodes minus the root).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The eviction chunk size this index was built for.
    #[must_use]
    pub fn chunk_tokens(&self) -> usize {
        self.chunk_tokens
    }

    fn tokens_match(&self, node: usize, chunk: &[u32]) -> bool {
        self.nodes.get(node).is_some_and(|n| n.tokens == chunk)
    }
}

/// Deterministic synthetic token stream for shared preambles in the
/// timing model, where real token contents are never tracked: `seed`
/// picks the preamble identity, `n` its length. Pure arithmetic — no
/// ambient randomness — so every replica and every rerun derives the
/// same tokens and therefore the same [`ChunkId`] chain.
#[must_use]
pub fn synthetic_preamble(seed: u64, n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| {
            // splitmix64-style finalizer: spreads low seed bits across
            // the whole word before truncating to a vocab-sized token.
            let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            (x % 32_768) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_match_round_trips() {
        let mut idx = PrefixIndex::new(4);
        let toks = synthetic_preamble(7, 10); // 2 whole chunks + partial
        let chain = idx.insert(&toks);
        assert_eq!(chain.len(), 2, "partial trailing chunk is not indexed");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.longest_match(&toks), chain);
        // A longer history sharing the prefix still matches the chain.
        let mut longer = toks.clone();
        longer.extend([9, 9, 9, 9]);
        assert_eq!(idx.longest_match(&longer), chain);
    }

    #[test]
    fn diverging_prefixes_share_the_common_stem() {
        let mut idx = PrefixIndex::new(2);
        let a = idx.insert(&[1, 2, 3, 4]);
        let b = idx.insert(&[1, 2, 9, 9]);
        assert_eq!(a.first(), b.first(), "common first chunk shares one id");
        assert_ne!(a.get(1), b.get(1));
        assert_eq!(idx.len(), 3, "stem stored once");
        // Re-inserting allocates nothing.
        assert_eq!(idx.insert(&[1, 2, 3, 4]), a);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn mismatched_tokens_stop_the_match() {
        let mut idx = PrefixIndex::new(2);
        let chain = idx.insert(&[5, 6, 7, 8]);
        assert_eq!(idx.longest_match(&[5, 6, 0, 0]), chain[..1].to_vec());
        assert!(idx.longest_match(&[0, 0]).is_empty());
        assert!(idx.longest_match(&[5]).is_empty(), "sub-chunk prefix");
    }

    #[test]
    fn same_chunk_under_different_prefixes_gets_distinct_ids() {
        let mut idx = PrefixIndex::new(2);
        let a = idx.insert(&[1, 1, 3, 3]);
        let b = idx.insert(&[2, 2, 3, 3]);
        let (Some(a1), Some(b1)) = (a.get(1), b.get(1)) else {
            panic!("both chains must have two chunks");
        };
        assert_ne!(a1, b1, "identical tokens, different attention prefix");
    }

    #[test]
    fn synthetic_preambles_are_deterministic_and_seed_sensitive() {
        assert_eq!(synthetic_preamble(3, 64), synthetic_preamble(3, 64));
        assert_ne!(synthetic_preamble(3, 64), synthetic_preamble(4, 64));
        assert!(synthetic_preamble(3, 64).iter().all(|&t| t < 32_768));
    }
}
