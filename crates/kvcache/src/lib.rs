//! Multi-tier KV-token cache management for Pensieve (§4.3), extended
//! below the paper's GPU + CPU pair with simulated SSD and cold
//! object-store tiers (see `docs/STORAGE.md` at the repository root)
//! and *across* conversations with content-addressed shared chunks
//! (`DESIGN.md` §14).
//!
//! This crate implements the paper's cache manager at the *decision* level:
//! which chunks live where, what gets evicted when, and what a returning
//! conversation must swap in, read back, or recompute. It tracks token
//! counts and chunk states; the physical KV bytes live either in the
//! simulator (timing experiments) or in `pensieve-kernels`' paged pool
//! (functional tests), and deep-tier device timing lives in
//! `pensieve-sim`'s storage model.
//!
//! Key concepts, mapped to the paper:
//!
//! * **Chunks** — eviction happens in fixed-size groups of tokens
//!   (32 by default) to amortize decision-making and PCIe transfer costs.
//! * **Retention value** — `V = Cost(l) / T`: chunks that are cheap to
//!   recompute (leading chunks, small `l`) or belong to long-inactive
//!   conversations are evicted first ([`RetentionValuePolicy`]).
//! * **Ahead-of-time swapping** — when GPU free space falls below a
//!   watermark (25 %), chunks are *copied* to CPU but their GPU slots are
//!   reclaimed lazily, so a quickly-returning conversation gets them back
//!   for free ([`TieredKvCache`]).
//! * **Demotion and recomputation** — under CPU pressure chunks demote
//!   tier-by-tier (CPU → SSD → cold) instead of being dropped outright;
//!   only when the bottom tier is full (or the deep tiers are disabled,
//!   the default) is a chunk dropped and later recomputed from raw
//!   tokens kept in a persistent store ([`TokenChunkStore`]).
//! * **Cross-conversation sharing** — a common prefix (tool preamble,
//!   RAG document, forked history) registers once as a chain of
//!   content-addressed, reference-counted chunks ([`ChunkId`]) behind a
//!   radix prefix index ([`PrefixIndex`]); N conversations attach to
//!   one physical copy, and eviction weighs a chunk by its sharer
//!   count. Explicit references travel as [`ChunkHandle`] guards.
//! * **Request plans** — a returning conversation's context splits into
//!   the paper's Figure-5 segments, generalized across the hierarchy:
//!   dropped prefix (recompute), cold/SSD middle (device read), CPU
//!   middle (swap in), GPU tail (hit), new prompt (compute).
//! * **Manifests** — each session's chunk layout (shared chain ids
//!   included) can be persisted to the cold tier ([`ColdObjectStore`])
//!   so a restarted replica rehydrates the session as shared re-attach
//!   plus cold-tier reads instead of recomputing its whole history.
//!
//! The crate's entire API is re-exported here at the root — the module
//! tree is private layout, not surface.

#![deny(missing_docs)]

mod manifest;
mod policy;
mod prefix;
mod stats;
mod store;
mod tiered;
mod types;

pub use manifest::{fnv1a, ColdObjectStore, ManifestChunk, ManifestError, SessionManifest};
pub use policy::{
    CachedAttentionPolicy, EvictionPolicy, Granularity, LruPolicy, RetentionValuePolicy,
    TrailingEndPolicy, WithinOrder,
};
pub use prefix::{synthetic_preamble, PrefixIndex};
pub use stats::CacheStats;
pub use store::{SessionView, TokenChunkStore};
pub use tiered::{
    leaked_chunk_handles, CacheError, ChunkHandle, RequestPlan, SessionExport, SharedChunkRef,
    SwapOutOp, TieredKvCache, TieredKvCacheBuilder,
};
pub use types::{CacheConfig, ChunkId, ChunkRef, ChunkState, SessionId, Tier};
