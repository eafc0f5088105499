//! Per-session chunk manifests persisted to the cold tier, and the
//! simulated cold object store that holds them across restarts.
//!
//! Pensieve's caches are an optimization over a durable raw-token store,
//! so a restarted replica *can* always recompute a session from scratch
//! — but recomputation burns prefill compute proportional to the whole
//! history. A manifest records just enough of a session's chunk layout
//! (token counts, in context order) that a fresh replica can re-admit
//! the session's chunks at [`Tier::Cold`](crate::Tier::Cold) and serve
//! the history as cold-tier reads instead, via
//! [`TieredKvCache::rehydrate_session`](crate::TieredKvCache::rehydrate_session).
//!
//! The simulation tracks token *counts*, never KV values, so the wire
//! format carries only the layout plus an FNV-1a checksum trailer. A
//! torn write (fault-injected or otherwise) truncates the record; both
//! truncation and checksum mismatch surface as
//! [`ManifestError::Torn`], which callers treat as "no manifest" and
//! fall back to recompute — never as corrupted state.
//!
//! Wire format (all fields little-endian `u64`):
//!
//! ```text
//! [magic "PNSVMAN2"] [session id] [chunk count n]
//! [n x (chunk id, chunk tokens)]
//! [fnv1a checksum of all preceding bytes]
//! ```
//!
//! Each entry persists the chunk's content-addressed
//! [`ChunkId`](crate::ChunkId) so rehydration can re-*attach* shared
//! chunks by reference instead of re-admitting an owned copy —
//! [`ChunkId::NONE`](crate::ChunkId::NONE) marks a conversation-private
//! chunk. A record with any other magic decodes as
//! [`ManifestError::Torn`]: nothing persisted outlives a run, so there is
//! no older format to read.

use std::collections::BTreeMap;

use crate::types::{ChunkId, SessionId};

/// Magic prefix of a serialized manifest: `b"PNSVMAN2"` as a
/// little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"PNSVMAN2");

/// FNV-1a over a byte stream — the repo-standard checksum and
/// determinism pin (manifest trailers, chunk ids, host-block checksums,
/// trace hashes).
#[must_use]
pub fn fnv1a(data: impl IntoIterator<Item = u8>) -> u64 {
    data.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One chunk entry in a persisted manifest: its shared identity (or
/// [`ChunkId::NONE`] for a private chunk) and its token count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestChunk {
    /// Content-addressed id, [`ChunkId::NONE`] if conversation-private.
    pub id: ChunkId,
    /// Tokens in the chunk.
    pub tokens: usize,
}

/// A session's chunk layout, as persisted to the cold tier.
///
/// Layout only — ids and token counts in context order, never KV bytes.
/// The durable raw-token store remains the source of truth for the
/// tokens themselves; the manifest exists so a restarted replica knows
/// *what to re-admit* (and which shared chunks to re-*attach* by
/// reference) without replaying the whole conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionManifest {
    /// The session this manifest describes.
    pub session: SessionId,
    /// Per-chunk entries, in context order.
    pub chunks: Vec<ManifestChunk>,
}

/// Why a stored manifest could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestError {
    /// No manifest is stored for the requested session.
    Missing,
    /// The record is truncated or fails its checksum — a torn write.
    /// Callers must treat this exactly like [`ManifestError::Missing`]
    /// and recompute.
    Torn,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Missing => write!(f, "no manifest stored for session"),
            Self::Torn => write!(f, "manifest record torn or checksum mismatch"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl SessionManifest {
    /// Total tokens across all chunks.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.chunks.iter().map(|c| c.tokens).sum()
    }

    /// Serializes to the checksummed little-endian wire format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (4 + 2 * self.chunks.len()));
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.session.0.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for chunk in &self.chunks {
            out.extend_from_slice(&chunk.id.0.to_le_bytes());
            out.extend_from_slice(&(chunk.tokens as u64).to_le_bytes());
        }
        let sum = fnv1a(out.iter().copied());
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a wire record, verifying magic, length and checksum.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::Torn`] if the record is truncated,
    /// carries the wrong magic, or fails its checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        let read_u64 = |at: usize| -> Option<u64> {
            bytes
                .get(at..at + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
        };
        let header_ok = read_u64(0) == Some(MAGIC);
        let Some(n) = read_u64(16) else {
            return Err(ManifestError::Torn);
        };
        let n = usize::try_from(n).map_err(|_| ManifestError::Torn)?;
        if n > bytes.len() / 16 {
            // A garbage count in a torn record; also keeps the length
            // arithmetic below overflow-free.
            return Err(ManifestError::Torn);
        }
        let body_len = 8 * (3 + 2 * n);
        if !header_ok || bytes.len() != body_len + 8 {
            return Err(ManifestError::Torn);
        }
        let stored_sum = read_u64(body_len).ok_or(ManifestError::Torn)?;
        let body = bytes.get(..body_len).ok_or(ManifestError::Torn)?;
        if fnv1a(body.iter().copied()) != stored_sum {
            return Err(ManifestError::Torn);
        }
        let session = SessionId(read_u64(8).ok_or(ManifestError::Torn)?);
        let mut chunks = Vec::with_capacity(n);
        for i in 0..n {
            let id = ChunkId(read_u64(24 + 16 * i).ok_or(ManifestError::Torn)?);
            let tokens = read_u64(32 + 16 * i).ok_or(ManifestError::Torn)?;
            chunks.push(ManifestChunk {
                id,
                tokens: usize::try_from(tokens).map_err(|_| ManifestError::Torn)?,
            });
        }
        Ok(Self { session, chunks })
    }
}

/// Simulated tier-3 object store holding serialized session manifests.
///
/// One instance outlives the engines that write to it — the cluster
/// router owns it so a fail-stopped replica's sessions survive the
/// replica — and a `BTreeMap` keeps iteration deterministic. Storage is
/// byte-level on purpose: a torn write really does truncate the record,
/// and the damage is only discovered at read time, like a real object
/// store with a partial PUT.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColdObjectStore {
    objects: BTreeMap<SessionId, Vec<u8>>,
}

impl ColdObjectStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a session's manifest, replacing any previous record.
    /// A `torn` write stores only the first half of the bytes — the
    /// record decodes as [`ManifestError::Torn`] until overwritten by a
    /// later clean write. Returns the bytes stored.
    pub fn put(&mut self, manifest: &SessionManifest, torn: bool) -> usize {
        self.put_bytes(manifest.session, manifest.to_bytes(), torn)
    }

    /// [`ColdObjectStore::put`] for a record the caller already encoded
    /// with [`SessionManifest::to_bytes`] (to compare it against
    /// [`ColdObjectStore::bytes`] first, say).
    pub fn put_bytes(&mut self, session: SessionId, mut bytes: Vec<u8>, torn: bool) -> usize {
        if torn {
            bytes.truncate(bytes.len() / 2);
        }
        let stored = bytes.len();
        self.objects.insert(session, bytes);
        stored
    }

    /// The raw stored record, torn or not; `None` if nothing is stored.
    /// Encoding is canonical, so a clean record equals
    /// [`SessionManifest::to_bytes`] of the manifest it decodes to, and a
    /// torn one is a strict prefix of what was meant to be written.
    #[must_use]
    pub fn bytes(&self, session: SessionId) -> Option<&[u8]> {
        self.objects.get(&session).map(Vec::as_slice)
    }

    /// Reads back a session's manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Missing`] if no record exists;
    /// [`ManifestError::Torn`] if the stored record is truncated or
    /// fails its checksum.
    pub fn get(&self, session: SessionId) -> Result<SessionManifest, ManifestError> {
        let bytes = self.objects.get(&session).ok_or(ManifestError::Missing)?;
        SessionManifest::from_bytes(bytes)
    }

    /// Removes a session's record (e.g. when the conversation ends).
    pub fn remove(&mut self, session: SessionId) {
        self.objects.remove(&session);
    }

    /// Number of stored records (torn or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no records are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Sessions with a stored record, in ascending id order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionId> {
        self.objects.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(id: u64, chunks: &[usize]) -> SessionManifest {
        SessionManifest {
            session: SessionId(id),
            chunks: chunks
                .iter()
                .enumerate()
                .map(|(i, &tokens)| ManifestChunk {
                    // Mix shared (content-addressed) and private entries.
                    id: if i % 2 == 0 {
                        ChunkId::derive_words(ChunkId::ROOT, &[id, i as u64])
                    } else {
                        ChunkId::NONE
                    },
                    tokens,
                })
                .collect(),
        }
    }

    #[test]
    fn round_trips_through_wire_format() {
        let m = manifest(42, &[32, 32, 17]);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), 8 * (3 + 2 * 3) + 8);
        assert_eq!(SessionManifest::from_bytes(&bytes).unwrap(), m);
        assert_eq!(m.total_tokens(), 81);
    }

    #[test]
    fn unknown_magic_decodes_as_torn() {
        // Well-formed in every other respect: right length, valid checksum.
        let mut bytes = manifest(9, &[32, 32]).to_bytes();
        let body = bytes.len() - 8;
        bytes[..8].copy_from_slice(b"NOTAMAN9");
        let sum = fnv1a(bytes[..body].iter().copied());
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SessionManifest::from_bytes(&bytes),
            Err(ManifestError::Torn)
        );
    }

    #[test]
    fn empty_layout_round_trips() {
        let m = manifest(7, &[]);
        assert_eq!(SessionManifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn truncation_and_corruption_decode_as_torn() {
        let bytes = manifest(1, &[32, 32]).to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                SessionManifest::from_bytes(&bytes[..cut]),
                Err(ManifestError::Torn),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut flipped = bytes.clone();
        flipped[9] ^= 0x40; // Corrupt the session id; checksum catches it.
        assert_eq!(
            SessionManifest::from_bytes(&flipped),
            Err(ManifestError::Torn)
        );
        let mut grown = bytes;
        grown.push(0);
        assert_eq!(
            SessionManifest::from_bytes(&grown),
            Err(ManifestError::Torn)
        );
    }

    #[test]
    fn store_put_get_and_torn_writes() {
        let mut store = ColdObjectStore::new();
        let m = manifest(3, &[32, 8]);
        assert_eq!(store.get(m.session), Err(ManifestError::Missing));
        let clean_len = store.put(&m, false);
        assert_eq!(clean_len, m.to_bytes().len());
        assert_eq!(store.get(m.session).unwrap(), m);

        // A torn overwrite loses the record until rewritten cleanly.
        let torn_len = store.put(&m, true);
        assert!(torn_len < clean_len);
        assert_eq!(store.get(m.session), Err(ManifestError::Torn));
        store.put(&m, false);
        assert_eq!(store.get(m.session).unwrap(), m);

        // The raw view: a clean record is the canonical encoding, a torn
        // one a strict prefix of it.
        assert_eq!(store.bytes(m.session), Some(&m.to_bytes()[..]));
        store.put_bytes(m.session, m.to_bytes(), true);
        let torn = store.bytes(m.session).unwrap();
        assert!(torn.len() < clean_len && m.to_bytes().starts_with(torn));
        store.put(&m, false);

        assert_eq!(store.sessions(), vec![m.session]);
        assert_eq!(store.len(), 1);
        store.remove(m.session);
        assert!(store.is_empty());
    }
}
