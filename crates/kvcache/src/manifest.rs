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

/// Length of the wire record of a manifest with `chunks` entries: magic,
/// session id, count, two words per entry, checksum.
fn encoded_len(chunks: usize) -> usize {
    8 * (4 + 2 * chunks)
}

/// FNV-1a over a byte stream — the repo-standard checksum and
/// determinism pin (manifest trailers, chunk ids, host-block checksums,
/// trace hashes).
#[must_use]
pub fn fnv1a(data: impl IntoIterator<Item = u8>) -> u64 {
    data.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One chunk entry in a persisted manifest, or in an export's shared
/// chain: its shared identity (or [`ChunkId::NONE`] for a private chunk)
/// and its token count.
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
        let mut out = Vec::with_capacity(encoded_len(self.chunks.len()));
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

/// Simulated tier-3 object store holding session manifests.
///
/// One instance outlives the engines that write to it — the cluster
/// router owns it so a fail-stopped replica's sessions survive the
/// replica — and a `BTreeMap` keeps iteration deterministic. A record is
/// the layout itself plus a torn flag, not its encoding: encoding is
/// canonical, so a clean record is equal to another exactly when their
/// [`SessionManifest::to_bytes`] are, and a torn write — which on a real
/// object store leaves the first half of the bytes, a partial PUT —
/// decodes as [`ManifestError::Torn`] and equals no clean record (the
/// prefix's chunk-count field disagrees with its length). The damage is
/// still only discovered at read time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColdObjectStore {
    objects: BTreeMap<SessionId, (SessionManifest, bool)>,
}

impl ColdObjectStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a session's manifest, replacing any previous record. A
    /// `torn` write keeps only the first half of the wire record — it
    /// reads back as [`ManifestError::Torn`] until overwritten by a
    /// later clean write. Returns the bytes stored: the length of
    /// [`SessionManifest::to_bytes`], halved for a torn write.
    pub fn put(&mut self, manifest: SessionManifest, torn: bool) -> usize {
        let encoded = encoded_len(manifest.chunks.len());
        self.objects.insert(manifest.session, (manifest, torn));
        if torn {
            encoded / 2
        } else {
            encoded
        }
    }

    /// True when the store holds a clean record equal to `manifest` —
    /// the stored bytes equal [`SessionManifest::to_bytes`], so a write
    /// would change nothing.
    #[must_use]
    pub fn holds(&self, manifest: &SessionManifest) -> bool {
        self.objects
            .get(&manifest.session)
            .is_some_and(|(stored, torn)| !torn && stored == manifest)
    }

    /// Reads back a session's manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Missing`] if no record exists;
    /// [`ManifestError::Torn`] if the stored record was torn.
    pub fn get(&self, session: SessionId) -> Result<SessionManifest, ManifestError> {
        match self.objects.get(&session) {
            None => Err(ManifestError::Missing),
            Some((_, true)) => Err(ManifestError::Torn),
            Some((manifest, false)) => Ok(manifest.clone()),
        }
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
    use proptest::prelude::*;

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
        assert!(!store.holds(&m));
        let clean_len = store.put(m.clone(), false);
        assert_eq!(clean_len, m.to_bytes().len());
        assert_eq!(store.get(m.session).unwrap(), m);
        assert!(store.holds(&m));

        // A torn overwrite loses the record until rewritten cleanly.
        let torn_len = store.put(m.clone(), true);
        assert_eq!(torn_len, clean_len / 2);
        assert_eq!(store.get(m.session), Err(ManifestError::Torn));
        assert!(!store.holds(&m), "a torn record is no clean copy");
        store.put(m.clone(), false);
        assert_eq!(store.get(m.session).unwrap(), m);

        assert_eq!(store.sessions(), vec![m.session]);
        assert_eq!(store.len(), 1);
        store.remove(m.session);
        assert!(store.is_empty());
    }

    /// The one length collision between a torn record and a clean one:
    /// half of a two-chunk record is as long as a whole empty one. The
    /// count fields differ, so the bytes do too, and neither store
    /// mistakes one for the other.
    #[test]
    fn a_torn_record_never_equals_a_clean_one() {
        let two = manifest(5, &[32, 32]);
        let empty = manifest(5, &[]);
        let torn = &two.to_bytes()[..two.to_bytes().len() / 2];
        assert_eq!(torn.len(), empty.to_bytes().len());
        assert_ne!(torn, &empty.to_bytes()[..]);
        let mut store = ColdObjectStore::new();
        store.put(two, true);
        assert!(!store.holds(&empty));
    }

    /// `manifest` with a small id and token alphabet, so generated
    /// layouts often coincide.
    fn layout(session: u64, entries: &[(usize, usize)]) -> SessionManifest {
        let ids = [
            ChunkId::NONE,
            ChunkId::derive_words(ChunkId::ROOT, &[1]),
            ChunkId::derive_words(ChunkId::ROOT, &[2]),
        ];
        SessionManifest {
            session: SessionId(session),
            chunks: entries
                .iter()
                .map(|&(id, tokens)| ManifestChunk {
                    id: ids.get(id).copied().unwrap_or(ChunkId::NONE),
                    tokens: tokens * 16,
                })
                .collect(),
        }
    }

    /// Asserts `bytes` decodes as torn or as the manifest that encodes to
    /// exactly `bytes`, with a chunk `Vec` no longer than the record
    /// allows.
    fn torn_or_round_trip(bytes: &[u8]) {
        match SessionManifest::from_bytes(bytes) {
            Err(e) => assert_eq!(e, ManifestError::Torn),
            Ok(m) => {
                assert_eq!(m.to_bytes(), bytes, "a decoded record re-encodes to itself");
                assert!(m.chunks.capacity() <= bytes.len() / 16);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The layout store against the byte store it replaced, op by
        /// op: `put` (clean or torn) and `remove` over three sessions,
        /// then `get` on every session and `holds` on a written and an
        /// unrelated layout. The byte store keeps `to_bytes` (its first
        /// half when torn) and answers with `from_bytes`, byte equality
        /// and `len`.
        #[test]
        fn layout_store_answers_as_the_byte_store(
            ops in prop::collection::vec(
                (
                    0u64..3,
                    prop::collection::vec((0usize..3, 0usize..3), 0..4),
                    0u8..2,
                    0u8..4,
                    prop::collection::vec((0usize..3, 0usize..3), 0..4),
                ),
                1..24,
            ),
        ) {
            let mut store = ColdObjectStore::new();
            let mut bytes: BTreeMap<SessionId, Vec<u8>> = BTreeMap::new();
            for (session, entries, torn, action, other) in ops {
                let m = layout(session, &entries);
                let torn = torn == 1;
                if action == 0 {
                    store.remove(m.session);
                    bytes.remove(&m.session);
                } else {
                    let mut encoded = m.to_bytes();
                    if torn {
                        encoded.truncate(encoded.len() / 2);
                    }
                    prop_assert_eq!(store.put(m.clone(), torn), encoded.len());
                    bytes.insert(m.session, encoded);
                }
                for s in 0..3 {
                    let s = SessionId(s);
                    let expected = bytes
                        .get(&s)
                        .map_or(Err(ManifestError::Missing), |b| SessionManifest::from_bytes(b));
                    prop_assert_eq!(store.get(s), expected);
                }
                for q in [m, layout(session, &other)] {
                    let stored = bytes.get(&q.session).map(Vec::as_slice);
                    prop_assert_eq!(store.holds(&q), stored == Some(&q.to_bytes()[..]));
                }
                prop_assert_eq!(store.len(), bytes.len());
            }
        }

        /// Arbitrary bytes, and arbitrary bytes behind a valid magic and
        /// a small count, decode as torn or round-trip exactly.
        #[test]
        fn arbitrary_bytes_decode_as_torn_or_round_trip(
            raw in prop::collection::vec(0u16..256, 0..160),
            count in 0u64..8,
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b.to_le_bytes()[0]).collect();
            torn_or_round_trip(&raw);
            let mut framed = MAGIC.to_le_bytes().to_vec();
            framed.extend_from_slice(&7u64.to_le_bytes());
            framed.extend_from_slice(&count.to_le_bytes());
            framed.extend_from_slice(&raw);
            torn_or_round_trip(&framed);
        }

        /// Every single-bit flip of a valid record is torn: a flip in
        /// the body changes the FNV-1a sum (each step is a bijection of
        /// the running hash), a flip in the trailer mismatches it.
        #[test]
        fn every_single_bit_flip_is_torn(
            session in 0u64..3,
            entries in prop::collection::vec((0usize..3, 0usize..3), 0..5),
        ) {
            let bytes = layout(session, &entries).to_bytes();
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                if let Some(b) = flipped.get_mut(bit / 8) {
                    *b ^= 1 << (bit % 8);
                }
                prop_assert_eq!(SessionManifest::from_bytes(&flipped), Err(ManifestError::Torn));
                torn_or_round_trip(&flipped);
            }
        }

        /// A lying chunk-count field — with the checksum left stale or
        /// recomputed to match — is torn, however large the lie: the
        /// decoder never reserves for a count the record cannot hold.
        #[test]
        fn a_lying_chunk_count_is_torn(
            session in 0u64..3,
            entries in prop::collection::vec((0usize..3, 0usize..3), 0..5),
        ) {
            let bytes = layout(session, &entries).to_bytes();
            let n = entries.len() as u64;
            let body = bytes.len() - 8;
            let lies = [
                n + 1,
                n.wrapping_sub(1),
                bytes.len() as u64 / 16,
                bytes.len() as u64 / 16 + 1,
                1 << 32,
                1 << 60,
                u64::MAX,
            ];
            for lie in lies.into_iter().filter(|&l| l != n) {
                let mut lying = bytes.clone();
                lying[16..24].copy_from_slice(&lie.to_le_bytes());
                prop_assert_eq!(SessionManifest::from_bytes(&lying), Err(ManifestError::Torn));
                let sum = fnv1a(lying[..body].iter().copied());
                lying[body..].copy_from_slice(&sum.to_le_bytes());
                prop_assert_eq!(SessionManifest::from_bytes(&lying), Err(ManifestError::Torn));
            }
        }
    }
}
