//! The typed structured-event stream recorded by the serving stack.
//!
//! Every event carries a [`SimTime`] timestamp (`at`) and, where
//! meaningful, raw `u64` request/conversation ids. Ids are raw integers
//! rather than the `core`/`kvcache` newtypes so that this crate sits
//! *below* the runtime crates in the dependency graph: the hot path
//! depends on `obs`, never the other way around.
//!
//! The schema is stated once, in the two tables of this file. The
//! `wire_enums!` table pairs each payload enum's variants with their wire
//! names; the `trace_events!` table lists every event variant with its
//! fields, their types and their rustdoc. The enums themselves,
//! [`VARIANTS`], [`TraceEvent::variant_name`], [`TraceEvent::at`] and both
//! JSON directions are expanded from those tables, so adding an event is
//! one table entry (`docs/OBSERVABILITY.md` has the whole recipe).
//!
//! On the wire an event is a JSON object whose `"ev"` key is the variant
//! name and whose other keys are the variant's fields, each written and
//! read by its own type's `Serialize`/`Deserialize` impl.
//! [`TraceEvent::from_value`] is strict — an unknown `"ev"`, a missing or
//! mistyped field, or a negative or non-finite time is an error naming the
//! offender; only unknown extra keys are ignored — which is what
//! `trace_report` uses to validate a JSONL log against the schema.

use pensieve_model::{SimDuration, SimTime};
use serde::{DeError, Deserialize, Map, Serialize, Value};

/// Expands the wire-enum table: each enum, its `ALL` slice, `as_str`, and
/// `Serialize`/`Deserialize` as the wire-name string.
macro_rules! wire_enums {
    ($(
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal, )*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: &[$name] = &[$( $name::$variant ),*];

            /// Stable wire name.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )*
                }
            }
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                self.as_str().to_value()
            }
        }

        impl Deserialize for $name {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let s = v
                    .as_str()
                    .ok_or_else(|| DeError::custom("expected a string"))?;
                let known = Self::ALL.iter().copied().find(|x| x.as_str() == s);
                known.ok_or_else(|| {
                    DeError::custom(format!("unknown {} {s:?}", stringify!($name)))
                })
            }
        }
    )*};
}

wire_enums! {
    /// Transfer direction of a swap DMA over the PCIe link.
    pub enum SwapDir {
        /// CPU → GPU (swap-in / retrieval).
        In = "in",
        /// GPU → CPU (swap-out / eviction or suspension).
        Out = "out",
    }

    /// Why a chunk's CPU-tier copy (or the chunk itself) was discarded.
    pub enum DropReason {
        /// The CPU tier was full and the policy chose this chunk.
        CpuPressure = "cpu-pressure",
        /// An injected host-memory fault lost the copy.
        HostLoss = "host-loss",
        /// A checksum mismatch invalidated the copy.
        HostCorruption = "host-corruption",
        /// Persistent swap-in DMA failures forced a recompute fallback.
        SwapInFault = "swap-in-fault",
        /// The whole storage hierarchy below the CPU was full: the chunk fell
        /// off the bottom (cold) tier.
        ColdPressure = "cold-pressure",
        /// A deep-tier read failed and the chunk's storage copy was discarded
        /// in favour of recomputation.
        ColdReadFault = "cold-read-fault",
    }

    /// A host-side storage tier of the deep cache hierarchy (the GPU tier is
    /// never a demotion source or target, so it does not appear here).
    pub enum StorageTier {
        /// Tier 1: host DRAM (the paper's CPU cache).
        Cpu = "cpu",
        /// Tier 2: simulated NVMe SSD.
        Ssd = "ssd",
        /// Tier 3: simulated NFS/object cold store (restart-durable).
        Cold = "cold",
    }

    /// Which fault-recovery path the engine exercised.
    pub enum RecoveryKind {
        /// A swap-in DMA failed or timed out and was retried after backoff.
        SwapInRetry = "swap-in-retry",
        /// Swap-in retries were exhausted; the CPU chunks were dropped and
        /// will be recomputed from raw tokens.
        RecomputeFallback = "recompute-fallback",
        /// A transient GPU slot-allocation failure was absorbed by the
        /// eviction backpressure pass.
        GpuAllocFault = "gpu-alloc-fault",
        /// An injected worker stall lengthened the iteration.
        WorkerStall = "worker-stall",
        /// A deep-tier (SSD/cold) read failed; the affected chunks were
        /// dropped and recomputed from raw tokens.
        ColdReadFallback = "cold-read-fallback",
        /// A session manifest read back from the cold store was torn (partial
        /// write); rehydration was abandoned in favour of recomputation.
        TornManifest = "torn-manifest",
    }
}

/// Reads key `key` of the event object `v` as a `T`; the key is named in
/// the error when it is absent or its value is not a valid `T`.
fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, DeError> {
    let raw = v
        .get(key)
        .ok_or_else(|| DeError::custom(format!("missing field {key:?}")))?;
    T::from_value(raw).map_err(|e| DeError::custom(format!("field {key:?}: {e}")))
}

/// Expands the event table: the enum, [`VARIANTS`], the name and timestamp
/// accessors, and both JSON directions. Every variant must have an
/// `at: SimTime` field (the generated [`TraceEvent::at`] does not compile
/// otherwise), and every field type must be `Serialize + Deserialize`.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {$(
            $(#[$vmeta:meta])*
            $variant:ident {
                $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
            },
        )*}
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $name {$(
            $(#[$vmeta])*
            $variant {
                $( $(#[$fmeta])* $field: $ty, )*
            },
        )*}

        /// Every variant name, in declaration order. The docs-coverage test
        /// asserts each appears in `docs/OBSERVABILITY.md`.
        pub const VARIANTS: &[&str] = &[$( stringify!($variant) ),*];

        impl $name {
            /// The variant's wire name (the JSON `"ev"` field).
            #[must_use]
            pub fn variant_name(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => stringify!($variant), )*
                }
            }

            /// The event's timestamp.
            #[must_use]
            pub fn at(&self) -> SimTime {
                match self {
                    $( $name::$variant { at, .. } )|* => *at,
                }
            }
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                let mut m = Map::new();
                m.insert("ev".to_owned(), self.variant_name().to_value());
                match self {$(
                    $name::$variant { $( $field ),* } => {
                        $( m.insert(stringify!($field).to_owned(), $field.to_value()); )*
                    }
                )*}
                Value::Object(m)
            }
        }

        impl Deserialize for $name {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match field::<String>(v, "ev")?.as_str() {
                    $( stringify!($variant) => Ok($name::$variant {
                        $( $field: field(v, stringify!($field))?, )*
                    }), )*
                    other => Err(DeError::custom(format!("unknown event variant {other:?}"))),
                }
            }
        }
    };
}

trace_events! {
    /// One structured event recorded by the serving stack.
    ///
    /// See `docs/OBSERVABILITY.md` for the full reference of every variant's
    /// meaning and wire format.
    pub enum TraceEvent {
        /// A scheduler iteration began (before admission).
        IterationStart {
            /// Simulated time at the start of the tick.
            at: SimTime,
            /// Zero-based iteration index.
            iteration: u64,
            /// Requests in the running batch at tick start.
            running: usize,
            /// Requests waiting for admission at tick start.
            waiting: usize,
        },
        /// The iteration's batch was composed (after admission), with its
        /// prefill/generation split.
        BatchComposed {
            /// Simulated time (still the tick start; compute has not run).
            at: SimTime,
            /// Zero-based iteration index.
            iteration: u64,
            /// Sequences doing prefill work this iteration.
            prefill_seqs: usize,
            /// Sequences doing single-token decode this iteration.
            decode_seqs: usize,
            /// Query tokens of prefill work in this iteration's invocation.
            prefill_tokens: usize,
            /// Query tokens of decode work (one per decode sequence).
            decode_tokens: usize,
        },
        /// The iteration's model invocation completed and the clock advanced.
        IterationEnd {
            /// Simulated time after the clock advanced (= end of the tick).
            at: SimTime,
            /// Zero-based iteration index.
            iteration: u64,
            /// Link queueing delay that preceded compute.
            queue_delay: SimDuration,
            /// Model compute time, including any pipelined swap-in stall.
            compute: SimDuration,
            /// Injected worker-stall time (fault injection only).
            stall: SimDuration,
        },
        /// A request was admitted and its Figure-5 restore plan committed.
        /// The token fields are the per-turn cache-hit attribution.
        Admitted {
            /// Admission time.
            at: SimTime,
            /// Iteration that admitted the request.
            iteration: u64,
            /// Request id.
            request: u64,
            /// Conversation id.
            conv: u64,
            /// True when this resumes a suspended request rather than
            /// starting a fresh turn.
            resumed: bool,
            /// New prompt tokens (0 for resumed requests).
            prompt_tokens: usize,
            /// History-tail tokens recomputed with the prompt (history the
            /// cache never held, e.g. the previous turn's final token).
            tail_tokens: usize,
            /// History tokens served by the globally shared prefix.
            shared_tokens: usize,
            /// History tokens still GPU-resident (free hits).
            gpu_hit_tokens: usize,
            /// Lazily-copied tokens revalidated in place (free hits).
            revalidate_tokens: usize,
            /// History tokens swapped in from the CPU tier.
            swap_in_tokens: usize,
            /// Dropped history tokens recomputed from raw text.
            recompute_tokens: usize,
        },
        /// A swap DMA was placed on the PCIe link (chunk swap-in/out start).
        /// Under fault injection a failed DMA still records its start/end
        /// pair: the aborted transfer occupied the link for its full duration.
        SwapStart {
            /// When the transfer starts moving bytes (after FIFO queueing).
            at: SimTime,
            /// Transfer direction.
            dir: SwapDir,
            /// Bytes transferred.
            bytes: u64,
        },
        /// A swap DMA completed (chunk swap-in/out end).
        SwapEnd {
            /// Completion time.
            at: SimTime,
            /// Transfer direction.
            dir: SwapDir,
            /// Bytes transferred.
            bytes: u64,
        },
        /// The eviction pass demoted a GPU-resident chunk: copied to the CPU
        /// tier (ahead-of-time swap-out, `dropped = false`) or dropped
        /// outright because the CPU tier could not hold it (`dropped = true`).
        ChunkEvicted {
            /// Eviction time.
            at: SimTime,
            /// Owning conversation.
            conv: u64,
            /// Chunk index within the conversation.
            chunk: usize,
            /// Tokens in the chunk.
            tokens: usize,
            /// True if dropped instead of copied.
            dropped: bool,
        },
        /// A chunk's CPU-tier copy was discarded (the chunk must be
        /// recomputed on its next restore unless the GPU still holds it).
        ChunkDropped {
            /// Drop time.
            at: SimTime,
            /// Owning conversation.
            conv: u64,
            /// Chunk index within the conversation.
            chunk: usize,
            /// Tokens in the chunk.
            tokens: usize,
            /// Why the copy was discarded.
            reason: DropReason,
        },
        /// Memory pressure demoted a chunk one storage tier down (CPU→SSD,
        /// SSD→cold, or CPU→cold when the SSD tier is disabled) instead of
        /// dropping it.
        ChunkDemoted {
            /// Demotion time.
            at: SimTime,
            /// Owning conversation.
            conv: u64,
            /// Chunk index within the conversation.
            chunk: usize,
            /// Tokens in the chunk.
            tokens: usize,
            /// Tier the chunk left.
            from: StorageTier,
            /// Tier the chunk landed in.
            to: StorageTier,
        },
        /// A restore revalidated lazily-copied tokens in place — their GPU
        /// slots were never reclaimed, so the "swap-in" was free.
        Revalidated {
            /// Restore commit time.
            at: SimTime,
            /// Conversation restored.
            conv: u64,
            /// Tokens revalidated.
            tokens: usize,
        },
        /// A restore committed a CPU→GPU swap-in of this many tokens.
        SwapInCommitted {
            /// Restore commit time.
            at: SimTime,
            /// Conversation restored.
            conv: u64,
            /// Tokens to transfer.
            tokens: usize,
        },
        /// A restore committed recomputation of dropped tokens from raw text
        /// (they run as extra prefill work in the admitting iteration).
        RecomputeCommitted {
            /// Restore commit time.
            at: SimTime,
            /// Conversation restored.
            conv: u64,
            /// Tokens to recompute.
            tokens: usize,
        },
        /// A restore committed a deep-tier (SSD or cold) read of this many
        /// tokens; they travel through the CPU staging path to the GPU.
        TierReadCommitted {
            /// Restore commit time.
            at: SimTime,
            /// Conversation restored.
            conv: u64,
            /// Tokens read back.
            tokens: usize,
            /// The tier the tokens were read from.
            tier: StorageTier,
        },
        /// A running request was suspended (§4.3.5) and its GPU-resident
        /// context moved to the CPU tier.
        Suspended {
            /// Suspension time.
            at: SimTime,
            /// Conversation suspended.
            conv: u64,
            /// Tokens that must be transferred GPU→CPU.
            tokens: usize,
        },
        /// The engine exercised a fault-recovery path.
        FaultRecovery {
            /// When the recovery action was taken.
            at: SimTime,
            /// Affected conversation, when one is attributable.
            conv: Option<u64>,
            /// Which recovery path ran.
            kind: RecoveryKind,
            /// Tokens involved (e.g. the swap-in size being retried).
            tokens: usize,
        },
        /// A request finished and its response was emitted.
        RequestCompleted {
            /// Finish time.
            at: SimTime,
            /// Request id.
            request: u64,
            /// Conversation id.
            conv: u64,
            /// Request arrival time.
            arrival: SimTime,
            /// When the first output token was emitted.
            first_token: SimTime,
            /// Output tokens generated.
            output_tokens: usize,
            /// Query tokens processed in prefill.
            prefill_tokens: usize,
            /// History tokens served from cache (incl. the shared prefix).
            cached_tokens: usize,
        },
        /// `sim::gpu` timed an iteration whose swap-in was pipelined
        /// layer-by-layer with compute (§4.3.3); `total - compute` is the
        /// stall the transfer could not hide.
        PipelinedSwapIn {
            /// Start of the timed invocation.
            at: SimTime,
            /// Swap-in bytes overlapped with the invocation.
            bytes: u64,
            /// Pure compute time of the batch.
            compute: SimDuration,
            /// Total time including the transfer stall.
            total: SimDuration,
        },
        /// One forward pass of the threaded tensor-parallel engine. The
        /// threaded engine has no simulated clock, so `at` is always zero and
        /// `pass` provides the logical ordering.
        TpPass {
            /// Always [`SimTime::ZERO`] (no simulated clock in real-thread
            /// execution).
            at: SimTime,
            /// Monotonic pass counter.
            pass: u64,
            /// Conversation served.
            conv: u64,
            /// Query tokens in the pass.
            query_tokens: usize,
            /// Worker shards that participated.
            shards: usize,
        },
        /// A cluster router placed a request on a replica.
        Routed {
            /// Routing decision time (the request's arrival at the router).
            at: SimTime,
            /// Request id.
            request: u64,
            /// Conversation id.
            conv: u64,
            /// Chosen replica index.
            replica: usize,
            /// KV-tokens of the conversation already cached at that replica.
            cached_tokens: usize,
        },
        /// A conversation migration began: its KV chunks stream from the
        /// source replica to the target over the inter-node link.
        MigrationStart {
            /// When the handoff was initiated.
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// Source replica index.
            from: usize,
            /// Target replica index.
            to: usize,
            /// Chunks to stream.
            chunks: usize,
            /// Total KV bytes to stream.
            bytes: u64,
        },
        /// A conversation migration finished; lost tokens fall back to
        /// Pensieve's dropped-token recomputation at the target.
        MigrationEnd {
            /// When the last chunk landed (or was detected lost).
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// Target replica index.
            to: usize,
            /// Tokens delivered to the target's CPU tier.
            streamed_tokens: usize,
            /// Tokens lost in transit (recomputed at the target).
            lost_tokens: usize,
        },
        /// A replica was fault-injected dead; its in-flight and queued
        /// requests are re-routed and its KV state is gone.
        ReplicaFailed {
            /// Failure time.
            at: SimTime,
            /// The dead replica's index.
            replica: usize,
            /// Requests re-queued onto surviving replicas.
            requeued: usize,
        },
        /// A replication flush streamed a session's pending KV delta from its
        /// primary replica to the designated standby.
        ReplicationFlush {
            /// When the delta was put on the wire.
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// Primary (source) replica index.
            from: usize,
            /// Standby (target) replica index.
            to: usize,
            /// Delta tokens streamed in this flush.
            tokens: usize,
            /// KV bytes of the delta.
            bytes: u64,
            /// True if the delta was lost in transit (it stays pending and
            /// is re-streamed by a later flush).
            lost: bool,
        },
        /// A standby was promoted after its primary fail-stopped: replicated
        /// chunks were imported at the standby and only the unreplicated
        /// suffix falls back to dropped-chunk recompute.
        StandbyPromoted {
            /// When the promotion completed (replicated state usable at the
            /// standby; in-flight replication deltas have landed).
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// The dead primary's index.
            from: usize,
            /// The promoted standby's index.
            to: usize,
            /// Tokens restored from replicated state.
            replicated_tokens: usize,
            /// Unreplicated suffix tokens (replication lag at crash) that
            /// must be recomputed from raw text.
            lag_tokens: usize,
            /// Crash-to-promotion latency.
            latency: SimDuration,
        },
        /// The inter-node fabric partitioned: transfers cannot start inside
        /// the window (in-flight transfers complete).
        LinkPartitioned {
            /// Window start.
            at: SimTime,
            /// Window end.
            until: SimTime,
        },
        /// A session's chunk manifest was serialized to the cold store,
        /// making the conversation rehydratable across a restart.
        ManifestPersisted {
            /// When the manifest write was issued.
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// Context tokens covered by the manifest.
            tokens: usize,
            /// Serialized manifest bytes written.
            bytes: u64,
            /// True when an injected torn-write fault truncated the manifest
            /// (detected by checksum at rehydration time).
            torn: bool,
        },
        /// A restarted or failed-over replica rebuilt a conversation's cache
        /// state from its cold-store manifest instead of recomputing it.
        SessionRehydrated {
            /// When the rehydrated state became usable at the replica.
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// Tokens admitted back into the cache's cold tier.
            tokens: usize,
            /// The rehydrating replica's index.
            replica: usize,
        },
        /// A conversation attached to a content-addressed shared chunk chain
        /// (tool preamble, RAG document, or forked history): its leading
        /// context is now served by refcounted chunks shared with every other
        /// sharer instead of a private copy.
        SharedAttached {
            /// Attach time (first admission of the conversation).
            at: SimTime,
            /// Conversation id.
            conv: u64,
            /// Context tokens covered by the shared chain.
            tokens: usize,
            /// Chunks in the attached chain.
            chunks: usize,
        },
        /// The eviction pass moved a content-addressed shared chunk down the
        /// hierarchy (`dropped = false`) or discarded it because its last
        /// reference had been released (`dropped = true`). Shared chunks are
        /// identified by their content hash, not an owning conversation.
        SharedChunkEvicted {
            /// Eviction time.
            at: SimTime,
            /// The chunk's content-addressed id.
            chunk: u64,
            /// Tokens in the chunk.
            tokens: usize,
            /// Conversations still referencing the chunk at eviction time.
            refs: usize,
            /// True if dropped instead of demoted one tier down.
            dropped: bool,
        },
    }
}

/// One instance of every variant, in declaration order — the fixture
/// behind the wire-format unit tests, the Chrome-trace golden file, and
/// the docs-coverage test, and a compact reference for what each variant
/// looks like on the wire.
#[must_use]
pub fn sample_events() -> Vec<TraceEvent> {
    let t = SimTime::from_secs(1.25);
    vec![
        TraceEvent::IterationStart {
            at: t,
            iteration: 3,
            running: 2,
            waiting: 1,
        },
        TraceEvent::BatchComposed {
            at: t,
            iteration: 3,
            prefill_seqs: 1,
            decode_seqs: 2,
            prefill_tokens: 128,
            decode_tokens: 2,
        },
        TraceEvent::IterationEnd {
            at: SimTime::from_secs(1.30),
            iteration: 3,
            queue_delay: SimDuration::from_millis(1.0),
            compute: SimDuration::from_millis(48.0),
            stall: SimDuration::ZERO,
        },
        TraceEvent::Admitted {
            at: t,
            iteration: 3,
            request: 7,
            conv: 4,
            resumed: false,
            prompt_tokens: 40,
            tail_tokens: 1,
            shared_tokens: 0,
            gpu_hit_tokens: 96,
            revalidate_tokens: 32,
            swap_in_tokens: 64,
            recompute_tokens: 32,
        },
        TraceEvent::SwapStart {
            at: t,
            dir: SwapDir::In,
            bytes: 1 << 20,
        },
        TraceEvent::SwapEnd {
            at: SimTime::from_secs(1.26),
            dir: SwapDir::In,
            bytes: 1 << 20,
        },
        TraceEvent::ChunkEvicted {
            at: t,
            conv: 2,
            chunk: 5,
            tokens: 32,
            dropped: false,
        },
        TraceEvent::ChunkDropped {
            at: t,
            conv: 2,
            chunk: 6,
            tokens: 32,
            reason: DropReason::CpuPressure,
        },
        TraceEvent::ChunkDemoted {
            at: t,
            conv: 2,
            chunk: 4,
            tokens: 32,
            from: StorageTier::Cpu,
            to: StorageTier::Ssd,
        },
        TraceEvent::Revalidated {
            at: t,
            conv: 4,
            tokens: 32,
        },
        TraceEvent::SwapInCommitted {
            at: t,
            conv: 4,
            tokens: 64,
        },
        TraceEvent::RecomputeCommitted {
            at: t,
            conv: 4,
            tokens: 32,
        },
        TraceEvent::TierReadCommitted {
            at: t,
            conv: 4,
            tokens: 64,
            tier: StorageTier::Cold,
        },
        TraceEvent::Suspended {
            at: t,
            conv: 9,
            tokens: 256,
        },
        TraceEvent::FaultRecovery {
            at: t,
            conv: Some(4),
            kind: RecoveryKind::SwapInRetry,
            tokens: 64,
        },
        TraceEvent::RequestCompleted {
            at: SimTime::from_secs(2.5),
            request: 7,
            conv: 4,
            arrival: SimTime::from_secs(1.0),
            first_token: SimTime::from_secs(1.3),
            output_tokens: 20,
            prefill_tokens: 73,
            cached_tokens: 192,
        },
        TraceEvent::PipelinedSwapIn {
            at: t,
            bytes: 1 << 20,
            compute: SimDuration::from_millis(48.0),
            total: SimDuration::from_millis(50.0),
        },
        TraceEvent::TpPass {
            at: SimTime::ZERO,
            pass: 11,
            conv: 4,
            query_tokens: 16,
            shards: 2,
        },
        TraceEvent::Routed {
            at: t,
            request: 7,
            conv: 4,
            replica: 2,
            cached_tokens: 192,
        },
        TraceEvent::MigrationStart {
            at: t,
            conv: 4,
            from: 2,
            to: 0,
            chunks: 6,
            bytes: 3 << 20,
        },
        TraceEvent::MigrationEnd {
            at: SimTime::from_secs(1.5),
            conv: 4,
            to: 0,
            streamed_tokens: 160,
            lost_tokens: 32,
        },
        TraceEvent::ReplicaFailed {
            at: t,
            replica: 2,
            requeued: 3,
        },
        TraceEvent::ReplicationFlush {
            at: t,
            conv: 4,
            from: 2,
            to: 0,
            tokens: 96,
            bytes: 3 << 19,
            lost: false,
        },
        TraceEvent::StandbyPromoted {
            at: SimTime::from_secs(1.5),
            conv: 4,
            from: 2,
            to: 0,
            replicated_tokens: 160,
            lag_tokens: 32,
            latency: SimDuration::from_millis(2.0),
        },
        TraceEvent::LinkPartitioned {
            at: t,
            until: SimTime::from_secs(1.75),
        },
        TraceEvent::ManifestPersisted {
            at: t,
            conv: 4,
            tokens: 192,
            bytes: 96,
            torn: false,
        },
        TraceEvent::SessionRehydrated {
            at: SimTime::from_secs(1.6),
            conv: 4,
            tokens: 192,
            replica: 0,
        },
        TraceEvent::SharedAttached {
            at: SimTime::from_secs(1.7),
            conv: 5,
            tokens: 1536,
            chunks: 48,
        },
        TraceEvent::SharedChunkEvicted {
            at: SimTime::from_secs(1.8),
            chunk: 0x9e37_79b9,
            tokens: 32,
            refs: 3,
            dropped: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_const_list() {
        let samples = sample_events();
        assert_eq!(samples.len(), VARIANTS.len());
        for (ev, name) in samples.iter().zip(VARIANTS) {
            assert_eq!(ev.variant_name(), *name);
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in sample_events() {
            let v = ev.to_value();
            let back = TraceEvent::from_value(&v).expect("round trip");
            assert_eq!(back, ev);
        }
    }

    fn all_round_trip<T>(all: &[T])
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug + Copy,
    {
        for x in all {
            assert_eq!(T::from_value(&x.to_value()), Ok(*x));
        }
    }

    #[test]
    fn wire_enums_round_trip_and_reject_unknown_names() {
        all_round_trip(SwapDir::ALL);
        all_round_trip(DropReason::ALL);
        all_round_trip(StorageTier::ALL);
        all_round_trip(RecoveryKind::ALL);
        let err = DropReason::from_value(&"gpu-pressure".to_value()).expect_err("unknown name");
        assert!(err.to_string().contains("gpu-pressure"), "{err}");
        assert!(StorageTier::from_value(&Value::Number(1.0)).is_err());
    }

    fn parse(json: &str) -> Result<TraceEvent, DeError> {
        let v: Value = serde_json::from_str(json).expect("valid JSON");
        TraceEvent::from_value(&v)
    }

    #[test]
    fn unknown_variant_is_an_error_naming_it() {
        let err = parse(r#"{"ev":"NotAnEvent","at":0}"#).expect_err("unknown variant");
        assert!(err.to_string().contains("NotAnEvent"), "{err}");
    }

    #[test]
    fn missing_field_is_an_error_naming_it() {
        let err = parse(r#"{"ev":"Suspended","at":0,"conv":1}"#).expect_err("missing field");
        assert!(err.to_string().contains("\"tokens\""), "{err}");
    }
}
