//! Property test: any interleaving of trace events round-trips through
//! the JSONL exporter byte-for-byte in order and value.
//!
//! Numbers ride over the wire as JSON `f64`s, so integer fields are
//! generated within the 2^53 exactly-representable range — the same
//! contract the instrumented code obeys (token counts, chunk indices and
//! ids never approach it).

use pensieve_model::{SimDuration, SimTime};
use pensieve_obs::event::VARIANTS;
use pensieve_obs::{
    parse_jsonl, to_jsonl, DropReason, RecoveryKind, StorageTier, SwapDir, TraceEvent,
};
use proptest::prelude::*;

/// Samples one event of variant `variant % VARIANTS.len()` (declaration
/// order) from the raw entropy in `w`; wire-enum payloads range over
/// their whole `ALL` slice.
fn arbitrary_event(variant: usize, w: &[u64; 6], t: f64) -> TraceEvent {
    let at = SimTime::from_secs(t);
    let u = |i: usize| w[i] % (1 << 53);
    let n = |i: usize| (w[i] % 100_000) as usize;
    let flag = |i: usize| w[i].is_multiple_of(2);
    let dur = |i: usize| SimDuration::from_secs((w[i] % 10_000) as f64 * 1e-4);
    fn pick<T: Copy>(all: &[T], word: u64) -> T {
        all[(word % all.len() as u64) as usize]
    }
    match variant % VARIANTS.len() {
        0 => TraceEvent::Iteration {
            at,
            end: SimTime::from_secs(t * 1.5),
            iteration: u(0),
            running: n(1),
            waiting: n(2),
            prefill_seqs: n(3),
            decode_seqs: n(4),
            prefill_tokens: n(5),
            queue_delay: dur(1),
            compute: dur(2),
            stall: dur(3),
        },
        1 => TraceEvent::Admitted {
            at,
            iteration: u(0),
            request: u(1),
            conv: u(2),
            resumed: flag(3),
            prompt_tokens: n(3),
            tail_tokens: n(4),
            shared_tokens: n(5),
            gpu_hit_tokens: n(0),
            revalidate_tokens: n(1),
            swap_in_tokens: n(2),
            recompute_tokens: n(4),
        },
        2 => TraceEvent::Swap {
            at,
            end: SimTime::from_secs(t * 1.5),
            dir: pick(SwapDir::ALL, w[0]),
            bytes: u(1),
        },
        3 => TraceEvent::ChunkEvicted {
            at,
            conv: u(0),
            chunk: n(1),
            tokens: n(2),
            dropped: flag(3),
        },
        4 => TraceEvent::ChunkDropped {
            at,
            conv: u(0),
            chunk: n(1),
            tokens: n(2),
            reason: pick(DropReason::ALL, w[3]),
        },
        5 => TraceEvent::ChunkDemoted {
            at,
            conv: u(0),
            chunk: n(1),
            tokens: n(2),
            from: pick(StorageTier::ALL, w[3]),
            to: pick(StorageTier::ALL, w[4]),
        },
        6 => TraceEvent::Revalidated {
            at,
            conv: u(0),
            tokens: n(1),
        },
        7 => TraceEvent::SwapInCommitted {
            at,
            conv: u(0),
            tokens: n(1),
        },
        8 => TraceEvent::RecomputeCommitted {
            at,
            conv: u(0),
            tokens: n(1),
        },
        9 => TraceEvent::TierReadCommitted {
            at,
            conv: u(0),
            tokens: n(1),
            tier: pick(StorageTier::ALL, w[2]),
        },
        10 => TraceEvent::Suspended {
            at,
            conv: u(0),
            tokens: n(1),
        },
        11 => TraceEvent::FaultRecovery {
            at,
            conv: if w[0].is_multiple_of(3) {
                None
            } else {
                Some(u(1))
            },
            kind: pick(RecoveryKind::ALL, w[2]),
            tokens: n(3),
        },
        12 => TraceEvent::RequestCompleted {
            at,
            request: u(0),
            conv: u(1),
            arrival: SimTime::from_secs(t * 0.5),
            first_token: SimTime::from_secs(t * 0.75),
            output_tokens: n(2),
            prefill_tokens: n(3),
            cached_tokens: n(4),
        },
        13 => TraceEvent::PipelinedSwapIn {
            at,
            bytes: u(0),
            compute: dur(1),
            total: dur(2),
        },
        14 => TraceEvent::Routed {
            at,
            request: u(0),
            conv: u(1),
            replica: n(2),
            cached_tokens: n(3),
        },
        15 => TraceEvent::Migration {
            at,
            end: SimTime::from_secs(t * 1.5),
            conv: u(0),
            from: n(1),
            to: n(2),
            chunks: n(3),
            bytes: u(4),
            streamed_tokens: n(5),
            lost_tokens: n(0),
        },
        16 => TraceEvent::ReplicaFailed {
            at,
            replica: n(0),
            requeued: n(1),
        },
        17 => TraceEvent::ReplicationFlush {
            at,
            conv: u(0),
            from: n(1),
            to: n(2),
            tokens: n(3),
            bytes: u(4),
            lost: flag(5),
        },
        18 => TraceEvent::StandbyPromoted {
            at,
            conv: u(0),
            from: n(1),
            to: n(2),
            replicated_tokens: n(3),
            lag_tokens: n(4),
            latency: dur(5),
        },
        19 => TraceEvent::LinkPartitioned {
            at,
            until: SimTime::from_secs(t * 1.5),
        },
        20 => TraceEvent::ManifestPersisted {
            at,
            conv: u(0),
            tokens: n(1),
            bytes: u(2),
            torn: flag(3),
        },
        21 => TraceEvent::SessionRehydrated {
            at,
            conv: u(0),
            tokens: n(1),
            replica: n(2),
        },
        _ => TraceEvent::SharedAttached {
            at,
            conv: u(0),
            tokens: n(1),
            chunks: n(2),
        },
    }
}

/// The generator reaches the whole schema: a variant added to the event
/// table lands on the `_` arm above, repeats the last name, and fails
/// here until it gets an arm of its own.
#[test]
fn generator_produces_every_variant() {
    let names: Vec<&str> = (0..VARIANTS.len())
        .map(|variant| arbitrary_event(variant, &[0; 6], 1.0).variant_name())
        .collect();
    assert_eq!(names, VARIANTS);
}

/// ... and every value of every wire enum, each of which round-trips.
#[test]
fn generator_produces_every_wire_enum_value() {
    let events: Vec<TraceEvent> = (0..6u64)
        .flat_map(|word| (0..VARIANTS.len()).map(move |v| arbitrary_event(v, &[word; 6], 1.0)))
        .collect();
    let text = to_jsonl(&events);
    let wire_names = (SwapDir::ALL.iter().map(|x| x.as_str()))
        .chain(DropReason::ALL.iter().map(|x| x.as_str()))
        .chain(StorageTier::ALL.iter().map(|x| x.as_str()))
        .chain(RecoveryKind::ALL.iter().map(|x| x.as_str()));
    for name in wire_names {
        assert!(text.contains(&format!(":\"{name}\"")), "{name} never drawn");
    }
    assert_eq!(parse_jsonl(&text), Ok(events));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any mix of variants, timestamps and payloads survives
    /// serialize → parse with order and equality preserved.
    #[test]
    fn any_interleaving_round_trips(
        spec in prop::collection::vec(
            (
                0usize..VARIANTS.len(),
                (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                0.0f64..100_000.0,
            ),
            0..40,
        ),
    ) {
        let events: Vec<TraceEvent> = spec
            .iter()
            .map(|(variant, (a, b, c), (d, e, f), t)| {
                arbitrary_event(*variant, &[*a, *b, *c, *d, *e, *f], *t)
            })
            .collect();
        let text = to_jsonl(&events);
        let back = parse_jsonl(&text).expect("round trip parses");
        prop_assert_eq!(back, events);
    }
}
