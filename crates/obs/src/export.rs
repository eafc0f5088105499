//! Trace exporters: JSONL event log and Chrome `trace_event` JSON.
//!
//! The JSONL format is one JSON object per line (the [`crate::event`]
//! wire format); [`parse_jsonl`] is the schema validator — it rejects
//! unknown variants, missing fields and mistyped values with the
//! offending line number.
//!
//! The Chrome trace output loads in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`. Scheduler iterations, swap-in DMAs and swap-out
//! DMAs are rendered as *separate tracks* so the §4.2/§4.3.3 pipelining
//! — compute slices overlapping host-to-device transfer slices — is
//! visible directly on the timeline.

use std::fmt;

use serde::{Deserialize, Map, Serialize, Value};

use crate::event::{SwapDir, TraceEvent};
use crate::report::SwapPairs;

/// Chrome trace track (tid) for scheduler iterations / GPU compute.
pub const TRACK_COMPUTE: u64 = 1;
/// Chrome trace track (tid) for host-to-device transfers (swap-in).
pub const TRACK_SWAP_IN: u64 = 2;
/// Chrome trace track (tid) for device-to-host transfers (swap-out).
pub const TRACK_SWAP_OUT: u64 = 3;

/// A JSONL parse/validation failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

/// Serializes events as JSONL, one event object per line, in order.
#[must_use]
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        match serde_json::to_string(&ev.to_value()) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => {
                // A Value always serializes; this arm is unreachable but
                // kept total so the exporter can never panic.
            }
        }
    }
    out
}

/// Parses and validates a JSONL event log. Blank lines are ignored.
///
/// # Errors
///
/// Returns the first offending line: invalid JSON, an unknown `"ev"`
/// variant, or a missing/mistyped field.
pub fn parse_jsonl(s: &str) -> Result<Vec<TraceEvent>, JsonlError> {
    let mut events = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line).map_err(|e| JsonlError {
            line: i + 1,
            message: format!("invalid JSON: {e}"),
        })?;
        let ev = TraceEvent::from_value(&value).map_err(|e| JsonlError {
            line: i + 1,
            message: e.to_string(),
        })?;
        events.push(ev);
    }
    Ok(events)
}

fn obj(pairs: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert((*k).to_owned(), v.clone());
    }
    Value::Object(m)
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn s(x: &str) -> Value {
    Value::String(x.to_owned())
}

/// A complete ("X") slice.
fn slice(name: &str, tid: u64, ts_us: f64, dur_us: f64, args: Value) -> Value {
    obj(&[
        ("name", s(name)),
        ("ph", s("X")),
        ("pid", num(1.0)),
        ("tid", num(tid as f64)),
        ("ts", num(ts_us)),
        ("dur", num(dur_us)),
        ("args", args),
    ])
}

/// A thread-scoped instant ("i") marker.
fn instant(name: &str, tid: u64, ts_us: f64, args: Value) -> Value {
    obj(&[
        ("name", s(name)),
        ("ph", s("i")),
        ("s", s("t")),
        ("pid", num(1.0)),
        ("tid", num(tid as f64)),
        ("ts", num(ts_us)),
        ("args", args),
    ])
}

/// A counter ("C") sample.
fn counter(name: &str, ts_us: f64, args: Value) -> Value {
    obj(&[
        ("name", s(name)),
        ("ph", s("C")),
        ("pid", num(1.0)),
        ("ts", num(ts_us)),
        ("args", args),
    ])
}

fn metadata(name: &str, tid: Option<u64>, args: Value) -> Value {
    let mut pairs = vec![
        ("name", s(name)),
        ("ph", s("M")),
        ("pid", num(1.0)),
        ("ts", num(0.0)),
        ("args", args),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", num(tid as f64)));
    }
    obj(&pairs)
}

/// Simulated time as Chrome-trace microseconds.
fn us(at: pensieve_model::SimTime) -> f64 {
    at.as_secs() * 1e6
}

fn ts_of(v: &Value) -> f64 {
    v.get("ts").and_then(Value::as_f64).unwrap_or(0.0)
}

/// Converts an event log into a Chrome `trace_event` JSON document.
///
/// Tracks: [`TRACK_COMPUTE`] carries iteration slices plus admission,
/// suspension, completion and fault-recovery instants; [`TRACK_SWAP_IN`]
/// and [`TRACK_SWAP_OUT`] carry one slice per swap DMA (paired
/// `SwapStart`/`SwapEnd` FIFO per direction) plus eviction/drop instants.
/// A `requests` counter series tracks running/waiting batch occupancy.
/// Output ordering is deterministic: metadata first, then slices stably
/// sorted by timestamp (insertion order breaks ties).
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> Value {
    let mut out = vec![
        metadata(
            "process_name",
            None,
            obj(&[("name", s("pensieve serve_sim"))]),
        ),
        metadata(
            "thread_name",
            Some(TRACK_COMPUTE),
            obj(&[("name", s("scheduler / GPU compute"))]),
        ),
        metadata(
            "thread_name",
            Some(TRACK_SWAP_IN),
            obj(&[("name", s("PCIe H2D (swap-in)"))]),
        ),
        metadata(
            "thread_name",
            Some(TRACK_SWAP_OUT),
            obj(&[("name", s("PCIe D2H (swap-out)"))]),
        ),
    ];
    let mut body = Vec::new();
    let mut swaps = SwapPairs::default();
    for ev in events {
        match ev {
            TraceEvent::IterationStart {
                at,
                running,
                waiting,
                ..
            } => body.push(counter(
                "requests",
                us(*at),
                obj(&[
                    ("running", num(*running as f64)),
                    ("waiting", num(*waiting as f64)),
                ]),
            )),
            TraceEvent::IterationEnd {
                at,
                iteration,
                queue_delay,
                compute,
                stall,
            } => {
                let dur = *queue_delay + *compute + *stall;
                body.push(slice(
                    "iteration",
                    TRACK_COMPUTE,
                    us(*at) - dur.as_micros(),
                    dur.as_micros(),
                    obj(&[
                        ("iteration", num(*iteration as f64)),
                        ("queue_delay_us", num(queue_delay.as_micros())),
                        ("compute_us", num(compute.as_micros())),
                        ("stall_us", num(stall.as_micros())),
                    ]),
                ));
            }
            TraceEvent::SwapStart { .. } | TraceEvent::SwapEnd { .. } => {
                if let Some((dir, start, end, bytes)) = swaps.feed(ev) {
                    let (name, track) = match dir {
                        SwapDir::In => ("swap-in", TRACK_SWAP_IN),
                        SwapDir::Out => ("swap-out", TRACK_SWAP_OUT),
                    };
                    body.push(slice(
                        name,
                        track,
                        us(start),
                        us(end) - us(start),
                        obj(&[("bytes", num(bytes as f64))]),
                    ));
                }
            }
            TraceEvent::Admitted {
                at,
                conv,
                gpu_hit_tokens,
                revalidate_tokens,
                swap_in_tokens,
                recompute_tokens,
                ..
            } => body.push(instant(
                &format!("admit conv {conv}"),
                TRACK_COMPUTE,
                us(*at),
                obj(&[
                    ("gpu_hit_tokens", num(*gpu_hit_tokens as f64)),
                    ("revalidate_tokens", num(*revalidate_tokens as f64)),
                    ("swap_in_tokens", num(*swap_in_tokens as f64)),
                    ("recompute_tokens", num(*recompute_tokens as f64)),
                ]),
            )),
            TraceEvent::ChunkEvicted {
                at,
                conv,
                tokens,
                dropped,
                ..
            } => body.push(instant(
                if *dropped {
                    "evict (drop)"
                } else {
                    "evict (copy)"
                },
                TRACK_SWAP_OUT,
                us(*at),
                obj(&[("conv", num(*conv as f64)), ("tokens", num(*tokens as f64))]),
            )),
            TraceEvent::ChunkDropped {
                at,
                conv,
                tokens,
                reason,
                ..
            } => body.push(instant(
                &format!("drop ({})", reason.as_str()),
                TRACK_SWAP_OUT,
                us(*at),
                obj(&[("conv", num(*conv as f64)), ("tokens", num(*tokens as f64))]),
            )),
            TraceEvent::Suspended { at, conv, tokens } => body.push(instant(
                &format!("suspend conv {conv}"),
                TRACK_COMPUTE,
                us(*at),
                obj(&[("tokens", num(*tokens as f64))]),
            )),
            TraceEvent::FaultRecovery {
                at, kind, tokens, ..
            } => body.push(instant(
                &format!("fault: {}", kind.as_str()),
                TRACK_COMPUTE,
                us(*at),
                obj(&[("tokens", num(*tokens as f64))]),
            )),
            TraceEvent::RequestCompleted {
                at,
                request,
                conv,
                output_tokens,
                ..
            } => body.push(instant(
                &format!("complete req {request}"),
                TRACK_COMPUTE,
                us(*at),
                obj(&[
                    ("conv", num(*conv as f64)),
                    ("output_tokens", num(*output_tokens as f64)),
                ]),
            )),
            TraceEvent::BatchComposed { .. }
            | TraceEvent::Revalidated { .. }
            | TraceEvent::SwapInCommitted { .. }
            | TraceEvent::RecomputeCommitted { .. }
            | TraceEvent::TierReadCommitted { .. }
            | TraceEvent::ChunkDemoted { .. }
            | TraceEvent::PipelinedSwapIn { .. }
            | TraceEvent::TpPass { .. }
            | TraceEvent::Routed { .. }
            | TraceEvent::MigrationStart { .. }
            | TraceEvent::MigrationEnd { .. }
            | TraceEvent::ReplicaFailed { .. }
            | TraceEvent::ReplicationFlush { .. }
            | TraceEvent::StandbyPromoted { .. }
            | TraceEvent::LinkPartitioned { .. }
            | TraceEvent::ManifestPersisted { .. }
            | TraceEvent::SessionRehydrated { .. }
            | TraceEvent::SharedAttached { .. }
            | TraceEvent::SharedChunkEvicted { .. } => {}
        }
    }
    // Stable sort: equal timestamps keep recording order.
    body.sort_by(|a, b| ts_of(a).total_cmp(&ts_of(b)));
    out.extend(body);
    obj(&[
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", s("ms")),
    ])
}

/// [`chrome_trace`] rendered as pretty JSON (deterministic: the vendored
/// `serde_json` emits objects with sorted keys).
#[must_use]
pub fn chrome_trace_string(events: &[TraceEvent]) -> String {
    serde_json::to_string_pretty(&chrome_trace(events)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_model::{SimDuration, SimTime};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn jsonl_round_trips_in_order() {
        let events = vec![
            TraceEvent::IterationStart {
                at: t(0.0),
                iteration: 0,
                running: 0,
                waiting: 1,
            },
            TraceEvent::Suspended {
                at: t(0.5),
                conv: 3,
                tokens: 64,
            },
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).expect("valid JSONL");
        assert_eq!(back, events);
    }

    #[test]
    fn parse_rejects_bad_lines_with_line_numbers() {
        let err = parse_jsonl("{\"ev\":\"Nope\"}\n").expect_err("unknown variant");
        assert_eq!(err.line, 1);
        let err = parse_jsonl("{\"ev\":\"Suspended\",\"at\":0}\n").expect_err("missing fields");
        assert_eq!(err.line, 1);
        let err = parse_jsonl("not json\n").expect_err("invalid JSON");
        assert!(err.message.contains("invalid JSON"));
    }

    #[test]
    fn chrome_trace_pairs_swaps_and_slices_iterations() {
        let events = vec![
            TraceEvent::SwapStart {
                at: t(0.1),
                dir: SwapDir::In,
                bytes: 1000,
            },
            TraceEvent::SwapEnd {
                at: t(0.3),
                dir: SwapDir::In,
                bytes: 1000,
            },
            TraceEvent::IterationEnd {
                at: t(0.4),
                iteration: 0,
                queue_delay: SimDuration::ZERO,
                compute: SimDuration::from_secs(0.2),
                stall: SimDuration::ZERO,
            },
        ];
        let doc = chrome_trace(&events);
        let list = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 4 metadata + 1 swap slice + 1 iteration slice.
        assert_eq!(list.len(), 6);
        let swap = list
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("swap-in"))
            .expect("swap slice");
        assert_eq!(swap.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(swap.get("tid").and_then(Value::as_u64), Some(TRACK_SWAP_IN));
        let dur = swap.get("dur").and_then(Value::as_f64).expect("dur");
        assert!((dur - 200_000.0).abs() < 1.0, "dur {dur}");
        let it = list
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("iteration"))
            .expect("iteration slice");
        let ts = it.get("ts").and_then(Value::as_f64).expect("ts");
        assert!((ts - 200_000.0).abs() < 1.0, "iteration starts at end-dur");
    }

    #[test]
    fn chrome_trace_string_is_deterministic() {
        let events = vec![TraceEvent::IterationStart {
            at: t(0.0),
            iteration: 0,
            running: 1,
            waiting: 0,
        }];
        assert_eq!(chrome_trace_string(&events), chrome_trace_string(&events));
    }
}
