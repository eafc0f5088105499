//! Observability for the Pensieve serving stack: structured trace
//! events, a deterministic metrics registry, and exporters.
//!
//! The full reference — every event, every metric, every exporter, and a
//! worked Perfetto example — lives in `docs/OBSERVABILITY.md` at the
//! repository root (a unit test keeps it in sync with the code).
//!
//! Design constraints, in order:
//!
//! 1. **Zero hot-path cost when disabled.** Instrumented components hold
//!    an `Option<SharedRecorder>`; the `None` arm is a branch and
//!    nothing else. Enabling a trace must leave simulated clocks,
//!    schedules and benchmark numbers bit-identical, because recording
//!    is strictly passive.
//! 2. **Deterministic.** No wall clocks, no hash-order iteration:
//!    timestamps are [`pensieve_model::SimTime`], registries are
//!    `BTreeMap`s, exporters sort stably. The same run produces the
//!    same bytes.
//! 3. **No panics.** The crate root denies clippy's panic lints; every
//!    fallible path degrades (drops an event, returns an error) instead
//!    of unwinding mid-simulation.
//!
//! Layering: `obs` sits *below* the cache/sim/engine crates (it depends
//! only on `pensieve-model` and the serde shims), so any layer can
//! record without a dependency cycle. Ids are raw `u64`s for the same
//! reason.
//!
//! ```
//! use pensieve_obs::{Recorder, SharedRecorder, TraceEvent};
//! use pensieve_model::SimTime;
//!
//! let rec = SharedRecorder::new();
//! let handle = Some(rec.clone()); // what an instrumented component holds
//! handle.record(TraceEvent::Suspended {
//!     at: SimTime::from_secs(1.0),
//!     conv: 42,
//!     tokens: 128,
//! });
//! let jsonl = pensieve_obs::export::to_jsonl(&rec.events());
//! assert!(jsonl.contains("\"ev\":\"Suspended\""));
//! ```

// Lint levels: docs/LINTS.md has what each guards.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use event::{sample_events, DropReason, RecoveryKind, StorageTier, SwapDir, TraceEvent};
pub use export::{chrome_trace, chrome_trace_string, parse_jsonl, to_jsonl, JsonlError};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{NullRecorder, Recorder, SharedRecorder};
pub use report::{PromotionRow, TraceReport, TurnAttribution};
