//! The [`Recorder`] trait and its implementations.
//!
//! Instrumented components (`core::engine`, `kvcache::tiered`,
//! `sim::pcie`, `sim::gpu`, `core::workers`) hold an
//! `Option<SharedRecorder>`: `None` is the compiled-away no-op path — a
//! `None` check and nothing else on the hot path, no event construction,
//! no allocation — and `Some` appends to a buffer shared with the driver.
//! Recording is strictly passive: it never feeds back into scheduling or
//! timing decisions, so enabling a trace cannot perturb simulated
//! results.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::TraceEvent;

/// Sink for trace events.
pub trait Recorder {
    /// True when events will actually be kept. Callers may use this to
    /// skip building expensive event payloads.
    fn enabled(&self) -> bool;

    /// Records one event.
    fn record(&self, ev: TraceEvent);
}

/// The no-op recorder: drops everything, reports disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ev: TraceEvent) {}
}

/// A cloneable recorder sharing one event buffer.
///
/// The buffer is an `Arc<Mutex<..>>` so a recorder can cross into
/// pool workers (parallel replica stepping hands each replica its own
/// recorder, and the engines those replicas wrap must be `Send`).
/// Recording calls never nest, so the lock is uncontended and held only
/// for a push; a poisoned lock (a panicking instrumented component) is
/// recovered rather than propagated — observability must not turn a
/// contained fault into a second panic.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SharedRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.lock().len()
    }

    /// A copy of the recorded events, in recording order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Drains the recorded events, leaving the buffer empty.
    #[must_use]
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.lock())
    }
}

impl Recorder for SharedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: TraceEvent) {
        self.lock().push(ev);
    }
}

/// The form instrumented components hold: `None` is the no-op path.
impl Recorder for Option<SharedRecorder> {
    fn enabled(&self) -> bool {
        self.is_some()
    }

    fn record(&self, ev: TraceEvent) {
        if let Some(r) = self {
            r.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_model::SimTime;

    fn ev(at: f64) -> TraceEvent {
        TraceEvent::Suspended {
            at: SimTime::from_secs(at),
            conv: 1,
            tokens: 32,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.record(ev(0.0));
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = SharedRecorder::new();
        let b = a.clone();
        a.record(ev(0.0));
        b.record(ev(1.0));
        assert_eq!(a.event_count(), 2);
        let events = a.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(b.event_count(), 0);
    }

    #[test]
    fn optional_recorder_none_is_noop() {
        let none: Option<SharedRecorder> = None;
        assert!(!none.enabled());
        none.record(ev(0.0));
        let some = Some(SharedRecorder::new());
        assert!(some.enabled());
        some.record(ev(0.0));
        assert_eq!(some.as_ref().map(SharedRecorder::event_count), Some(1));
    }
}
