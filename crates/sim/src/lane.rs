//! One FIFO transfer lane: what each direction of the PCIe link and of a
//! storage device, and the inter-node link, all are.

use pensieve_model::{SimDuration, SimTime};

/// A serialized queue of transfers: each starts once the lane is free,
/// holds it for `latency + bytes / bandwidth`, and adds to a byte total.
/// What decides *when* a device lets a transfer start (duplex rules,
/// outages) or what becomes of it (loss, stalls, failures) stays with
/// the device.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lane {
    busy_until: SimTime,
    bytes: u64,
}

impl Lane {
    /// When a transfer wanted at `earliest` could start: then, or once
    /// the lane is free.
    pub(crate) fn free_from(&self, earliest: SimTime) -> SimTime {
        earliest.max(self.busy_until)
    }

    /// Enqueues `bytes` wanted at `earliest`; returns the
    /// `(start, completion)` instants. Zero bytes complete immediately
    /// without occupying the lane.
    pub(crate) fn schedule(
        &mut self,
        earliest: SimTime,
        bytes: usize,
        latency: SimDuration,
        bandwidth: f64,
    ) -> (SimTime, SimTime) {
        if bytes == 0 {
            return (earliest, earliest);
        }
        self.bytes += bytes as u64;
        let start = self.free_from(earliest);
        let dur = latency + SimDuration::from_secs(bytes as f64 / bandwidth);
        let end = start + dur;
        self.busy_until = end;
        (start, end)
    }

    /// Keeps the lane busy until `t` if it would be free sooner (a hung
    /// or stalled transfer's penalty).
    pub(crate) fn hold_until(&mut self, t: SimTime) {
        self.busy_until = self.busy_until.max(t);
    }

    /// When the lane becomes idle.
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total bytes enqueued so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}
