//! Simulated inter-node fabric for KV handoff between replicas.
//!
//! When a cluster router migrates a conversation, its CPU-tier KV chunks
//! stream over the datacenter network to the target replica (the DéjàVu
//! KV-streaming primitive). [`NodeLink`] models that fabric the same way
//! [`crate::pcie::PcieLink`] models the host link: a single FIFO busy
//! horizon, per-transfer setup latency, and bandwidth-proportional
//! duration — all pure functions of the call sequence, so cluster runs
//! stay bit-deterministic.
//!
//! Unlike PCIe, a network stream can *lose* a chunk (a dropped flow, a
//! checksum mismatch at the receiver). Losses are drawn from a seeded
//! SplitMix64 stream, one roll per non-empty chunk; a lost chunk still
//! consumes its full link time — the bytes were sent, the receiver just
//! cannot use them — and the router falls back to Pensieve's dropped-token
//! recomputation for it.

use std::fmt;

use pensieve_model::{SimDuration, SimTime};

use crate::lane::Lane;
use crate::rng::SplitMix64;

/// Sustained bandwidth of the 25 Gb Ethernet fabric, bytes/second.
const BANDWIDTH: f64 = 3.125e9;
/// Per-chunk setup latency (RTT + framing), microseconds.
const LATENCY_US: f64 = 50.0;

/// Shape of the simulated inter-node link: a 25 Gb Ethernet fabric
/// (~3.125 GB/s, 50 µs setup per chunk) and its loss stream.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLinkSpec {
    /// Probability that any one streamed chunk is lost in transit.
    pub loss_per_chunk: f64,
    /// Seed for the loss stream.
    pub seed: u64,
}

impl NodeLinkSpec {
    /// The lossless fabric.
    #[must_use]
    pub fn datacenter_25g() -> Self {
        NodeLinkSpec {
            loss_per_chunk: 0.0,
            seed: 0,
        }
    }

    /// The fabric with a per-chunk loss probability, for exercising the
    /// recompute-fallback path.
    #[must_use]
    pub fn lossy_25g(loss_per_chunk: f64, seed: u64) -> Self {
        NodeLinkSpec {
            loss_per_chunk,
            seed,
        }
    }
}

/// A chunk lost in transit. The link time was consumed anyway; `completes`
/// is when the receiver detects the loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkLost {
    /// Bytes that were streamed and discarded.
    pub bytes: usize,
    /// When the loss is observed.
    pub completes: SimTime,
}

impl fmt::Display for ChunkLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inter-node stream lost a {}-byte chunk", self.bytes)
    }
}

impl std::error::Error for ChunkLost {}

/// The inter-node link: one FIFO lane shared by all migrations.
#[derive(Debug, Clone)]
pub struct NodeLink {
    spec: NodeLinkSpec,
    lane: Lane,
    /// Stream of loss rolls.
    loss_rng: SplitMix64,
    /// Scheduled outages (chaos faults), sorted by start.
    outages: Vec<(SimTime, SimTime)>,
    lost_chunks: u64,
}

impl NodeLink {
    /// Creates a link from a spec.
    #[must_use]
    pub fn new(spec: NodeLinkSpec) -> Self {
        let loss_rng = SplitMix64::new(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
        NodeLink {
            spec,
            lane: Lane::default(),
            loss_rng,
            outages: Vec::new(),
            lost_chunks: 0,
        }
    }

    /// The link spec.
    #[must_use]
    pub fn spec(&self) -> &NodeLinkSpec {
        &self.spec
    }

    /// Schedules a forced outage window `[start, end)` — a chaos-injected
    /// partition. Transfers starting inside the window are deferred to
    /// `end`; a transfer already on the wire is unaffected.
    pub fn add_outage(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        self.outages.push((start, end));
        self.outages
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }

    /// Defers `t` past every outage window that contains it, repeating
    /// until `t` lands in an available stretch.
    fn defer_past_outages(&self, mut t: SimTime) -> SimTime {
        loop {
            let before = t;
            // Windows are sorted by start, so one ordered pass also
            // resolves chained windows that begin after a deferral.
            for &(s, e) in &self.outages {
                if s <= t && t < e {
                    t = e;
                }
            }
            if t == before {
                return t;
            }
        }
    }

    /// Streams one KV chunk of `bytes` at time `now`.
    ///
    /// Returns the `(start, completion)` instants; the chunk is usable at
    /// the target from `completion`. Zero-byte chunks complete instantly
    /// without occupying the link or consuming a loss roll.
    ///
    /// # Errors
    ///
    /// [`ChunkLost`] when the loss stream fires; the link time is consumed
    /// either way and the caller must recompute the chunk at the target.
    pub fn stream_chunk(
        &mut self,
        now: SimTime,
        bytes: usize,
    ) -> Result<(SimTime, SimTime), ChunkLost> {
        if bytes == 0 {
            return Ok((now, now));
        }
        let earliest = self.defer_past_outages(self.lane.free_from(now));
        let latency = SimDuration::from_micros(LATENCY_US);
        let (start, end) = self.lane.schedule(earliest, bytes, latency, BANDWIDTH);
        // One roll per chunk, fired or not, so the loss schedule is a pure
        // function of the seed and the chunk count.
        let lost = self.loss_rng.next_f64() < self.spec.loss_per_chunk;
        if lost {
            self.lost_chunks += 1;
            return Err(ChunkLost {
                bytes,
                completes: end,
            });
        }
        Ok((start, end))
    }

    /// When the link becomes idle.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.lane.busy_until()
    }

    /// Total bytes put on the wire (including lost chunks).
    #[must_use]
    pub fn streamed_bytes(&self) -> u64 {
        self.lane.bytes()
    }

    /// Chunks lost in transit so far.
    #[must_use]
    pub fn lost_chunks(&self) -> u64 {
        self.lost_chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn streams_are_fifo() {
        let mut l = NodeLink::new(NodeLinkSpec::datacenter_25g());
        let gb = 3_125_000_000usize; // one second on the wire
        let (s1, e1) = l.stream_chunk(t(0.0), gb).unwrap();
        let (s2, e2) = l.stream_chunk(t(0.0), gb).unwrap();
        assert_eq!(s1, t(0.0));
        assert!((e1.as_secs() - 1.0).abs() < 0.01);
        assert_eq!(s2, e1, "second chunk queues behind the first");
        assert!((e2.as_secs() - 2.0).abs() < 0.02);
        assert_eq!(l.streamed_bytes(), 2 * gb as u64);
    }

    #[test]
    fn zero_bytes_complete_instantly() {
        let mut l = NodeLink::new(NodeLinkSpec::datacenter_25g());
        let (s, e) = l.stream_chunk(t(1.0), 0).unwrap();
        assert_eq!(s, e);
        assert_eq!(l.busy_until(), SimTime::ZERO);
    }

    #[test]
    fn certain_loss_consumes_link_time() {
        let mut l = NodeLink::new(NodeLinkSpec::lossy_25g(1.0, 3));
        let err = l.stream_chunk(t(0.0), 3_125_000_000).unwrap_err();
        assert!((err.completes.as_secs() - 1.0).abs() < 0.01);
        assert_eq!(l.busy_until(), err.completes);
        assert_eq!(l.lost_chunks(), 1);
        assert_eq!(l.streamed_bytes(), 3_125_000_000);
    }

    #[test]
    fn forced_outage_defers_starts_but_not_inflight_transfers() {
        let mut l = NodeLink::new(NodeLinkSpec::datacenter_25g());
        l.add_outage(t(0.5), t(2.0));
        let gb = 3_125_000_000usize; // one second on the wire
        let (s1, e1) = l.stream_chunk(t(0.0), gb).unwrap();
        assert_eq!(s1, t(0.0));
        assert!(e1 < t(2.0), "in-flight transfer completes through outage");
        // The next chunk would start at ~1.0, inside the window: deferred.
        let (s2, _) = l.stream_chunk(t(0.0), 1024).unwrap();
        assert_eq!(s2, t(2.0));
        // Chained windows: a start deferred into a later window keeps
        // moving until it lands in an available stretch.
        let mut l2 = NodeLink::new(NodeLinkSpec::datacenter_25g());
        l2.add_outage(t(0.0), t(1.0));
        l2.add_outage(t(1.0), t(3.0));
        let (s3, _) = l2.stream_chunk(t(0.5), 1024).unwrap();
        assert_eq!(s3, t(3.0));
    }

    #[test]
    fn loss_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut l = NodeLink::new(NodeLinkSpec::lossy_25g(0.3, seed));
            (0..64)
                .map(|_| l.stream_chunk(t(0.0), 1024).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge");
        let losses = run(7).iter().filter(|&&x| x).count();
        assert!(losses > 5 && losses < 40, "loss count {losses} near 30%");
    }
}
