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

/// Seeded link-partition model: the fabric alternates between available
/// stretches and outage windows, both drawn from a SplitMix64 stream
/// dedicated to partitions (distinct from the loss stream, so enabling
/// partitions does not perturb which chunks are lost).
///
/// Window lengths are the configured means scaled by independent uniform
/// factors in `[0.5, 1.5)`. An outage only defers transfer *starts*: a
/// chunk already on the wire when a window opens completes normally —
/// the FIFO busy horizon is preserved, starts stay monotonic.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Seed for the partition-window stream.
    pub seed: u64,
    /// Mean length of an available stretch between outages.
    pub mean_available: SimDuration,
    /// Mean length of one outage window.
    pub mean_outage: SimDuration,
}

/// Shape of the simulated inter-node link.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLinkSpec {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-chunk setup latency (RTT + framing).
    pub latency: SimDuration,
    /// Probability that any one streamed chunk is lost in transit.
    pub loss_per_chunk: f64,
    /// Seed for the loss stream.
    pub seed: u64,
    /// Optional seeded unavailability windows (transient partitions).
    pub partition: Option<PartitionSpec>,
}

impl NodeLinkSpec {
    /// A lossless 25 Gb Ethernet fabric (~3.125 GB/s, 50 µs setup).
    #[must_use]
    pub fn datacenter_25g() -> Self {
        NodeLinkSpec {
            bandwidth: 3.125e9,
            latency: SimDuration::from_micros(50.0),
            loss_per_chunk: 0.0,
            seed: 0,
            partition: None,
        }
    }

    /// The 25 Gb fabric with a per-chunk loss probability, for exercising
    /// the recompute-fallback path.
    #[must_use]
    pub fn lossy_25g(loss_per_chunk: f64, seed: u64) -> Self {
        NodeLinkSpec {
            loss_per_chunk,
            seed,
            ..NodeLinkSpec::datacenter_25g()
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
    /// Stream of partition windows (independent of losses).
    partition_rng: SplitMix64,
    /// End of the last seeded partition window generated so far; windows
    /// are generated lazily, forward-only — sound because transfer starts
    /// are monotonic (the busy horizon never moves backward).
    window_frontier: SimTime,
    /// The next seeded outage window, once generated and not yet passed.
    next_window: Option<(SimTime, SimTime)>,
    /// Externally scheduled outages (chaos faults), sorted by start.
    forced_outages: Vec<(SimTime, SimTime)>,
    lost_chunks: u64,
}

impl NodeLink {
    /// Creates a link from a spec.
    #[must_use]
    pub fn new(spec: NodeLinkSpec) -> Self {
        // The partition stream uses its own pre-mix constant so the same
        // seed value drives decorrelated loss and partition schedules.
        let loss_rng = SplitMix64::new(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
        let partition_seed = spec
            .partition
            .as_ref()
            .map_or(0, |p| p.seed ^ 0xC2B2_AE3D_27D4_EB4F);
        NodeLink {
            spec,
            lane: Lane::default(),
            loss_rng,
            partition_rng: SplitMix64::new(partition_seed),
            window_frontier: SimTime::ZERO,
            next_window: None,
            forced_outages: Vec::new(),
            lost_chunks: 0,
        }
    }

    /// The link spec.
    #[must_use]
    pub fn spec(&self) -> &NodeLinkSpec {
        &self.spec
    }

    /// Uniform factor in `[0.5, 1.5)` from the partition stream.
    fn next_pfactor(&mut self) -> f64 {
        0.5 + self.partition_rng.next_f64()
    }

    /// Schedules a forced outage window `[start, end)` — a chaos-injected
    /// partition, independent of the seeded windows. Transfers starting
    /// inside the window are deferred to `end`; a transfer already on the
    /// wire is unaffected.
    pub fn add_outage(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        self.forced_outages.push((start, end));
        self.forced_outages
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }

    /// Defers `t` past every outage window (seeded and forced) that
    /// contains it, repeating until `t` lands in an available stretch.
    /// Seeded windows are generated lazily ahead of `t`; the generator
    /// only moves forward, which is sound because transfer starts are
    /// monotonic.
    fn defer_past_outages(&mut self, mut t: SimTime) -> SimTime {
        loop {
            let before = t;
            // Forced windows are sorted by start, so one ordered pass
            // also resolves chained windows that begin after a deferral.
            for &(s, e) in &self.forced_outages {
                if s <= t && t < e {
                    t = e;
                }
            }
            if let Some(p) = self.spec.partition.clone() {
                loop {
                    let (ws, we) = match self.next_window {
                        Some(w) => w,
                        None => {
                            let gap = p.mean_available * self.next_pfactor();
                            let dur = p.mean_outage * self.next_pfactor();
                            let ws = self.window_frontier + gap;
                            let we = ws + dur;
                            self.window_frontier = we;
                            self.next_window = Some((ws, we));
                            (ws, we)
                        }
                    };
                    if we <= t {
                        // Window fully in the past: consume and generate
                        // the next one.
                        self.next_window = None;
                        continue;
                    }
                    if ws <= t {
                        t = we;
                        self.next_window = None;
                        continue;
                    }
                    break; // next window is strictly in the future
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
        let (start, end) =
            self.lane
                .schedule(earliest, bytes, self.spec.latency, self.spec.bandwidth);
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
    fn seeded_partitions_are_deterministic_and_fifo() {
        let spec = NodeLinkSpec {
            partition: Some(PartitionSpec {
                seed: 9,
                mean_available: SimDuration::from_secs(0.01),
                mean_outage: SimDuration::from_secs(0.005),
            }),
            ..NodeLinkSpec::datacenter_25g()
        };
        let run = |spec: &NodeLinkSpec| {
            let mut l = NodeLink::new(spec.clone());
            (0..64)
                .map(|i| l.stream_chunk(t(i as f64 * 0.01), 1 << 20).unwrap())
                .collect::<Vec<_>>()
        };
        let a = run(&spec);
        assert_eq!(a, run(&spec), "same seed, same schedule");
        for w in a.windows(2) {
            assert!(w[1].0 >= w[0].1, "starts stay FIFO behind the horizon");
        }
        let calm = run(&NodeLinkSpec::datacenter_25g());
        assert!(
            a.iter().zip(&calm).any(|(p, c)| p.0 > c.0),
            "some start must be deferred by a partition window"
        );
        let mut other = spec.clone();
        other.partition.as_mut().unwrap().seed = 10;
        assert_ne!(a, run(&other), "different partition seeds diverge");
    }

    #[test]
    fn partition_stream_does_not_perturb_loss_schedule() {
        let losses = |partition: Option<PartitionSpec>| {
            let mut spec = NodeLinkSpec::lossy_25g(0.3, 7);
            spec.partition = partition;
            let mut l = NodeLink::new(spec);
            (0..64)
                .map(|_| l.stream_chunk(t(0.0), 1024).is_err())
                .collect::<Vec<_>>()
        };
        let with = losses(Some(PartitionSpec {
            seed: 7,
            mean_available: SimDuration::from_secs(0.001),
            mean_outage: SimDuration::from_secs(0.001),
        }));
        assert_eq!(losses(None), with, "partitions must not change losses");
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
