//! PCIe host-link model with duplex contention and retrieval priority (§5).
//!
//! The paper measured an 18–20 % throughput drop in *both* directions when
//! CPU→GPU and GPU→CPU transfers overlap, and therefore makes eviction
//! (device-to-host) *wait* while any swap-in (host-to-device) is in
//! flight. [`PcieLink`] models both behaviours:
//!
//! * [`DuplexMode::PrioritizeRetrieval`] — the paper's waiting mechanism:
//!   device-to-host copies do not start until pending host-to-device
//!   traffic has drained; each direction then runs at full bandwidth.
//! * [`DuplexMode::Naive`] — both directions run whenever requested; a
//!   transfer that overlaps opposite-direction traffic runs at the
//!   penalized duplex bandwidth. (Approximation: the penalty applies to a
//!   transfer's entire duration if the opposite direction is busy when it
//!   starts — accurate for the sustained-pressure regimes the experiments
//!   exercise.)
//!
//! Each direction is a FIFO: a new transfer starts at
//! `max(now, direction busy-until)`.

use std::fmt;

use pensieve_model::{PcieSpec, SimTime};
use pensieve_obs::{Recorder as _, SharedRecorder, SwapDir, TraceEvent};

use crate::faults::{FaultInjector, FaultKind};
use crate::lane::Lane;

/// Typed failure of a scheduled transfer.
///
/// A failed or timed-out DMA still occupied the link for its full
/// duration — the failure is only detected at (or past) the would-be
/// completion instant, which `completes` reports so callers can charge
/// the wasted time before retrying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferError {
    /// The DMA aborted; no data arrived.
    Failed {
        /// Transfer direction.
        dir: Direction,
        /// Bytes that were requested.
        bytes: usize,
        /// When the failure is detected (the would-be completion time).
        completes: SimTime,
    },
    /// The DMA hung and was killed after a timeout penalty.
    TimedOut {
        /// Transfer direction.
        dir: Direction,
        /// Bytes that were requested.
        bytes: usize,
        /// When the timeout fires (completion time plus the penalty).
        completes: SimTime,
    },
}

impl TransferError {
    /// The instant at which the failure is observed by the host.
    #[must_use]
    pub fn completes(&self) -> SimTime {
        match self {
            TransferError::Failed { completes, .. } | TransferError::TimedOut { completes, .. } => {
                *completes
            }
        }
    }
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::Failed { dir, bytes, .. } => {
                write!(f, "PCIe transfer failed ({dir:?}, {bytes} bytes)")
            }
            TransferError::TimedOut { dir, bytes, .. } => {
                write!(f, "PCIe transfer timed out ({dir:?}, {bytes} bytes)")
            }
        }
    }
}

impl std::error::Error for TransferError {}

/// Transfer direction over the host link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// CPU -> GPU (swap-in / retrieval).
    HostToDevice,
    /// GPU -> CPU (swap-out / eviction).
    DeviceToHost,
}

/// Duplex scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplexMode {
    /// The paper's optimization: evictions wait for in-flight retrievals.
    PrioritizeRetrieval,
    /// Full-duplex with the measured contention penalty.
    Naive,
}

/// The host link: one FIFO lane per direction.
#[derive(Debug, Clone)]
pub struct PcieLink {
    spec: PcieSpec,
    mode: DuplexMode,
    h2d: Lane,
    d2h: Lane,
    /// Passive trace sink; `None` (the default) records nothing.
    recorder: Option<SharedRecorder>,
}

impl PcieLink {
    /// Creates a link from a hardware spec.
    #[must_use]
    pub fn new(spec: PcieSpec, mode: DuplexMode) -> Self {
        PcieLink {
            spec,
            mode,
            h2d: Lane::default(),
            d2h: Lane::default(),
            recorder: None,
        }
    }

    /// Attaches a trace recorder. Recording is passive: every schedule
    /// decision is identical with or without it.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// The scheduling discipline in use.
    #[must_use]
    pub fn mode(&self) -> DuplexMode {
        self.mode
    }

    fn lane(&self, dir: Direction) -> &Lane {
        match dir {
            Direction::HostToDevice => &self.h2d,
            Direction::DeviceToHost => &self.d2h,
        }
    }

    fn lane_mut(&mut self, dir: Direction) -> &mut Lane {
        match dir {
            Direction::HostToDevice => &mut self.h2d,
            Direction::DeviceToHost => &mut self.d2h,
        }
    }

    /// Enqueues a transfer of `bytes` in `dir` at time `now`; returns the
    /// `(start, completion)` instants.
    ///
    /// Zero-byte transfers complete immediately without occupying the link.
    pub fn schedule(&mut self, now: SimTime, dir: Direction, bytes: usize) -> (SimTime, SimTime) {
        if bytes == 0 {
            // Not even the eviction wait below, and no trace events.
            return (now, now);
        }
        let other_busy = match dir {
            Direction::HostToDevice => self.d2h.busy_until(),
            Direction::DeviceToHost => self.h2d.busy_until(),
        };
        let mut earliest = now;
        let bandwidth = match self.mode {
            DuplexMode::PrioritizeRetrieval => {
                if dir == Direction::DeviceToHost {
                    // Evictions wait for in-flight retrievals to drain.
                    earliest = earliest.max(other_busy);
                }
                // Retrievals never wait, and with eviction held back each
                // direction sees full bandwidth.
                self.spec.bandwidth
            }
            DuplexMode::Naive => {
                if other_busy > self.lane(dir).free_from(now) {
                    self.spec.duplex_bandwidth()
                } else {
                    self.spec.bandwidth
                }
            }
        };
        let latency = self.spec.latency;
        let (start, end) = self
            .lane_mut(dir)
            .schedule(earliest, bytes, latency, bandwidth);
        if self.recorder.enabled() {
            // Failed/timed-out DMAs (see `try_schedule`) also pass through
            // here and are recorded: they occupied the bus either way, so
            // the trace reflects honest link occupancy.
            let wire_dir = match dir {
                Direction::HostToDevice => SwapDir::In,
                Direction::DeviceToHost => SwapDir::Out,
            };
            self.recorder.record(TraceEvent::SwapStart {
                at: start,
                dir: wire_dir,
                bytes: bytes as u64,
            });
            self.recorder.record(TraceEvent::SwapEnd {
                at: end,
                dir: wire_dir,
                bytes: bytes as u64,
            });
        }
        (start, end)
    }

    /// Fault-aware [`PcieLink::schedule`]: rolls `faults` for a timeout
    /// and then an abort before committing the transfer.
    ///
    /// Failure semantics mirror real DMA engines: a failed transfer
    /// consumed the link for its full duration (the abort is detected at
    /// completion), and a timed-out transfer additionally holds its
    /// direction busy for the configured timeout penalty. With
    /// `faults: None` this is exactly [`PcieLink::schedule`].
    ///
    /// # Errors
    ///
    /// [`TransferError::Failed`] or [`TransferError::TimedOut`] when the
    /// injector fires; the link time is consumed either way.
    pub fn try_schedule(
        &mut self,
        now: SimTime,
        dir: Direction,
        bytes: usize,
        faults: Option<&mut FaultInjector>,
    ) -> Result<(SimTime, SimTime), TransferError> {
        let Some(faults) = faults else {
            return Ok(self.schedule(now, dir, bytes));
        };
        if bytes == 0 {
            return Ok((now, now));
        }
        let timed_out = faults.roll(FaultKind::PcieTimeout);
        let failed = !timed_out && faults.roll(FaultKind::PcieTransferFailure);
        let penalty = faults.config().timeout_penalty;
        let (start, end) = self.schedule(now, dir, bytes);
        if timed_out {
            // The hung DMA holds its direction busy until the watchdog
            // kills it.
            let completes = end + penalty;
            self.lane_mut(dir).hold_until(completes);
            return Err(TransferError::TimedOut {
                dir,
                bytes,
                completes,
            });
        }
        if failed {
            return Err(TransferError::Failed {
                dir,
                bytes,
                completes: end,
            });
        }
        Ok((start, end))
    }

    /// When the given direction becomes idle.
    #[must_use]
    pub fn busy_until(&self, dir: Direction) -> SimTime {
        self.lane(dir).busy_until()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_model::SimDuration;

    fn link(mode: DuplexMode) -> PcieLink {
        PcieLink::new(PcieSpec::gen4_x16(), mode)
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    const GB: usize = 1_000_000_000;

    #[test]
    fn single_direction_is_fifo() {
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        let (s1, e1) = l.schedule(t(0.0), Direction::HostToDevice, 25 * GB);
        let (s2, e2) = l.schedule(t(0.0), Direction::HostToDevice, 25 * GB);
        assert_eq!(s1, t(0.0));
        assert!((e1.as_secs() - 1.0).abs() < 0.01);
        assert_eq!(s2, e1, "second transfer queues behind the first");
        assert!((e2.as_secs() - 2.0).abs() < 0.02);
    }

    #[test]
    fn eviction_waits_for_retrieval_under_priority_mode() {
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        let (_, h2d_end) = l.schedule(t(0.0), Direction::HostToDevice, 25 * GB);
        let (d2h_start, d2h_end) = l.schedule(t(0.1), Direction::DeviceToHost, 25 * GB);
        assert_eq!(d2h_start, h2d_end, "eviction deferred until swap-in done");
        // But it then runs at full bandwidth.
        assert!((d2h_end.as_secs() - d2h_start.as_secs() - 1.0).abs() < 0.01);
    }

    #[test]
    fn retrieval_never_waits_for_eviction() {
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        l.schedule(t(0.0), Direction::DeviceToHost, 25 * GB);
        let (s, e) = l.schedule(t(0.1), Direction::HostToDevice, 25 * GB);
        assert_eq!(s, t(0.1));
        assert!((e.as_secs() - 1.1).abs() < 0.01);
    }

    #[test]
    fn naive_mode_pays_duplex_penalty() {
        let mut l = link(DuplexMode::Naive);
        l.schedule(t(0.0), Direction::HostToDevice, 25 * GB);
        let (s, e) = l.schedule(t(0.0), Direction::DeviceToHost, 25 * GB);
        assert_eq!(s, t(0.0), "naive mode starts immediately");
        let dur = e.as_secs() - s.as_secs();
        // 25 GB at 81% of 25 GB/s ~= 1.235 s.
        assert!(dur > 1.2 && dur < 1.3, "duplex-penalized duration {dur}");
    }

    #[test]
    fn naive_mode_full_speed_when_other_direction_idle() {
        let mut l = link(DuplexMode::Naive);
        let (_, e) = l.schedule(t(0.0), Direction::DeviceToHost, 25 * GB);
        assert!((e.as_secs() - 1.0).abs() < 0.01);
    }

    #[test]
    fn zero_bytes_complete_instantly() {
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        let (s, e) = l.schedule(t(1.0), Direction::HostToDevice, 0);
        assert_eq!(s, e);
        assert_eq!(l.busy_until(Direction::HostToDevice), SimTime::ZERO);
    }

    /// A retrieval burst arriving mid-eviction queue: each direction
    /// remains FIFO and the priorities compose across several transfers.
    #[test]
    fn mixed_sequences_compose() {
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        let (_, in1) = l.schedule(t(0.0), Direction::HostToDevice, 25 * GB);
        let (_, in2) = l.schedule(t(0.0), Direction::HostToDevice, 25 * GB);
        // Eviction issued while two retrievals queue: starts after both.
        let (out_start, _) = l.schedule(t(0.5), Direction::DeviceToHost, GB);
        assert_eq!(out_start, in2);
        assert!(in2 > in1);
        // A third retrieval still queues only behind its own direction.
        let (in3_start, _) = l.schedule(t(0.6), Direction::HostToDevice, GB);
        assert_eq!(in3_start, in2);
    }

    #[test]
    fn try_schedule_without_injector_matches_schedule() {
        let mut a = link(DuplexMode::PrioritizeRetrieval);
        let mut b = link(DuplexMode::PrioritizeRetrieval);
        let want = a.schedule(t(0.0), Direction::HostToDevice, GB);
        let got = b
            .try_schedule(t(0.0), Direction::HostToDevice, GB, None)
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn failed_transfer_consumes_link_time() {
        use crate::faults::{FaultConfig, FaultInjector};
        let mut cfg = FaultConfig::disabled(1);
        cfg.pcie_failure = 1.0;
        let mut inj = FaultInjector::new(cfg);
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        let err = l
            .try_schedule(t(0.0), Direction::HostToDevice, 25 * GB, Some(&mut inj))
            .unwrap_err();
        assert!(matches!(err, TransferError::Failed { .. }));
        // The aborted DMA still held the link for its full duration.
        assert!((l.busy_until(Direction::HostToDevice).as_secs() - 1.0).abs() < 0.01);
        assert_eq!(err.completes(), l.busy_until(Direction::HostToDevice));
        assert_eq!(inj.counters().pcie_failures, 1);
    }

    #[test]
    fn timed_out_transfer_adds_penalty_to_busy_horizon() {
        use crate::faults::{FaultConfig, FaultInjector};
        let mut cfg = FaultConfig::disabled(2);
        cfg.pcie_timeout = 1.0;
        cfg.timeout_penalty = SimDuration::from_secs(0.5);
        let mut inj = FaultInjector::new(cfg);
        let mut l = link(DuplexMode::PrioritizeRetrieval);
        let err = l
            .try_schedule(t(0.0), Direction::HostToDevice, 25 * GB, Some(&mut inj))
            .unwrap_err();
        assert!(matches!(err, TransferError::TimedOut { .. }));
        assert!((err.completes().as_secs() - 1.5).abs() < 0.01);
        assert_eq!(l.busy_until(Direction::HostToDevice), err.completes());
        assert_eq!(inj.counters().pcie_timeouts, 1);
    }
}
