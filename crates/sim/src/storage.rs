//! Deep-storage device models: simulated NVMe SSD and cold NFS/object
//! store tiers below the CPU cache.
//!
//! CachedAttention-style hierarchies (arXiv 2403.19708) extend the paper's
//! GPU+CPU cache with slower-but-larger tiers so that idle sessions can be
//! demoted instead of dropped. [`StorageDevice`] models one such tier the
//! same way [`crate::pcie::PcieLink`] models the host link: a fixed access
//! latency plus a bandwidth term, with independent FIFO busy horizons per
//! direction. Reads and writes never contend with each other (modern NVMe
//! queues and NFS clients overlap them), but each direction is serialized —
//! a new access starts at `max(now, direction busy-until)`.
//!
//! Faults are polled per read opportunity from the shared seeded
//! [`FaultInjector`] stream: a *stall* ([`FaultKind::ColdReadStall`])
//! delivers the data late by the configured penalty, while a *failure*
//! ([`FaultKind::ColdReadFailure`]) consumes the device time but delivers
//! nothing — the caller falls back to dropped-chunk recomputation.

#![deny(clippy::indexing_slicing)]

use std::fmt;

use pensieve_model::{SimDuration, SimTime};

use crate::faults::{FaultInjector, FaultKind};
use crate::lane::Lane;

/// Shape of one storage tier: access latencies and sustained bandwidths.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageDeviceSpec {
    /// Human-readable tier name (`"nvme"`, `"nfs"`), used in traces.
    pub name: &'static str,
    /// Fixed per-read access latency (seek / RPC round trip).
    pub read_latency: SimDuration,
    /// Fixed per-write access latency.
    pub write_latency: SimDuration,
    /// Sustained read bandwidth in bytes per second.
    pub read_bandwidth: f64,
    /// Sustained write bandwidth in bytes per second.
    pub write_bandwidth: f64,
}

impl StorageDeviceSpec {
    /// A datacenter NVMe SSD: ~80 µs access, GB/s-class streaming.
    #[must_use]
    pub fn nvme() -> Self {
        StorageDeviceSpec {
            name: "nvme",
            read_latency: SimDuration::from_secs(80e-6),
            write_latency: SimDuration::from_secs(30e-6),
            read_bandwidth: 3.5e9,
            write_bandwidth: 2.5e9,
        }
    }

    /// A shared NFS / object store: millisecond RPCs, network-bound
    /// streaming. Slow, but effectively unbounded and restart-durable.
    #[must_use]
    pub fn nfs() -> Self {
        StorageDeviceSpec {
            name: "nfs",
            read_latency: SimDuration::from_secs(2e-3),
            write_latency: SimDuration::from_secs(3e-3),
            read_bandwidth: 1.2e9,
            write_bandwidth: 0.8e9,
        }
    }
}

/// Typed failure of a storage read.
///
/// Like a failed DMA, a failed read still occupied the device for its
/// full duration; `completes` reports when the failure is detected so the
/// caller can charge the wasted time before recomputing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageReadError {
    /// Bytes that were requested.
    pub bytes: usize,
    /// When the failure is detected (the would-be completion time).
    pub completes: SimTime,
}

impl fmt::Display for StorageReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cold storage read failed ({} bytes)", self.bytes)
    }
}

impl std::error::Error for StorageReadError {}

/// One storage tier: a FIFO lane of reads and one of writes.
#[derive(Debug, Clone)]
pub struct StorageDevice {
    spec: StorageDeviceSpec,
    reads: Lane,
    writes: Lane,
}

impl StorageDevice {
    /// Creates a device from its spec.
    #[must_use]
    pub fn new(spec: StorageDeviceSpec) -> Self {
        StorageDevice {
            spec,
            reads: Lane::default(),
            writes: Lane::default(),
        }
    }

    /// The spec this device was built from.
    #[must_use]
    pub fn spec(&self) -> &StorageDeviceSpec {
        &self.spec
    }

    /// Enqueues a read of `bytes` at `now`; returns `(start, completion)`.
    /// Zero-byte reads complete immediately without occupying the device.
    pub fn schedule_read(&mut self, now: SimTime, bytes: usize) -> (SimTime, SimTime) {
        self.reads
            .schedule(now, bytes, self.spec.read_latency, self.spec.read_bandwidth)
    }

    /// Enqueues a write of `bytes` at `now`; returns `(start, completion)`.
    /// Zero-byte writes complete immediately without occupying the device.
    pub fn schedule_write(&mut self, now: SimTime, bytes: usize) -> (SimTime, SimTime) {
        self.writes.schedule(
            now,
            bytes,
            self.spec.write_latency,
            self.spec.write_bandwidth,
        )
    }

    /// Fault-aware [`StorageDevice::schedule_read`]: rolls `faults` for a
    /// stall (data delivered late by the configured penalty) and then a
    /// failure before committing the read. With `faults: None` this is
    /// exactly `schedule_read`.
    ///
    /// # Errors
    ///
    /// [`StorageReadError`] when the failure roll fires; the device time
    /// is consumed either way and the caller must recompute the data.
    pub fn try_read(
        &mut self,
        now: SimTime,
        bytes: usize,
        faults: Option<&mut FaultInjector>,
    ) -> Result<(SimTime, SimTime), StorageReadError> {
        let Some(faults) = faults else {
            return Ok(self.schedule_read(now, bytes));
        };
        if bytes == 0 {
            return Ok((now, now));
        }
        let stalled = faults.roll(FaultKind::ColdReadStall);
        let failed = faults.roll(FaultKind::ColdReadFailure);
        let penalty = faults.config().cold_stall_penalty;
        let (start, mut end) = self.schedule_read(now, bytes);
        if stalled {
            // A degraded device (GC pause, congested NFS server) delivers
            // late; the tail holds the read queue busy too.
            end += penalty;
            self.reads.hold_until(end);
        }
        if failed {
            return Err(StorageReadError {
                bytes,
                completes: end,
            });
        }
        Ok((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    const GB: usize = 1_000_000_000;

    #[test]
    fn reads_are_fifo_and_bandwidth_bound() {
        let mut d = StorageDevice::new(StorageDeviceSpec::nvme());
        let (s1, e1) = d.schedule_read(t(0.0), 3_500_000_000);
        let (s2, e2) = d.schedule_read(t(0.0), 3_500_000_000);
        assert_eq!(s1, t(0.0));
        assert!((e1.as_secs() - 1.0).abs() < 0.01, "3.5 GB at 3.5 GB/s");
        assert_eq!(s2, e1, "second read queues behind the first");
        assert!((e2.as_secs() - 2.0).abs() < 0.02);
    }

    #[test]
    fn reads_and_writes_do_not_contend() {
        let mut d = StorageDevice::new(StorageDeviceSpec::nfs());
        let (_, re) = d.schedule_read(t(0.0), GB);
        let (ws, _) = d.schedule_write(t(0.0), GB);
        assert_eq!(ws, t(0.0), "write starts despite the in-flight read");
        assert!(re > t(0.0));
    }

    #[test]
    fn nfs_is_slower_than_nvme() {
        let mut nvme = StorageDevice::new(StorageDeviceSpec::nvme());
        let mut nfs = StorageDevice::new(StorageDeviceSpec::nfs());
        let (_, e_nvme) = nvme.schedule_read(t(0.0), GB);
        let (_, e_nfs) = nfs.schedule_read(t(0.0), GB);
        assert!(e_nfs > e_nvme, "cold tier must cost more than the SSD");
    }

    #[test]
    fn zero_bytes_complete_instantly() {
        let mut d = StorageDevice::new(StorageDeviceSpec::nvme());
        let (s, e) = d.schedule_read(t(1.0), 0);
        assert_eq!(s, e);
        let (next, _) = d.schedule_read(t(0.0), 1);
        assert_eq!(next, t(0.0), "a zero-byte read does not occupy the queue");
    }

    #[test]
    fn try_read_without_injector_matches_schedule_read() {
        let mut a = StorageDevice::new(StorageDeviceSpec::nfs());
        let mut b = StorageDevice::new(StorageDeviceSpec::nfs());
        let want = a.schedule_read(t(0.0), GB);
        let got = b.try_read(t(0.0), GB, None).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn stalled_read_delivers_late() {
        let mut cfg = FaultConfig::disabled(1);
        cfg.cold_read_stall = 1.0;
        cfg.cold_stall_penalty = SimDuration::from_secs(0.5);
        let mut inj = FaultInjector::new(cfg);
        let mut calm = StorageDevice::new(StorageDeviceSpec::nfs());
        let mut d = StorageDevice::new(StorageDeviceSpec::nfs());
        let (_, calm_end) = calm.schedule_read(t(0.0), GB);
        let (_, end) = d.try_read(t(0.0), GB, Some(&mut inj)).unwrap();
        assert!((end.as_secs() - calm_end.as_secs() - 0.5).abs() < 1e-9);
        let (next, _) = d.schedule_read(t(0.0), 1);
        assert_eq!(next, end, "the stall holds the queue");
        assert_eq!(inj.counters().cold_read_stalls, 1);
    }

    #[test]
    fn failed_read_consumes_device_time() {
        let mut cfg = FaultConfig::disabled(2);
        cfg.cold_read_failure = 1.0;
        let mut inj = FaultInjector::new(cfg);
        let mut d = StorageDevice::new(StorageDeviceSpec::nfs());
        let err = d.try_read(t(0.0), GB, Some(&mut inj)).unwrap_err();
        assert!(err.completes > t(0.0), "the failed read spent device time");
        let (next, _) = d.schedule_read(t(0.0), 1);
        assert_eq!(next, err.completes);
        assert_eq!(inj.counters().cold_read_failures, 1);
    }
}
