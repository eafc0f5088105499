//! Discrete-event simulation primitives for Pensieve's serving experiments.
//!
//! The serving engines in `pensieve-core` are *real* implementations of the
//! paper's scheduler and cache manager; only device speed is simulated.
//! This crate provides the device models they consume:
//!
//! * [`pcie::PcieLink`] — the GPU<->CPU host link, including the paper's
//!   measured full-duplex contention (§5) and the "prioritize retrieval
//!   over eviction" waiting mechanism.
//! * [`gpu::GpuTimer`] — batch execution timing from the roofline cost
//!   model, plus the §4.3.3 pipelined per-layer swap-in overlap.
//! * [`faults::FaultInjector`] — a seeded, deterministic fault source used
//!   to exercise recovery paths (PCIe failures/timeouts, CPU-tier chunk
//!   loss/corruption, allocation faults, worker stalls and crashes), plus
//!   [`faults::FaultSchedule`] — seeded, time-triggered cluster faults
//!   (replica crashes, link partitions) for chaos harnesses.
//! * [`node_link::NodeLink`] — the inter-node fabric over which a cluster
//!   router streams KV chunks during conversation migration and
//!   replication, with seeded per-chunk loss feeding the
//!   recompute-fallback path and forced outage windows (the
//!   [`faults::ClusterFaultKind::LinkPartition`] fault).
//! * [`storage::StorageDevice`] — deep-storage tiers (simulated NVMe SSD
//!   and cold NFS/object store) below the CPU cache, with per-direction
//!   FIFO busy horizons and seeded cold-read stall/failure faults.

// Lint levels: docs/LINTS.md has what each guards.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod faults;
pub mod gpu;
mod lane;
pub mod node_link;
pub mod pcie;
mod rng;
pub mod storage;

pub use faults::{
    ClusterFaultKind, FaultConfig, FaultCounters, FaultInjector, FaultKind, FaultSchedule,
    ScheduledFault,
};
pub use gpu::GpuTimer;
pub use node_link::{ChunkLost, NodeLink, NodeLinkSpec};
pub use pcie::{Direction, DuplexMode, PcieLink, TransferError};
pub use storage::{StorageDevice, StorageDeviceSpec, StorageReadError};
