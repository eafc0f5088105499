//! Deterministic, seedable fault injection for the serving stack.
//!
//! Real deployments of a two-tier KV cache see partial failures the paper
//! does not model: DMA engines abort or time out, host memory holding
//! swapped-out KV chunks gets reclaimed or corrupted, slot allocators
//! transiently fail, and tensor-parallel workers stall. The
//! [`FaultInjector`] draws those events from a seeded SplitMix64 stream so
//! that an entire chaos run is reproducible from a single `u64` seed: the
//! same seed yields the same fault schedule, which lets the integration
//! tests assert that recovery produces *bit-identical* outputs to the
//! fault-free run.
//!
//! The injector is purely a decision source — it never mutates the
//! component it targets. Each subsystem polls it at its natural fault
//! point ([`crate::pcie::PcieLink::try_schedule`] for transfers, the cache
//! manager for CPU-tier chunk loss, the engine for allocation faults and
//! worker stalls) and implements its own recovery.

use pensieve_model::{SimDuration, SimTime};

use crate::rng::SplitMix64;

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A PCIe DMA transfer aborts; the link time is consumed but no data
    /// arrives. Retryable.
    PcieTransferFailure,
    /// A PCIe DMA transfer hangs past its deadline; detected only after a
    /// timeout penalty. Retryable.
    PcieTimeout,
    /// A swapped-out chunk in the CPU tier is lost (e.g. host memory
    /// reclaimed). The chunk must be recomputed from raw tokens.
    CpuChunkLoss,
    /// A swapped-out chunk's bytes are silently corrupted; detected by
    /// checksum on swap-in, then treated as lost.
    CpuChunkCorruption,
    /// The GPU KV slot allocator transiently fails even though capacity
    /// accounting says space exists. Recovered by eviction backpressure.
    GpuAllocFailure,
    /// A tensor-parallel worker shard stalls for a bounded time; the
    /// iteration completes late.
    WorkerStall,
    /// A deep-tier (SSD/cold) read stalls: the data arrives, but late by
    /// the configured penalty (device GC pause, congested NFS server).
    ColdReadStall,
    /// A deep-tier read fails outright; the device time is consumed but
    /// nothing arrives. The chunks are recomputed from raw tokens.
    ColdReadFailure,
    /// A session-manifest write to the cold tier is torn mid-write; the
    /// truncated manifest fails its checksum on read and the session
    /// rehydration falls back to recomputation.
    TornManifestWrite,
}

/// Per-fault-kind probabilities (per opportunity). What a fault costs
/// is fixed by the component it hits.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability that a PCIe transfer aborts.
    pub pcie_failure: f64,
    /// Probability that a PCIe transfer times out.
    pub pcie_timeout: f64,
    /// Probability (per opportunity) that a CPU-tier chunk is lost.
    pub cpu_chunk_loss: f64,
    /// Probability (per opportunity) that a CPU-tier chunk is corrupted.
    pub cpu_chunk_corruption: f64,
    /// Probability that a GPU slot allocation transiently fails.
    pub gpu_alloc_failure: f64,
    /// Probability that a worker shard stalls during an iteration.
    pub worker_stall: f64,
    /// Probability that a deep-tier read stalls (delivers late).
    pub cold_read_stall: f64,
    /// Probability that a deep-tier read fails (delivers nothing).
    pub cold_read_failure: f64,
    /// Probability that a cold-tier manifest write is torn.
    pub torn_manifest_write: f64,
}

impl FaultConfig {
    /// A configuration that never fires; useful as a base to override.
    #[must_use]
    pub fn disabled(seed: u64) -> Self {
        FaultConfig {
            seed,
            pcie_failure: 0.0,
            pcie_timeout: 0.0,
            cpu_chunk_loss: 0.0,
            cpu_chunk_corruption: 0.0,
            gpu_alloc_failure: 0.0,
            worker_stall: 0.0,
            cold_read_stall: 0.0,
            cold_read_failure: 0.0,
            torn_manifest_write: 0.0,
        }
    }

    /// A moderately hostile preset used by the chaos tests: every fault
    /// kind fires regularly but recovery keeps the workload completing.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            pcie_failure: 0.10,
            pcie_timeout: 0.05,
            cpu_chunk_loss: 0.05,
            cpu_chunk_corruption: 0.05,
            gpu_alloc_failure: 0.05,
            worker_stall: 0.05,
            ..FaultConfig::disabled(seed)
        }
    }
}

/// Number of [`FaultKind`]s: the last variant's index plus one.
const KINDS: usize = FaultKind::TornManifestWrite as usize + 1;

/// Counts of injected faults, one per [`FaultKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters([u64; KINDS]);

impl FaultCounters {
    /// Faults of `kind` injected so far.
    #[must_use]
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.0[kind as usize]
    }

    /// Total faults injected across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// The deterministic fault source.
///
/// Each [`FaultInjector::roll`] advances the SplitMix64 stream exactly
/// once, regardless of whether the fault fires, so the decision sequence
/// is a pure function of the seed and the *number* of opportunities —
/// recovery code that retries does not perturb later draws in surprising
/// ways beyond consuming its own retry rolls.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SplitMix64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Creates an injector from a fault configuration.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed ^ 0x6A09_E667_F3BC_C909);
        FaultInjector {
            cfg,
            rng,
            counters: FaultCounters::default(),
        }
    }

    /// Faults injected so far.
    #[must_use]
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Rolls for one fault opportunity of `kind`; true means the fault
    /// fires (and is counted).
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        let p = match kind {
            FaultKind::PcieTransferFailure => self.cfg.pcie_failure,
            FaultKind::PcieTimeout => self.cfg.pcie_timeout,
            FaultKind::CpuChunkLoss => self.cfg.cpu_chunk_loss,
            FaultKind::CpuChunkCorruption => self.cfg.cpu_chunk_corruption,
            FaultKind::GpuAllocFailure => self.cfg.gpu_alloc_failure,
            FaultKind::WorkerStall => self.cfg.worker_stall,
            FaultKind::ColdReadStall => self.cfg.cold_read_stall,
            FaultKind::ColdReadFailure => self.cfg.cold_read_failure,
            FaultKind::TornManifestWrite => self.cfg.torn_manifest_write,
        };
        let fired = self.rng.next_f64() < p;
        if fired {
            self.counters.0[kind as usize] += 1;
        }
        fired
    }

    /// Deterministic uniform index in `[0, n)`, for choosing which chunk
    /// or shard a fault targets.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from an empty set");
        self.rng.below(n)
    }
}

/// Cluster-level fault kinds, scheduled at absolute simulated times.
///
/// Unlike the per-opportunity [`FaultKind`] rolls (polled by a component
/// at its natural fault point), these are *time-triggered*: a chaos
/// harness generates a [`FaultSchedule`] up front and the cluster router
/// applies each event when its clock reaches the trigger — faults land
/// mid-generation without the test hand-placing them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterFaultKind {
    /// Replica `replica` fail-stops: KV state lost, in-flight requests
    /// orphaned and re-routed.
    ReplicaCrash {
        /// Index of the replica that dies.
        replica: usize,
    },
    /// The inter-node fabric partitions for `duration`: transfers cannot
    /// start during the window (in-flight transfers complete).
    LinkPartition {
        /// Length of the unavailability window.
        duration: SimDuration,
    },
}

/// One scheduled cluster fault: `kind` fires when the clock reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Trigger time.
    pub at: SimTime,
    /// What happens.
    pub kind: ClusterFaultKind,
}

/// A seeded, pre-generated schedule of cluster faults, sorted by trigger
/// time. The same `(seed, shape)` always yields the same schedule, so a
/// chaos run is reproducible from one `u64` — the same contract as
/// [`FaultInjector`], lifted from per-opportunity rolls to wall-clock
/// triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// Generates a schedule of `crashes` replica crashes and `partitions`
    /// link partitions, all triggered at uniform times in `(0, window)`.
    ///
    /// Crash targets are distinct replica indices and at most
    /// `replicas - 1` crashes are generated, so at least one replica
    /// always survives — a schedule that kills the whole cluster proves
    /// nothing about recovery. Partition lengths are `mean_outage` scaled
    /// by a uniform factor in `[0.5, 1.5)`.
    #[must_use]
    pub fn generate(
        seed: u64,
        replicas: usize,
        window: SimDuration,
        crashes: usize,
        partitions: usize,
        mean_outage: SimDuration,
    ) -> Self {
        // A dedicated stream with its own pre-mix constant, so schedules
        // are decorrelated from `FaultInjector` rolls on the same seed.
        let mut rng = SplitMix64::new(seed ^ 0x3C6E_F372_FE94_F82B);

        let mut events = Vec::new();
        let mut survivors: Vec<usize> = (0..replicas).collect();
        for _ in 0..crashes.min(replicas.saturating_sub(1)) {
            let at = SimTime::ZERO + window * rng.next_f64();
            let replica = survivors.remove(rng.below(survivors.len()));
            events.push(ScheduledFault {
                at,
                kind: ClusterFaultKind::ReplicaCrash { replica },
            });
        }
        for _ in 0..partitions {
            let at = SimTime::ZERO + window * rng.next_f64();
            let duration = mean_outage * (0.5 + rng.next_f64());
            events.push(ScheduledFault {
                at,
                kind: ClusterFaultKind::LinkPartition { duration },
            });
        }
        // Deterministic order: by time, crashes before partitions at ties,
        // then by target index / length.
        events.sort_by(|a, b| {
            a.at.total_cmp(&b.at).then_with(|| {
                let rank = |k: &ClusterFaultKind| match *k {
                    ClusterFaultKind::ReplicaCrash { replica } => (0usize, replica as f64),
                    ClusterFaultKind::LinkPartition { duration } => (1, duration.as_secs()),
                };
                let (ra, ka) = rank(&a.kind);
                let (rb, kb) = rank(&b.kind);
                ra.cmp(&rb).then(ka.total_cmp(&kb))
            })
        });
        FaultSchedule { events }
    }

    /// The scheduled events, sorted by trigger time.
    #[must_use]
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// True if the schedule contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::chaos(7);
        let mut a = FaultInjector::new(cfg.clone());
        let mut b = FaultInjector::new(cfg);
        let kinds = [
            FaultKind::PcieTransferFailure,
            FaultKind::CpuChunkLoss,
            FaultKind::GpuAllocFailure,
            FaultKind::WorkerStall,
        ];
        for i in 0..1000 {
            let k = kinds[i % kinds.len()];
            assert_eq!(a.roll(k), b.roll(k), "draw {i} diverged");
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "chaos preset must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(FaultConfig::chaos(1));
        let mut b = FaultInjector::new(FaultConfig::chaos(2));
        let seq = |inj: &mut FaultInjector| -> Vec<bool> {
            (0..256)
                .map(|_| inj.roll(FaultKind::PcieTransferFailure))
                .collect()
        };
        assert_ne!(seq(&mut a), seq(&mut b));
    }

    #[test]
    fn disabled_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::disabled(3));
        for _ in 0..1000 {
            assert!(!inj.roll(FaultKind::CpuChunkLoss));
            assert!(!inj.roll(FaultKind::TornManifestWrite));
        }
        assert_eq!(inj.counters().total(), 0);
    }

    /// Each kind's rate drives that kind's rolls alone, and a fired
    /// roll counts under that kind alone.
    #[test]
    fn each_kind_fires_and_counts_alone() {
        use FaultKind::*;
        let kinds: [FaultKind; KINDS] = [
            PcieTransferFailure,
            PcieTimeout,
            CpuChunkLoss,
            CpuChunkCorruption,
            GpuAllocFailure,
            WorkerStall,
            ColdReadStall,
            ColdReadFailure,
            TornManifestWrite,
        ];
        for kind in kinds {
            let mut cfg = FaultConfig::disabled(9);
            let rate = match kind {
                PcieTransferFailure => &mut cfg.pcie_failure,
                PcieTimeout => &mut cfg.pcie_timeout,
                CpuChunkLoss => &mut cfg.cpu_chunk_loss,
                CpuChunkCorruption => &mut cfg.cpu_chunk_corruption,
                GpuAllocFailure => &mut cfg.gpu_alloc_failure,
                WorkerStall => &mut cfg.worker_stall,
                ColdReadStall => &mut cfg.cold_read_stall,
                ColdReadFailure => &mut cfg.cold_read_failure,
                TornManifestWrite => &mut cfg.torn_manifest_write,
            };
            *rate = 1.0;
            let mut inj = FaultInjector::new(cfg);
            for other in kinds {
                assert_eq!(inj.roll(other), other == kind, "{kind:?} rolled {other:?}");
            }
            let counters = inj.counters();
            for other in kinds {
                let want = u64::from(other == kind);
                assert_eq!(counters.get(other), want, "{kind:?} counted {other:?}");
            }
            assert_eq!(counters.total(), 1, "{kind:?}");
        }
    }

    #[test]
    fn fire_rate_tracks_probability() {
        let mut cfg = FaultConfig::disabled(11);
        cfg.pcie_failure = 0.25;
        let mut inj = FaultInjector::new(cfg);
        let fired = (0..20_000)
            .filter(|_| inj.roll(FaultKind::PcieTransferFailure))
            .count();
        let rate = fired as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert_eq!(
            inj.counters().get(FaultKind::PcieTransferFailure),
            fired as u64
        );
    }

    #[test]
    fn fault_schedule_is_seed_deterministic_and_sorted() {
        let gen = |seed| {
            FaultSchedule::generate(
                seed,
                4,
                SimDuration::from_secs(100.0),
                3,
                2,
                SimDuration::from_secs(0.5),
            )
        };
        let a = gen(7);
        assert_eq!(a, gen(7), "same seed, same schedule");
        assert_ne!(a, gen(8), "different seeds diverge");
        assert_eq!(a.events().len(), 5);
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at, "events sorted by trigger time");
        }
        for e in a.events() {
            assert!(e.at > SimTime::ZERO && e.at < SimTime::from_secs(100.0));
        }
    }

    #[test]
    fn fault_schedule_always_leaves_a_survivor() {
        for seed in 0..32 {
            let s = FaultSchedule::generate(
                seed,
                3,
                SimDuration::from_secs(10.0),
                99,
                0,
                SimDuration::from_secs(1.0),
            );
            let crashed: Vec<usize> = s
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    ClusterFaultKind::ReplicaCrash { replica } => Some(replica),
                    ClusterFaultKind::LinkPartition { .. } => None,
                })
                .collect();
            assert_eq!(crashed.len(), 2, "at most replicas - 1 crashes");
            let mut distinct = crashed.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), crashed.len(), "targets are distinct");
            assert!(crashed.iter().all(|&r| r < 3));
        }
    }

    #[test]
    fn pick_is_in_bounds_and_deterministic() {
        let mut a = FaultInjector::new(FaultConfig::chaos(5));
        let mut b = FaultInjector::new(FaultConfig::chaos(5));
        for _ in 0..1000 {
            let x = a.pick(7);
            assert!(x < 7);
            assert_eq!(x, b.pick(7));
        }
    }
}
