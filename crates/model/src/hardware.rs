//! Hardware specifications of the simulated testbed.
//!
//! The paper evaluates on Azure NC A100 v4 machines: up to four A100-80GB
//! GPUs, 220 GB of host memory per GPU, PCIe 4.0 host links, and NVLink
//! between GPUs. These types describe that hardware for the roofline cost
//! model ([`crate::cost`]) and the PCIe transfer model in `pensieve-sim`.
//!
//! Two empirical effects reported by the paper are modelled explicitly:
//!
//! * the 18–20 % throughput drop when PCIe runs full-duplex (§5,
//!   [`PcieSpec::duplex_penalty`]);
//! * each system is configured with a fixed 40 GB KV-cache budget per GPU
//!   (§6.1, [`HardwareSpec::gpu_kv_budget_bytes`]).

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Compute and memory characteristics of one GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Peak dense fp16 throughput, FLOP/s (A100: 312e12).
    pub peak_flops: f64,
    /// Peak HBM bandwidth, bytes/s (A100-80GB: ~1.94e12).
    pub mem_bandwidth: f64,
    /// Fraction of peak FLOPs achievable by large GEMMs (model FLOPs
    /// utilization for compute-bound phases).
    pub compute_efficiency: f64,
    /// Fraction of peak HBM bandwidth achievable by streaming kernels.
    pub bandwidth_efficiency: f64,
    /// Fixed overhead per transformer layer per kernel invocation
    /// (launch latency, synchronization).
    pub layer_overhead: SimDuration,
    /// Total GPU memory in bytes (A100-80GB).
    pub total_mem_bytes: usize,
}

impl GpuSpec {
    /// NVIDIA A100-80GB as deployed in Azure NC A100 v4.
    #[must_use]
    pub fn a100_80gb() -> Self {
        GpuSpec {
            peak_flops: 312e12,
            mem_bandwidth: 1.94e12,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.80,
            layer_overhead: SimDuration::from_micros(15.0),
            total_mem_bytes: 80 * (1 << 30),
        }
    }

    /// Effective sustained FLOP/s for large matrix multiplications.
    #[must_use]
    pub fn effective_flops(&self) -> f64 {
        self.peak_flops * self.compute_efficiency
    }

    /// Effective sustained HBM bandwidth in bytes/s.
    #[must_use]
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.bandwidth_efficiency
    }
}

/// The host link used for GPU<->CPU KV-token swaps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcieSpec {
    /// Effective unidirectional bandwidth, bytes/s (PCIe 4.0 x16: ~25 GB/s).
    pub bandwidth: f64,
    /// Per-transfer fixed latency (DMA setup, driver overhead).
    pub latency: SimDuration,
    /// Fractional throughput loss in *each* direction while both directions
    /// are active concurrently. The paper measured 18–20 % (§5); we use the
    /// midpoint.
    pub duplex_penalty: f64,
}

impl PcieSpec {
    /// PCIe 4.0 x16 with the paper's measured duplex contention.
    #[must_use]
    pub fn gen4_x16() -> Self {
        PcieSpec {
            bandwidth: 25e9,
            latency: SimDuration::from_micros(10.0),
            duplex_penalty: 0.19,
        }
    }

    /// Effective bandwidth while the opposite direction is also streaming.
    #[must_use]
    pub fn duplex_bandwidth(&self) -> f64 {
        self.bandwidth * (1.0 - self.duplex_penalty)
    }
}

/// GPU-to-GPU interconnect used by tensor-parallel all-reduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Per-GPU all-reduce bus bandwidth, bytes/s (NVLink 3: ~300e9 usable).
    pub bandwidth: f64,
    /// Fixed latency per collective operation.
    pub latency: SimDuration,
}

impl InterconnectSpec {
    /// NVLink 3 as in NC A100 v4 (4-GPU fully connected).
    #[must_use]
    pub fn nvlink3() -> Self {
        InterconnectSpec {
            bandwidth: 300e9,
            latency: SimDuration::from_micros(8.0),
        }
    }

    /// Time for a ring all-reduce of `bytes` across `n` GPUs.
    ///
    /// Uses the standard `2 (n-1) / n` traffic factor; returns zero for
    /// `n <= 1` (no communication needed).
    #[must_use]
    pub fn allreduce_time(&self, bytes: usize, n: usize) -> SimDuration {
        if n <= 1 {
            return SimDuration::ZERO;
        }
        let factor = 2.0 * (n as f64 - 1.0) / n as f64;
        self.latency + SimDuration::from_secs(bytes as f64 * factor / self.bandwidth)
    }
}

/// A complete serving machine: GPUs, host link, interconnect, host memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Per-GPU compute/memory characteristics.
    pub gpu: GpuSpec,
    /// Host link for KV swapping.
    pub pcie: PcieSpec,
    /// GPU-to-GPU interconnect for tensor parallelism.
    pub interconnect: InterconnectSpec,
    /// Number of GPUs used (1 or 4 in the paper).
    pub num_gpus: usize,
    /// GPU memory reserved for the KV cache, per GPU (paper: 40 GB).
    pub gpu_kv_budget_bytes: usize,
    /// Host (CPU) memory available for the second-tier cache, per GPU
    /// (paper hardware: 220 GB per GPU).
    pub cpu_cache_bytes_per_gpu: usize,
}

impl HardwareSpec {
    /// The paper's single-GPU configuration (§6.1).
    #[must_use]
    pub fn azure_nc_a100(num_gpus: usize) -> Self {
        HardwareSpec {
            gpu: GpuSpec::a100_80gb(),
            pcie: PcieSpec::gen4_x16(),
            interconnect: InterconnectSpec::nvlink3(),
            num_gpus,
            gpu_kv_budget_bytes: 40 * (1 << 30),
            cpu_cache_bytes_per_gpu: 220 * (1 << 30),
        }
    }

    /// Total KV-cache budget across all GPUs.
    #[must_use]
    pub fn total_gpu_kv_budget(&self) -> usize {
        self.gpu_kv_budget_bytes * self.num_gpus
    }

    /// Total host cache capacity across all GPUs' NUMA shares.
    #[must_use]
    pub fn total_cpu_cache_bytes(&self) -> usize {
        self.cpu_cache_bytes_per_gpu * self.num_gpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_effective_rates() {
        let gpu = GpuSpec::a100_80gb();
        assert!(gpu.effective_flops() > 1e14);
        assert!(gpu.effective_flops() < gpu.peak_flops);
        assert!(gpu.effective_bandwidth() < gpu.mem_bandwidth);
    }

    /// §5: duplex transfers lose 18-20% in each direction.
    #[test]
    fn duplex_penalty_in_measured_band() {
        let pcie = PcieSpec::gen4_x16();
        let ratio = pcie.duplex_bandwidth() / pcie.bandwidth;
        assert!((0.80..=0.82).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn allreduce_zero_for_single_gpu() {
        let ic = InterconnectSpec::nvlink3();
        assert_eq!(ic.allreduce_time(1 << 20, 1), SimDuration::ZERO);
        let t4 = ic.allreduce_time(1 << 20, 4);
        let t2 = ic.allreduce_time(1 << 20, 2);
        // More GPUs move more total traffic per byte reduced.
        assert!(t4 > t2);
    }

    #[test]
    fn kv_budget_matches_eval_setup() {
        let hw = HardwareSpec::azure_nc_a100(4);
        assert_eq!(hw.gpu_kv_budget_bytes, 40 << 30);
        assert_eq!(hw.total_gpu_kv_budget(), 160 << 30);
        assert_eq!(hw.total_cpu_cache_bytes(), 880 << 30);
    }
}
