//! GPU execution timing, including pipelined swap-in overlap (§4.3.3).
//!
//! [`GpuTimer`] turns a batch shape into an execution duration using the
//! roofline cost model, and computes how much of a swap-in transfer is
//! hidden by layer-by-layer pipelining: transfers are issued per layer and
//! layer *i*'s attention kernel only waits for layer *i*'s KV-tokens, so a
//! transfer slower than one layer's compute stalls only the difference.

use pensieve_model::{BatchShape, CostModel, SimDuration, SimTime};
use pensieve_obs::{Recorder as _, SharedRecorder, TraceEvent};

/// Times batched model invocations on one (possibly tensor-parallel) GPU
/// group.
#[derive(Debug, Clone)]
pub struct GpuTimer {
    cost: CostModel,
    /// Fixed per-iteration host-side overhead (scheduling, launch, sampling
    /// bookkeeping). Runtime-dependent: vLLM/Pensieve pay more than a
    /// compiled TensorRT engine.
    iteration_overhead: SimDuration,
    /// Multiplier (< 1.0 speeds up) on non-attention compute, modelling
    /// graph-compiled runtimes (TensorRT-LLM's operator fusion).
    compute_scale: f64,
    /// Passive trace sink; `None` (the default) records nothing.
    recorder: Option<SharedRecorder>,
}

impl GpuTimer {
    /// Creates a timer with PyTorch-runtime-like defaults.
    #[must_use]
    pub fn new(cost: CostModel) -> Self {
        GpuTimer {
            cost,
            iteration_overhead: SimDuration::from_micros(300.0),
            compute_scale: 1.0,
            recorder: None,
        }
    }

    /// Attaches a trace recorder (used by
    /// [`GpuTimer::batch_time_with_swap_in_at`]). Recording is passive:
    /// timings are identical with or without it.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// Overrides the per-iteration overhead (compiled runtimes pay less).
    #[must_use]
    pub fn with_iteration_overhead(mut self, overhead: SimDuration) -> Self {
        self.iteration_overhead = overhead;
        self
    }

    /// Scales all device compute by `scale` (e.g. 0.8 for a fused,
    /// graph-compiled runtime).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1.5]`.
    #[must_use]
    pub fn with_compute_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.5, "implausible compute scale");
        self.compute_scale = scale;
        self
    }

    /// The cost model the timer scales.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Execution time of one batched iteration (no transfers).
    #[must_use]
    pub fn batch_time(&self, batch: &BatchShape) -> SimDuration {
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        self.step_time(self.cost.batch_step_time(batch))
    }

    /// Execution time of an iteration whose cost-model step time
    /// ([`CostModel::step_time`]) is `step`: the runtime's compute scale
    /// and per-iteration overhead applied, as [`GpuTimer::batch_time`]
    /// applies them.
    #[must_use]
    pub fn step_time(&self, step: SimDuration) -> SimDuration {
        step * self.compute_scale + self.iteration_overhead
    }

    /// Execution time of an iteration that must first swap in
    /// `swap_in_bytes` of KV-tokens, with per-layer pipelining.
    ///
    /// Models the paper's scheme: the transfer is split evenly across
    /// layers and issued ahead of each layer's attention kernel; layer `i`
    /// can only start attending once its slice has arrived. Returns the
    /// total iteration time including any stall. When a recorder is
    /// attached and a transfer actually overlapped compute, also emits a
    /// [`TraceEvent::PipelinedSwapIn`] timestamped `now`, the iteration
    /// start; the returned duration is the same either way.
    #[must_use]
    pub fn batch_time_with_swap_in_at(
        &self,
        batch: &BatchShape,
        swap_in_bytes: usize,
        pcie_bandwidth: f64,
        now: SimTime,
    ) -> SimDuration {
        let compute = self.batch_time(batch);
        if swap_in_bytes == 0 || batch.is_empty() {
            return compute;
        }
        let layers = self.cost.config().num_layers;
        let per_layer_compute = compute / layers as f64;
        let per_layer_transfer =
            SimDuration::from_secs(swap_in_bytes as f64 / pcie_bandwidth / layers as f64);
        // Layer i's slice finishes transferring at (i+1) * t_x; layer i's
        // compute starts at max(prev finish, slice arrival).
        let mut total = SimDuration::ZERO;
        for i in 0..layers {
            let arrival = per_layer_transfer * (i + 1) as f64;
            total = total.max(arrival) + per_layer_compute;
        }
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::PipelinedSwapIn {
                at: now,
                bytes: swap_in_bytes as u64,
                compute,
                total,
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_model::{HardwareSpec, ModelConfig, SeqShape};

    fn timer() -> GpuTimer {
        GpuTimer::new(CostModel::new(
            ModelConfig::opt_13b(),
            HardwareSpec::azure_nc_a100(1),
        ))
    }

    #[test]
    fn batch_time_includes_overhead() {
        let t = timer();
        let batch = BatchShape::new(vec![SeqShape::decode(100)]);
        let bare = t.cost.batch_step_time(&batch);
        assert!(t.batch_time(&batch) > bare);
        assert_eq!(t.batch_time(&BatchShape::default()), SimDuration::ZERO);
    }

    #[test]
    fn compute_scale_speeds_up() {
        let batch = BatchShape::new(vec![SeqShape::prefill(512, 0)]);
        let slow = timer().batch_time(&batch);
        let fast = timer().with_compute_scale(0.8).batch_time(&batch);
        assert!(fast < slow);
    }

    /// A small swap-in is fully hidden behind per-layer compute.
    #[test]
    fn small_swap_in_fully_overlapped() {
        let t = timer();
        let batch = BatchShape::new(vec![SeqShape::prefill(512, 1024)]);
        // 1024 tokens of history ~ 0.8 GB; at 25 GB/s spread over 40
        // layers, each slice transfers faster than a layer computes.
        let compute = t.batch_time(&batch);
        let stall = t
            .batch_time_with_swap_in_at(&batch, 800_000_000, 25e9, SimTime::ZERO)
            .saturating_sub(compute);
        assert!(
            stall.as_secs() < 0.15 * compute.as_secs(),
            "stall {stall} vs compute {compute}"
        );
    }

    /// A transfer much slower than compute degenerates to transfer-bound.
    #[test]
    fn huge_swap_in_becomes_transfer_bound() {
        let t = timer();
        let batch = BatchShape::new(vec![SeqShape::decode(64)]);
        let bytes = 10_000_000_000usize; // 10 GB over a tiny decode step.
        let total = t.batch_time_with_swap_in_at(&batch, bytes, 25e9, SimTime::ZERO);
        let transfer = SimDuration::from_secs(bytes as f64 / 25e9);
        assert!(total >= transfer);
        assert!(total.as_secs() < transfer.as_secs() * 1.2);
    }

    /// Tensor-parallel timers speed up compute but keep the same
    /// pipelining semantics.
    #[test]
    fn tensor_parallel_timer_scales() {
        let cfg = ModelConfig::llama2_70b();
        let t1 = GpuTimer::new(CostModel::new(cfg.clone(), HardwareSpec::azure_nc_a100(1)));
        let t4 = GpuTimer::new(CostModel::new(cfg, HardwareSpec::azure_nc_a100(4)));
        let batch = BatchShape::new(vec![SeqShape::prefill(2048, 0)]);
        assert!(t4.batch_time(&batch) < t1.batch_time(&batch));
        // Per-GPU swap bytes shrink with sharding, so the pipelined total
        // shrinks too.
        let b1 = t1.batch_time_with_swap_in_at(&batch, 2_000_000_000, 25e9, SimTime::ZERO);
        let b4 = t4.batch_time_with_swap_in_at(&batch, 500_000_000, 25e9, SimTime::ZERO);
        assert!(b4 < b1);
    }

    #[test]
    fn zero_swap_is_pure_compute() {
        let t = timer();
        let batch = BatchShape::new(vec![SeqShape::decode(100)]);
        assert_eq!(
            t.batch_time_with_swap_in_at(&batch, 0, 25e9, SimTime::ZERO),
            t.batch_time(&batch)
        );
    }

    /// Pipelining beats waiting for the full transfer before computing.
    #[test]
    fn pipelining_hides_latency_vs_serial() {
        let t = timer();
        let batch = BatchShape::new(vec![SeqShape::prefill(128, 2048)]);
        let bytes = 1_600_000_000usize;
        let pipelined = t.batch_time_with_swap_in_at(&batch, bytes, 25e9, SimTime::ZERO);
        let serial = t.batch_time(&batch) + SimDuration::from_secs(bytes as f64 / 25e9);
        assert!(pipelined < serial);
    }
}
