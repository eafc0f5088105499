//! The iteration-level serving engine (paper §4.1–§4.3), simulated timing.
//!
//! One configurable implementation covers every system in the paper's
//! evaluation (see [`EngineConfig`]'s presets). The engine is "clocked" by
//! generation-step completions (§4.2): each iteration
//! performs, in order,
//!
//! 1. **decode slot growth** — every running request appends one KV slot;
//!    on overflow, requests are *suspended* newest-arrival-first (§4.3.5),
//! 2. **ahead-of-time swap-out** when the free watermark is breached
//!    (§4.3.2), with eviction transfers queued behind retrievals (§5),
//! 3. **FCFS admission** of waiting requests under the token budget and
//!    the 10 % decode reserve, committing each one's Figure-5 restore plan
//!    (GPU hits, revalidations, swap-ins, dropped-prefix recomputes),
//! 4. **execution** — one unified invocation mixing prefill and decode
//!    (§4.4.1), or two separate invocations for non-unified configs, with
//!    swap-in transfers overlapped layer-by-layer (§4.3.3); an attached
//!    real executor (see [`crate::functional`]) also moves the tick's K/V
//!    bytes and runs the batch as one real forward pass,
//! 5. **completion** — finished requests leave the batch; stateful
//!    configs keep their KV-tokens cached, stateless configs free them.
//!
//! Most ticks do nothing but steps 1 and 4 for a batch of decodes. The
//! clock loop takes a stretch of such ticks as one *quiet run*
//! (`SimServingEngine::quiet_run` states when a tick qualifies): each of
//! its steps records a tick's trace events and moves the clock by the same
//! arithmetic, and the run's slot growth goes to the cache, one append per
//! request, when it ends.

use std::collections::VecDeque;

use pensieve_kernels::model::{PagedModel, TinyModel};
use pensieve_kvcache::{
    CacheConfig, CacheStats, CachedAttentionPolicy, EvictionPolicy, LruPolicy, RequestPlan,
    RetentionValuePolicy, SessionExport, SessionId, SessionManifest, TieredKvCache,
    TrailingEndPolicy,
};
use pensieve_model::{
    BatchShape, CostModel, HardwareSpec, ModelConfig, ProfiledCostTable, SeqShape, SimDuration,
    SimTime,
};
use pensieve_obs::{
    metrics, DropReason, MetricsRegistry, Recorder as _, RecoveryKind, SharedRecorder, TraceEvent,
};
use pensieve_sim::{
    Direction, DuplexMode, FaultCounters, FaultInjector, FaultKind, GpuTimer, PcieLink,
    StorageDevice, StorageDeviceSpec,
};

use crate::backend::ServingBackend;
use crate::config::{EngineConfig, PolicyKind, SuspendPolicy};
use crate::executor::Executor;
use crate::request::{Request, Response};

/// Seed of the deterministic synthetic token stream standing in for the
/// deployment-wide system preamble (paper §7 footnote 3) in the timing
/// model. Every replica derives the same stream and therefore the same
/// content-addressed chunk chain, so manifests and migrations re-attach
/// it by id.
const SHARED_PREAMBLE_SEED: u64 = 0x50_45_4e_53; // "PENS"

/// The executor a tick is carried out on, if any.
type Exec<'a, M> = Option<&'a mut Executor<M>>;

/// The simulated path: no executor.
const SIM: Exec<'static, TinyModel> = None;

/// One request's lifecycle state — the record both the wait queue and the
/// running batch hold. A suspended request (§4.3.5) is this record back
/// at the queue front: it waits and is re-admitted like any other, with
/// its context restored through the same Figure-5 plan as a returning
/// conversation's. In the queue, `generated == 0` marks a request that
/// has never been admitted: only decoding requests are suspended, and a
/// request decodes once its prefill has produced its first token.
#[derive(Debug, Clone)]
struct RequestState {
    req: Request,
    /// Output tokens produced so far.
    generated: usize,
    /// Context the request has built up: the turn's history while it
    /// waits for its first admission, tokens with KV slots from then on.
    context_len: usize,
    /// Prefill work to perform in the next invocation, if any.
    prefill: Option<PrefillWork>,
    first_token: Option<SimTime>,
    /// Total query tokens processed in prefill (for reporting).
    prefill_tokens: usize,
    /// History tokens served from cache (for reporting).
    cached_tokens: usize,
}

#[derive(Debug, Clone, Copy)]
struct PrefillWork {
    /// Query tokens to process (recomputed history tail + new prompt).
    query_tokens: usize,
    /// Bytes to swap in from the CPU tier (per GPU shard).
    swap_in_bytes: usize,
    /// Query tokens already processed by earlier chunked iterations.
    done_tokens: usize,
    /// Queueing delay of a swap-in DMA already placed on the link during
    /// fault-aware admission (its retries consumed link time there), so
    /// `execute` must not schedule those bytes again. `None` on the
    /// fault-free path.
    reserved_delay: Option<SimDuration>,
}

/// What admitting the queue front costs, as of the cache state
/// `admission_cost` saw.
struct AdmissionCost {
    query_tokens: usize,
    new_slots: usize,
    /// The session's restore plan the two counts were derived from.
    plan: RequestPlan,
}

/// How far [`SimServingEngine::advance`] may move the clock to reach
/// queued work while the batch is empty.
#[derive(Debug, Clone, Copy)]
enum Limit {
    /// Not at all: only work already due runs.
    Present,
    /// Up to a deadline, which the clock lands on when nothing is due
    /// before it.
    Until(SimTime),
    /// As far as the queue goes.
    Drained,
}

/// Why a quiet run (see `SimServingEngine::quiet_run`) ended: what makes
/// its next step a full scheduler tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunEnd {
    /// A request reaches its output length and completes.
    Finish,
    /// An append would reclaim a lazy copy: the run's growth would exceed
    /// the strictly-free GPU slots.
    StrictFree,
    /// The ahead-of-time swap-out would fire: the run's growth would take
    /// effectively-free slots below the watermark.
    Watermark,
    /// The queue front is due and the batch has room for it.
    Arrival,
    /// The clock reached the caller's [`Limit::Until`] deadline.
    Deadline,
}

/// Aggregate engine counters beyond per-request responses. Faults fired
/// are counted by the injector, by kind
/// ([`SimServingEngine::fault_counters`]); the fault counters here count
/// recovery outcomes that no fired-fault count equals.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    /// Batched model invocations executed.
    pub iterations: u64,
    /// Requests suspended mid-generation (§4.3.5).
    pub suspensions: u64,
    /// Total query tokens processed in prefill across all requests.
    pub prefill_tokens: u64,
    /// Total decode steps executed across all requests.
    pub decode_tokens: u64,
    /// History tokens served by the globally shared system-prompt prefix.
    pub shared_prefix_hits: u64,
    /// Accumulated busy time of the GPU.
    pub busy_time: SimDuration,
    /// Restores whose swap-in retries were exhausted, falling back to
    /// dropping the CPU chunks and recomputing them from raw tokens.
    pub recompute_fallbacks: u64,
    /// CPU-tier chunks lost or corrupted by injected host-memory faults.
    pub chunk_faults: u64,
    /// Deep-tier (SSD/cold) reads that failed, dropping the session's
    /// deep chunks and falling back to recomputation.
    pub cold_read_faults: u64,
}

/// Maximum total query tokens per batch iteration; one oversized prefill
/// may exceed it when no other prefill was admitted.
const MAX_BATCH_TOKENS: usize = 4096;
/// Retries after the first failed swap-in DMA before falling back to
/// dropped-token recomputation.
const MAX_SWAP_IN_RETRIES: u32 = 3;
/// Backoff before the first swap-in retry (and after a fault-emptied
/// tick), in microseconds.
const RETRY_BACKOFF_BASE_US: f64 = 200.0;
/// Multiplier applied to the backoff after every failed retry.
const RETRY_BACKOFF_FACTOR: f64 = 2.0;
/// Duration of one injected worker stall, in seconds.
const WORKER_STALL_SECS: f64 = 5e-3;

/// The simulated-timing serving engine.
pub struct SimServingEngine {
    cfg: EngineConfig,
    gpu: GpuTimer,
    link: PcieLink,
    cache: TieredKvCache,
    now: SimTime,
    wait_queue: VecDeque<RequestState>,
    running: Vec<RequestState>,
    responses: Vec<Response>,
    counters: EngineCounters,
    kv_bytes_per_token_per_gpu: usize,
    pcie_bandwidth: f64,
    faults: Option<FaultInjector>,
    /// Tier-2 simulated NVMe device serving SSD-tier chunk reads.
    ssd_dev: StorageDevice,
    /// Tier-3 simulated NFS/object-store device serving cold-tier reads.
    cold_dev: StorageDevice,
    /// Consecutive fault-induced ticks that admitted nothing; bounds the
    /// empty-tick retry loop in `iteration`.
    empty_ticks: u32,
    /// Passive trace sink shared with the cache, link and GPU timer;
    /// `None` (the default) records nothing.
    recorder: Option<SharedRecorder>,
    /// Per-iteration scratch, cleared and refilled by `execute` and
    /// `complete` so a scheduler tick allocates nothing for them: the
    /// batch's prefill rows, its decode rows, and the requests that
    /// finished this tick.
    prefill_batch: BatchShape,
    decode_batch: BatchShape,
    finished: Vec<RequestState>,
    /// The quiet-run differential's switch and record.
    #[cfg(test)]
    probe: quiet_run_tests::Probe,
}

/// Builder for [`SimServingEngine`] — the only way to construct one.
///
/// Collapses the former `with_*`/`set_*` injection-setter pairs into one
/// construction path: fault injection and trace recording are both
/// decided before the engine exists, so no call site can half-configure
/// a live engine.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    cfg: EngineConfig,
    model: ModelConfig,
    hardware: HardwareSpec,
    faults: Option<FaultInjector>,
    recorder: Option<SharedRecorder>,
}

impl EngineBuilder {
    /// Attaches a deterministic fault injector; iterations draw PCIe,
    /// CPU-tier, allocation and worker faults from it and exercise the
    /// corresponding recovery paths.
    #[must_use]
    pub fn fault_injector(mut self, inj: FaultInjector) -> Self {
        self.faults = Some(inj);
        self
    }

    /// Attaches a trace recorder, cloned into the cache, the PCIe link
    /// and the GPU timer so every layer records into one buffer. The
    /// distributions (iteration time, batch size, TTFT) are read from
    /// that trace, not kept by the engine: [`SimServingEngine::metrics`]
    /// reports the same with or without it. Recording is strictly
    /// passive: simulated clocks, schedules and responses are
    /// bit-identical with or without it.
    #[must_use]
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Constructs the engine.
    #[must_use]
    pub fn build(self) -> SimServingEngine {
        let mut engine = SimServingEngine::new(self.cfg, self.model, self.hardware);
        engine.faults = self.faults;
        if let Some(recorder) = self.recorder {
            engine.attach_recorder(recorder);
        }
        engine
    }
}

impl SimServingEngine {
    /// Starts building an engine for `model` on `hardware` with
    /// behaviour `cfg`. See [`EngineBuilder`] for the optional knobs.
    #[must_use]
    pub fn builder(cfg: EngineConfig, model: ModelConfig, hardware: HardwareSpec) -> EngineBuilder {
        EngineBuilder {
            cfg,
            model,
            hardware,
            faults: None,
            recorder: None,
        }
    }

    /// Internal constructor; external call sites go through
    /// [`SimServingEngine::builder`].
    fn new(cfg: EngineConfig, model: ModelConfig, hardware: HardwareSpec) -> Self {
        let cost = CostModel::new(model.clone(), hardware.clone());
        let mut cache_cfg = CacheConfig::from_model(&model, &cost);
        cache_cfg.chunk_tokens = cfg.chunk_tokens;
        cache_cfg.swap_watermark = cfg.swap_watermark;
        cache_cfg.decode_reserve = cfg.decode_reserve;
        if !cfg.cpu_cache || !cfg.stateful {
            cache_cfg.cpu_capacity_tokens = 0;
        } else {
            // Deep tiers hang below the CPU tier; without it (or without
            // statefulness) there is nothing to demote, so they stay at
            // their disabled default of 0.
            cache_cfg.ssd_capacity_tokens = cfg.ssd_capacity_tokens;
            cache_cfg.cold_capacity_tokens = cfg.cold_capacity_tokens;
        }
        let policy: Box<dyn EvictionPolicy> = match cfg.policy {
            PolicyKind::RetentionValue => Box::new(RetentionValuePolicy::new(
                ProfiledCostTable::profile(&cost, cache_cfg.chunk_tokens, 16384),
            )),
            PolicyKind::Lru => Box::new(LruPolicy),
            PolicyKind::WholeConversation => Box::new(CachedAttentionPolicy),
            PolicyKind::TrailingEnd => Box::new(TrailingEndPolicy),
        };
        let gpu = GpuTimer::new(cost)
            .with_compute_scale(cfg.compute_scale)
            .with_iteration_overhead(cfg.iteration_overhead);
        let link = PcieLink::new(hardware.pcie.clone(), DuplexMode::PrioritizeRetrieval);
        let kv_bytes_per_token_per_gpu = model.kv_bytes_per_token_per_gpu(hardware.num_gpus.max(1));
        let pcie_bandwidth = hardware.pcie.bandwidth;
        let mut engine = SimServingEngine {
            cfg,
            gpu,
            link,
            cache: TieredKvCache::builder(cache_cfg).policy(policy).build(),
            now: SimTime::ZERO,
            wait_queue: VecDeque::new(),
            running: Vec::new(),
            responses: Vec::new(),
            counters: EngineCounters::default(),
            kv_bytes_per_token_per_gpu,
            pcie_bandwidth,
            faults: None,
            ssd_dev: StorageDevice::new(StorageDeviceSpec::nvme()),
            cold_dev: StorageDevice::new(StorageDeviceSpec::nfs()),
            empty_ticks: 0,
            recorder: None,
            prefill_batch: BatchShape::new(Vec::new()),
            decode_batch: BatchShape::new(Vec::new()),
            finished: Vec::new(),
            #[cfg(test)]
            probe: quiet_run_tests::Probe::default(),
        };
        // Pin the deployment-wide system preamble as the cache's one
        // content-addressed chain: every conversation attaches to the same
        // physical chunks, and its memory cost is honest — the chain
        // occupies GPU slots for the engine's lifetime. Its whole chunks
        // only: a partial trailing chunk is recomputed per conversation.
        if engine.cfg.stateful && engine.cfg.shared_prefix_tokens > 0 {
            let preamble = pensieve_kvcache::synthetic_preamble(
                SHARED_PREAMBLE_SEED,
                engine.cfg.shared_prefix_tokens,
            );
            #[expect(
                clippy::expect_used,
                reason = "a shared prefix larger than the GPU cache is a configuration bug"
            )]
            engine
                .cache
                .pin_preamble(&preamble)
                .expect("shared prefix must fit in the GPU cache");
        }
        engine
    }

    /// Wires a recorder into every layer (cache, PCIe link, GPU timer);
    /// called once from [`EngineBuilder::build`].
    fn attach_recorder(&mut self, recorder: SharedRecorder) {
        let recorder = Some(recorder);
        self.cache.set_recorder(recorder.clone());
        self.link.set_recorder(recorder.clone());
        self.gpu.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Counters of injected faults, if an injector is attached.
    #[must_use]
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(FaultInjector::counters)
    }

    /// True when `conv`'s next admission should first attach the global
    /// preamble chain: the engine pins one, the conversation is new to
    /// the cache, and its history is at least the chain's length. No
    /// token is checked: like the drivers that size `history` to include
    /// the preamble, a simulated engine takes every conversation's
    /// leading history to be the preamble.
    fn should_attach_shared(&self, conv: SessionId, history: usize) -> bool {
        let preamble = self.cache.preamble_tokens();
        preamble > 0 && !self.cache.contains(conv) && history >= preamble
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Cache effectiveness statistics, by reference (the
    /// [`ServingBackend`] method of the same name returns a snapshot).
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Aggregate engine counters.
    #[must_use]
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Every counter and gauge this engine owns, under its canonical
    /// name, as of this call; the same whether or not it is traced. The
    /// distributions and the completed-request count are read from a
    /// trace: see
    /// [`TraceReport::write_metrics`](pensieve_obs::TraceReport::write_metrics).
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        use metrics::names;
        use FaultKind::{GpuAllocFailure, PcieTimeout, PcieTransferFailure, WorkerStall};
        let c = &self.counters;
        let fired = self.fault_counters().copied().unwrap_or_default();
        let stats = self.cache.stats();
        let mut m = MetricsRegistry::new();
        m.counter_set(names::ITERATIONS_TOTAL, c.iterations);
        m.counter_set(names::PREFILL_TOKENS_TOTAL, c.prefill_tokens);
        m.counter_set(names::DECODE_TOKENS_TOTAL, c.decode_tokens);
        m.counter_set(names::SUSPENSIONS_TOTAL, c.suspensions);
        m.counter_set(names::SHARED_PREFIX_HIT_TOKENS_TOTAL, c.shared_prefix_hits);
        // Each failed swap-in attempt is one fired PCIe fault.
        let retries = fired.get(PcieTransferFailure) + fired.get(PcieTimeout);
        m.counter_set(names::SWAP_IN_RETRIES_TOTAL, retries);
        m.counter_set(names::RECOMPUTE_FALLBACKS_TOTAL, c.recompute_fallbacks);
        let (alloc_faults, stalls) = (fired.get(GpuAllocFailure), fired.get(WorkerStall));
        m.counter_set(names::GPU_ALLOC_FAULTS_TOTAL, alloc_faults);
        m.counter_set(names::WORKER_STALLS_TOTAL, stalls);
        m.counter_set(names::CHUNK_FAULTS_TOTAL, c.chunk_faults);
        m.counter_set(names::COLD_READ_FAULTS_TOTAL, c.cold_read_faults);
        m.counter_set(names::SSD_HIT_TOKENS_TOTAL, stats.ssd_hit_tokens);
        m.counter_set(names::COLD_HIT_TOKENS_TOTAL, stats.cold_hit_tokens);
        m.counter_set(names::DEMOTED_TOKENS_TOTAL, stats.demoted_tokens);
        m.counter_set(names::REHYDRATED_TOKENS_TOTAL, stats.rehydrated_tokens);
        m.gauge_set(names::RUNNING_REQUESTS, self.running.len() as f64);
        m.gauge_set(names::WAITING_REQUESTS, self.wait_queue.len() as f64);
        m.gauge_set(names::GPU_SLOTS_USED, self.cache.gpu_slots_used() as f64);
        m.gauge_set(names::CPU_TOKENS_USED, self.cache.cpu_used() as f64);
        m.gauge_set(names::SSD_TOKENS_USED, self.cache.ssd_used() as f64);
        m.gauge_set(names::COLD_TOKENS_USED, self.cache.cold_used() as f64);
        m
    }

    /// KV bytes per cached token (per GPU shard). Also a
    /// [`ServingBackend`] method; this one needs no trait import to size
    /// a hardware spec off a throwaway engine.
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> usize {
        self.kv_bytes_per_token_per_gpu
    }

    /// Tokens resident (any non-dropped tier) summed *per sharer*: a
    /// shared chunk counts once for every conversation whose chain holds
    /// it. The baseline an unshared cache would need.
    #[must_use]
    pub fn logical_resident_tokens(&self) -> usize {
        self.cache.logical_resident_tokens()
    }

    /// Tokens physically resident: each shared chunk counted once,
    /// regardless of sharer count. `physical / logical` is the cache's
    /// cross-conversation dedup ratio.
    #[must_use]
    pub fn physical_resident_tokens(&self) -> usize {
        self.cache.physical_resident_tokens()
    }

    /// Runs until every submitted request has completed.
    pub fn run_until_idle(&mut self) {
        self.advance(Limit::Drained, false, SIM);
    }

    /// [`ServingBackend::submit`] for an engine whose ticks `x` carries
    /// out: the request's prompt ids join its conversation's raw tokens.
    pub(crate) fn submit_on<M: PagedModel>(&mut self, req: Request, x: &mut Executor<M>) {
        x.store
            .append(req.conv, req.prompt_ids.as_deref().unwrap_or_default());
        self.submit(req);
    }

    /// Runs until `until` (see [`ServingBackend::run_until`]), or
    /// until idle with none, with `x` carrying every tick out on real K/V
    /// bytes. No quiet run is taken: each tick is one real forward pass.
    pub(crate) fn run_on<M: PagedModel>(&mut self, x: &mut Executor<M>, until: Option<SimTime>) {
        self.advance(until.map_or(Limit::Drained, Limit::Until), false, Some(x));
    }

    /// Installs a fault injector after construction.
    pub(crate) fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// The clock loop behind [`ServingBackend::poll`],
    /// [`ServingBackend::run_until`] and
    /// [`SimServingEngine::run_until_idle`]: runs iterations while the
    /// batch has work, and while it is empty moves the clock to the
    /// queue front's arrival as far as `limit` allows. Stops at a ready
    /// response if `on_response` (returning true), once the clock
    /// reaches an [`Limit::Until`] deadline (an iteration in flight at
    /// the deadline finishes; the clock may overshoot), or when nothing
    /// is left inside the limit.
    fn advance<M: PagedModel>(&mut self, limit: Limit, on_response: bool, mut x: Exec<M>) -> bool {
        loop {
            if on_response && !self.responses.is_empty() {
                return true;
            }
            if matches!(limit, Limit::Until(t) if self.now >= t) {
                return false;
            }
            if self.running.is_empty() {
                let within = |a: SimTime| match limit {
                    Limit::Present => a <= self.now,
                    Limit::Until(t) => a <= t,
                    Limit::Drained => true,
                };
                match self.wait_queue.front().map(|r| r.req.arrival) {
                    // Seat the front, jumping to its arrival if that is
                    // still ahead.
                    Some(a) if within(a) => self.now = self.now.max(a),
                    _ => {
                        if let Limit::Until(t) = limit {
                            self.now = t;
                        }
                        return false;
                    }
                }
            }
            if x.is_some() || self.quiet_run(limit).is_none() {
                self.iteration(x.as_deref_mut());
            }
        }
    }

    /// Takes every step up to the first that is not *quiet* at once, and
    /// says why it stopped there; `None` when the next step is not quiet.
    ///
    /// A quiet step is a tick whose only work is one decode token per
    /// running request: no fault injector and no max-length reservation,
    /// every running request decoding, none reaching its output length,
    /// nothing admissible (the batch is full or the queue front arrives
    /// after the clock), the growth within strictly-free GPU slots (no
    /// append reclaims a lazy copy) and leaving effectively-free slots at
    /// or above the swap watermark (no ahead-of-time pass fires), and the
    /// clock short of `limit`'s deadline. Each step records the events
    /// and observations [`SimServingEngine::iteration`] would and moves
    /// the clock by the same arithmetic; only the per-row attention terms
    /// are re-costed per step, the batch-invariant ones once per run.
    ///
    /// The cache's slot growth is applied when the run ends, as one
    /// append per request stamped with the last step's clock. That leaves
    /// the cache as the per-step appends would: running conversations
    /// are pinned, so they sit in no eviction index; the commit log is a
    /// set; occupancy is a sum; `k` one-token appends split chunks
    /// exactly like one `k`-token append; and `last_active` takes the
    /// last append's clock.
    fn quiet_run(&mut self, limit: Limit) -> Option<RunEnd> {
        #[cfg(test)]
        if self.probe.stepwise {
            return None;
        }
        if self.faults.is_some()
            || self.cfg.reserve_max_decode
            || self.running.iter().any(|r| r.prefill.is_some())
        {
            return None;
        }
        // Step `j` (from 1) has grown the batch by `j * rows` slots. A
        // running request has generated fewer tokens than its length, and
        // a stateless engine runs no ahead-of-time pass.
        let rows = self.running.len();
        let quiet_left = |r: &RequestState| r.req.output_tokens.max(1) - r.generated - 1;
        let strict = self.cache.gpu_free_strict().checked_div(rows)?;
        let trigger = self.cache.config().swap_trigger_tokens() * usize::from(self.cfg.stateful);
        let watermark = self.cache.gpu_free_effective().saturating_sub(trigger) / rows;
        let (cap, mut end) = [
            (self.running.iter().map(quiet_left).min()?, RunEnd::Finish),
            (strict, RunEnd::StrictFree),
            (watermark, RunEnd::Watermark),
        ]
        .into_iter()
        .min_by_key(|&(steps, _)| steps)
        .filter(|&(steps, _)| steps > 0)?;
        let due = self.wait_queue.front().map(|r| r.req.arrival);
        let due = due.filter(|_| rows < self.cfg.max_batch_requests);
        let cost = self.gpu.cost();
        let (non_attention, lm_head) =
            (cost.non_attention_layer_time(rows), cost.lm_head_time(rows));
        let (mut steps, mut last) = (0, self.now);
        while steps < cap {
            if due.is_some_and(|a| a <= self.now) {
                end = RunEnd::Arrival;
                break;
            }
            if matches!(limit, Limit::Until(t) if self.now >= t) {
                end = RunEnd::Deadline;
                break;
            }
            steps += 1;
            last = self.now;
            let start = (self.now, rows, self.wait_queue.len());
            let cost = self.gpu.cost();
            let attention: SimDuration = self
                .running
                .iter()
                .map(|r| cost.attention_layer_time(SeqShape::decode(r.context_len + steps)))
                .sum();
            let compute = cost.step_time(non_attention, attention, lm_head);
            let compute = self.gpu.step_time(compute);
            let batch = (0, rows, 0);
            self.end_iteration(start, batch, SimDuration::ZERO, compute, SimDuration::ZERO);
        }
        if steps == 0 {
            return None;
        }
        // The growth fits in strictly-free slots, so no append fails or
        // reclaims a lazy copy.
        debug_assert!(rows * steps <= self.cache.gpu_free_strict());
        for r in &mut self.running {
            r.context_len += steps;
            r.generated += steps;
            let grown = self.cache.append_tokens(r.req.conv, steps, last);
            debug_assert!(grown.is_ok(), "quiet-run append failed: {grown:?}");
        }
        self.counters.decode_tokens += (rows * steps) as u64;
        self.check_agreement();
        #[cfg(test)]
        self.probe.run_ends.push(end);
        Some(end)
    }

    /// Debug builds: every decoding request's context has exactly its
    /// KV slots in the cache; with max-length reservation, also the
    /// slots reserved for the tokens it has yet to generate.
    fn check_agreement(&self) {
        let slots = |r: &RequestState| {
            let reserved = r.req.output_tokens + 1 - r.generated;
            r.context_len + usize::from(self.cfg.reserve_max_decode) * reserved
        };
        let mut decoding = self.running.iter().filter(|r| r.prefill.is_none());
        debug_assert_eq!(
            decoding
                .find(|r| self.cache.conversation_tokens(r.req.conv) != slots(r))
                .map(|r| r.req.conv),
            None,
            "engine and cache disagree on this conversation's context"
        );
    }

    /// The end every executed tick shares: counts the iteration, charges
    /// its time to the GPU, moves the clock past it, and records its
    /// [`TraceEvent::Iteration`]. `start` is the clock, running and
    /// waiting counts at the tick's start; `batch` its prefill rows,
    /// decode rows (one query token each) and prefill query tokens.
    fn end_iteration(
        &mut self,
        (at, running, waiting): (SimTime, usize, usize),
        (prefill_seqs, decode_seqs, prefill_tokens): (usize, usize, usize),
        queue_delay: SimDuration,
        compute: SimDuration,
        stall: SimDuration,
    ) {
        let iteration = self.counters.iterations;
        self.counters.iterations += 1;
        self.counters.busy_time += compute + queue_delay + stall;
        self.now += queue_delay + compute + stall;
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::Iteration {
                at,
                end: self.now,
                iteration,
                running,
                waiting,
                prefill_seqs,
                decode_seqs,
                prefill_tokens,
                queue_delay,
                compute,
                stall,
            });
        }
    }

    /// One scheduler clock tick: grow decodes, swap, admit, execute —
    /// on real K/V bytes too when `x` is given.
    fn iteration<M: PagedModel>(&mut self, mut x: Exec<M>) {
        // Under injected faults a tick can admit nothing and retry; such
        // a tick records no event, and its retry takes the same iteration
        // index (the counter only advances when a batch executes).
        let start = (self.now, self.running.len(), self.wait_queue.len());
        self.fault_tick(x.as_deref_mut());
        self.grow_decode_slots();
        self.ahead_of_time_swap();
        self.admit(x.as_deref_mut());
        if self.running.is_empty() {
            // Fault-free admission always seats something when work is
            // due; only an injected fault (allocation failure whose
            // backpressure pass freed nothing yet, or a failed restore
            // commit) can empty a tick. Back off briefly and retry —
            // but boundedly, so an infeasible request (a context larger
            // than the whole GPU KV budget) panics with a diagnosis
            // instead of spinning forever.
            debug_assert!(self.faults.is_some(), "iteration with empty batch");
            self.empty_ticks += 1;
            assert!(
                self.empty_ticks < 10_000,
                "admission livelock: the queue front cannot be seated \
                 (context larger than the GPU KV budget?)"
            );
            self.now += SimDuration::from_micros(RETRY_BACKOFF_BASE_US);
            return;
        }
        self.empty_ticks = 0;
        self.execute(x, start);
        self.complete();
        self.check_agreement();
    }

    /// Draws this tick's CPU-tier faults: loss or corruption of a chunk
    /// with a CPU copy. Lost [`pensieve_kvcache::Tier::Cpu`] chunks become
    /// dropped (recomputed on the owner's next restore); lost lazy copies
    /// revert to plain GPU residency — either way the cache accounting
    /// stays exact and the request-visible recovery path is the existing
    /// Figure-5 restore machinery.
    fn fault_tick<M: PagedModel>(&mut self, mut x: Exec<M>) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        for kind in [FaultKind::CpuChunkLoss, FaultKind::CpuChunkCorruption] {
            if !inj.roll(kind) {
                continue;
            }
            if let (FaultKind::CpuChunkCorruption, Some(x)) = (kind, x.as_deref_mut()) {
                // Real bytes: the checksum is the detector.
                x.corrupt_host_bytes(inj);
                continue;
            }
            let listing = self.cache.cpu_resident_chunks();
            if listing.is_empty() {
                continue;
            }
            let (conv, idx, tokens) = listing[inj.pick(listing.len())];
            let applied = match kind {
                FaultKind::CpuChunkLoss => self.cache.mark_chunk_lost(conv, idx),
                _ => self.cache.mark_chunk_corrupt(conv, idx),
            };
            // The listing was taken this tick, so the target is valid.
            debug_assert!(applied.is_ok());
            if applied.is_ok() {
                self.counters.chunk_faults += 1;
                // `ChunkDropped` traces loss of the *CPU-tier copy*: for
                // a lazily-copied chunk the GPU bytes survive and only
                // the backup is gone.
                self.recorder.record(TraceEvent::ChunkDropped {
                    at: self.now,
                    conv: conv.0,
                    chunk: idx,
                    tokens,
                    reason: match kind {
                        FaultKind::CpuChunkLoss => DropReason::HostLoss,
                        _ => DropReason::HostCorruption,
                    },
                });
            }
        }
    }

    /// Records a [`TraceEvent::FaultRecovery`] at the current clock.
    fn record_recovery(&self, conv: Option<SessionId>, kind: RecoveryKind, tokens: usize) {
        self.recorder.record(TraceEvent::FaultRecovery {
            at: self.now,
            conv: conv.map(|c| c.0),
            kind,
            tokens,
        });
    }

    /// Rolls for an injected failure of a `tokens`-slot GPU allocation on
    /// behalf of `conv`. A fired fault behaves exactly like an
    /// out-of-space allocation: the caller routes it into the eviction
    /// backpressure it already has for real pressure, whose retry
    /// succeeds once the transient condition has been absorbed.
    fn roll_alloc_fault(&mut self, conv: SessionId, tokens: usize) -> bool {
        let fired = self
            .faults
            .as_mut()
            .is_some_and(|f| f.roll(FaultKind::GpuAllocFailure));
        if fired {
            self.record_recovery(Some(conv), RecoveryKind::GpuAllocFault, tokens);
        }
        fired
    }

    /// Appends one KV slot per decoding request, suspending
    /// newest-arrival requests if the GPU cannot hold the growth (§4.3.5).
    /// Every request that decodes this tick ends it holding a slot for
    /// each token of its context.
    fn grow_decode_slots(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            let r = &mut self.running[i];
            if r.prefill.is_some() || self.cfg.reserve_max_decode {
                // Admitted this tick (prefill appends its own slots), or
                // ORCA-style reservation at admission already holds the
                // slot.
                r.context_len += usize::from(r.prefill.is_none());
                i += 1;
                continue;
            }
            let conv = r.req.conv;
            let mut grown = !self.roll_alloc_fault(conv, 1)
                && self.cache.append_tokens(conv, 1, self.now).is_ok();
            if !grown {
                // Reclaim lazily-copied slots via the eviction pass, then
                // retry.
                self.cache.swap_out_until(1, self.now);
                grown = self.cache.append_tokens(conv, 1, self.now).is_ok();
            }
            if grown {
                self.running[i].context_len += 1;
                i += 1;
            } else if self.suspend_for(i) < i {
                // The growing request, shifted down by its victim's
                // removal, retries with the freed space.
                i -= 1;
            }
            // Otherwise index `i` is looked at again: the batch shifted
            // under it, or this request retries with the freed space.
        }
    }

    /// Suspends one running request to make room for the decode growth
    /// of `running[growing]`: the configured policy's choice among the
    /// other decoding requests (paper default: newest arrival first), or
    /// the growing request itself when it is the only one. The victim
    /// goes back to the front of the wait queue; returns its index.
    fn suspend_for(&mut self, growing: usize) -> usize {
        let better = |cand: &RequestState, best: &RequestState| match self.cfg.suspend_policy {
            SuspendPolicy::NewestFirst => cand.req.arrival > best.req.arrival,
            SuspendPolicy::OldestFirst => cand.req.arrival < best.req.arrival,
            SuspendPolicy::LargestContext => cand.context_len > best.context_len,
        };
        let mut chosen: Option<usize> = None;
        for (j, r) in self.running.iter().enumerate() {
            if j == growing || r.prefill.is_some() {
                continue;
            }
            if chosen.is_none_or(|n| better(r, &self.running[n])) {
                chosen = Some(j);
            }
        }
        let victim = chosen.unwrap_or(growing);
        let mut r = self.running.remove(victim);
        // A victim not yet grown this tick holds no slot for its last
        // token: its resume computes it as context past what the cache
        // tracks.
        r.context_len += usize::from(victim >= growing);
        let moved_tokens = self.cache.suspend(r.req.conv, self.now);
        let bytes = moved_tokens * self.kv_bytes_per_token_per_gpu;
        // The freed slots are only usable once the copy-out completes; we
        // charge the wait by pushing the engine clock (§4.3.5: suspension
        // waits for the swap-out).
        let (_, end) = self.link.schedule(self.now, Direction::DeviceToHost, bytes);
        self.now = self.now.max(end);
        self.counters.suspensions += 1;
        self.wait_queue.push_front(r);
        victim
    }

    /// Watermark-triggered eviction; transfers are queued on the link but
    /// do not block compute (they run behind retrievals).
    fn ahead_of_time_swap(&mut self) {
        if !self.cfg.stateful {
            return;
        }
        let ops = self.cache.maybe_swap_out(self.now);
        // One DMA per chunk: small chunks pay the per-transfer setup
        // latency more often (the §4.3.1 rationale for 32-token chunks).
        for op in ops.iter().filter(|o| !o.dropped) {
            self.link.schedule(
                self.now,
                Direction::DeviceToHost,
                op.tokens * self.kv_bytes_per_token_per_gpu,
            );
        }
    }

    /// FCFS admission under the token budget and decode reserve. A real
    /// executor `x` first verifies the front's held host bytes.
    fn admit<M: PagedModel>(&mut self, mut x: Exec<M>) {
        let reserve = self.cache.config().decode_reserve_tokens();
        loop {
            if self.running.len() >= self.cfg.max_batch_requests {
                return;
            }
            let Some(front) = self.wait_queue.front() else {
                return;
            };
            if front.req.arrival > self.now {
                return;
            }
            let conv = front.req.conv;
            if let Some(x) = x.as_deref_mut() {
                x.verify(conv, &mut self.cache, self.now);
            }
            let mut cost = self.admission_cost(&self.wait_queue[0]);
            let batch_tokens = self.current_iteration_query_tokens();
            let has_prefill = self.running.iter().any(|r| r.prefill.is_some());
            // Budget: allow one oversized prefill per iteration when no
            // other prefill was admitted.
            if batch_tokens + cost.query_tokens > MAX_BATCH_TOKENS
                && (has_prefill || batch_tokens > self.running.len())
            {
                return;
            }
            // Space: keep the decode reserve when a batch is running. An
            // injected allocation fault is absorbed the same way as real
            // pressure: force the eviction backpressure pass, then
            // re-check.
            let reserve_needed = if self.running.is_empty() { 0 } else { reserve };
            if self.roll_alloc_fault(conv, cost.new_slots)
                || self.cache.gpu_free_effective_for(conv) < cost.new_slots + reserve_needed
            {
                self.cache.swap_out_until_for(
                    cost.new_slots + reserve_needed,
                    Some(conv),
                    self.now,
                );
                // Eviction may have demoted this conversation's own
                // chunks; recompute the admission cost before committing.
                let Some(front) = self.wait_queue.front() else {
                    return;
                };
                cost = self.admission_cost(front);
                if self.cache.gpu_free_effective_for(conv) < cost.new_slots + reserve_needed {
                    return;
                }
            }
            // Fault-aware swap-in: place the restore's DMA on the link
            // *before* committing cache state, so a persistently failing
            // transfer can fall back to recomputation without leaving the
            // cache half-restored.
            let mut reserved_delay = None;
            let swap_in_tokens = cost.plan.swap_in_tokens;
            if self.faults.is_some() && swap_in_tokens > 0 {
                match self.swap_in_with_retries(swap_in_tokens) {
                    Ok(delay) => reserved_delay = Some(delay),
                    Err(()) => {
                        // Retries exhausted: drop the CPU chunks so the
                        // restore plan recomputes them from raw tokens,
                        // and re-run the admission check with the new
                        // (swap-in-free) plan. Dropped chunks cannot fail
                        // again, so this converges.
                        let dropped = self.cache.drop_cpu_chunks(conv, self.now);
                        self.counters.recompute_fallbacks += 1;
                        self.record_recovery(Some(conv), RecoveryKind::RecomputeFallback, dropped);
                        continue;
                    }
                }
            }
            // Deep-tier reads: SSD/cold-resident history must come back
            // through its device before the prefill can use it. Like
            // swap-ins the reads overlap with compute, so only their
            // completion time past `now` is charged as queueing delay. A
            // failed read drops the deep chunks and re-plans the
            // admission as recomputation.
            let plan = &cost.plan;
            if plan.ssd_read_tokens + plan.cold_read_tokens > 0 {
                match self.deep_reads_with_fallback(
                    conv,
                    plan.ssd_read_tokens,
                    plan.cold_read_tokens,
                ) {
                    Ok(delay) => {
                        reserved_delay =
                            Some(reserved_delay.unwrap_or(SimDuration::ZERO).max(delay));
                    }
                    Err(()) => continue,
                }
            }
            let Some(front) = self.wait_queue.pop_front() else {
                return;
            };
            if self
                .commit_admission(front, cost.query_tokens, reserved_delay)
                .is_err()
            {
                // The request was re-queued at the front; stop admitting
                // this tick and retry after the next eviction pass.
                return;
            }
        }
    }

    /// Schedules this restore's SSD and cold reads on their devices.
    /// Both reads are issued together and proceed independently; the
    /// returned delay is how far past `now` the later one completes,
    /// which `execute` folds into the iteration's stall exactly like a
    /// swap-in queueing delay.
    ///
    /// # Errors
    ///
    /// `Err(())` when an injected read fault fires: the engine clock is
    /// advanced past the failure-detection point, the session's deep
    /// chunks are dropped, and the caller re-plans the admission as
    /// recomputation (dropped chunks cannot fail again, so this
    /// converges).
    fn deep_reads_with_fallback(
        &mut self,
        conv: SessionId,
        ssd_tokens: usize,
        cold_tokens: usize,
    ) -> Result<SimDuration, ()> {
        let ssd_bytes = ssd_tokens * self.kv_bytes_per_token_per_gpu;
        let cold_bytes = cold_tokens * self.kv_bytes_per_token_per_gpu;
        let ssd_res = self
            .ssd_dev
            .try_read(self.now, ssd_bytes, self.faults.as_mut());
        let cold_res = self
            .cold_dev
            .try_read(self.now, cold_bytes, self.faults.as_mut());
        match (ssd_res, cold_res) {
            (Ok((_, ssd_end)), Ok((_, cold_end))) => {
                Ok(ssd_end.max(cold_end).duration_since(self.now))
            }
            (ssd_res, cold_res) => {
                // A failed read still held its device until the failure
                // was detected; charge that time before recomputing.
                let detected = [
                    ssd_res.map_or_else(|e| e.completes, |(_, end)| end),
                    cold_res.map_or_else(|e| e.completes, |(_, end)| end),
                ]
                .into_iter()
                .fold(self.now, SimTime::max);
                self.now = detected;
                let dropped = self.cache.drop_deep_chunks(conv, self.now);
                self.counters.cold_read_faults += 1;
                self.record_recovery(Some(conv), RecoveryKind::ColdReadFallback, dropped);
                Err(())
            }
        }
    }

    /// Schedules a swap-in DMA under fault injection, retrying failed or
    /// timed-out transfers with bounded exponential backoff. Every failed
    /// attempt consumes real link time and pushes the engine clock past
    /// the failure-detection point plus the backoff. Returns the
    /// queueing delay of the successful transfer relative to the (possibly
    /// advanced) current clock, which `execute` folds into this
    /// iteration's stall.
    ///
    /// # Errors
    ///
    /// `Err(())` when `MAX_SWAP_IN_RETRIES` retries are exhausted;
    /// the caller falls back to dropped-token recomputation.
    fn swap_in_with_retries(&mut self, swap_in_tokens: usize) -> Result<SimDuration, ()> {
        let bytes = swap_in_tokens * self.kv_bytes_per_token_per_gpu;
        let mut backoff = SimDuration::from_micros(RETRY_BACKOFF_BASE_US);
        for _attempt in 0..=MAX_SWAP_IN_RETRIES {
            match self.link.try_schedule(
                self.now,
                Direction::HostToDevice,
                bytes,
                self.faults.as_mut(),
            ) {
                Ok((start, _end)) => return Ok(start.duration_since(self.now)),
                Err(e) => {
                    // The aborted DMA held the link until its failure was
                    // detected; the retry is issued after backoff.
                    self.now = self.now.max(e.completes()) + backoff;
                    backoff = backoff * RETRY_BACKOFF_FACTOR;
                    self.record_recovery(None, RecoveryKind::SwapInRetry, swap_in_tokens);
                }
            }
        }
        Err(())
    }

    /// Query tokens already claimed by this iteration's batch.
    fn current_iteration_query_tokens(&self) -> usize {
        let chunk_cap = self.cfg.chunked_prefill.unwrap_or(usize::MAX);
        self.running
            .iter()
            .map(|r| {
                r.prefill
                    .map_or(1, |p| (p.query_tokens - p.done_tokens).min(chunk_cap))
            })
            .sum()
    }

    /// Computes what admitting `r` costs: query tokens and new GPU
    /// slots, together with the restore plan they were derived from.
    fn admission_cost(&self, r: &RequestState) -> AdmissionCost {
        let conv = r.req.conv;
        let plan = self.cache.plan_restore(conv);
        let fresh = r.generated == 0;
        // A conversation's tracked tokens include its shared chain; a
        // first admission that will attach the global preamble chain
        // (see `commit_admission`) gets the same credit up front. The
        // chain is globally GPU-resident, so it adds neither query
        // tokens nor new slots. A stateless engine credits a new turn
        // with nothing.
        let mut tracked = self.cache.conversation_tokens(conv);
        if fresh && !self.cfg.stateful {
            tracked = 0;
        } else if fresh && self.should_attach_shared(conv, r.req.history_tokens) {
            tracked += self.cache.preamble_tokens();
        }
        // Context beyond what the cache tracks (e.g. the final token of
        // the previous turn) is recomputed, with the prompt if this is
        // the turn's first admission.
        let tail = r.context_len.saturating_sub(tracked);
        let mut query_tokens = plan.recompute_tokens + tail;
        let mut new_slots = plan.new_gpu_slots() + tail;
        if fresh {
            query_tokens += r.req.prompt_tokens;
            new_slots += r.req.prompt_tokens + self.reserved_decode(&r.req);
        } else {
            // Fully resident, a resumed request still feeds one token to
            // produce its next.
            query_tokens = query_tokens.max(1);
        }
        AdmissionCost {
            query_tokens,
            new_slots,
            plan,
        }
    }

    /// Slots held for `req`'s whole decode from its first admission on
    /// (ORCA-style reservation); 0 when slots grow with each token.
    fn reserved_decode(&self, req: &Request) -> usize {
        if self.cfg.reserve_max_decode {
            req.output_tokens
        } else {
            0
        }
    }

    /// Commits an admission's restore plan and moves the request into
    /// the running batch.
    ///
    /// # Errors
    ///
    /// If the restore cannot be committed, or the slots for what it does
    /// not cover cannot be appended (the space the admission check saw
    /// has vanished — possible only under injected faults that demote
    /// chunks between check and commit), the request is pushed back to
    /// the queue front untouched and the error returned. `commit_restore`
    /// itself is atomic, and a restore committed before a failed append
    /// stays consistent: the re-queued request sees those chunks as GPU
    /// hits on the next attempt.
    fn commit_admission(
        &mut self,
        mut r: RequestState,
        query_tokens: usize,
        reserved_delay: Option<SimDuration>,
    ) -> Result<(), pensieve_kvcache::CacheError> {
        let conv = r.req.conv;
        let fresh = r.generated == 0;
        // A conversation new to the cache whose history begins with the
        // global preamble attaches the shared chain before its restore is
        // committed, so the chain's chunks restore as shared hits instead
        // of being recomputed into private slots.
        if fresh && self.should_attach_shared(conv, r.req.history_tokens) {
            // Cannot fail: the conversation is untracked; if it somehow
            // does, the request simply recomputes its preamble privately.
            let _ = self.cache.attach_preamble(conv, self.now);
        }
        let plan = match self.cache.commit_restore(conv, self.now) {
            Ok(plan) => plan,
            Err(e) => {
                self.wait_queue.push_front(r);
                return Err(e);
            }
        };
        if fresh {
            self.counters.shared_prefix_hits += plan.shared_hit_tokens as u64;
        }
        // Everything tracked, shared chain included, is inside the plan,
        // so what is left of the context gets fresh slots — together with
        // the prompt and any decode reservation on a first admission. A
        // resume whose whole context came back appends nothing.
        let tail = r
            .context_len
            .saturating_sub(self.cache.conversation_tokens(conv));
        let (prompt_tokens, reserved) = if fresh {
            (r.req.prompt_tokens, self.reserved_decode(&r.req))
        } else {
            (0, 0)
        };
        if fresh || tail > 0 {
            let grow = tail + prompt_tokens + reserved;
            if let Err(e) = self.cache.append_tokens(conv, grow, self.now) {
                self.wait_queue.push_front(r);
                return Err(e);
            }
        }
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::Admitted {
                at: self.now,
                iteration: self.counters.iterations,
                request: r.req.id.0,
                conv: conv.0,
                resumed: !fresh,
                prompt_tokens,
                tail_tokens: tail,
                shared_tokens: plan.shared_hit_tokens,
                gpu_hit_tokens: plan.gpu_hit_tokens,
                revalidate_tokens: plan.revalidate_tokens,
                swap_in_tokens: plan.swap_in_tokens,
                recompute_tokens: plan.recompute_tokens,
            });
        }
        if fresh {
            // What the response reports is fixed by the first admission;
            // a resume keeps it, along with its first-token time.
            r.context_len += prompt_tokens;
            r.prefill_tokens = query_tokens;
            r.cached_tokens = plan.gpu_hit_tokens
                + plan.revalidate_tokens
                + plan.swap_in_tokens
                + plan.deep_read_tokens();
        }
        r.prefill = Some(PrefillWork {
            query_tokens,
            swap_in_bytes: plan.swap_in_tokens * self.kv_bytes_per_token_per_gpu,
            done_tokens: 0,
            reserved_delay,
        });
        self.running.push(r);
        Ok(())
    }

    /// Executes the iteration's model invocation(s) — on `x` too, when
    /// given — and advances the clock past the tick that began at `start`
    /// (see [`SimServingEngine::end_iteration`]).
    fn execute<M: PagedModel>(&mut self, x: Exec<M>, start: (SimTime, usize, usize)) {
        let chunk_cap = self.cfg.chunked_prefill.unwrap_or(usize::MAX);
        let prefill_shapes = &mut self.prefill_batch.seqs;
        let decode_shapes = &mut self.decode_batch.seqs;
        prefill_shapes.clear();
        decode_shapes.clear();
        // Bytes still needing a link slot vs all bytes overlapping with
        // compute: fault-aware admission already scheduled its DMA (the
        // reserved delay), but those transfers still pipeline with the
        // layer-by-layer execution (§4.3.3).
        let mut swap_in_bytes = 0usize;
        let mut overlap_bytes = 0usize;
        let mut reserved_delay = SimDuration::ZERO;
        for r in &mut self.running {
            match r.prefill.as_mut() {
                Some(w) => {
                    // Chunked prefill: feed at most `chunk_cap` query
                    // tokens per iteration; the chunk attends to the
                    // context up to its own end.
                    let remaining = w.query_tokens - w.done_tokens;
                    let slice = remaining.min(chunk_cap);
                    let ctx_end = r.context_len - (remaining - slice);
                    prefill_shapes.push(SeqShape {
                        query_len: slice,
                        context_len: ctx_end,
                    });
                    if w.done_tokens == 0 {
                        overlap_bytes += w.swap_in_bytes;
                        match w.reserved_delay.take() {
                            Some(d) => reserved_delay = reserved_delay.max(d),
                            None => swap_in_bytes += w.swap_in_bytes,
                        }
                    }
                    w.done_tokens += slice;
                }
                None => decode_shapes.push(SeqShape::decode(r.context_len)),
            }
        }
        if let Some(x) = x {
            // A slice that leaves prefill work takes `chunk_cap` tokens;
            // every other row runs to its last token and emits the next.
            let mid = |w: &PrefillWork| w.done_tokens < w.query_tokens;
            let row = |r: &RequestState| (r.req.conv, r.prefill.filter(mid).map(|_| chunk_cap));
            let rows: Vec<_> = self.running.iter().map(row).collect();
            x.execute(&self.cache, &rows);
        }
        let prefill_seqs = prefill_shapes.len();
        let decode_seqs = decode_shapes.len();
        let batch = (
            prefill_seqs,
            decode_seqs,
            self.prefill_batch.total_query_tokens(),
        );
        // Swap-ins contend on the link; queueing delay precedes compute.
        let queue_delay = if swap_in_bytes > 0 {
            let (start, _) = self
                .link
                .schedule(self.now, Direction::HostToDevice, swap_in_bytes);
            start.duration_since(self.now)
        } else {
            SimDuration::ZERO
        };
        let queue_delay = queue_delay.max(reserved_delay);
        let duration = if self.cfg.unified_batching {
            // One batch: the prefill rows, then the decode rows.
            let all = &mut self.prefill_batch;
            all.seqs.extend_from_slice(&self.decode_batch.seqs);
            self.gpu
                .batch_time_with_swap_in_at(all, overlap_bytes, self.pcie_bandwidth, self.now)
        } else {
            let mut d = SimDuration::ZERO;
            if prefill_seqs > 0 {
                d += self.gpu.batch_time_with_swap_in_at(
                    &self.prefill_batch,
                    overlap_bytes,
                    self.pcie_bandwidth,
                    self.now,
                );
            }
            if decode_seqs > 0 {
                d += self.gpu.batch_time(&self.decode_batch);
            }
            d
        };
        // An injected worker stall completes the iteration late; the
        // scheduler sees it purely as a longer step.
        let mut stall = SimDuration::ZERO;
        if let Some(f) = self.faults.as_mut() {
            if f.roll(FaultKind::WorkerStall) {
                stall = SimDuration::from_secs(WORKER_STALL_SECS);
                self.record_recovery(None, RecoveryKind::WorkerStall, 0);
            }
        }
        self.end_iteration(start, batch, queue_delay, duration, stall);
    }

    /// Emits tokens, records completions, releases finished requests.
    fn complete(&mut self) {
        let now = self.now;
        let mut finished = std::mem::take(&mut self.finished);
        for r in &mut self.running {
            match r.prefill {
                Some(w) if w.done_tokens < w.query_tokens => {
                    // Mid-chunked-prefill: no token emitted yet.
                    continue;
                }
                Some(w) => {
                    self.counters.prefill_tokens += w.query_tokens as u64;
                    r.prefill = None;
                }
                None => {
                    self.counters.decode_tokens += 1;
                }
            }
            r.generated += 1;
            if r.first_token.is_none() {
                r.first_token = Some(now);
            }
        }
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].generated >= self.running[i].req.output_tokens.max(1) {
                finished.push(self.running.remove(i));
            } else {
                i += 1;
            }
        }
        for r in finished.drain(..) {
            let conv = r.req.conv;
            if self.cfg.stateful {
                self.cache.unpin(conv);
                self.cache.touch(conv, now);
            } else {
                self.cache.remove_conversation(conv);
            }
            let first_token = r.first_token.unwrap_or(now);
            if let Some(rec) = &self.recorder {
                rec.record(TraceEvent::RequestCompleted {
                    at: now,
                    request: r.req.id.0,
                    conv: conv.0,
                    arrival: r.req.arrival,
                    first_token,
                    output_tokens: r.generated,
                    prefill_tokens: r.prefill_tokens,
                    cached_tokens: r.cached_tokens,
                });
            }
            self.responses.push(Response {
                id: r.req.id,
                conv,
                arrival: r.req.arrival,
                first_token,
                finish: now,
                output_tokens: r.generated,
                prefill_tokens: r.prefill_tokens,
                cached_history_tokens: r.cached_tokens,
            });
        }
        self.finished = finished;
    }
}

impl ServingBackend for SimServingEngine {
    /// Enqueues a request. Admission is FCFS in *submission* order;
    /// drivers submit in arrival order, and a request whose arrival lies
    /// in the engine's past (the clock overshot while it was in flight)
    /// is simply admissible immediately.
    fn submit(&mut self, req: Request) {
        self.wait_queue.push_back(RequestState {
            generated: 0,
            context_len: req.history_tokens,
            prefill: None,
            first_token: None,
            prefill_tokens: 0,
            cached_tokens: 0,
            req,
        });
    }

    /// Runs until the clock reaches `deadline` (if given), at least one
    /// response is ready to drain, or no more work is due — whichever
    /// comes first. Returns true if a response is ready.
    ///
    /// Closed-loop drivers use this instead of
    /// [`run_until`](ServingBackend::run_until) so that follow-up turns
    /// that causally depend on a response can be injected before the
    /// engine simulates past their arrival.
    ///
    /// With `deadline: None` the engine never advances its clock past
    /// the present: it returns `false` immediately when idle, and also
    /// when its only pending work is a future-dated arrival. A fair
    /// polling loop (the cluster router's) relies on this —
    /// busy-advancing one replica's clock to its next arrival would let
    /// it leap past its siblings.
    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        self.advance(deadline.map_or(Limit::Present, Limit::Until), true, SIM)
    }

    fn responses_ready(&self) -> bool {
        !self.responses.is_empty()
    }

    fn drain_responses(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.responses)
    }

    fn now(&self) -> SimTime {
        self.now
    }

    /// Runs iterations until the clock reaches `t` (an iteration in flight
    /// at `t` finishes; the clock may overshoot) or all work completes;
    /// an engine with nothing due before `t` lands exactly on `t`.
    fn run_until(&mut self, t: SimTime) {
        self.advance(Limit::Until(t), false, SIM);
    }

    fn is_idle(&self) -> bool {
        self.running.is_empty() && self.wait_queue.is_empty()
    }

    fn running_requests(&self) -> usize {
        self.running.len()
    }

    fn waiting_requests(&self) -> usize {
        self.wait_queue.len()
    }

    /// GPU KV slots currently in use (resident + lazily-copied tokens).
    fn gpu_slots_used(&self) -> usize {
        self.cache.gpu_slots_used()
    }

    fn gpu_capacity_tokens(&self) -> usize {
        self.cache.config().gpu_capacity_tokens
    }

    fn cpu_tokens_used(&self) -> usize {
        self.cache.cpu_used()
    }

    /// KV bytes per cached token (per GPU shard) — what a migration must
    /// move per token of context.
    fn kv_bytes_per_token(&self) -> usize {
        self.kv_bytes_per_token_per_gpu
    }

    /// History tokens of `session` this engine could serve from its KV
    /// cache right now (GPU hits, in-place revalidations and CPU
    /// swap-ins; dropped chunks need recomputation and do not count).
    /// The globally shared system preamble is excluded — every replica
    /// of a cluster holds it, so it never differentiates placement.
    fn cached_tokens(&self, session: SessionId) -> usize {
        let plan = self.cache.plan_restore(session);
        (plan.gpu_hit_tokens + plan.revalidate_tokens + plan.swap_in_tokens)
            .saturating_sub(self.cache.global_shared_tokens(session))
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats().clone()
    }

    /// Removes `session`'s KV state for handoff to another engine.
    /// Returns `None` when the session is unknown here or still has
    /// in-flight work (queued or running requests) — migrating state out
    /// from under an active request would corrupt it.
    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        let mut in_flight = self.running.iter().chain(&self.wait_queue);
        if in_flight.any(|r| r.req.conv == session) {
            return None;
        }
        self.cache.export_session(session)
    }

    /// Installs a handed-off session snapshot into this engine's CPU
    /// cache tier (see [`pensieve_kvcache::TieredKvCache::import_session`]).
    /// Returns the tokens admitted; a session already present here (the
    /// cache refuses the import) or a zero-sized CPU tier yields 0 and
    /// the conversation recomputes instead.
    fn import_session(&mut self, export: SessionExport) -> usize {
        self.cache.import_session(export, self.now).unwrap_or(0)
    }

    /// Fail-stop: the replica dies, its in-memory KV state is
    /// unrecoverable, and every queued or running request is orphaned.
    /// Returns the orphaned requests (queued first, then running, both
    /// in order) so a router can re-route them; partially generated
    /// output is discarded and regenerated from scratch at the new
    /// replica. Session manifests already persisted to the cold object
    /// store survive the replica — the router may use them to rehydrate
    /// orphaned sessions instead of recomputing (see
    /// [`rehydrate_session`](ServingBackend::rehydrate_session)).
    /// Already-completed responses remain drainable.
    fn fail_stop(&mut self) -> Vec<Request> {
        let queued = std::mem::take(&mut self.wait_queue).into_iter();
        let orphans = queued.chain(std::mem::take(&mut self.running));
        orphans.map(|r| r.req).collect()
    }

    /// Drains the KV commit log: sessions whose cache-resident *private*
    /// context grew since the last drain, with their new committed token
    /// totals, in `SessionId` order. Shared chunks never appear — they
    /// travel by content-addressed id, not bytes.
    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        self.cache.take_commits()
    }

    /// Sessions whose cache state is eligible for manifest persistence
    /// (all tracked conversations), in ascending id order.
    fn manifest_sessions(&self) -> Vec<SessionId> {
        self.cache.sessions()
    }

    /// Builds a cold-tier manifest of `session`'s chunk layout — the
    /// shared chain's content-addressed ids followed by private chunks
    /// (see [`pensieve_kvcache::SessionManifest`]) — or `None` when this
    /// engine does not track the session. Read-only — persisting the
    /// manifest to the cold object store is the router's job.
    fn session_manifest(&self, session: SessionId) -> Option<SessionManifest> {
        self.cache.contains(session).then(|| SessionManifest {
            session,
            chunks: self.cache.manifest_chunks(session),
        })
    }

    /// Rebuilds a session from a persisted manifest after this replica
    /// took over for a failed one: shared chain ids this replica still
    /// pools (the global preamble) re-attach for free, and the rest is
    /// re-admitted at the cold tier (up to capacity; the remainder
    /// recomputes) and served as cold reads on the session's next
    /// restore. Returns the tokens recovered without recomputation; a
    /// session already tracked here yields 0 unchanged.
    fn rehydrate_session(&mut self, manifest: &SessionManifest) -> usize {
        self.cache
            .rehydrate_session(manifest.session, &manifest.chunks, self.now)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use pensieve_kvcache::SessionId;

    fn small_hw() -> HardwareSpec {
        HardwareSpec::azure_nc_a100(1)
    }

    /// Parallel replica stepping hands whole engines to pool workers;
    /// this pins the `Send` bound the router's `for_each_mut` relies on.
    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimServingEngine>();
    }

    fn req(id: u64, conv: u64, at: f64, prompt: usize, out: usize, hist: usize) -> Request {
        Request::builder()
            .id(RequestId(id))
            .session(SessionId(conv))
            .arrival(SimTime::from_secs(at))
            .prompt_tokens(prompt)
            .output_tokens(out)
            .history_tokens(hist)
            .build()
            .unwrap()
    }

    fn engine(cfg: EngineConfig) -> SimServingEngine {
        SimServingEngine::builder(cfg, ModelConfig::opt_13b(), small_hw()).build()
    }

    #[test]
    fn single_request_completes() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 0.0, 100, 20, 0));
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        assert_eq!(r.output_tokens, 20);
        assert_eq!(r.prefill_tokens, 100);
        assert!(r.finish > r.first_token);
        assert!(r.first_token > r.arrival);
        // 100-token prefill + 19 decode steps of a 13B model: tens of ms
        // to a few seconds.
        assert!(r.latency().as_secs() > 0.05 && r.latency().as_secs() < 10.0);
    }

    #[test]
    fn stateful_second_turn_prefills_only_the_prompt() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 0.0, 100, 50, 0));
        e.run_until_idle();
        let t1 = e.drain_responses().remove(0);
        // Next turn: history = 100 + 50.
        let mut r2 = req(2, 1, t1.finish.as_secs() + 5.0, 40, 50, 150);
        r2.arrival = t1.finish + SimDuration::from_secs(5.0);
        e.submit(r2);
        e.run_until_idle();
        let t2 = e.drain_responses().remove(0);
        // Cached: 149 tokens (all but the last generated token).
        assert_eq!(t2.cached_history_tokens, 149);
        assert_eq!(t2.prefill_tokens, 41, "tail token + new prompt");
    }

    #[test]
    fn stateless_second_turn_recomputes_everything() {
        let mut e = engine(EngineConfig::vllm());
        e.submit(req(1, 1, 0.0, 100, 50, 0));
        e.run_until_idle();
        let t1 = e.drain_responses().remove(0);
        let mut r2 = req(2, 1, 0.0, 40, 50, 150);
        r2.arrival = t1.finish + SimDuration::from_secs(5.0);
        e.submit(r2);
        e.run_until_idle();
        let t2 = e.drain_responses().remove(0);
        assert_eq!(t2.cached_history_tokens, 0);
        assert_eq!(t2.prefill_tokens, 190, "history + prompt recomputed");
    }

    #[test]
    fn stateful_turn_is_faster_than_stateless() {
        let run = |cfg: EngineConfig| {
            let mut e = engine(cfg);
            e.submit(req(1, 1, 0.0, 50, 100, 0));
            e.run_until_idle();
            let t1 = e.drain_responses().remove(0);
            // Long history follow-up.
            let mut r2 = req(2, 1, 0.0, 50, 100, 4000);
            r2.arrival = t1.finish + SimDuration::from_secs(1.0);
            // Fake a long first turn by setting history directly: use a
            // separate long turn first.
            let mut e = engine_for(r2.clone());
            e.run_until_idle();
            let resp = e.drain_responses();
            resp.last().unwrap().latency()
        };
        fn engine_for(second: Request) -> SimServingEngine {
            // Build history with one long turn, then submit the follow-up.
            let mut e = SimServingEngine::builder(
                EngineConfig::pensieve(),
                ModelConfig::opt_13b(),
                HardwareSpec::azure_nc_a100(1),
            )
            .build();
            e.submit(
                Request::builder()
                    .id(RequestId(1))
                    .session(second.conv)
                    .prompt_tokens(3900)
                    .output_tokens(100)
                    .build()
                    .unwrap(),
            );
            e.run_until_idle();
            let t1 = e.drain_responses().remove(0);
            let mut s = second;
            s.arrival = t1.finish + SimDuration::from_secs(1.0);
            e.submit(s);
            e
        }
        let _ = run; // The helper above is the actual comparison driver.
                     // Direct comparison: same two-turn trace on both engines.
        let metrics_of = |cfg: EngineConfig| {
            let mut e = SimServingEngine::builder(cfg, ModelConfig::opt_13b(), small_hw()).build();
            e.submit(req(1, 1, 0.0, 3900, 100, 0));
            e.run_until_idle();
            let t1 = e.drain_responses().remove(0);
            let mut r2 = req(2, 1, 0.0, 50, 100, 4000);
            r2.arrival = t1.finish + SimDuration::from_secs(1.0);
            e.submit(r2);
            e.run_until_idle();
            let r = e.drain_responses().remove(0);
            (r.ttft(), r.latency())
        };
        let (stateful_ttft, stateful_lat) = metrics_of(EngineConfig::pensieve());
        let (stateless_ttft, stateless_lat) = metrics_of(EngineConfig::vllm());
        // Skipping the 4000-token history prefill slashes time-to-first-
        // token and improves end-to-end latency (decode time dominates the
        // rest).
        assert!(
            stateful_ttft.as_secs() < 0.3 * stateless_ttft.as_secs(),
            "stateful ttft {stateful_ttft} vs stateless {stateless_ttft}"
        );
        assert!(stateful_lat < stateless_lat);
    }

    #[test]
    fn unified_batches_mix_prefill_and_decode() {
        let mut e = engine(EngineConfig::pensieve());
        // First request decodes for a long time; second arrives mid-way.
        e.submit(req(1, 1, 0.0, 200, 300, 0));
        e.submit(req(2, 2, 0.5, 200, 10, 0));
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 2);
        // Request 2 must finish long before request 1 (iteration-level
        // batching admitted it mid-decode).
        let r1 = rs.iter().find(|r| r.id == RequestId(1)).unwrap();
        let r2 = rs.iter().find(|r| r.id == RequestId(2)).unwrap();
        assert!(r2.finish < r1.finish);
    }

    #[test]
    fn tensorrt_is_faster_than_vllm() {
        let latency_of = |cfg: EngineConfig| {
            let mut e = SimServingEngine::builder(cfg, ModelConfig::opt_13b(), small_hw()).build();
            e.submit(req(1, 1, 0.0, 500, 100, 0));
            e.run_until_idle();
            e.drain_responses().remove(0).latency()
        };
        let v = latency_of(EngineConfig::vllm());
        let t = latency_of(EngineConfig::tensorrt_llm());
        assert!(t < v, "TRT {t} vs vLLM {v}");
    }

    #[test]
    fn fcfs_admission_order() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 0.0, 50, 5, 0));
        e.submit(req(2, 2, 0.0, 50, 5, 0));
        e.submit(req(3, 3, 0.0, 50, 5, 0));
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 3);
        // All three fit one batch: same finish ordering as submission.
        assert!(rs[0].id <= rs[1].id && rs[1].id <= rs[2].id);
    }

    #[test]
    fn run_until_respects_time_and_arrivals() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 5.0, 50, 5, 0));
        e.run_until(SimTime::from_secs(2.0));
        assert_eq!(e.now(), SimTime::from_secs(2.0));
        assert!(e.drain_responses().is_empty());
        e.run_until(SimTime::from_secs(100.0));
        assert_eq!(e.drain_responses().len(), 1);
    }

    /// §4.3.5: when decode growth outruns the GPU cache, the newest
    /// request is suspended, swapped out, and later resumed — and every
    /// request still completes with the right token count.
    #[test]
    fn decode_overflow_suspends_and_resumes() {
        let mut hw = small_hw();
        // Shrink the KV budget to ~1100 OPT-13B tokens so two long decodes
        // cannot coexist.
        hw.gpu_kv_budget_bytes = 1100 * ModelConfig::opt_13b().kv_bytes_per_token();
        hw.cpu_cache_bytes_per_gpu = 1 << 30;
        let mut e =
            SimServingEngine::builder(EngineConfig::pensieve(), ModelConfig::opt_13b(), hw).build();
        e.submit(req(1, 1, 0.0, 100, 500, 0));
        e.submit(req(2, 2, 0.1, 100, 500, 0));
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 2);
        for r in &rs {
            assert_eq!(r.output_tokens, 500, "request {:?}", r.id);
        }
        assert!(
            e.counters().suspensions > 0,
            "expected at least one suspension under this budget"
        );
        // The earlier-arrived request finishes first (newest suspended).
        let r1 = rs.iter().find(|r| r.id == RequestId(1)).unwrap();
        let r2 = rs.iter().find(|r| r.id == RequestId(2)).unwrap();
        assert!(r1.finish <= r2.finish);
    }

    /// §7 footnote 3: a globally shared system prompt is prefilled once
    /// and then served as cached history to every conversation.
    #[test]
    fn shared_prefix_serves_all_conversations() {
        let shared = 512usize;
        let mut cfg = EngineConfig::pensieve_shared_prefix(shared);
        cfg.name = "shared".to_owned();
        let mut e = SimServingEngine::builder(cfg, ModelConfig::opt_13b(), small_hw()).build();
        // Two fresh conversations, each with the system prompt as history.
        e.submit(req(1, 1, 0.0, 40, 10, shared));
        e.submit(req(2, 2, 0.1, 40, 10, shared));
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 2);
        for r in &rs {
            assert_eq!(
                r.prefill_tokens, 40,
                "only the prompt is prefilled; the system prompt is shared"
            );
            assert_eq!(r.cached_history_tokens, shared);
        }
        assert_eq!(e.counters().shared_prefix_hits, 2 * shared as u64);

        // Without sharing, each conversation prefills the prompt fresh.
        let mut e =
            SimServingEngine::builder(EngineConfig::pensieve(), ModelConfig::opt_13b(), small_hw())
                .build();
        e.submit(req(1, 1, 0.0, 40, 10, shared));
        e.run_until_idle();
        let r = e.drain_responses().remove(0);
        assert_eq!(r.prefill_tokens, shared + 40);
        assert_eq!(r.cached_history_tokens, 0);
    }

    /// The shared prefix also accelerates *later* turns: it never ages
    /// out, even when the conversation's own context was dropped.
    #[test]
    fn shared_prefix_survives_conversation_eviction() {
        let shared = 256usize;
        let mut hw = small_hw();
        // Tiny GPU budget: the conversation's own history gets dropped
        // (no CPU tier), but the pinned shared prefix survives.
        hw.gpu_kv_budget_bytes = 2048 * ModelConfig::opt_13b().kv_bytes_per_token();
        let mut cfg = EngineConfig::pensieve_shared_prefix(shared);
        cfg.cpu_cache = false;
        let mut e = SimServingEngine::builder(cfg, ModelConfig::opt_13b(), hw).build();
        e.submit(req(1, 1, 0.0, 400, 50, shared));
        e.run_until_idle();
        let t1 = e.drain_responses().remove(0);
        // Another conversation floods the small cache.
        let mut r2 = req(2, 2, 0.0, 1500, 20, shared);
        r2.arrival = t1.finish + SimDuration::from_secs(1.0);
        e.submit(r2);
        e.run_until_idle();
        e.drain_responses();
        // Conversation 1 returns: its own history may be gone, but the
        // shared prefix still counts as cached.
        let mut r3 = req(3, 1, 0.0, 30, 10, shared + 450);
        r3.arrival = e.now() + SimDuration::from_secs(1.0);
        e.submit(r3);
        e.run_until_idle();
        let t3 = e.drain_responses().remove(0);
        assert!(t3.cached_history_tokens >= shared);
        assert_eq!(
            t3.prefill_tokens + t3.cached_history_tokens,
            shared + 450 + 30
        );
    }

    /// ORCA-style max-length reservation admits fewer concurrent
    /// requests than paged growth, but requests still complete correctly.
    #[test]
    fn orca_reservation_limits_concurrency() {
        let mut hw = small_hw();
        // Budget for ~1500 tokens: two 100+500 requests cannot coexist
        // under max-reservation, but can under paged growth.
        hw.gpu_kv_budget_bytes = 1500 * ModelConfig::opt_13b().kv_bytes_per_token();
        hw.cpu_cache_bytes_per_gpu = 1 << 30;
        let run = |cfg: EngineConfig| {
            let mut e = SimServingEngine::builder(cfg, ModelConfig::opt_13b(), hw.clone()).build();
            e.submit(req(1, 1, 0.0, 100, 700, 0));
            e.submit(req(2, 2, 0.1, 100, 700, 0));
            e.run_until_idle();
            let rs = e.drain_responses();
            assert_eq!(rs.len(), 2);
            for r in &rs {
                assert_eq!(r.output_tokens, 700);
            }
            // Overlap: does request 2 start before request 1 finishes?
            let r1 = rs.iter().find(|r| r.id == RequestId(1)).unwrap();
            let r2 = rs.iter().find(|r| r.id == RequestId(2)).unwrap();
            (r2.first_token < r1.finish, r2.finish)
        };
        let (orca_overlaps, orca_finish) = run(EngineConfig::orca());
        let (vllm_overlaps, vllm_finish) = run(EngineConfig::vllm());
        assert!(
            !orca_overlaps,
            "max-reservation cannot fit both requests at once"
        );
        assert!(vllm_overlaps, "paged growth batches both");
        assert!(vllm_finish < orca_finish, "paging finishes sooner");
    }

    /// Degenerate requests: single-token output finishes at prefill;
    /// zero-output is clamped to one token.
    #[test]
    fn degenerate_output_lengths_complete() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 0.0, 50, 1, 0));
        e.submit(req(2, 2, 0.0, 50, 0, 0));
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 2);
        for r in &rs {
            assert_eq!(r.output_tokens, 1);
            assert_eq!(r.first_token, r.finish, "finishes at the prefill step");
        }
    }

    /// Interleaved turns of many conversations keep per-conversation
    /// cache accounting exact across hundreds of iterations.
    #[test]
    fn many_conversations_accounting_stays_exact() {
        let mut e = engine(EngineConfig::pensieve());
        let mut at = 0.0f64;
        let mut id = 0u64;
        let mut hist = [0usize; 8];
        for round in 0..4 {
            for conv in 0..8u64 {
                let prompt = 20 + (conv as usize * 13 + round * 7) % 80;
                let output = 10 + (conv as usize * 5 + round * 11) % 60;
                e.submit(req(id, conv, at, prompt, output, hist[conv as usize]));
                id += 1;
                at += 0.2;
                hist[conv as usize] += prompt + output;
            }
            at += 30.0;
            e.run_until(SimTime::from_secs(at));
        }
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 32);
        // Conservation per response: prefill + cached covers history+prompt.
        for r in &rs {
            assert!(r.prefill_tokens >= 1);
            assert!(r.output_tokens >= 1);
        }
        // All history reuse was served from cache (no pressure here).
        assert_eq!(e.cache_stats().recomputed_tokens, 0);
        assert!(e.cache_stats().gpu_hit_tokens > 0);
    }

    /// §4.3.3's payoff: restoring a conversation from the CPU tier
    /// (pipelined swap-in) is far cheaper than recomputing it, so the
    /// two-tier Pensieve beats the GPU-cache-only variant once contexts
    /// get evicted.
    #[test]
    fn swap_in_beats_recompute_on_return() {
        let mut hw = small_hw();
        // Small GPU so the first conversation gets evicted; large CPU so
        // the full Pensieve keeps it in the second tier.
        hw.gpu_kv_budget_bytes = 3000 * ModelConfig::opt_13b().kv_bytes_per_token();
        hw.cpu_cache_bytes_per_gpu = 8 << 30;
        let ttft_of = |cfg: EngineConfig| {
            let mut e = SimServingEngine::builder(cfg, ModelConfig::opt_13b(), hw.clone()).build();
            // Conversation 1 builds 2000 tokens of context.
            e.submit(req(1, 1, 0.0, 1960, 40, 0));
            e.run_until_idle();
            let t1 = e.drain_responses().remove(0);
            // Conversation 2 floods the GPU tier.
            let mut r2 = req(2, 2, 0.0, 2500, 30, 0);
            r2.arrival = t1.finish + SimDuration::from_secs(1.0);
            e.submit(r2);
            e.run_until_idle();
            e.drain_responses();
            // Conversation 1 returns.
            let mut r3 = req(3, 1, 0.0, 40, 20, 2000);
            r3.arrival = e.now() + SimDuration::from_secs(1.0);
            e.submit(r3);
            e.run_until_idle();
            e.drain_responses().remove(0).ttft()
        };
        let two_tier = ttft_of(EngineConfig::pensieve());
        let gpu_only = ttft_of(EngineConfig::pensieve_gpu_cache());
        assert!(
            two_tier.as_secs() < 0.6 * gpu_only.as_secs(),
            "swap-in ttft {two_tier} should beat recompute ttft {gpu_only}"
        );
    }

    /// Chunked prefill produces the same completions, in more iterations,
    /// and shields concurrent decodes from long-prompt stalls.
    #[test]
    fn chunked_prefill_preserves_results_and_smooths_decode() {
        let run = |cfg: EngineConfig| {
            let mut e = engine(cfg);
            // A long-running decode...
            e.submit(req(1, 1, 0.0, 50, 400, 0));
            // ...joined mid-flight by a huge prefill.
            e.submit(req(2, 2, 1.0, 3500, 20, 0));
            e.run_until_idle();
            let rs = e.drain_responses();
            assert_eq!(rs.len(), 2);
            let r1 = rs.iter().find(|r| r.id == RequestId(1)).unwrap().clone();
            let r2 = rs.iter().find(|r| r.id == RequestId(2)).unwrap().clone();
            (r1, r2)
        };
        let (whole_r1, whole_r2) = run(EngineConfig::pensieve());
        let (chunk_r1, chunk_r2) = run(EngineConfig::pensieve_chunked_prefill(512));
        // Same token counts either way; the prefill work is conserved.
        assert_eq!(whole_r1.output_tokens, chunk_r1.output_tokens);
        assert_eq!(whole_r2.output_tokens, chunk_r2.output_tokens);
        assert_eq!(whole_r2.prefill_tokens, chunk_r2.prefill_tokens);
        // The chunked prefill's own first token arrives no earlier (it is
        // spread over several iterations)...
        assert!(chunk_r2.ttft() >= whole_r2.ttft());
        // ...but the concurrent decode's normalized latency improves: no
        // single iteration stalls it for the whole 3500-token prompt.
        assert!(
            chunk_r1.normalized_latency().as_secs()
                < whole_r1.normalized_latency().as_secs() * 0.999,
            "chunked {} vs whole {}",
            chunk_r1.normalized_latency(),
            whole_r1.normalized_latency()
        );
    }

    /// `poll(None)` must not busy-advance the clock to
    /// a future arrival: a fair multi-replica polling loop would
    /// otherwise let one replica's clock leap past its siblings.
    #[test]
    fn poll_without_deadline_never_advances_past_present() {
        let mut e = engine(EngineConfig::pensieve());
        assert!(!e.poll(None), "idle engine yields false");
        assert_eq!(e.now(), SimTime::ZERO);
        // A future-dated arrival is pending work, but not *due* work.
        e.submit(req(1, 1, 5.0, 100, 10, 0));
        assert!(!e.poll(None));
        assert_eq!(e.now(), SimTime::ZERO, "clock must not jump to t=5");
        // With a deadline past the arrival the request is served.
        assert!(e.poll(Some(SimTime::from_secs(100.0))));
        assert_eq!(e.drain_responses().len(), 1);
    }

    /// Export on one engine + import on another moves the KV state: the
    /// follow-up turn at the target serves history from cache.
    #[test]
    fn session_handoff_carries_cache_across_engines() {
        let mut a = engine(EngineConfig::pensieve());
        a.submit(req(1, 7, 0.0, 100, 50, 0));
        a.run_until_idle();
        assert_eq!(a.drain_responses().len(), 1);
        let conv = SessionId(7);
        assert!(a.cached_tokens(conv) > 0);

        let export = a.export_session(conv).expect("completed session exports");
        assert_eq!(a.cached_tokens(conv), 0, "source relinquished the state");

        let mut b = engine(EngineConfig::pensieve());
        let admitted = b.import_session(export);
        assert!(admitted > 0);
        assert_eq!(b.cached_tokens(conv), admitted);
        let mut r2 = req(2, 7, 0.0, 40, 50, 150);
        r2.arrival = b.now() + SimDuration::from_secs(1.0);
        b.submit(r2);
        b.run_until_idle();
        let t2 = b.drain_responses().remove(0);
        assert!(
            t2.cached_history_tokens > 0,
            "imported chunks must serve the follow-up turn's history"
        );
    }

    /// Sessions with queued or running work refuse to export.
    #[test]
    fn export_refuses_in_flight_sessions() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 3, 0.0, 100, 50, 0));
        assert!(e.export_session(SessionId(3)).is_none(), "queued");
        e.poll(Some(SimTime::ZERO + SimDuration::from_micros(1.0)));
        if e.running_requests() > 0 {
            assert!(e.export_session(SessionId(3)).is_none(), "running");
        }
        e.run_until_idle();
        e.drain_responses();
        assert!(e.export_session(SessionId(3)).is_some(), "completed");
    }

    /// Fail-stop orphans every queued and running request, in order.
    #[test]
    fn fail_stop_orphans_all_work() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 0.0, 100, 400, 0));
        e.submit(req(2, 2, 0.0, 100, 400, 0));
        e.poll(Some(SimTime::ZERO + SimDuration::from_millis(50.0)));
        e.submit(req(3, 3, 0.0, 100, 10, 0));
        let before = e.running_requests() + e.waiting_requests();
        assert!(before > 0);
        let orphans = e.fail_stop();
        assert_eq!(orphans.len(), before);
        assert!(e.is_idle());
        let ids: Vec<u64> = orphans.iter().map(|r| r.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids.len(), 3);
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    /// Under chaos-level fault injection every request still completes
    /// with its exact token counts; recovery shows up only in counters
    /// and timing.
    #[test]
    fn chaos_faults_preserve_token_counts() {
        use pensieve_sim::FaultConfig;
        let mut hw = small_hw();
        // Small GPU + CPU tier so swap-ins actually happen (and can fail).
        hw.gpu_kv_budget_bytes = 1500 * ModelConfig::opt_13b().kv_bytes_per_token();
        hw.cpu_cache_bytes_per_gpu = 1 << 30;
        let run = |faults: Option<FaultInjector>| {
            let mut b = SimServingEngine::builder(
                EngineConfig::pensieve(),
                ModelConfig::opt_13b(),
                hw.clone(),
            );
            if let Some(f) = faults {
                b = b.fault_injector(f);
            }
            let mut e = b.build();
            e.submit(req(1, 1, 0.0, 100, 400, 0));
            e.submit(req(2, 2, 0.1, 100, 400, 0));
            e.run_until_idle();
            // Both conversations return after an idle gap.
            let mut r3 = req(3, 1, 0.0, 50, 100, 500);
            r3.arrival = e.now() + SimDuration::from_secs(2.0);
            let mut r4 = req(4, 2, 0.0, 50, 100, 500);
            r4.arrival = e.now() + SimDuration::from_secs(2.1);
            e.submit(r3);
            e.submit(r4);
            e.run_until_idle();
            let mut rs = e.drain_responses();
            rs.sort_by_key(|r| r.id);
            (
                rs.iter()
                    .map(|r| (r.id, r.output_tokens, r.prefill_tokens))
                    .collect::<Vec<_>>(),
                e.counters().clone(),
                e.fault_counters().copied(),
            )
        };
        let (clean, clean_counters, clean_fired) = run(None);
        let mut chaos_cfg = FaultConfig::chaos(42);
        // Crank PCIe failures so swap-in retries certainly occur.
        chaos_cfg.pcie_failure = 0.6;
        let (faulty, counters, fired) = run(Some(FaultInjector::new(chaos_cfg)));
        let fired = fired.unwrap();
        assert_eq!(faulty.len(), 4, "every request completes under faults");
        for (id, out, _prefill) in &faulty {
            let (cid, cout, _) = clean.iter().find(|(c, _, _)| c == id).unwrap();
            assert_eq!(id, cid);
            assert_eq!(out, cout, "output token counts must match fault-free");
        }
        let retries = fired.get(FaultKind::PcieTransferFailure) + fired.get(FaultKind::PcieTimeout);
        assert!(
            retries > 0 || counters.chunk_faults > 0,
            "chaos config must exercise at least one recovery path: {counters:?} {fired:?}"
        );
        assert_eq!(clean_fired, None, "a fault-free engine fires nothing");
        assert_eq!(clean_counters.chunk_faults, 0);
    }

    /// A fault rate of 1.0 on PCIe transfers forces every swap-in to
    /// exhaust its retries and fall back to recomputation — and the
    /// engine still completes everything.
    #[test]
    fn total_pcie_failure_falls_back_to_recompute() {
        use pensieve_sim::FaultConfig;
        let mut hw = small_hw();
        hw.gpu_kv_budget_bytes = 1200 * ModelConfig::opt_13b().kv_bytes_per_token();
        hw.cpu_cache_bytes_per_gpu = 1 << 30;
        let mut cfg = FaultConfig::disabled(7);
        cfg.pcie_failure = 1.0;
        let mut e =
            SimServingEngine::builder(EngineConfig::pensieve(), ModelConfig::opt_13b(), hw.clone())
                .fault_injector(FaultInjector::new(cfg))
                .build();
        e.submit(req(1, 1, 0.0, 100, 400, 0));
        e.submit(req(2, 2, 0.1, 100, 400, 0));
        e.run_until_idle();
        let mut r3 = req(3, 1, 0.0, 50, 50, 500);
        r3.arrival = e.now() + SimDuration::from_secs(2.0);
        e.submit(r3);
        e.run_until_idle();
        let rs = e.drain_responses();
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert!(r.output_tokens > 0);
        }
        // If any swap-in was needed it must have fallen back.
        let fired = e.fault_counters().unwrap();
        if fired.get(FaultKind::PcieTransferFailure) > 0 {
            assert!(e.counters().recompute_fallbacks > 0);
            assert!(e.cache_stats().swap_in_fault_tokens > 0);
        }
    }

    #[test]
    fn engine_reports_cache_hits_for_returning_conversations() {
        let mut e = engine(EngineConfig::pensieve());
        e.submit(req(1, 1, 0.0, 500, 100, 0));
        e.run_until_idle();
        let t1 = e.drain_responses().remove(0);
        let mut r2 = req(2, 1, 0.0, 30, 10, 600);
        r2.arrival = t1.finish + SimDuration::from_secs(2.0);
        e.submit(r2);
        e.run_until_idle();
        assert!(e.cache_stats().gpu_hit_tokens >= 599);
        assert_eq!(e.cache_stats().full_gpu_hits, 1);
    }
}

// A `cfg(test)` child of this module, so it can switch on the stepwise
// twin and read why each run ended.
#[cfg(test)]
#[path = "tests/quiet_run.rs"]
mod quiet_run_tests;

#[cfg(test)]
impl SimServingEngine {
    /// The cache manager, for checks against what an executor holds.
    pub(crate) fn cache(&self) -> &TieredKvCache {
        &self.cache
    }
}
