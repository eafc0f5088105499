//! One pass of one workload: build the backend, drive it, time the drive,
//! read the layers' exact counters afterwards, and check the outputs.
//!
//! Two clocks, never mixed. `wall_s` and everything derived from it is
//! host time of this process; everything read from a `Response` is
//! simulated time under the roofline/PCIe/storage models and must repeat
//! bit-for-bit for a given seed.

use std::collections::BTreeMap;
use std::time::Instant;

use pensieve_cluster::Router;
use pensieve_core::{EngineCounters, FunctionalEngine, Response, ServingBackend, SimServingEngine};
use pensieve_kvcache::{CacheStats, SessionId};
use pensieve_obs::SharedRecorder;
use pensieve_workload::driver::run_closed_loop;

use crate::traced::{SpanLog, Traced};
use crate::workloads::{FunctionalShape, Inputs, Kind, Spec};

/// Metric name to value. Names are the ones `metrics.rs` declares.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Weights of the functional model: fixed, so `--seed` varies only the
/// inputs the program sees.
const MODEL_SEED: u64 = 23;

/// How a pass is instrumented. The end-to-end numbers come from `Plain`
/// passes only.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// No instrumentation: the baseline wall.
    Plain,
    /// `Traced` decorators around the router and each replica.
    Seam(&'a SpanLog),
    /// A `SharedRecorder` installed in every layer.
    Obs(&'a SharedRecorder),
    /// No instrumentation, compute pool of width 2 (functional only; the
    /// closed-loop driver never reaches the router's pool).
    Wide,
}

/// What one pass produced.
pub struct Pass {
    /// Completed turns on the simulated clock (the twin's, for the
    /// functional workload).
    pub responses: Vec<Response>,
    /// Host seconds of the timed drive.
    pub wall_s: f64,
    /// Exact counters read from the layers after the drive.
    pub counts: Metrics,
    /// Host milliseconds per `serve_turn` and the generated tokens, in
    /// serving order (functional workload only).
    pub functional: Option<(Vec<f64>, Vec<Vec<u32>>)>,
}

impl Pass {
    fn simulated((responses, wall_s): (Vec<Response>, f64), counts: Metrics) -> Self {
        Pass {
            responses,
            wall_s,
            counts,
            functional: None,
        }
    }
}

/// Access to the engine behind a (possibly decorated) replica.
pub trait AsEngine: ServingBackend + Send {
    /// The engine itself.
    fn engine(&self) -> &SimServingEngine;
    /// `(submits, submits that found the session cached)` if counted.
    fn affinity(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl AsEngine for SimServingEngine {
    fn engine(&self) -> &SimServingEngine {
        self
    }
}

impl AsEngine for Traced<SimServingEngine> {
    fn engine(&self) -> &SimServingEngine {
        self.inner()
    }
    fn affinity(&self) -> (u64, u64) {
        Traced::affinity(self)
    }
}

/// Builds one engine of the workload, optionally recording.
#[must_use]
pub fn build_engine(spec: &Spec, recorder: Option<&SharedRecorder>) -> SimServingEngine {
    let mut b = SimServingEngine::builder(
        spec.engine.clone(),
        spec.model.clone(),
        spec.hardware.clone(),
    );
    if let Some(rec) = recorder {
        b = b.recorder(rec.clone());
    }
    b.build()
}

/// Builds the cluster workload's router over `fleet`, crash scheduled.
pub fn build_router<B: AsEngine>(spec: &Spec, fleet: Vec<B>) -> Router<B> {
    let (policy, config) = Spec::router();
    let mut router = Router::new(fleet, policy, config);
    if let Some((idx, at)) = spec.fail_at() {
        router.fail_replica_at(idx, at);
    }
    router
}

fn engine_counts(counters: &[&EngineCounters], stats: &CacheStats, out: &mut Metrics) {
    let sum = |f: fn(&EngineCounters) -> u64| counters.iter().map(|c| f(c) as f64).sum::<f64>();
    let iterations = sum(|c| c.iterations);
    let prefill = sum(|c| c.prefill_tokens);
    let decode = sum(|c| c.decode_tokens);
    out.insert("engine.iterations", iterations);
    out.insert("engine.prefill_tokens", prefill);
    out.insert("engine.decode_tokens", decode);
    out.insert("engine.suspensions", sum(|c| c.suspensions));
    out.insert(
        "engine.batch_tokens_mean",
        (prefill + decode) / iterations.max(1.0),
    );
    out.insert(
        "engine.sim_busy_s",
        counters.iter().map(|c| c.busy_time.as_secs()).sum(),
    );
    out.insert("kvcache.hit_token_rate", stats.hit_rate());
    out.insert("kvcache.gpu_hit_tokens", stats.gpu_hit_tokens as f64);
    out.insert("kvcache.cpu_hit_tokens", stats.cpu_hit_tokens as f64);
    out.insert("kvcache.ssd_hit_tokens", stats.ssd_hit_tokens as f64);
    out.insert("kvcache.cold_hit_tokens", stats.cold_hit_tokens as f64);
    out.insert("kvcache.shared_hit_tokens", stats.shared_hit_tokens as f64);
    out.insert("kvcache.recomputed_tokens", stats.recomputed_tokens as f64);
    out.insert("kvcache.dropped_tokens", stats.dropped_tokens as f64);
    out.insert("kvcache.demoted_tokens", stats.demoted_tokens as f64);
    out.insert(
        "kvcache.swapped_out_tokens",
        stats.swapped_out_tokens as f64,
    );
    out.insert("kvcache.swapped_in_tokens", stats.swapped_in_tokens as f64);
}

fn dedup_ratio(engines: &[&SimServingEngine]) -> f64 {
    let physical: usize = engines.iter().map(|e| e.physical_resident_tokens()).sum();
    let logical: usize = engines.iter().map(|e| e.logical_resident_tokens()).sum();
    physical as f64 / logical.max(1) as f64
}

fn single_counts(engine: &SimServingEngine) -> Metrics {
    let mut out = Metrics::new();
    engine_counts(&[engine.counters()], engine.cache_stats(), &mut out);
    out.insert("kvcache.dedup_ratio", dedup_ratio(&[engine]));
    out
}

fn cluster_counts<B: AsEngine>(router: &Router<B>) -> Metrics {
    let engines: Vec<&SimServingEngine> = (0..router.replica_count())
        .map(|i| router.replica(i).engine())
        .collect();
    let counters: Vec<&EngineCounters> = engines.iter().map(|e| e.counters()).collect();
    let mut out = Metrics::new();
    engine_counts(&counters, &router.cache_stats(), &mut out);
    out.insert("kvcache.dedup_ratio", dedup_ratio(&engines));
    let (submits, affine) = (0..router.replica_count())
        .map(|i| router.replica(i).affinity())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    out.insert(
        "router.affine_dispatch_share",
        affine as f64 / submits.max(1) as f64,
    );
    out.insert("router.migrations", router.migrations() as f64);
    out.insert("router.migrated_tokens", router.migrated_tokens() as f64);
    out.insert("router.promotions", router.promotions() as f64);
    out.insert("router.rehydrations", router.rehydrations() as f64);
    out.insert(
        "replication.manifests_persisted",
        router.manifests_persisted() as f64,
    );
    out.insert(
        "replication.replicated_tokens",
        router.replicated_tokens() as f64,
    );
    out.insert(
        "replication.recomputed_suffix_tokens",
        router.recomputed_suffix_tokens() as f64,
    );
    out.insert(
        "replication.lag_tokens_end",
        router.replication_lag_tokens() as f64,
    );
    out
}

/// Drives `backend` with the closed-loop driver and times the drive. In
/// seam mode the drive is the root span, so self times sum to its wall.
fn drive<B: ServingBackend>(
    backend: &mut B,
    inputs: &Inputs,
    log: Option<&SpanLog>,
) -> (Vec<Response>, f64) {
    let t0 = Instant::now();
    let result = match log {
        Some(log) => log.span(("driver", "run"), || {
            run_closed_loop(backend, &inputs.convs, &inputs.driver)
        }),
        None => run_closed_loop(backend, &inputs.convs, &inputs.driver),
    };
    (result.responses, t0.elapsed().as_secs_f64())
}

/// Runs one pass of `spec` over `inputs`.
#[must_use]
pub fn run_pass(spec: &Spec, inputs: &Inputs, mode: Mode<'_>) -> Pass {
    let recorder = match mode {
        Mode::Obs(rec) => Some(rec),
        _ => None,
    };
    match (&spec.kind, mode) {
        (Kind::Engine, Mode::Seam(log)) => {
            let mut traced = Traced::new(build_engine(spec, None), log.clone(), "engine");
            let driven = drive(&mut traced, inputs, Some(log));
            Pass::simulated(driven, single_counts(traced.inner()))
        }
        (Kind::Engine, _) => {
            let mut engine = build_engine(spec, recorder);
            let driven = drive(&mut engine, inputs, None);
            Pass::simulated(driven, single_counts(&engine))
        }
        (Kind::Cluster { replicas, .. }, Mode::Seam(log)) => {
            let fleet = (0..*replicas)
                .map(|_| {
                    Traced::new(build_engine(spec, None), log.clone(), "replica").probing_affinity()
                })
                .collect();
            let mut traced = Traced::new(build_router(spec, fleet), log.clone(), "router");
            let driven = drive(&mut traced, inputs, Some(log));
            Pass::simulated(driven, cluster_counts(traced.inner()))
        }
        (Kind::Cluster { replicas, .. }, _) => {
            let fleet = (0..*replicas)
                .map(|_| build_engine(spec, recorder))
                .collect();
            let mut router = build_router(spec, fleet);
            if let Some(rec) = recorder {
                router = router.recorder(rec.clone());
            }
            let driven = drive(&mut router, inputs, None);
            Pass::simulated(driven, cluster_counts(&router))
        }
        (Kind::Functional(shape), mode) => {
            let log = match mode {
                Mode::Seam(log) => Some(log),
                _ => None,
            };
            let threads = if matches!(mode, Mode::Wide) { 2 } else { 1 };
            functional_pass(spec, shape, inputs, log, recorder, threads)
        }
    }
}

/// Builds the functional engine of the workload with a compute pool of
/// `threads` (1 everywhere except the width-2 pass).
#[must_use]
pub fn build_functional(spec: &Spec, shape: &FunctionalShape, threads: usize) -> FunctionalEngine {
    let mut engine = FunctionalEngine::new(&spec.model, MODEL_SEED, shape.memory.clone());
    engine.set_compute_threads(threads);
    engine
}

fn functional_pass(
    spec: &Spec,
    shape: &FunctionalShape,
    inputs: &Inputs,
    log: Option<&SpanLog>,
    recorder: Option<&SharedRecorder>,
    threads: usize,
) -> Pass {
    let mut engine = build_functional(spec, shape, threads);
    let mut turn_ms = Vec::with_capacity(inputs.prompts.len());
    let mut outputs = Vec::with_capacity(inputs.prompts.len());
    let convs = inputs.convs.len();
    let mut serve_all = || {
        for (k, prompt) in inputs.prompts.iter().enumerate() {
            let conv = SessionId((k % convs) as u64);
            let t0 = Instant::now();
            let out = match log {
                Some(log) => log.span(("functional", "serve_turn"), || {
                    engine.serve_turn(conv, prompt, shape.new_tokens)
                }),
                None => engine.serve_turn(conv, prompt, shape.new_tokens),
            };
            turn_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            outputs.push(out);
        }
    };
    let t0 = Instant::now();
    match log {
        Some(log) => log.span(("driver", "run"), &mut serve_all),
        None => serve_all(),
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let (swap_out, swap_in, dropped, recomputed) = engine.cache_activity();
    let mut counts = Metrics::new();
    counts.insert("functional.swap_out_blocks", swap_out as f64);
    counts.insert("functional.swap_in_blocks", swap_in as f64);
    counts.insert("functional.dropped_blocks", dropped as f64);
    counts.insert("functional.recomputed_tokens", recomputed as f64);

    // The simulated twin, outside the timed region: the same tape through
    // the simulator on the same memory budget.
    let mut twin = build_engine(spec, recorder);
    let responses = run_closed_loop(&mut twin, &inputs.convs, &inputs.driver).responses;
    counts.extend(single_counts(&twin));
    Pass {
        responses,
        wall_s,
        counts,
        functional: Some((turn_ms, outputs)),
    }
}

/// Outcome of checking one pass's outputs against its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Turns submitted.
    pub attempted: usize,
    /// Turns with no response, out of causal order, breaking token
    /// conservation, or (functional) differing from `reference_decode`.
    pub failed: usize,
    /// FNV-1a over id/arrival/first_token/finish bits in id order (and
    /// over every generated token, for the functional workload).
    pub digest: u64,
}

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Pin of a pass's simulated outcome: changes iff any response's id or
/// timestamps change.
#[must_use]
pub fn response_digest(responses: &[Response]) -> u64 {
    let mut by_id: Vec<&Response> = responses.iter().collect();
    by_id.sort_by_key(|r| r.id);
    let mut h = 0xCBF2_9CE4_8422_2325;
    for r in by_id {
        fnv1a(&mut h, r.id.0);
        fnv1a(&mut h, r.arrival.as_secs().to_bits());
        fnv1a(&mut h, r.first_token.as_secs().to_bits());
        fnv1a(&mut h, r.finish.as_secs().to_bits());
    }
    h
}

/// Checks every turn of a pass: answered exactly once, in causal order
/// within its session, with `cached_history + prefill == history +
/// prompt`, the requested output length, and ordered timestamps. For the
/// functional workload, every `check_every`-th turn is also compared with
/// stateless `reference_decode` of its full context when `deep` is set.
#[must_use]
pub fn check(spec: &Spec, inputs: &Inputs, pass: &Pass, deep: bool) -> Verdict {
    let attempted = inputs.total_turns();
    let mut per_conv: Vec<Vec<&Response>> = vec![Vec::new(); inputs.convs.len()];
    let mut failed = 0usize;
    for r in &pass.responses {
        match per_conv.get_mut(r.conv.0 as usize) {
            Some(list) => list.push(r),
            None => failed += 1,
        }
    }
    for (conv, list) in inputs.convs.iter().zip(&mut per_conv) {
        list.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        failed += conv.turns.len().abs_diff(list.len());
        let mut history = inputs.driver.system_prompt_tokens;
        let mut prev_finish = None;
        for (turn, r) in conv.turns.iter().zip(list.iter()) {
            let causal = prev_finish.is_none_or(|f| r.arrival >= f);
            let ordered = r.arrival <= r.first_token && r.first_token <= r.finish;
            let conserved =
                r.cached_history_tokens + r.prefill_tokens == history + turn.input_tokens;
            if !(causal && ordered && conserved && r.output_tokens == turn.output_tokens) {
                failed += 1;
            }
            history += turn.input_tokens + turn.output_tokens;
            prev_finish = Some(r.finish);
        }
    }
    let mut digest = response_digest(&pass.responses);
    if let (Kind::Functional(shape), Some((_, outputs))) = (&spec.kind, &pass.functional) {
        for out in outputs {
            for &t in out {
                fnv1a(&mut digest, u64::from(t));
            }
        }
        failed += outputs
            .iter()
            .filter(|o| o.len() != shape.new_tokens)
            .count();
        if deep {
            failed += functional_mismatches(spec, shape, inputs, outputs);
        }
    }
    Verdict {
        attempted,
        failed: failed.min(attempted),
        digest,
    }
}

/// Sampled turns whose stateful output differs from stateless greedy
/// decoding of the same context.
fn functional_mismatches(
    spec: &Spec,
    shape: &FunctionalShape,
    inputs: &Inputs,
    outputs: &[Vec<u32>],
) -> usize {
    let reference = build_functional(spec, shape, 1);
    let convs = inputs.convs.len();
    let mut contexts: Vec<Vec<u32>> = vec![Vec::new(); convs];
    let mut mismatches = 0;
    for (k, (prompt, out)) in inputs.prompts.iter().zip(outputs).enumerate() {
        let ctx = &mut contexts[k % convs];
        ctx.extend_from_slice(prompt);
        if k % shape.check_every == 0 && reference.reference_decode(ctx, shape.new_tokens) != *out {
            mismatches += 1;
        }
        ctx.extend_from_slice(out);
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_core::RequestId;
    use pensieve_model::SimTime;

    fn resp(id: u64, arrival: f64, first: f64, finish: f64) -> Response {
        Response {
            id: RequestId(id),
            conv: SessionId(id),
            arrival: SimTime::from_secs(arrival),
            first_token: SimTime::from_secs(first),
            finish: SimTime::from_secs(finish),
            output_tokens: 8,
            prefill_tokens: 4,
            cached_history_tokens: 0,
        }
    }

    /// The digest is a pin: the same responses give the same 64 bits on
    /// every machine (the constant is FNV-1a computed independently), in
    /// any completion order, and any timestamp bit changes it.
    #[test]
    fn digest_is_stable_order_free_and_sensitive() {
        let a = resp(1, 0.5, 0.75, 2.0);
        let b = resp(2, 1.0, 1.25, 3.5);
        let pinned = 0xe4eb_4ca0_71cb_baee;
        assert_eq!(response_digest(&[a.clone(), b.clone()]), pinned);
        assert_eq!(response_digest(&[b.clone(), a.clone()]), pinned);
        let later = resp(2, 1.0, 1.25, 3.5 + f64::EPSILON * 4.0);
        assert_ne!(response_digest(&[a.clone(), later]), pinned);
        assert_ne!(response_digest(&[a]), pinned);
    }
}
