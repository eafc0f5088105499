//! Cross-crate integration tests: the full serving stack, end to end.

use pensieve_core::{EngineConfig, Request, RequestId, ServingBackend, SimServingEngine};
use pensieve_kvcache::SessionId;
use pensieve_model::{HardwareSpec, ModelConfig, SimDuration, SimTime};
use pensieve_workload::dataset::DatasetSpec;
use pensieve_workload::driver::{run_closed_loop, DriverConfig};

fn engine(cfg: EngineConfig, model: ModelConfig, gpus: usize) -> SimServingEngine {
    SimServingEngine::builder(cfg, model, HardwareSpec::azure_nc_a100(gpus)).build()
}

fn req(id: u64, conv: u64, at: SimTime, prompt: usize, out: usize, hist: usize) -> Request {
    Request::builder()
        .id(RequestId(id))
        .session(SessionId(conv))
        .arrival(at)
        .prompt_tokens(prompt)
        .output_tokens(out)
        .history_tokens(hist)
        .build()
        .expect("test request is well-formed")
}

/// The headline claim: under a multi-turn workload, Pensieve sustains a
/// given latency at higher throughput than the stateless baselines.
#[test]
fn pensieve_beats_stateless_baselines_on_sharegpt() {
    let dataset = DatasetSpec::sharegpt();
    let rate = 8.0;
    let convs = dataset.generate(((rate / dataset.mean_turns) * 120.0) as usize, 99);
    let p90_of = |cfg: EngineConfig| {
        let mut e = engine(cfg, ModelConfig::llama2_13b(), 1);
        run_closed_loop(
            &mut e,
            &convs,
            &DriverConfig {
                request_rate: rate,
                mean_think_time: 60.0,
                seed: 5,
                system_prompt_tokens: 0,
            },
        )
        .summary()
        .p90_normalized
    };
    let pensieve = p90_of(EngineConfig::pensieve());
    let vllm = p90_of(EngineConfig::vllm());
    let trt = p90_of(EngineConfig::tensorrt_llm());
    assert!(
        pensieve < vllm,
        "Pensieve p90 {pensieve} must beat vLLM {vllm}"
    );
    assert!(
        pensieve < trt,
        "Pensieve p90 {pensieve} must beat TRT {trt}"
    );
    assert!(
        trt < vllm,
        "TRT p90 {trt} must beat vLLM {vllm} (paper §6.2)"
    );
}

/// GQA models benefit more (paper §6.2): the Pensieve/vLLM latency gap is
/// wider for Llama 2-13B (KV 4x smaller) than for OPT-13B.
#[test]
fn gqa_widens_pensieve_advantage() {
    let dataset = DatasetSpec::sharegpt();
    let rate = 6.0;
    let convs = dataset.generate(((rate / dataset.mean_turns) * 100.0) as usize, 17);
    let gap = |model: ModelConfig| {
        let run = |cfg: EngineConfig| {
            let mut e = engine(cfg, model.clone(), 1);
            run_closed_loop(
                &mut e,
                &convs,
                &DriverConfig {
                    request_rate: rate,
                    mean_think_time: 60.0,
                    seed: 6,
                    system_prompt_tokens: 0,
                },
            )
            .summary()
            .p90_normalized
        };
        run(EngineConfig::vllm()) / run(EngineConfig::pensieve())
    };
    let opt = gap(ModelConfig::opt_13b());
    let llama = gap(ModelConfig::llama2_13b());
    assert!(
        llama > 1.0 && opt > 1.0,
        "Pensieve must win on both models (opt {opt}, llama {llama})"
    );
}

/// Multi-GPU serving works and Pensieve's advantage persists (Figure 11).
#[test]
fn four_gpu_models_serve_correctly() {
    let dataset = DatasetSpec::sharegpt();
    let rate = 2.0;
    let convs = dataset.generate(((rate / dataset.mean_turns) * 80.0) as usize, 23);
    let total_turns: usize = convs.iter().map(|c| c.turns.len()).sum();
    for model in [ModelConfig::opt_66b(), ModelConfig::llama2_70b()] {
        let mut e = engine(EngineConfig::pensieve(), model.clone(), 4);
        let result = run_closed_loop(
            &mut e,
            &convs,
            &DriverConfig {
                request_rate: rate,
                mean_think_time: 60.0,
                seed: 8,
                system_prompt_tokens: 0,
            },
        );
        assert_eq!(result.responses.len(), total_turns, "{}", model.name);
        let s = result.summary();
        assert!(
            s.p90_normalized > 0.0 && s.p90_normalized < 2.0,
            "{} implausible p90 {}",
            model.name,
            s.p90_normalized
        );
    }
}

/// A conversation whose context was partially dropped is restored by
/// recomputation, transparently to the caller.
#[test]
fn dropped_context_is_recomputed_transparently() {
    // GPU-cache-only variant: evictions drop tokens outright.
    let mut e = engine(
        EngineConfig::pensieve_gpu_cache(),
        ModelConfig::opt_13b(),
        1,
    );
    // Conversation A builds history.
    e.submit(req(1, 1, SimTime::ZERO, 2000, 50, 0));
    e.run_until_idle();
    let t1 = e.drain_responses().remove(0);
    // Conversation B floods the GPU cache (52K-token capacity).
    for i in 0..3u64 {
        e.submit(req(
            10 + i,
            2 + i,
            t1.finish + SimDuration::from_secs(1.0 + i as f64),
            15_000,
            20,
            0,
        ));
    }
    e.run_until_idle();
    e.drain_responses();
    // A returns; some or all of its context was dropped and recomputed.
    e.submit(req(
        20,
        1,
        e.now() + SimDuration::from_secs(5.0),
        30,
        40,
        2050,
    ));
    e.run_until_idle();
    let t2 = e.drain_responses().remove(0);
    assert_eq!(t2.output_tokens, 40);
    assert!(
        e.cache_stats().recomputed_tokens > 0 || t2.cached_history_tokens > 0,
        "history must be either cached or recomputed"
    );
    // Work is conserved: prefill covers whatever was not cached.
    assert_eq!(
        t2.prefill_tokens + t2.cached_history_tokens,
        2050 + 30,
        "prefill + cached must cover history + prompt"
    );
}

/// The engine survives a pathological burst (everything arrives at once)
/// without losing or duplicating requests.
#[test]
fn burst_arrivals_conserve_requests() {
    let mut e = engine(EngineConfig::pensieve(), ModelConfig::llama2_13b(), 1);
    for i in 0..50u64 {
        e.submit(req(
            i,
            i,
            SimTime::ZERO,
            100 + (i as usize * 37) % 400,
            20 + (i as usize * 13) % 100,
            0,
        ));
    }
    e.run_until_idle();
    let rs = e.drain_responses();
    assert_eq!(rs.len(), 50);
    let mut ids: Vec<u64> = rs.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 50, "no duplicate completions");
}
