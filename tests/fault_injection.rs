//! Chaos integration tests: the serving stack under injected faults.
//!
//! Every test runs the same workload twice — fault-free and with a
//! deterministic [`FaultInjector`] — and asserts the strongest property
//! recovery must preserve: **faults change timing and counters, never
//! results**. Requests all complete (or fail with a typed error; nothing
//! hangs), and token counts/outputs are identical to the fault-free run.
//!
//! The fault seed defaults to 1 and can be overridden with the
//! `PENSIEVE_FAULT_SEED` environment variable; CI sweeps several seeds.

use pensieve_core::functional::FunctionalConfig;
use pensieve_core::workers::ThreadedTpEngine;
use pensieve_core::{EngineConfig, SimServingEngine, WorkerError};
use pensieve_kernels::model::TinyModel;
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_sim::{FaultConfig, FaultInjector, FaultKind};
use pensieve_workload::dataset::DatasetSpec;
use pensieve_workload::driver::{run_closed_loop, DriverConfig};

/// Fault-stream seed: `PENSIEVE_FAULT_SEED` env var, default 1.
fn fault_seed() -> u64 {
    std::env::var("PENSIEVE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// A single GPU with a KV budget small enough that the multi-turn
/// workload must swap against the CPU tier (where faults can bite), but
/// large enough to hold any single conversation's full context — a
/// context exceeding the whole budget is unserveable by design.
fn tight_hw(
    model: &ModelConfig,
    convs: &[pensieve_workload::dataset::Conversation],
) -> HardwareSpec {
    let longest = convs.iter().map(|c| c.total_tokens()).max().unwrap_or(0);
    let mut hw = HardwareSpec::azure_nc_a100(1);
    hw.gpu_kv_budget_bytes = (longest + 512) * model.kv_bytes_per_token();
    hw.cpu_cache_bytes_per_gpu = 16 << 30;
    hw
}

/// Per-conversation output-token sequences, in arrival order. This is
/// the run's "result" — independent of completion timing and of prefill
/// accounting, both of which faults are allowed to change (recovery
/// legitimately recomputes more context).
fn outputs_by_conv(responses: &[pensieve_core::Response], num_convs: usize) -> Vec<Vec<usize>> {
    let mut per_conv: Vec<Vec<_>> = vec![Vec::new(); num_convs];
    for r in responses {
        per_conv[r.conv.0 as usize].push((r.arrival, r.output_tokens));
    }
    per_conv
        .into_iter()
        .map(|mut v| {
            v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            v.into_iter().map(|(_, out)| out).collect()
        })
        .collect()
}

/// The headline chaos test: a closed-loop multi-turn workload completes
/// every request under PCIe failures, timeouts, CPU-chunk loss and
/// corruption, allocation faults and worker stalls — with per-request
/// token counts identical to the fault-free run, and the recovery
/// machinery visibly exercised in the counters.
#[test]
fn chaos_closed_loop_completes_with_identical_outputs() {
    let model = ModelConfig::opt_13b();
    let dataset = DatasetSpec::sharegpt();
    // Dense enough that conversations overlap and their chunks really get
    // demoted to the CPU tier (not just lazily copied) before they return.
    let convs = dataset.generate(32, 33);
    let total_turns: usize = convs.iter().map(|c| c.turns.len()).sum();
    let driver = DriverConfig {
        request_rate: 12.0,
        mean_think_time: 20.0,
        seed: 21,
        system_prompt_tokens: 0,
    };
    let run = |faults: Option<FaultInjector>| {
        let mut builder = SimServingEngine::builder(
            EngineConfig::pensieve(),
            model.clone(),
            tight_hw(&model, &convs),
        );
        if let Some(f) = faults {
            builder = builder.fault_injector(f);
        }
        let mut e = builder.build();
        let result = run_closed_loop(&mut e, &convs, &driver);
        let retries = e.metrics().counter("pensieve_swap_in_retries_total");
        (
            result,
            e.counters().clone(),
            e.fault_counters().copied(),
            retries,
        )
    };

    let (clean, clean_counters, _, clean_retries) = run(None);
    let mut chaos = FaultConfig::chaos(fault_seed());
    // Crank the PCIe failure rate so retries exhaust and the engine must
    // also take the recompute-fallback path, not just retry its way out.
    chaos.pcie_failure = 0.75;
    let (faulty, counters, faults, retries) = run(Some(FaultInjector::new(chaos)));

    assert_eq!(
        clean.responses.len(),
        total_turns,
        "fault-free run must complete everything"
    );
    assert_eq!(
        faulty.responses.len(),
        total_turns,
        "every request must complete under chaos (no hangs, no losses)"
    );
    assert_eq!(
        outputs_by_conv(&clean.responses, convs.len()),
        outputs_by_conv(&faulty.responses, convs.len()),
        "faults must never change what is generated, only when"
    );

    let faults = faults.expect("injector was installed");
    assert!(faults.total() > 0, "chaos preset must inject faults");
    let pcie = faults.get(FaultKind::PcieTransferFailure) + faults.get(FaultKind::PcieTimeout);
    assert!(pcie > 0, "PCIe faults must fire: {faults:?}");
    assert_eq!(retries, pcie, "each fired PCIe fault is one swap-in retry");
    assert!(
        counters.recompute_fallbacks > 0,
        "exhausted retries must fall back to recomputation: {counters:?}"
    );
    assert_eq!(clean_retries, 0);
    assert_eq!(clean_counters.recompute_fallbacks, 0);
}

/// The functional engine (real math, real KV bytes) under stash loss and
/// corruption: the checksum catches corrupted swap-ins, both fault kinds
/// downgrade to recomputation, and generated tokens stay bit-identical.
#[test]
fn functional_engine_outputs_bit_identical_under_faults() {
    use pensieve_core::functional::FunctionalEngine;
    use pensieve_kvcache::SessionId;

    let cfg = ModelConfig::tiny_llama();
    // A pool small enough that the cache reclaims lazy copies into the
    // CPU tier every round: a lost lazy copy costs nothing (its GPU
    // bytes survive), so only CPU-resident chunks make faults bite.
    let mem = FunctionalConfig {
        block_size: 4,
        pool_blocks: 12,
        stash_blocks: 64,
        free_watermark: 2,
    };
    let mut clean = FunctionalEngine::new(&cfg, 5, mem.clone());
    let mut faulty = FunctionalEngine::new(&cfg, 5, mem);
    let mut fc = FaultConfig::disabled(fault_seed());
    fc.cpu_chunk_loss = 0.7;
    fc.cpu_chunk_corruption = 0.7;
    faulty.set_fault_injector(FaultInjector::new(fc));

    let (a, b) = (SessionId(1), SessionId(2));
    for turn in 0..4u32 {
        for &conv in &[a, b] {
            let prompt: Vec<u32> = (0..6u32)
                .map(|i| (turn * 31 + conv.0 as u32 * 11 + i * 7) % cfg.vocab_size as u32)
                .collect();
            let want = clean.serve_turn(conv, &prompt, 4);
            let got = faulty.serve_turn(conv, &prompt, 4);
            assert_eq!(got, want, "conv {} turn {turn} diverged", conv.0);
        }
    }
    let (lost, corrupt) = faulty.fault_activity();
    assert!(
        lost + corrupt > 0,
        "the fault schedule must have hit the stash"
    );
    let (_, _, _, recomputed) = faulty.cache_activity();
    assert!(recomputed > 0, "faults must be absorbed by recomputation");
}

/// A dead tensor-parallel worker shard surfaces as a typed
/// [`WorkerError::ShardDisconnected`] — promptly, on every subsequent
/// call, and without hanging the scheduler.
#[test]
fn dead_worker_shard_fails_typed_and_fast() {
    let cfg = ModelConfig::tiny_llama();
    let model = TinyModel::new_random(&cfg, 7);
    let mut engine = ThreadedTpEngine::new(&model, 2, FunctionalConfig::default());
    let prompt: Vec<u32> = (0..6).collect();
    engine
        .serve_turn(1, &prompt, 3)
        .expect("healthy fleet serves");

    engine.kill_shard(1);
    let err = engine
        .serve_turn(1, &prompt, 3)
        .expect_err("dead shard must fail the turn");
    assert!(
        matches!(err, WorkerError::ShardDisconnected { .. }),
        "unexpected error: {err}"
    );
    assert!(engine.is_poisoned(), "fleet must be marked failed");
    // Fail-stop: later turns fail immediately with the same typed error.
    let again = engine.serve_turn(2, &[1, 2, 3], 2).expect_err("still dead");
    assert!(matches!(again, WorkerError::ShardDisconnected { .. }));
}

/// Worker stalls delay iterations (visible in the simulated span) but
/// change nothing else; the injector counts the stalls it fired.
#[test]
fn worker_stalls_only_cost_time() {
    let model = ModelConfig::opt_13b();
    let dataset = DatasetSpec::sharegpt();
    let convs = dataset.generate(8, 44);
    let driver = DriverConfig {
        request_rate: 4.0,
        mean_think_time: 2.0,
        seed: 3,
        system_prompt_tokens: 0,
    };
    let run = |stall: f64| {
        let mut fc = FaultConfig::disabled(fault_seed());
        fc.worker_stall = stall;
        let mut e = SimServingEngine::builder(
            EngineConfig::pensieve(),
            model.clone(),
            tight_hw(&model, &convs),
        )
        .fault_injector(FaultInjector::new(fc))
        .build();
        let r = run_closed_loop(&mut e, &convs, &driver);
        let stalls = e.fault_counters().map(|f| f.get(FaultKind::WorkerStall));
        (r, stalls)
    };
    let (calm, calm_stalls) = run(0.0);
    let (stalled, stalls) = run(0.5);
    assert_eq!(calm.responses.len(), stalled.responses.len());
    assert_eq!(
        outputs_by_conv(&calm.responses, convs.len()),
        outputs_by_conv(&stalled.responses, convs.len()),
    );
    assert_eq!(calm_stalls, Some(0));
    assert!(stalls.is_some_and(|n| n > 0), "stalls must have fired");
    assert!(
        stalled.span > calm.span,
        "stalls must cost simulated time: {} vs {}",
        stalled.span,
        calm.span
    );
}

/// Regression for the typed-error conversion of the engine/cache/PCIe
/// hot paths: across a sweep of fault seeds with every fault kind
/// cranked well past the chaos preset, a full closed-loop run must
/// finish every request through the typed recovery paths. Any residual
/// `unwrap`/`expect` on those paths would surface here as a panic.
#[test]
fn aggressive_fault_seed_sweep_never_panics() {
    let model = ModelConfig::opt_13b();
    let dataset = DatasetSpec::sharegpt();
    let convs = dataset.generate(12, 55);
    let total_turns: usize = convs.iter().map(|c| c.turns.len()).sum();
    let driver = DriverConfig {
        request_rate: 10.0,
        mean_think_time: 10.0,
        seed: 7,
        system_prompt_tokens: 0,
    };
    for seed in [fault_seed(), 2, 3, 5, 8, 13] {
        let mut fc = FaultConfig::chaos(seed);
        fc.pcie_failure = 0.80;
        fc.pcie_timeout = 0.25;
        fc.cpu_chunk_loss = 0.20;
        fc.cpu_chunk_corruption = 0.20;
        fc.gpu_alloc_failure = 0.25;
        fc.worker_stall = 0.20;
        let mut e = SimServingEngine::builder(
            EngineConfig::pensieve(),
            model.clone(),
            tight_hw(&model, &convs),
        )
        .fault_injector(FaultInjector::new(fc))
        .build();
        let result = run_closed_loop(&mut e, &convs, &driver);
        assert_eq!(
            result.responses.len(),
            total_turns,
            "seed {seed}: every request must complete (no hangs, no panics)"
        );
    }
}
