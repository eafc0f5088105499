//! Quickstart: serve a three-turn conversation statefully and watch the
//! cache do its job.
//!
//! Builds a Pensieve serving engine for OPT-13B on a simulated A100,
//! submits three turns of one conversation (with think time between
//! turns), and contrasts the prefill work against a stateless vLLM-style
//! baseline serving the same trace.
//!
//! Run with: `cargo run --release --example quickstart`

use pensieve_core::{EngineConfig, Request, RequestId, ServingBackend, SimServingEngine};
use pensieve_kvcache::SessionId;
use pensieve_model::{HardwareSpec, ModelConfig, SimDuration, SimTime};

fn main() {
    let turns = [
        // (prompt tokens, output tokens)
        (120usize, 180usize),
        (40, 220),
        (35, 160),
    ];

    for engine_cfg in [EngineConfig::pensieve(), EngineConfig::vllm()] {
        println!("=== {} ===", engine_cfg.name);
        let mut engine = SimServingEngine::builder(
            engine_cfg,
            ModelConfig::opt_13b(),
            HardwareSpec::azure_nc_a100(1),
        )
        .build();
        let conv = SessionId(1);
        let mut history = 0usize;
        let mut at = SimTime::ZERO;
        for (i, &(prompt, output)) in turns.iter().enumerate() {
            let request = Request::builder()
                .id(RequestId(i as u64))
                .session(conv)
                .arrival(at)
                .prompt_tokens(prompt)
                .output_tokens(output)
                .history_tokens(history)
                .build()
                .expect("turn is well-formed");
            engine.submit(request);
            engine.run_until_idle();
            let resp = engine.drain_responses().remove(0);
            println!(
                "turn {}: history {:>4} tokens | prefilled {:>4} | served from cache {:>4} | \
                 ttft {:>6.1} ms | latency {:>6.2} s",
                i + 1,
                history,
                resp.prefill_tokens,
                resp.cached_history_tokens,
                resp.ttft().as_millis(),
                resp.latency().as_secs()
            );
            history += prompt + output;
            // The user reads the response and thinks for a while.
            at = resp.finish + SimDuration::from_secs(20.0);
        }
        let stats = engine.cache_stats();
        println!(
            "cache: {} tokens reused from GPU, {} swapped in, {} recomputed\n",
            stats.gpu_hit_tokens, stats.swapped_in_tokens, stats.recomputed_tokens
        );
    }
    println!(
        "Pensieve prefills only each new prompt (plus the previous turn's final\n\
         token); the stateless baseline re-prefills the entire history every turn."
    );
}
