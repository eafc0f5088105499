//! Tensor-parallel serving across real worker threads (paper Figure 7).
//!
//! Shards the tiny transformer Megatron-style across worker threads —
//! each owning its slice of the attention heads *and its KV-head slice of
//! every cache block* (§4.4.2) — under the one scheduler and cache
//! manager of the functional engine: every worker carries out the same
//! plan. The GPU pool and host stash are small enough that three
//! interleaved conversations are evicted, swapped back in and partly
//! recomputed; every turn is checked token for token against stateless
//! decoding on the unsharded model (`forward_dense`).
//!
//! Run with: `cargo run --release --example tensor_parallel`

use pensieve_core::functional::FunctionalConfig;
use pensieve_core::workers::ThreadedTpEngine;
use pensieve_kernels::model::TinyModel;
use pensieve_kernels::ops::argmax;
use pensieve_model::ModelConfig;

fn main() {
    let cfg = ModelConfig::tiny_llama();
    let model = TinyModel::new_random(&cfg, 2025);
    let mem = FunctionalConfig {
        block_size: 4,
        pool_blocks: 16, // Tiny "GPU": 64 tokens, every shard its slice.
        stash_blocks: 6, // Tiny "CPU": 24 tokens, at full width.
        free_watermark: 3,
    };
    let mut engine = ThreadedTpEngine::new(&model, 2, mem);
    println!(
        "model: {} ({} heads, {} KV heads) sharded over {} worker threads\n",
        cfg.name,
        cfg.num_heads,
        cfg.num_kv_heads,
        engine.num_shards()
    );

    let vocab = cfg.vocab_size as u32;
    let mut transcripts = vec![Vec::new(); 3];
    for round in 0..3u32 {
        for (conv, transcript) in (1u64..).zip(&mut transcripts) {
            let prompt: Vec<u32> = (0..6u32)
                .map(|i| (round * 29 + conv as u32 * 11 + i * 5 + 3) % vocab)
                .collect();
            let generated = engine
                .serve_turn(conv, &prompt, 4)
                .expect("healthy fleet serves the turn");
            transcript.extend_from_slice(&prompt);
            // Stateless single-model reference, recomputed from scratch.
            for &token in &generated {
                let expect = argmax(&model.forward_dense(transcript)) as u32;
                assert_eq!(token, expect, "sharded output diverged");
                transcript.push(token);
            }
            let (out, inn, dropped, recomputed) = engine.cache_activity();
            println!(
                "round {} conv {conv}: generated {generated:?} (matches unsharded model) | \
                 cumulative: {out} blocks evicted, {inn} swapped in, {dropped} dropped, \
                 {recomputed} tokens recomputed",
                round + 1,
            );
        }
    }
    let (out, inn, dropped, recomputed) = engine.cache_activity();
    assert!(
        out > 0 && inn > 0 && recomputed > 0,
        "expected eviction, swap-in and recomputation across the shards"
    );
    println!(
        "\nEach worker stored only its KV-head slice of every block; the one\n\
         scheduler decided every move ({out} evictions, {inn} swap-ins,\n\
         {dropped} drops, {recomputed} recomputed tokens), and the host kept\n\
         full-width copies."
    );
}
