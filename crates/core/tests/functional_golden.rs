//! Golden pins for the real-arithmetic path: the tiny transformer
//! ([`TinyModel`]), its tensor-parallel forms ([`TpModel`],
//! [`ThreadedTpEngine`]) and the [`FunctionalEngine`] that swaps, drops
//! and recomputes real KV bytes around it.
//!
//! The repo's other functional tests compare these with
//! `forward_dense` to 1e-3 or with each other token by token; none of
//! them would notice the paged path's arithmetic changing in the last
//! bit. The constants here were captured *before* the three statements
//! of the transformer layer in `kernels/src/{model,tp}.rs` and
//! `core/src/workers.rs` were folded into one, so they pin that rewrite
//! (and any later one) to the bit: every logit's bit pattern, every
//! served token, every swap/drop/recompute/fault count.
//!
//! `TINY_GOLDEN` and `TP_GOLDEN` moved once since, when the fused
//! attention kernels' online softmax switched from libm's `expf` to the
//! kernels crate's own `exp` (1.05 ulp from the true value at worst,
//! libm 0.5): the logits' last bits moved with it. `SERVED_GOLDEN` and
//! `FUNCTIONAL_TOKENS` did not: they digest argmax tokens, and no logit
//! moved far enough to change which token wins.
//!
//! Every pin held, in debug and release, when the last layer was
//! narrowed to each sequence's last row (its queries, attention, output
//! projection, MLP, final norm and LM head; every row's K/V is still
//! written): each row's bits are fixed by its own operations' order, not
//! by which rows share a call.
//!
//! Only public API is used. A failing test prints the constant that
//! would replace its pin — paste it only for an *intended* change in
//! arithmetic or eviction behaviour.

use pensieve_core::functional::{FunctionalConfig, FunctionalEngine};
use pensieve_core::workers::ThreadedTpEngine;
use pensieve_kernels::model::{SegmentInput, SeqInput, TinyModel};
use pensieve_kernels::tp::TpModel;
use pensieve_kernels::{BlockTable, PagedKvCache};
use pensieve_kvcache::{fnv1a, SessionId};
use pensieve_model::ModelConfig;
use pensieve_sim::{FaultConfig, FaultInjector};

/// Tokens per KV block everywhere in this file.
const BLOCK: usize = 4;

/// FNV-1a over a stream of words, little-endian.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// The bit patterns of a logit row, as digest words.
fn bits(logits: &[f32]) -> impl Iterator<Item = u64> + '_ {
    logits.iter().map(|x| u64::from(x.to_bits()))
}

fn tokens(seed: u32, len: usize) -> Vec<u32> {
    (0..len as u32)
        .map(|i| (seed * 37 + i * 11) % 128)
        .collect()
}

fn seg(tokens: Vec<u32>, start_pos: usize) -> SegmentInput {
    SegmentInput { tokens, start_pos }
}

/// Compares a test's digests with its committed pins, printing the
/// replacement table on drift.
fn check<const N: usize>(what: &str, got: [u64; N], golden: [u64; N]) {
    assert_eq!(
        got, golden,
        "{what}: digest drift; if the change is intended the pins become {got:#018x?}"
    );
}

/// The four golden passes over the paged cache, in order: a 13-token
/// prefill, one decode step, a dropped-prefix recompute (leading two
/// blocks freed, refilled and recomputed as a leading segment beside a
/// 3-token prompt), and a ragged batch of three sequences (that
/// conversation's next decode step, a fresh 7-token prefill, and a third
/// conversation recomputing its middle block beside a 2-token prompt).
/// Returns every logit row produced, in order.
fn tiny_model_passes(cfg: &ModelConfig) -> Vec<Vec<f32>> {
    let model = TinyModel::new_random(cfg, 42);
    let mut cache = PagedKvCache::new(model.kv_layout(BLOCK), cfg.num_layers, 64);
    let mut rows = Vec::new();
    let mut run = |cache: &mut PagedKvCache, batch: &mut [SeqInput<'_>]| {
        let logits = model
            .forward(cache, batch)
            .expect("pool sized for the test");
        for r in 0..logits.rows() {
            rows.push(logits.row(r).to_vec());
        }
    };

    let history = tokens(1, 13);
    let mut a = BlockTable::new(BLOCK);
    run(
        &mut cache,
        &mut [SeqInput {
            segments: vec![seg(history.clone(), 0)],
            table: &mut a,
        }],
    );
    run(
        &mut cache,
        &mut [SeqInput {
            segments: vec![seg(vec![77], 13)],
            table: &mut a,
        }],
    );
    a.free_blocks(&mut cache, 0..2);
    a.refill(&mut cache, 0..2).expect("just freed");
    run(
        &mut cache,
        &mut [SeqInput {
            segments: vec![seg(history[..8].to_vec(), 0), seg(vec![5, 6, 7], 14)],
            table: &mut a,
        }],
    );

    let mut b = BlockTable::new(BLOCK);
    let mut c = BlockTable::new(BLOCK);
    let c_history = tokens(3, 10);
    run(
        &mut cache,
        &mut [SeqInput {
            segments: vec![seg(c_history.clone(), 0)],
            table: &mut c,
        }],
    );
    c.free_blocks(&mut cache, 1..2);
    c.refill(&mut cache, 1..2).expect("just freed");
    run(
        &mut cache,
        &mut [
            SeqInput {
                segments: vec![seg(vec![9], 17)],
                table: &mut a,
            },
            SeqInput {
                segments: vec![seg(tokens(2, 7), 0)],
                table: &mut b,
            },
            SeqInput {
                segments: vec![seg(c_history[4..8].to_vec(), 4), seg(vec![1, 2], 10)],
                table: &mut c,
            },
        ],
    );
    rows
}

/// (a) `TinyModel::forward`, both model families.
#[test]
fn tiny_model_logits_are_pinned() {
    let got = [ModelConfig::tiny_llama(), ModelConfig::tiny_opt()].map(|cfg| {
        let rows = tiny_model_passes(&cfg);
        assert_eq!(rows.len(), 7, "1 + 1 + 1 + 1 + 3 logit rows");
        digest(rows.iter().flat_map(|r| bits(r)))
    });
    check("TINY_GOLDEN", got, TINY_GOLDEN);
}

/// The single-sequence passes every tensor-parallel form is driven
/// through: a 9-token prefill, a decode step, and a two-segment pass
/// that recomputes the first block in place beside a 3-token prompt.
fn tp_passes() -> [Vec<SegmentInput>; 3] {
    let prompt = tokens(4, 9);
    [
        vec![seg(prompt.clone(), 0)],
        vec![seg(vec![31], 9)],
        vec![seg(prompt[..4].to_vec(), 0), seg(vec![8, 9, 10], 10)],
    ]
}

fn tp_model_digest(model: &TinyModel, shards: usize) -> u64 {
    let mut tp = TpModel::new(model, shards, BLOCK, 64);
    let mut words = Vec::new();
    for pass in tp_passes() {
        words.extend(bits(&tp.forward_seq(1, &pass).expect("pool sized")));
    }
    digest(words)
}

/// The one-shard partition is the unsharded model: same logits, bit for
/// bit, on the golden passes.
#[test]
fn one_shard_tp_equals_tiny_model() {
    for cfg in [ModelConfig::tiny_llama(), ModelConfig::tiny_opt()] {
        let model = TinyModel::new_random(&cfg, 42);
        let mut tp = TpModel::new(&model, 1, BLOCK, 64);
        let mut cache = PagedKvCache::new(model.kv_layout(BLOCK), cfg.num_layers, 64);
        let mut table = BlockTable::new(BLOCK);
        for (i, pass) in tp_passes().into_iter().enumerate() {
            let sharded = tp.forward_seq(1, &pass).expect("pool sized");
            let mut batch = [SeqInput {
                segments: pass,
                table: &mut table,
            }];
            let whole = model.forward(&mut cache, &mut batch).expect("pool sized");
            assert!(
                bits(&sharded).eq(bits(whole.row(0))),
                "{} pass {i}: one shard differs from the unsharded model",
                cfg.name
            );
        }
    }
}

/// Logits of the golden passes, then the tokens of three served turns
/// on a second conversation.
fn threaded_digest(model: &TinyModel, shards: usize, intra_threads: usize) -> (u64, u64) {
    let mut engine = ThreadedTpEngine::with_intra_threads(model, shards, BLOCK, 64, intra_threads);
    let mut words = Vec::new();
    for pass in tp_passes() {
        words.extend(bits(&engine.forward_seq(1, &pass).expect("healthy fleet")));
    }
    let mut served = Vec::new();
    for turn in 0..3 {
        let out = engine
            .serve_turn(2, &tokens(10 + turn, 6), 4)
            .expect("healthy fleet");
        served.extend(out.into_iter().map(u64::from));
    }
    (digest(words), digest(served))
}

/// (b) `TpModel` at 1 and 2 shards (llama) and 4 (opt); the threaded
/// fleet at the same shard counts and at `intra_threads` 1 and 2. The
/// threaded fleet's logits must equal the serial orchestrator's at the
/// same shard count, so they share its pin.
#[test]
fn tensor_parallel_logits_and_tokens_are_pinned() {
    let llama = TinyModel::new_random(&ModelConfig::tiny_llama(), 42);
    let opt = TinyModel::new_random(&ModelConfig::tiny_opt(), 42);
    let tp = [
        tp_model_digest(&llama, 1),
        tp_model_digest(&llama, 2),
        tp_model_digest(&opt, 4),
    ];
    check("TP_GOLDEN", tp, TP_GOLDEN);
    let (logits, served_llama) = threaded_digest(&llama, 2, 1);
    assert_eq!(logits, tp[1], "threaded llama x2 differs from TpModel");
    assert_eq!(
        threaded_digest(&llama, 2, 2),
        (logits, served_llama),
        "intra_threads changed a bit"
    );
    let (logits, served_opt) = threaded_digest(&opt, 4, 1);
    assert_eq!(logits, tp[2], "threaded opt x4 differs from TpModel");
    check("SERVED_GOLDEN", [served_llama, served_opt], SERVED_GOLDEN);
}

/// (c) The functional engine on a pool and stash small enough that
/// blocks are swapped in, dropped and recomputed, with a fork so the
/// chunk store dedups. Returns the digest of what it served (tokens and
/// `store_dedup`) and its cache activity, `(swap_out, swap_in, dropped,
/// recomputed, lost, corrupt)`: the tokens are fixed by the arithmetic,
/// the activity by whichever cache manager decided what moved.
fn functional_run(fault_seed: Option<u64>) -> (u64, [u64; 6]) {
    let cfg = ModelConfig::tiny_llama();
    let mut engine = FunctionalEngine::new(
        &cfg,
        42,
        FunctionalConfig {
            block_size: BLOCK,
            pool_blocks: 24,
            stash_blocks: 14,
            free_watermark: 2,
        },
    );
    if let Some(seed) = fault_seed {
        let mut faults = FaultConfig::disabled(seed);
        faults.cpu_chunk_loss = 0.5;
        faults.cpu_chunk_corruption = 0.5;
        engine.set_fault_injector(FaultInjector::new(faults));
    }
    let mut words = Vec::new();
    for turn in 0..4u32 {
        for conv in 1..=3u64 {
            if turn == 2 && conv == 3 {
                engine
                    .fork_conversation(SessionId(1), SessionId(4))
                    .expect("parent served, child fresh");
            }
            let prompt = tokens(20 + turn * 3 + conv as u32, 7);
            let out = engine.serve_turn(SessionId(conv), &prompt, 5);
            words.extend(out.into_iter().map(u64::from));
        }
    }
    let out = engine.serve_turn(SessionId(4), &tokens(40, 5), 5);
    words.extend(out.into_iter().map(u64::from));

    let (swap_out, swap_in, dropped, recomputed) = engine.cache_activity();
    assert!(
        swap_out > 0 && swap_in > 0,
        "no swap traffic: {swap_out}/{swap_in}"
    );
    assert!(dropped > 0, "the stash never overflowed");
    assert!(recomputed > 0, "nothing was recomputed");
    let (lost, corrupt) = engine.fault_activity();
    let (physical, logical) = engine.store_dedup();
    assert!(physical < logical, "the fork shares no chunk");
    words.extend([physical as u64, logical as u64]);
    let activity = [swap_out, swap_in, dropped, recomputed, lost, corrupt];
    (digest(words), activity)
}

#[test]
fn functional_engine_is_pinned() {
    let (clean, clean_activity) = functional_run(None);
    assert_eq!(clean_activity[4..], [0, 0]);
    let (faulty, activity) = functional_run(Some(7));
    let [.., lost, corrupt] = activity;
    assert!(
        lost > 0 && corrupt > 0,
        "faults never fired: {lost}/{corrupt}"
    );
    assert_eq!(clean, faulty, "faults changed a served token");
    check("FUNCTIONAL_TOKENS", [clean, faulty], FUNCTIONAL_TOKENS);
    let got = [clean_activity, activity];
    assert_eq!(
        got, FUNCTIONAL_ACTIVITY,
        "FUNCTIONAL_ACTIVITY: drift; if the change is intended the pin becomes {got:?}"
    );
}

/// `tiny_llama`, `tiny_opt`.
const TINY_GOLDEN: [u64; 2] = [0x04db_53e6_1bab_0c60, 0xa8b3_a7b4_b157_7e60];
/// `TpModel`: llama x1, llama x2, opt x4.
const TP_GOLDEN: [u64; 3] = [
    0xd743_33a2_f6b1_338f,
    0x29f4_7c8e_eb84_4572,
    0xd542_72d8_a3cf_0903,
];
/// `ThreadedTpEngine::serve_turn` tokens: llama x2, opt x4.
const SERVED_GOLDEN: [u64; 2] = [0x8a99_6d93_bc56_9de9, 0x5dd2_1776_51a8_acdf];
/// `FunctionalEngine` served tokens and `store_dedup`: fault-free,
/// seeded faults. Fixed by the arithmetic alone, whatever the cache did.
const FUNCTIONAL_TOKENS: [u64; 2] = [0x7d5e_9360_70c1_0d30, 0x7d5e_9360_70c1_0d30];
/// `FunctionalEngine` `(swap_out, swap_in, dropped, recomputed, lost,
/// corrupt)`: fault-free, seeded faults. Moves with any change in what
/// the cache manager evicts, restores or drops.
const FUNCTIONAL_ACTIVITY: [[u64; 6]; 2] = [[48, 9, 19, 32, 0, 0], [53, 8, 13, 39, 12, 2]];
