//! Property-based tests over the core data structures and kernels.

use pensieve_core::{FunctionalConfig, FunctionalEngine};
use pensieve_kernels::attention::contiguous::fused_contiguous;
use pensieve_kernels::attention::multi::{
    paged_multi_token, paged_multi_token_pool, paged_multi_token_pool_ungated,
    paged_multi_token_ref,
};
use pensieve_kernels::attention::multiround::multi_round_single_token;
use pensieve_kernels::attention::naive::naive_attention;
use pensieve_kernels::attention::single::paged_single_token_batch;
use pensieve_kernels::model::{SegmentInput, SeqInput, TinyModel};
use pensieve_kernels::ops::{matmul, matmul_pool, matmul_ref};
use pensieve_kernels::paged::gather_contiguous;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache, Pool};
use pensieve_kvcache::{CacheConfig, LruPolicy, SessionId, TieredKvCache};
use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable, SeqShape, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random paged context and query for a given shape.
fn build_case(
    seed: u64,
    q_len: usize,
    ctx: usize,
    heads: usize,
    kv_heads: usize,
    d: usize,
    block: usize,
) -> (AttnConfig, PagedKvCache, BlockTable, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = AttnConfig::new(heads, kv_heads, d);
    let layout = KvLayout {
        num_kv_heads: kv_heads,
        head_dim: d,
        block_size: block,
    };
    let mut pool = PagedKvCache::new(layout, 1, ctx.div_ceil(block) + 1);
    let mut table = BlockTable::new(block);
    let tf = layout.token_floats();
    for _ in 0..ctx {
        let (b, s) = table.append_token(&mut pool).unwrap();
        let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
        let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
        pool.write_token(0, b, s, &k, &v);
    }
    let q = Matrix::from_vec(
        q_len,
        cfg.q_width(),
        (0..q_len * cfg.q_width())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect(),
    );
    (cfg, pool, table, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four attention kernels agree with the naive reference on
    /// arbitrary shapes (including GQA and ragged block tails).
    #[test]
    fn attention_kernels_agree(
        seed in 0u64..1000,
        q_len in 1usize..12,
        extra_ctx in 0usize..40,
        head_split in 0usize..3,
        block in prop::sample::select(vec![2usize, 4, 8, 16]),
    ) {
        let (heads, kv_heads) = [(4, 4), (4, 2), (8, 1)][head_split];
        let d = 8;
        let ctx = q_len + extra_ctx;
        let (cfg, pool, table, q) = build_case(seed, q_len, ctx, heads, kv_heads, d, block);
        let layer = pool.layer(0);
        let seq = AttnSeq { q_start: 0, q_len, context_len: ctx, table: &table };

        let multi = paged_multi_token(&cfg, &q, &layer, &[seq]);
        let rounds = multi_round_single_token(&cfg, &q, &layer, &[seq]);
        let (k, v) = gather_contiguous(&layer, &table, ctx);
        let fused = fused_contiguous(&cfg, &q, &k, &v);
        let reference = naive_attention(&cfg, &q, &k, &v);

        prop_assert!(multi.max_abs_diff(&reference) < 1e-4);
        prop_assert!(rounds.max_abs_diff(&reference) < 1e-4);
        prop_assert!(fused.max_abs_diff(&reference) < 1e-4);
    }

    /// The cache-blocked GEMM and its data-parallel variant reproduce the
    /// scalar reference **bit-for-bit** on arbitrary shapes, straddling
    /// both the small-volume fallback and the packing tile boundaries.
    #[test]
    fn blocked_and_parallel_matmul_bit_identical(
        seed in 0u64..1000,
        m in 1usize..40,
        k in prop::sample::select(vec![1usize, 3, 63, 64, 65, 130]),
        n in prop::sample::select(vec![1usize, 7, 127, 128, 129]),
        threads in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(
            m, k, (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect());
        let b = Matrix::from_vec(
            k, n, (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect());
        let reference = matmul_ref(&a, &b);
        prop_assert_eq!(&matmul(&a, &b), &reference);
        prop_assert_eq!(&matmul_pool(&a, &b, &Pool::new(threads)), &reference);
    }

    /// The blocked and data-parallel attention kernels reproduce the
    /// scalar reference **bit-for-bit** across random shapes, GQA ratios,
    /// head dims, block sizes, and thread counts; decode batches
    /// (`q_len == 1`) also cover the batched single-token fast path. The
    /// lane kernel folds a KV head's `q_len * group` lanes in chunks of 8
    /// (4 when there are at most 4): the head splits put that count below,
    /// at and across both widths. Positions every lane of a chunk sees
    /// fold four at a time within a KV block: block sizes 3 and 5 cut
    /// those groups short, and the head dims cover whole and partial
    /// blocks of 8 head-dim rows.
    #[test]
    fn blocked_and_parallel_attention_bit_identical(
        seed in 0u64..1000,
        q_len in 1usize..12,
        extra_ctx in 0usize..40,
        head_split in 0usize..6,
        d in prop::sample::select(vec![4usize, 6, 8, 12, 16, 20, 64]),
        block in prop::sample::select(vec![2usize, 3, 4, 5, 8, 16]),
        threads in 2usize..4,
    ) {
        let (heads, kv_heads) = [(4, 4), (4, 2), (8, 1), (6, 3), (8, 8), (6, 2)][head_split];
        let ctx = q_len + extra_ctx;
        let (cfg, pool, table, q) = build_case(seed, q_len, ctx, heads, kv_heads, d, block);
        let layer = pool.layer(0);
        let seq = AttnSeq { q_start: 0, q_len, context_len: ctx, table: &table };

        let reference = paged_multi_token_ref(&cfg, &q, &layer, &[seq]);
        prop_assert_eq!(&paged_multi_token(&cfg, &q, &layer, &[seq]), &reference);
        let workers = Pool::new(threads);
        prop_assert_eq!(&paged_multi_token_pool(&cfg, &q, &layer, &[seq], &workers), &reference);
        prop_assert_eq!(
            &paged_multi_token_pool_ungated(&cfg, &q, &layer, &[seq], &workers),
            &reference
        );
        if q_len == 1 {
            prop_assert_eq!(&paged_single_token_batch(&cfg, &q, &layer, &[seq]), &reference);
        }
    }

    /// §4.3.4 dropped-token recomputation layout: two sub-requests sharing
    /// one block table with different context lengths stay bit-identical
    /// to the scalar reference under the blocked and parallel kernels.
    /// The dropped range sits after `kept` history tokens, so its causal
    /// edge (the first lane that sees position `t` is
    /// `(t - kept) * group`) cuts through lane chunks of 8 at every group
    /// size drawn, 3 included.
    #[test]
    fn subrequest_attention_bit_identical(
        seed in 0u64..1000,
        kept in 0usize..6,
        dropped in 1usize..12,
        prompt in 1usize..8,
        gap in 0usize..24,
        head_split in 0usize..4,
        threads in 2usize..4,
    ) {
        // Context layout: [kept history][dropped tokens][gap][prompt].
        let ctx = kept + dropped + gap + prompt;
        let (heads, kv_heads) = [(4, 2), (6, 2), (8, 1), (8, 8)][head_split];
        let (cfg, pool, table, q) =
            build_case(seed, dropped + prompt, ctx, heads, kv_heads, 8, 4);
        let layer = pool.layer(0);
        let seqs = [
            // Recomputed dropped tokens, mid-context.
            AttnSeq { q_start: 0, q_len: dropped, context_len: kept + dropped, table: &table },
            // The new prompt chunk at the end of the same table.
            AttnSeq { q_start: dropped, q_len: prompt, context_len: ctx, table: &table },
        ];
        let reference = paged_multi_token_ref(&cfg, &q, &layer, &seqs);
        prop_assert_eq!(&paged_multi_token(&cfg, &q, &layer, &seqs), &reference);
        let workers = Pool::new(threads);
        prop_assert_eq!(&paged_multi_token_pool(&cfg, &q, &layer, &seqs, &workers), &reference);
        prop_assert_eq!(
            &paged_multi_token_pool_ungated(&cfg, &q, &layer, &seqs, &workers),
            &reference
        );
    }

    /// Batch invariance: a row's logits do not depend on which rows share
    /// its forward pass. Each sequence has a computed context; one mixed
    /// batch then runs decode rows (one query token), prefill rows
    /// (several) and rows led by a dropped-range sub-request, and every
    /// row's logits equal, bit for bit, that row forwarded alone over an
    /// identical cache. This is what lets a real executor batch any rows.
    /// Both families are drawn, so the last layer's narrowed queries are
    /// checked with RoPE (Llama) and with learned positions (OPT).
    #[test]
    fn batched_rows_bit_identical_to_solo_rows(
        seed in 0u64..1000,
        rows in prop::collection::vec((2usize..24, 1usize..6, 0usize..2), 1..5),
        threads in 1usize..3,
        cfg in prop::sample::select(vec![ModelConfig::tiny_llama(), ModelConfig::tiny_opt()]),
    ) {
        let mut model = TinyModel::new_random(&cfg, seed);
        model.set_threads(threads);
        let tok = |i: usize, j: usize| ((seed as usize + i * 31 + j * 7) % cfg.vocab_size) as u32;
        let seg = |i: usize, span: std::ops::Range<usize>| SegmentInput {
            start_pos: span.start,
            tokens: span.map(|j| tok(i, j)).collect(),
        };
        // Each row's query: a recompute of positions 0..2 if `sub` is 1,
        // then `q` new tokens after its context.
        let query = |i: usize, (ctx, q, sub): (usize, usize, usize)| {
            let lead = (sub == 1).then(|| seg(i, 0..2));
            lead.into_iter().chain([seg(i, ctx..ctx + q)]).collect::<Vec<_>>()
        };
        // A pool holding every row's context, each computed alone.
        let contexts = || {
            let mut pool = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 256);
            let mut tables = vec![BlockTable::new(4); rows.len()];
            for (i, (table, &(ctx, ..))) in tables.iter_mut().zip(&rows).enumerate() {
                let prefill = SeqInput { segments: vec![seg(i, 0..ctx)], table };
                model.forward(&mut pool, &mut [prefill]).unwrap();
            }
            (pool, tables)
        };
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let (mut pool, mut tables) = contexts();
        let mut batch: Vec<SeqInput> = tables
            .iter_mut()
            .enumerate()
            .map(|(i, table)| SeqInput { segments: query(i, rows[i]), table })
            .collect();
        let batched = model.forward(&mut pool, &mut batch).unwrap();
        let (mut pool, mut tables) = contexts();
        for (i, table) in tables.iter_mut().enumerate() {
            let solo = SeqInput { segments: query(i, rows[i]), table };
            let alone = model.forward(&mut pool, &mut [solo]).unwrap();
            prop_assert_eq!(bits(batched.row(i)), bits(alone.row(0)), "row {}", i);
        }
    }

    /// Causality: perturbing KV beyond a query row's visible range never
    /// changes that row's output.
    #[test]
    fn causal_masking_blocks_future_leakage(
        seed in 0u64..1000,
        q_len in 2usize..8,
        extra in 1usize..16,
    ) {
        let ctx = q_len + extra;
        let (cfg, mut pool, table, q) = build_case(seed, q_len, ctx, 4, 2, 8, 4);
        let base = paged_multi_token(&cfg, &q, &pool.layer(0), &[AttnSeq {
            q_start: 0, q_len, context_len: ctx, table: &table,
        }]);
        // Perturb the final context token (visible only to the last row).
        let (b, s) = table.position(ctx - 1);
        let tf = pool.layout().token_floats();
        pool.write_token(0, b, s, &vec![9.0; tf], &vec![-9.0; tf]);
        let alt = paged_multi_token(&cfg, &q, &pool.layer(0), &[AttnSeq {
            q_start: 0, q_len, context_len: ctx, table: &table,
        }]);
        for j in 0..q_len - 1 {
            for c in 0..cfg.q_width() {
                prop_assert!((base[(j, c)] - alt[(j, c)]).abs() < 1e-6,
                    "row {j} saw a future token");
            }
        }
    }

    /// Tiered-cache conservation: tokens never appear or vanish across an
    /// arbitrary sequence of appends, swaps, suspends, and restores.
    #[test]
    fn cache_conserves_tokens(
        ops in prop::collection::vec((0u8..5, 0u64..4, 1usize..100), 1..60),
    ) {
        let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, 2048, 1024))
            .policy(Box::new(LruPolicy))
            .build();
        let mut expected: std::collections::HashMap<u64, usize> = Default::default();
        let mut t = 0.0f64;
        for (op, conv_raw, n) in ops {
            t += 1.0;
            let now = SimTime::from_secs(t);
            let conv = SessionId(conv_raw);
            match op {
                0 => {
                    // Append (restore first so the trailing chunk is GPU).
                    if cache.commit_restore(conv, now).is_ok()
                        && cache.append_tokens(conv, n, now).is_ok()
                    {
                        *expected.entry(conv_raw).or_default() += n;
                    }
                }
                1 => { cache.unpin(conv); }
                2 => { cache.suspend(conv, now); }
                3 => { let _ = cache.maybe_swap_out(now); }
                _ => { let _ = cache.plan_restore(conv); }
            }
            for (&c, &tokens) in &expected {
                prop_assert_eq!(
                    cache.conversation_tokens(SessionId(c)),
                    tokens,
                    "token count drifted for conversation {}", c
                );
            }
            prop_assert!(cache.gpu_slots_used() <= 2048);
            prop_assert!(cache.cpu_used() <= 1024);
        }
    }

    /// Eviction and fault operations never touch a conversation pinned by
    /// the active batch: between `commit_restore` and `suspend` its whole
    /// context stays GPU-resident, even while other conversations are
    /// swapped out, force-evicted, lost, corrupted, or force-dropped
    /// around it — including by the fault-injection entry points.
    #[test]
    fn eviction_never_evicts_pinned_chunks(
        ops in prop::collection::vec((0u8..7, 0u64..4, 1usize..64), 1..60),
    ) {
        let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, 1024, 4096))
            .policy(Box::new(LruPolicy))
            .build();
        let mut pinned: std::collections::HashSet<u64> = Default::default();
        let mut t = 0.0f64;
        for (op, conv_raw, n) in ops {
            t += 1.0;
            let now = SimTime::from_secs(t);
            let conv = SessionId(conv_raw);
            match op {
                0 => {
                    // Admission: restore pins; the append may fail on a
                    // full GPU without unpinning.
                    if cache.commit_restore(conv, now).is_ok() {
                        pinned.insert(conv_raw);
                        let _ = cache.append_tokens(conv, n, now);
                    }
                }
                1 => {
                    cache.suspend(conv, now);
                    pinned.remove(&conv_raw);
                }
                2 => { let _ = cache.maybe_swap_out(now); }
                3 => {
                    // Backpressure eviction on behalf of some conversation.
                    let _ = cache.swap_out_until_for(n, Some(conv), now);
                }
                4 | 5 => {
                    // Injected chunk loss/corruption against a CPU copy.
                    let targets = cache.cpu_resident_chunks();
                    if !targets.is_empty() {
                        let (c, idx, _) = targets[n % targets.len()];
                        if op == 4 {
                            cache.mark_chunk_lost(c, idx).unwrap();
                        } else {
                            cache.mark_chunk_corrupt(c, idx).unwrap();
                        }
                    }
                }
                _ => {
                    // Swap-in retry exhaustion: force-drop CPU chunks.
                    let _ = cache.drop_cpu_chunks(conv, now);
                }
            }
            for &c in &pinned {
                let plan = cache.plan_restore(SessionId(c));
                prop_assert_eq!(
                    plan.swap_in_tokens + plan.recompute_tokens,
                    0,
                    "active conversation {} lost GPU residency", c
                );
            }
            prop_assert!(cache.gpu_slots_used() <= 1024);
        }
    }

    /// A restore plan always accounts for exactly the tracked tokens, and
    /// committing it makes everything GPU-resident.
    #[test]
    fn restore_plans_are_complete(
        appends in prop::collection::vec(1usize..200, 1..6),
    ) {
        let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, 4096, 512))
            .policy(Box::new(LruPolicy))
            .build();
        let conv = SessionId(1);
        let mut t = 0.0;
        for n in &appends {
            t += 1.0;
            cache.commit_restore(conv, SimTime::from_secs(t)).unwrap();
            cache.append_tokens(conv, *n, SimTime::from_secs(t)).unwrap();
        }
        cache.suspend(conv, SimTime::from_secs(t + 1.0));
        let total: usize = appends.iter().sum();
        let plan = cache.plan_restore(conv);
        prop_assert_eq!(
            plan.gpu_hit_tokens + plan.revalidate_tokens
                + plan.swap_in_tokens + plan.recompute_tokens,
            total
        );
        let plan = cache.commit_restore(conv, SimTime::from_secs(t + 2.0)).unwrap();
        prop_assert_eq!(plan.new_gpu_slots() + plan.gpu_hit_tokens + plan.revalidate_tokens, total);
        let after = cache.plan_restore(conv);
        prop_assert!(after.is_full_gpu_hit());
    }

    /// The profiled cost table is monotone in context length, so the
    /// retention-value policy always prefers leading chunks.
    #[test]
    fn profiled_cost_is_monotone(chunk in prop::sample::select(vec![8usize, 16, 32, 64])) {
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        let table = ProfiledCostTable::profile(&cost, chunk, 16384);
        let mut prev = table.chunk_cost(chunk);
        let mut l = chunk * 2;
        while l <= 16384 {
            let c = table.chunk_cost(l);
            prop_assert!(c >= prev, "cost not monotone at context {}", l);
            prev = c;
            l += chunk.max(97);
        }
    }

    /// Forking one conversation into N branches over the shared
    /// content-addressed store never changes a single output token:
    /// every branch decodes bit-identically to stateless recomputation
    /// of its full (logically private) history, while the store holds
    /// the shared prefix physically once.
    #[test]
    fn forked_sessions_decode_bit_identical_to_unshared(
        seed in 0u64..100,
        forks in 2usize..5,
        parent_turns in 1usize..3,
        prompt_len in 3usize..8,
    ) {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, seed, FunctionalConfig::default());
        let parent = SessionId(1);
        let prompt = |salt: u32| -> Vec<u32> {
            (0..prompt_len as u32)
                .map(|i| (seed as u32 ^ (salt * 131 + i * 17)) % cfg.vocab_size as u32)
                .collect()
        };
        for turn in 0..parent_turns {
            e.serve_turn(parent, &prompt(turn as u32), 2);
        }
        let base = e.history(parent);
        for k in 0..forks {
            let child = SessionId(100 + k as u64);
            e.fork_conversation(parent, child).expect("fresh child fork");
            let p = prompt(50 + k as u32);
            let got = e.serve_turn(child, &p, 3);
            let mut full = base.clone();
            full.extend_from_slice(&p);
            prop_assert_eq!(&got, &e.reference_decode(&full, 3),
                "fork {} diverged from stateless recomputation", k);
        }
        // The branches really share the parent prefix physically.
        let (physical, logical) = e.store_dedup();
        prop_assert!(physical < logical,
            "expected dedup: physical {} >= logical {}", physical, logical);
    }

    /// Batch cost is superadditive-ish: a unified batch never costs more
    /// than running its halves separately (the Figure-13 rationale).
    #[test]
    fn unified_batch_never_slower_than_split(
        prefill_len in 1usize..512,
        decodes in 1usize..48,
        ctx in 64usize..4096,
    ) {
        let cost = CostModel::new(ModelConfig::llama2_13b(), HardwareSpec::azure_nc_a100(1));
        let prefill = SeqShape::prefill(prefill_len, 0);
        let decode_shapes: Vec<SeqShape> =
            (0..decodes).map(|_| SeqShape::decode(ctx)).collect();
        let mut all = decode_shapes.clone();
        all.push(prefill);
        let unified = cost.batch_step_time(&pensieve_model::BatchShape::new(all));
        let split = cost.batch_step_time(&pensieve_model::BatchShape::new(vec![prefill]))
            + cost.batch_step_time(&pensieve_model::BatchShape::new(decode_shapes));
        prop_assert!(unified.as_secs() <= split.as_secs() * 1.0001);
    }
}
