//! Per-layer numbers, measured from outside the crates in three ways:
//!
//! * **counts** — exact counters read after the tracing-off pass
//!   (`measure::Pass::counts`);
//! * **seam spans** — self time per decorator position from the seam
//!   pass ([`seam_metrics`]);
//! * **replays** — one layer driven alone through its public API with a
//!   tape derived from the workload (the rest of this file).
//!
//! Host timings here are single samples from one traced run: they locate
//! time, they are not regression gates.

use std::hint::black_box;
use std::time::Instant;

use pensieve_cluster::Pool;
use pensieve_core::{Request, RequestId, Response, ServingBackend};
use pensieve_kernels::attention::multi::paged_multi_token;
use pensieve_kernels::attention::single::paged_single_token_batch;
use pensieve_kernels::ops::matmul;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache};
use pensieve_kvcache::{
    synthetic_preamble, CacheConfig, ChunkId, ManifestChunk, PrefixIndex, RetentionValuePolicy,
    SessionId, SessionManifest, TieredKvCache,
};
use pensieve_model::{CostModel, ProfiledCostTable, SimTime};
use pensieve_obs::{
    chrome_trace_string, to_jsonl, Recorder, SharedRecorder, TraceEvent, TraceReport,
};
use pensieve_workload::poisson_arrivals;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{build_engine, build_router, Metrics};
use crate::stats::{median, quantile, secs, sorted};
use crate::traced::SpanLog;
use crate::workloads::{Inputs, Kind, Spec};

/// Tokens of each pre-resident session in the kvcache scale replay.
const RESIDENT_SESSION_TOKENS: usize = 256;
/// Simulated seconds after which the stepping replay gives up draining.
const STEP_REPLAY_LIMIT_S: f64 = 100_000.0;
/// Events fed to the obs exporters (a longer log is truncated so the
/// replay stays sub-second; rates are per byte, so they do not depend
/// on the length).
const OBS_REPLAY_EVENTS: usize = 200_000;

/// Repeats `f` until `budget_s` host seconds have passed (at least three
/// times) and returns the median seconds per call.
fn time_median(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || secs(start) < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(secs(t0));
    }
    median(&samples)
}

/// Layer attribution from the seam pass. `requests` is the number of
/// turns driven; `counts` the exact counters of the same pass.
#[must_use]
pub fn seam_metrics(spec: &Spec, log: &SpanLog, counts: &Metrics, requests: usize) -> Metrics {
    let mut m = Metrics::new();
    let iterations = counts.get("engine.iterations").copied().unwrap_or(0.0);
    m.insert("workload.driver_self_s", log.layer("driver", None).self_s);
    let engine_layer = match spec.kind {
        Kind::Engine => "engine",
        Kind::Cluster { .. } => "replica",
        Kind::Functional(_) => {
            let turns = log.layer("functional", Some("serve_turn"));
            m.insert("engine.busy_s", turns.self_s);
            return m;
        }
    };
    let engine = log.layer(engine_layer, None);
    m.insert("engine.busy_s", engine.self_s);
    m.insert(
        "engine.us_per_iter",
        engine.self_s * 1e6 / iterations.max(1.0),
    );
    m.insert(
        "engine.iter_per_host_s",
        iterations / engine.self_s.max(1e-12),
    );
    m.insert(
        "engine.poll_calls",
        log.layer(engine_layer, Some("poll")).count as f64,
    );
    if let Kind::Cluster { .. } = spec.kind {
        let router = log.layer("router", None);
        let dispatch = log.layer("router", Some("submit"));
        let step = log.layer("router", Some("poll")).self_s
            + log.layer("router", Some("run_until")).self_s;
        let manifests = ["manifest_sessions", "session_manifest"]
            .iter()
            .map(|c| log.layer("replica", Some(c)))
            .fold((0u64, 0.0), |a, s| (a.0 + s.count, a.1 + s.total_s));
        m.insert("router.self_s", router.self_s);
        m.insert(
            "router.us_per_dispatch",
            dispatch.self_s * 1e6 / dispatch.count.max(1) as f64,
        );
        m.insert("router.step_self_s", step);
        m.insert(
            "router.replica_calls_per_dispatch",
            engine.count as f64 / dispatch.count.max(1) as f64,
        );
        m.insert(
            "replication.commit_log_calls",
            log.layer("replica", Some("take_committed_kv")).count as f64,
        );
        m.insert("replication.manifest_calls", manifests.0 as f64);
        m.insert(
            "replication.manifest_calls_per_request",
            manifests.0 as f64 / requests.max(1) as f64,
        );
        m.insert("replication.manifest_s", manifests.1);
    }
    m
}

/// One turn of the cache tape: who returns when, and how much context
/// the turn adds.
struct TapeTurn {
    conv: SessionId,
    at: SimTime,
    new_tokens: usize,
}

/// The workload's turns in arrival order, as the cache manager sees them.
fn cache_tape(inputs: &Inputs, responses: &[Response]) -> Vec<TapeTurn> {
    let mut by_arrival: Vec<&Response> = responses.iter().collect();
    by_arrival.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    let mut next_turn = vec![0usize; inputs.convs.len()];
    by_arrival
        .into_iter()
        .filter_map(|r| {
            let c = r.conv.0 as usize;
            let turn = inputs.convs.get(c)?.turns.get(next_turn[c])?;
            next_turn[c] += 1;
            Some(TapeTurn {
                conv: r.conv,
                at: r.arrival,
                new_tokens: turn.input_tokens + turn.output_tokens,
            })
        })
        .collect()
}

/// Host seconds and call counts per cache operation over one replay.
#[derive(Default)]
struct CacheReplay {
    plan_s: f64,
    commit_s: f64,
    append_s: f64,
    swap_out_s: f64,
    turns: usize,
}

impl CacheReplay {
    fn total_s(&self) -> f64 {
        self.plan_s + self.commit_s + self.append_s + self.swap_out_s
    }
}

/// The cache the workload's engine builds (every workload uses the
/// retention-value policy), with room in the CPU tier for `resident`
/// extra idle sessions.
fn replay_cache(spec: &Spec, resident: usize) -> TieredKvCache {
    let cost = CostModel::new(spec.model.clone(), spec.hardware.clone());
    let mut cfg = CacheConfig::from_model(&spec.model, &cost).with_deep_tiers(
        spec.engine.ssd_capacity_tokens,
        spec.engine.cold_capacity_tokens,
    );
    cfg.chunk_tokens = spec.engine.chunk_tokens;
    cfg.cpu_capacity_tokens += resident * RESIDENT_SESSION_TOKENS;
    let policy =
        RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, cfg.chunk_tokens, 16_384));
    TieredKvCache::builder(cfg).policy(Box::new(policy)).build()
}

/// Drives `TieredKvCache` alone with the workload's tape on top of
/// `resident` idle sessions, timing each operation class.
fn cache_replay(spec: &Spec, tape: &[TapeTurn], resident: usize) -> CacheReplay {
    let mut cache = replay_cache(spec, resident);
    // Idle sessions first, far in the past, so the tape's evictions have
    // to rank them.
    for i in 0..resident {
        let conv = SessionId((1 << 32) + i as u64);
        cache.swap_out_until_for(RESIDENT_SESSION_TOKENS, Some(conv), SimTime::ZERO);
        if cache
            .append_tokens(conv, RESIDENT_SESSION_TOKENS, SimTime::ZERO)
            .is_ok()
        {
            cache.unpin(conv);
        }
    }
    let reserve = cache.config().decode_reserve_tokens();
    let mut r = CacheReplay::default();
    for turn in tape {
        let t0 = Instant::now();
        let plan = black_box(cache.plan_restore(turn.conv));
        r.plan_s += secs(t0);

        let needed = plan.new_gpu_slots() + turn.new_tokens + reserve;
        let t0 = Instant::now();
        if cache.gpu_free_effective_for(turn.conv) < needed {
            black_box(cache.swap_out_until_for(needed, Some(turn.conv), turn.at));
        }
        r.swap_out_s += secs(t0);

        let t0 = Instant::now();
        let restored = cache.commit_restore(turn.conv, turn.at).is_ok();
        r.commit_s += secs(t0);
        if !restored {
            continue;
        }

        let t0 = Instant::now();
        let appended = cache
            .append_tokens(turn.conv, turn.new_tokens, turn.at)
            .is_ok();
        r.append_s += secs(t0);
        cache.unpin(turn.conv);
        cache.touch(turn.conv, turn.at);

        let t0 = Instant::now();
        black_box(cache.maybe_swap_out(turn.at));
        r.swap_out_s += secs(t0);
        r.turns += usize::from(appended);
    }
    r
}

/// `kvcache.replay.*`, the prefix-index lookup and the manifest codec.
#[must_use]
pub fn kvcache_replays(spec: &Spec, inputs: &Inputs, responses: &[Response]) -> Metrics {
    let tape = cache_tape(inputs, responses);
    let small = cache_replay(spec, &tape, 1_000);
    let large = cache_replay(spec, &tape, 10_000);
    let per_turn = |s: f64, r: &CacheReplay| s * 1e9 / r.turns.max(1) as f64;
    let mut m = Metrics::new();
    m.insert(
        "kvcache.replay.plan_restore_ns",
        per_turn(small.plan_s, &small),
    );
    m.insert(
        "kvcache.replay.commit_restore_ns",
        per_turn(small.commit_s, &small),
    );
    m.insert("kvcache.replay.append_ns", per_turn(small.append_s, &small));
    m.insert(
        "kvcache.replay.swap_out_ns",
        per_turn(small.swap_out_s, &small),
    );
    m.insert(
        "kvcache.replay.ops_per_s",
        4.0 * small.turns as f64 / small.total_s().max(1e-12),
    );
    // Host time per replayed turn at 10x the resident sessions over 1x:
    // 1.0 is flat, 10 is linear in resident sessions.
    m.insert(
        "kvcache.replay.scale_10x",
        per_turn(large.total_s(), &large) / per_turn(small.total_s(), &small).max(1e-12),
    );

    // Prefix index: match a 2 048-token preamble against an index that
    // also holds 256 other registered prefixes.
    let chunk = spec.engine.chunk_tokens;
    let mut index = PrefixIndex::new(chunk);
    for seed in 0..256 {
        index.insert(&synthetic_preamble(seed, 2048));
    }
    let probe = synthetic_preamble(7, 2048);
    let calls = 64;
    let s = time_median(0.05, || {
        for _ in 0..calls {
            black_box(index.longest_match(black_box(&probe)));
        }
    });
    m.insert("kvcache.prefix_match_ns", s * 1e9 / f64::from(calls));

    // Manifest codec: encode + decode a 512-chunk session layout.
    let manifest = SessionManifest {
        session: SessionId(1),
        chunks: (0..512u64)
            .map(|i| ManifestChunk {
                id: if i < 64 {
                    ChunkId::derive_words(ChunkId::ROOT, &[i])
                } else {
                    ChunkId::NONE
                },
                tokens: chunk,
            })
            .collect(),
    };
    let bytes = manifest.to_bytes().len();
    let s = time_median(0.05, || {
        for _ in 0..calls {
            let wire = black_box(&manifest).to_bytes();
            black_box(SessionManifest::from_bytes(&wire).is_ok());
        }
    });
    m.insert(
        "kvcache.manifest_codec_mb_per_s",
        2.0 * bytes as f64 * f64::from(calls) / s / 1e6,
    );
    m
}

/// `obs.*` (except the overhead ratio) and `sim.*` from the obs pass's
/// event log.
#[must_use]
pub fn obs_replays(events: &[TraceEvent], requests: usize) -> Metrics {
    let mut m = Metrics::new();
    m.insert("obs.events", events.len() as f64);
    m.insert(
        "obs.events_per_request",
        events.len() as f64 / requests.max(1) as f64,
    );
    let report = TraceReport::from_events(events);
    let h2d = report.swap_in_busy.as_secs();
    let d2h = report.swap_out_busy.as_secs();
    m.insert("sim.pcie_h2d_busy_s", h2d);
    m.insert("sim.pcie_d2h_busy_s", d2h);
    m.insert(
        "sim.duplex_overlap_share",
        report.duplex_overlap.as_secs() / h2d.min(d2h).max(1e-12),
    );
    m.insert(
        "sim.deep_read_tokens",
        report.tier_read_tokens.values().sum::<u64>() as f64,
    );

    let sample = &events[..events.len().min(OBS_REPLAY_EVENTS)];
    if sample.is_empty() {
        return m;
    }
    // Each event is cloned and recorded, as an instrumented layer builds
    // and records it.
    let s = time_median(0.05, || {
        let rec = SharedRecorder::new();
        for ev in sample.iter().cloned() {
            rec.record(ev);
        }
        black_box(rec.event_count());
    });
    m.insert("obs.record_ns_per_event", s * 1e9 / sample.len() as f64);
    let mut bytes = 0;
    let s = time_median(0.05, || bytes = black_box(to_jsonl(sample)).len());
    m.insert("obs.jsonl_mb_per_s", bytes as f64 / s / 1e6);
    let s = time_median(0.05, || {
        bytes = black_box(chrome_trace_string(sample)).len()
    });
    m.insert("obs.chrome_mb_per_s", bytes as f64 / s / 1e6);
    m
}

/// Deterministic values in [-0.5, 0.5) for kernel inputs.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self.0.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (self.0 >> 8) as f32 / (1 << 24) as f32 - 0.5
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.next()).collect())
    }
}

/// A one-layer paged pool holding `rows` sequences of `context` tokens.
fn paged_contexts(
    cfg: &AttnConfig,
    block: usize,
    rows: usize,
    context: usize,
    rng: &mut Lcg,
) -> (PagedKvCache, Vec<BlockTable>) {
    let layout = KvLayout {
        num_kv_heads: cfg.num_kv_heads,
        head_dim: cfg.head_dim,
        block_size: block,
    };
    let mut pool = PagedKvCache::new(layout, 1, rows * context.div_ceil(block));
    let tables = (0..rows)
        .map(|_| {
            let mut table = BlockTable::new(block);
            for _ in 0..context {
                let (b, s) = table
                    .append_token(&mut pool)
                    .expect("pool sized for rows x context");
                let k: Vec<f32> = (0..cfg.kv_width()).map(|_| rng.next()).collect();
                let v: Vec<f32> = (0..cfg.kv_width()).map(|_| rng.next()).collect();
                pool.write_token(0, b, s, &k, &v);
            }
            table
        })
        .collect();
    (pool, tables)
}

/// Host seconds of one decode step (one query row per sequence) through
/// the multi-token kernel and through the single-token kernel.
fn decode_step_s(
    cfg: &AttnConfig,
    pool: &PagedKvCache,
    tables: &[BlockTable],
    context: usize,
    rng: &mut Lcg,
) -> (f64, f64) {
    let view = pool.layer(0);
    let q = rng.matrix(tables.len(), cfg.q_width());
    let seqs: Vec<AttnSeq<'_>> = tables
        .iter()
        .enumerate()
        .map(|(i, table)| AttnSeq {
            q_start: i,
            q_len: 1,
            context_len: context,
            table,
        })
        .collect();
    let multi = time_median(0.1, || {
        black_box(paged_multi_token(cfg, black_box(&q), &view, &seqs));
    });
    let single = time_median(0.1, || {
        black_box(paged_single_token_batch(cfg, black_box(&q), &view, &seqs));
    });
    (multi, single)
}

/// Attention and GEMM kernels alone. Shapes are the functional model's,
/// except `decode_multi_over_single`, which uses the shape of
/// `BENCH_kernels.json`'s `generation` row (8 heads x 64, context 1 024)
/// because that row is the question it answers: does sending decode rows
/// through the unified multi-token kernel cost more than the
/// single-token kernel? FLOPs and bytes are computed from the tensor
/// sizes, not measured.
#[must_use]
pub fn kernel_replays(spec: &Spec, inputs: &Inputs) -> Metrics {
    let Kind::Functional(shape) = &spec.kind else {
        return Metrics::new();
    };
    let model = &spec.model;
    let cfg = AttnConfig::new(model.num_heads, model.num_kv_heads, model.head_dim);
    let mut rng = Lcg(0x9E37_79B9);
    // Context of a mid-conversation turn; one decode row per conversation.
    let context = shape.turns / 2 * (shape.prompt_tokens + shape.new_tokens) + shape.prompt_tokens;
    let rows = inputs.convs.len();
    let (pool, tables) = paged_contexts(&cfg, shape.memory.block_size, rows, context, &mut rng);

    let mut m = Metrics::new();
    // Prefill: one sequence, the prompt's query rows at the end of the context.
    let q_len = shape.prompt_tokens;
    let q = rng.matrix(q_len, cfg.q_width());
    let seq = [AttnSeq {
        q_start: 0,
        q_len,
        context_len: context,
        table: &tables[0],
    }];
    let view = pool.layer(0);
    let s = time_median(0.1, || {
        black_box(paged_multi_token(&cfg, black_box(&q), &view, &seq));
    });
    m.insert("kernels.attn_prefill_ns_per_qtoken", s * 1e9 / q_len as f64);
    // Causal: query j sees context - q_len + j + 1 positions; QK^T and PV
    // are 2 flops each per (query, position, head dim).
    let visible: usize = (0..q_len).map(|j| context - q_len + j + 1).sum();
    m.insert(
        "kernels.attn_flops_per_call",
        4.0 * visible as f64 * cfg.q_width() as f64,
    );
    m.insert(
        "kernels.attn_bytes_per_call",
        (4 * (2 * context * cfg.kv_width() + 2 * q_len * cfg.q_width())) as f64,
    );

    let (multi, _) = decode_step_s(&cfg, &pool, &tables, context, &mut rng);
    m.insert("kernels.attn_decode_ns_per_row", multi * 1e9 / rows as f64);
    let wide = AttnConfig::new(8, 8, 64);
    let (pool, tables) = paged_contexts(&wide, 16, 8, 1024, &mut rng);
    let (multi, single) = decode_step_s(&wide, &pool, &tables, 1024, &mut rng);
    m.insert("kernels.decode_multi_over_single", multi / single);

    // GEMM: the prompt's rows through the FFN up-projection.
    let (mm, kk, nn) = (shape.prompt_tokens, model.hidden_size, model.ffn_hidden);
    let a = rng.matrix(mm, kk);
    let b = rng.matrix(kk, nn);
    let s = time_median(0.1, || {
        black_box(matmul(black_box(&a), black_box(&b)));
    });
    m.insert("kernels.gemm_gflops", 2.0 * (mm * kk * nn) as f64 / s / 1e9);
    m
}

/// `workload.generate_s`: median host seconds to generate the inputs.
#[must_use]
pub fn generate_s(spec: &Spec, seed: u64) -> f64 {
    time_median(0.05, || {
        black_box(spec.generate(black_box(seed)));
    })
}

/// Host seconds of an open-loop stepping replay of the cluster workload
/// at pool width `threads`: every conversation's first turn is submitted
/// at its Poisson arrival, then the router is stepped with `run_until`.
/// The closed-loop driver steps replicas through `poll`, which is
/// sequential at every width; `run_until` is the only path that fans
/// replicas out over the pool, and it needs per-replica recorders.
#[must_use]
pub fn router_step_s(spec: &Spec, inputs: &Inputs, threads: usize) -> f64 {
    let Kind::Cluster { replicas, .. } = spec.kind else {
        return 0.0;
    };
    let recorders: Vec<SharedRecorder> = (0..replicas).map(|_| SharedRecorder::new()).collect();
    let fleet = recorders
        .iter()
        .map(|rec| build_engine(spec, Some(rec)))
        .collect();
    let mut router = build_router(spec, fleet)
        .recorder(SharedRecorder::new())
        .replica_recorders(recorders)
        .pool(Pool::new(threads));
    let mut rng = StdRng::seed_from_u64(inputs.driver.seed);
    let mean_turns = inputs.total_turns() as f64 / inputs.convs.len() as f64;
    let arrivals = poisson_arrivals(&mut rng, spec.rate / mean_turns, inputs.convs.len());
    let t0 = Instant::now();
    for (i, (conv, at)) in inputs.convs.iter().zip(&arrivals).enumerate() {
        let turn = conv.turns[0];
        router.run_until(*at);
        router.submit(
            Request::builder()
                .id(RequestId(i as u64))
                .session(SessionId(i as u64))
                .arrival(*at)
                .prompt_tokens(turn.input_tokens)
                .output_tokens(turn.output_tokens)
                .build()
                .expect("datasets produce non-empty turns"),
        );
    }
    // The router's clock is its slowest replica's, and an idle replica's
    // clock stands still, so the horizon is advanced here, not read back.
    let mut horizon = arrivals.last().map_or(0.0, |t| t.as_secs());
    while !router.is_idle() && horizon < STEP_REPLAY_LIMIT_S {
        horizon += 60.0;
        router.run_until(SimTime::from_secs(horizon));
    }
    black_box(router.drain_responses());
    secs(t0)
}

/// p50 and p90 of the functional workload's per-turn host latency.
#[must_use]
pub fn turn_latency(turn_ms: &[f64]) -> Metrics {
    let v = sorted(turn_ms);
    let mut m = Metrics::new();
    m.insert("functional.turn_ms_p50", quantile(&v, 0.50));
    m.insert("functional.turn_ms_p90", quantile(&v, 0.90));
    m
}
