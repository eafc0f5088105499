//! The quiet-run differential. Random closed-loop scenarios over every
//! engine preset are driven through an engine that takes quiet steps as
//! runs and through its `stepwise` twin, which takes every step as a full
//! `iteration`. The two must agree on everything observable: responses,
//! counters, cache statistics and invariants, what the replication and
//! manifest change sets drain between slices, the metrics dump, and every
//! trace event. Across the scenarios, each reason a run can end must end
//! one, so no clause of the run's predicate goes untested.

use pensieve_obs::SharedRecorder;
use pensieve_sim::FaultConfig;

use super::*;
use crate::request::RequestId;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[lo, hi)` on a millisecond grid.
    fn secs(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() % 1000) as f64 / 1000.0 * (hi - lo)
    }
}

/// The engine's test-only switch and record.
#[derive(Debug, Default)]
pub(super) struct Probe {
    /// Every step goes through `iteration`: the twin the engine is
    /// compared against.
    pub(super) stepwise: bool,
    /// Why each quiet run ended, in order.
    pub(super) run_ends: Vec<RunEnd>,
}

/// How the client moves the engine's clock.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `poll(Some(t))` until it yields, per slice; `poll(None)` every
    /// third slice.
    Poll,
    /// One `run_until(t)` per slice.
    RunUntil,
    /// `run_until_idle()` whenever work is pending.
    RunUntilIdle,
}

/// One seeded scenario: a preset on a random budget, batch cap and slice
/// width, and closed-loop conversations of `(prompt, output, think)`
/// turns.
#[derive(Debug)]
struct Scenario {
    cfg: EngineConfig,
    gpu_tokens: usize,
    cpu_tokens: usize,
    fault_seed: Option<u64>,
    starts: Vec<f64>,
    turns: Vec<Vec<(usize, usize, f64)>>,
    slice: f64,
}

fn with(cfg: EngineConfig, f: impl FnOnce(&mut EngineConfig)) -> EngineConfig {
    let mut cfg = cfg;
    f(&mut cfg);
    cfg
}

/// Unified and separate batching, stateful and stateless, chunked
/// prefill, the shared preamble, deep tiers, each suspend policy, a
/// GPU-only cache and ORCA reservation.
fn presets() -> Vec<EngineConfig> {
    vec![
        EngineConfig::pensieve(),
        EngineConfig::pensieve_non_unified(),
        EngineConfig::vllm(),
        EngineConfig::tensorrt_llm(),
        EngineConfig::pensieve_chunked_prefill(48),
        EngineConfig::pensieve_shared_prefix(96),
        EngineConfig::pensieve_deep_tiers(512, 2048),
        EngineConfig::pensieve_gpu_cache(),
        EngineConfig::pensieve_lru(),
        with(EngineConfig::pensieve(), |c| {
            c.suspend_policy = SuspendPolicy::OldestFirst;
        }),
        with(EngineConfig::pensieve(), |c| {
            c.suspend_policy = SuspendPolicy::LargestContext;
        }),
        EngineConfig::orca(),
    ]
}

fn scenario(mut cfg: EngineConfig, rng: &mut Rng, faulty: bool) -> Scenario {
    cfg.max_batch_requests = [2, 3, 5, 256][rng.between(0, 3)];
    let convs = rng.between(3, 8);
    let turns: Vec<Vec<_>> = (0..convs)
        .map(|_| {
            (0..rng.between(2, 4))
                .map(|_| {
                    (
                        rng.between(8, 110),
                        rng.between(1, 150),
                        rng.secs(0.05, 2.0),
                    )
                })
                .collect()
        })
        .collect();
    // Every context must fit the GPU on its own, or the engine panics
    // with an admission livelock by design.
    let longest = turns
        .iter()
        .map(|t| t.iter().map(|&(p, o, _)| p + o).sum::<usize>())
        .max()
        .unwrap_or(0);
    Scenario {
        gpu_tokens: cfg.shared_prefix_tokens + longest + rng.between(64, 1200),
        cpu_tokens: rng.between(0, 2000),
        fault_seed: faulty.then(|| rng.next()),
        starts: (0..convs).map(|_| rng.secs(0.0, 1.0)).collect(),
        turns,
        slice: [0.05, 0.25, 1.0][rng.between(0, 2)],
        cfg,
    }
}

/// What a caller sees after one slice.
#[derive(Debug, PartialEq)]
struct Slice {
    /// The clock's bits.
    clock: u64,
    /// The drained commit log.
    commits: Vec<(SessionId, usize)>,
    /// The drained manifest change set.
    dirty: Vec<SessionId>,
    /// GPU and CPU occupancy, batch and queue sizes.
    sizes: [usize; 4],
    invariants: Result<(), String>,
}

/// Everything a run lets a caller see.
#[derive(Debug, PartialEq)]
struct Outcome {
    responses: Vec<Response>,
    counters: String,
    stats: CacheStats,
    slices: Vec<Slice>,
    events: Vec<TraceEvent>,
    metrics: String,
}

/// Drives `sc` under `drive`; returns what it saw and why each quiet run
/// ended.
fn run(sc: &Scenario, drive: Drive, stepwise: bool) -> (Outcome, Vec<RunEnd>) {
    let model = ModelConfig::opt_13b();
    let mut hw = HardwareSpec::azure_nc_a100(1);
    hw.gpu_kv_budget_bytes = sc.gpu_tokens * model.kv_bytes_per_token();
    hw.cpu_cache_bytes_per_gpu = sc.cpu_tokens * model.kv_bytes_per_token();
    let rec = SharedRecorder::new();
    let mut b = SimServingEngine::builder(sc.cfg.clone(), model, hw).recorder(rec.clone());
    if let Some(seed) = sc.fault_seed {
        b = b.fault_injector(FaultInjector::new(FaultConfig::chaos(seed)));
    }
    let mut e = b.build();
    e.probe.stepwise = stepwise;
    let convs = sc.turns.len();
    // `(at, conv)`, sorted; the front is due first.
    let mut pending: Vec<(SimTime, usize)> = (0..convs)
        .map(|c| (SimTime::from_secs(sc.starts[c]), c))
        .collect();
    let mut next_turn = vec![0; convs];
    let mut history = vec![sc.cfg.shared_prefix_tokens; convs];
    let mut next_id = 0;
    let mut responses = Vec::new();
    let mut slices = Vec::new();
    let mut submit_due = |e: &mut SimServingEngine, pending: &mut Vec<(SimTime, usize)>, until| {
        pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let due = pending.iter().take_while(|p| p.0 <= until).count();
        for (at, conv) in pending.drain(..due) {
            let (prompt, output, _) = sc.turns[conv][next_turn[conv]];
            e.submit(req(next_id, conv as u64, at, prompt, output, history[conv]));
            next_id += 1;
            next_turn[conv] += 1;
            history[conv] += prompt + output;
        }
    };
    let mut collect = |e: &mut SimServingEngine, pending: &mut Vec<(SimTime, usize)>| {
        for r in e.drain_responses() {
            let conv = r.conv.0 as usize;
            // Closed loop: `r` answers its conversation's latest turn.
            let done = 1 + responses
                .iter()
                .filter(|a: &&Response| a.conv == r.conv)
                .count();
            if done < sc.turns[conv].len() {
                let think = sc.turns[conv][done - 1].2;
                pending.push((r.finish + SimDuration::from_secs(think), conv));
            }
            responses.push(r);
        }
    };
    let mut t = SimTime::ZERO;
    let mut slice = 0u32;
    while !(pending.is_empty() && e.is_idle() && !e.responses_ready()) {
        slice += 1;
        assert!(slice < 200_000, "scenario never drains: {sc:?}");
        t += SimDuration::from_secs(sc.slice);
        match drive {
            Drive::Poll => {
                submit_due(&mut e, &mut pending, t);
                if slice.is_multiple_of(3) {
                    e.poll(None);
                    collect(&mut e, &mut pending);
                    submit_due(&mut e, &mut pending, t);
                }
                while e.poll(Some(t)) {
                    collect(&mut e, &mut pending);
                    submit_due(&mut e, &mut pending, t);
                }
            }
            Drive::RunUntil => {
                submit_due(&mut e, &mut pending, t);
                e.run_until(t);
                collect(&mut e, &mut pending);
            }
            Drive::RunUntilIdle => {
                let horizon = t.max(e.now());
                submit_due(&mut e, &mut pending, horizon);
                if e.is_idle() {
                    // Nothing due inside this slice: hand over the next
                    // arrival, however far ahead.
                    let next = pending.iter().map(|p| p.0).min_by(SimTime::total_cmp);
                    if let Some(next) = next {
                        submit_due(&mut e, &mut pending, next);
                    }
                }
                e.run_until_idle();
                collect(&mut e, &mut pending);
            }
        }
        slices.push(Slice {
            clock: e.now().as_secs().to_bits(),
            commits: e.take_committed_kv(),
            dirty: e.take_manifest_dirty(),
            sizes: [
                e.cache.gpu_slots_used(),
                e.cache.cpu_used(),
                e.running.len(),
                e.wait_queue.len(),
            ],
            invariants: e.cache.check_invariants(),
        });
    }
    let turns: usize = sc.turns.iter().map(Vec::len).sum();
    assert_eq!(responses.len(), turns, "every turn completes: {sc:?}");
    let outcome = Outcome {
        responses,
        counters: format!("{:?}", e.counters),
        stats: e.cache.stats().clone(),
        slices,
        events: rec.events(),
        metrics: e.metrics().prometheus(),
    };
    (outcome, std::mem::take(&mut e.probe.run_ends))
}

fn req(id: u64, conv: u64, at: SimTime, prompt: usize, out: usize, hist: usize) -> Request {
    let mut r = Request::builder()
        .id(RequestId(id))
        .session(SessionId(conv))
        .prompt_tokens(prompt)
        .output_tokens(out)
        .history_tokens(hist)
        .build()
        .unwrap();
    r.arrival = at;
    r
}

/// Each preset, fault-free and under chaos faults, under every drive:
/// the run-taking engine and its stepwise twin agree on everything, and
/// the runs end on every reason a run can end.
#[test]
fn quiet_runs_match_stepwise_ticks() {
    let mut rng = Rng(0x5154_4945_5452_554e);
    let mut ends = Vec::new();
    for cfg in presets() {
        for faulty in [false, false, false, false, false, true] {
            let sc = scenario(cfg.clone(), &mut rng, faulty);
            for drive in [Drive::Poll, Drive::RunUntil, Drive::RunUntilIdle] {
                let (twin, none) = run(&sc, drive, true);
                assert!(none.is_empty(), "the stepwise twin took a run");
                let (quiet, run_ends) = run(&sc, drive, false);
                if quiet != twin {
                    let differ: Vec<_> = [
                        ("responses", quiet.responses != twin.responses),
                        ("counters", quiet.counters != twin.counters),
                        ("stats", quiet.stats != twin.stats),
                        ("slices", quiet.slices != twin.slices),
                        ("events", quiet.events != twin.events),
                        ("metrics", quiet.metrics != twin.metrics),
                    ]
                    .into_iter()
                    .filter_map(|(name, differs)| differs.then_some(name))
                    .collect();
                    let mut pairs = quiet.events.iter().zip(&twin.events);
                    let event = pairs.position(|(a, b)| a != b);
                    panic!(
                        "{} under {drive:?}: {differ:?} differ, first at event {event:?}: {sc:?}",
                        cfg.name
                    );
                }
                for slice in &quiet.slices {
                    assert_eq!(slice.invariants, Ok(()), "{}", cfg.name);
                }
                let quiet_eligible = !faulty && !cfg.reserve_max_decode;
                assert_eq!(
                    !run_ends.is_empty(),
                    quiet_eligible,
                    "{} under {drive:?}: runs {run_ends:?}",
                    cfg.name
                );
                ends.extend(run_ends);
            }
        }
    }
    for end in [
        RunEnd::Finish,
        RunEnd::StrictFree,
        RunEnd::Watermark,
        RunEnd::Arrival,
        RunEnd::Deadline,
    ] {
        let n = ends.iter().filter(|&&e| e == end).count();
        assert!(n > 0, "no quiet run ended on {end:?}");
    }
}
