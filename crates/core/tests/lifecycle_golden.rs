//! Golden request-lifecycle scenarios for [`SimServingEngine`]: seeded
//! multi-turn conversations on shrunken KV budgets, each driven through
//! the engine's three clock entry points, with everything observable
//! folded into an FNV-1a digest and compared with a committed constant.
//!
//! No benchmark workload ever suspends a request, so the suspend →
//! requeue → resume half of the lifecycle (paper §4.3.5) is outside the
//! benchmark's bit-identity check. The constants here were captured
//! *before* the wait queue, the clock loops and the trait delegations in
//! `src/engine.rs` were unified, so they pin that rewrite (and any later
//! one) to the bit: which request is suspended, what its re-admission
//! costs, where the clock lands under each entry point, every counter,
//! every trace event. Each scenario asserts that the path it exists for
//! was actually taken, so a retuned budget cannot silently turn the pin
//! into a no-op.
//!
//! Only the crate's public API is used. A failing run prints the table
//! that would replace `GOLDEN` — paste it only for an *intended*
//! behaviour change; otherwise `print_event_streams` (an ignored test)
//! dumps every run's JSONL so two builds can be diffed down to the first
//! divergent event.

use pensieve_core::config::SuspendPolicy;
use pensieve_core::{
    EngineConfig, EngineCounters, Request, RequestId, Response, ServingBackend, SimServingEngine,
};
use pensieve_kvcache::{CacheStats, SessionId};
use pensieve_model::{HardwareSpec, ModelConfig, SimDuration, SimTime};
use pensieve_obs::{to_jsonl, RecoveryKind, SharedRecorder, SwapDir, TraceEvent, TraceReport};
use pensieve_sim::{FaultConfig, FaultCounters, FaultInjector, FaultKind};

/// Width of one `poll(Some(t))` / `run_until(t)` slice.
const SLICE: f64 = 0.25;

/// How a scenario's clock is driven.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `poll(None)` then `poll(Some(t))` until it yields, per slice.
    Poll,
    /// One `run_until(t)` per slice.
    RunUntil,
    /// `run_until_idle()` whenever work is pending.
    RunUntilIdle,
}

const DRIVES: [Drive; 3] = [Drive::Poll, Drive::RunUntil, Drive::RunUntilIdle];

/// One seeded scenario: an engine preset on a shrunken budget plus the
/// shape of the conversations thrown at it.
struct Scenario {
    name: &'static str,
    cfg: fn() -> EngineConfig,
    /// GPU KV budget in tokens.
    gpu_tokens: usize,
    /// CPU tier in tokens.
    cpu_tokens: usize,
    /// Seed of the fault stream; `None` runs fault-free.
    fault_seed: Option<u64>,
    seed: u64,
    convs: usize,
    turns: usize,
    /// Inclusive prompt-length range.
    prompt: (usize, usize),
    /// Inclusive output-length range.
    output: (usize, usize),
    /// What the scenario exists to reach.
    expect: Expect,
}

/// The path a scenario must take; see `check_coverage`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Decode overflow suspends and later resumes requests.
    Suspension,
    /// Suspension, and at least one prefill fed in more than one slice.
    ChunkedSuspension,
    /// Max-length reservation queues requests and never suspends.
    Reservation,
    /// Suspension with the global preamble attached and hit.
    SharedPrefix,
    /// Deep-tier reads and every engine-level fault recovery.
    DeepChaos,
}

fn newest() -> EngineConfig {
    EngineConfig::pensieve()
}

fn oldest() -> EngineConfig {
    EngineConfig {
        suspend_policy: SuspendPolicy::OldestFirst,
        ..EngineConfig::pensieve()
    }
}

fn largest() -> EngineConfig {
    EngineConfig {
        suspend_policy: SuspendPolicy::LargestContext,
        ..EngineConfig::pensieve()
    }
}

fn chunked() -> EngineConfig {
    EngineConfig::pensieve_chunked_prefill(48)
}

fn shared() -> EngineConfig {
    EngineConfig::pensieve_shared_prefix(96)
}

fn deep() -> EngineConfig {
    EngineConfig::pensieve_deep_tiers(512, 2048)
}

const SCENARIOS: [Scenario; 8] = [
    Scenario {
        name: "overflow/newest-first",
        cfg: newest,
        gpu_tokens: 900,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 1,
        convs: 8,
        turns: 3,
        prompt: (20, 60),
        output: (80, 200),
        expect: Expect::Suspension,
    },
    Scenario {
        name: "overflow/oldest-first",
        cfg: oldest,
        gpu_tokens: 900,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 2,
        convs: 8,
        turns: 3,
        prompt: (20, 60),
        output: (80, 200),
        expect: Expect::Suspension,
    },
    Scenario {
        name: "overflow/largest-context",
        cfg: largest,
        gpu_tokens: 900,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 3,
        convs: 8,
        turns: 3,
        prompt: (20, 60),
        output: (80, 200),
        expect: Expect::Suspension,
    },
    Scenario {
        name: "overflow/stateless-vllm",
        cfg: EngineConfig::vllm,
        gpu_tokens: 900,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 4,
        convs: 8,
        turns: 3,
        prompt: (20, 60),
        output: (80, 200),
        expect: Expect::Suspension,
    },
    Scenario {
        name: "chunked-prefill/overflow",
        cfg: chunked,
        gpu_tokens: 900,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 5,
        convs: 8,
        turns: 3,
        prompt: (20, 100),
        output: (80, 160),
        expect: Expect::ChunkedSuspension,
    },
    Scenario {
        name: "orca/reservation",
        cfg: EngineConfig::orca,
        gpu_tokens: 900,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 6,
        convs: 8,
        turns: 3,
        prompt: (20, 60),
        output: (80, 200),
        expect: Expect::Reservation,
    },
    Scenario {
        name: "shared-prefix/overflow",
        cfg: shared,
        gpu_tokens: 1000,
        cpu_tokens: 1400,
        fault_seed: None,
        seed: 7,
        convs: 8,
        turns: 3,
        prompt: (20, 60),
        output: (80, 200),
        expect: Expect::SharedPrefix,
    },
    Scenario {
        name: "deep-tiers/chaos",
        cfg: deep,
        gpu_tokens: 900,
        cpu_tokens: 800,
        fault_seed: Some(11),
        seed: 8,
        convs: 8,
        turns: 4,
        prompt: (30, 110),
        output: (60, 140),
        expect: Expect::DeepChaos,
    },
];

/// One digest per [`DRIVES`] entry, per scenario.
#[rustfmt::skip]
const GOLDEN: [[u64; 3]; 8] = [
    [0xa929204b8df89cc1, 0xf72ca8514952fe44, 0x3ef84af0f1d30ce0], // overflow/newest-first
    [0xc0f737cd724f09c4, 0x2e55c7e146ca0a25, 0x9cdbc04580c3fcae], // overflow/oldest-first
    [0x9721077951ae422a, 0xa92fab4d56bde7ae, 0x458b01b0689312dc], // overflow/largest-context
    [0xaae5aa3706f73b44, 0x93f4e26d16ae9f3e, 0x2dbff40848b05373], // overflow/stateless-vllm
    [0xd944bff1cb47616b, 0x5aaac2bd5cf81c97, 0x73fb00fea5610601], // chunked-prefill/overflow
    [0xc068f4894fdb8fb1, 0x0525c950187a27c1, 0xbe19e457f2941631], // orca/reservation
    [0x83ba68fc4055aeb9, 0xc1252772d5ada655, 0x17546f2c9c8f796b], // shared-prefix/overflow
    [0x66f9c29e1fd9b26a, 0xd11ce4e1b29450cc, 0x17d40d0191025cac], // deep-tiers/chaos
];

/// Digest of `handoff_with_a_suspended_request_queued`.
const HANDOFF_GOLDEN: u64 = 0x29f8_e685_ce54_b91f;

/// SplitMix64, inlined so the scenarios do not move if the workspace's
/// `rand` stand-in ever does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn between(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[lo, hi)` on a millisecond grid.
    fn secs(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() % 1000) as f64 / 1000.0 * (hi - lo)
    }
}

/// FNV-1a over little-endian `u64` words and raw bytes.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn n(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.as_secs().to_bits());
    }

    /// The event stream, one record per fact: a tick as the fields of
    /// its [`TraceEvent::Iteration`], in order; a DMA likewise; every
    /// other event as its JSONL line.
    fn events(&mut self, events: &[TraceEvent]) {
        for ev in events {
            match ev {
                TraceEvent::Iteration {
                    at,
                    end,
                    iteration,
                    running,
                    waiting,
                    prefill_seqs,
                    decode_seqs,
                    prefill_tokens,
                    queue_delay,
                    compute,
                    stall,
                } => {
                    self.time(*at);
                    self.time(*end);
                    self.word(*iteration);
                    for n in [running, waiting, prefill_seqs, decode_seqs, prefill_tokens] {
                        self.n(*n);
                    }
                    for d in [queue_delay, compute, stall] {
                        self.word(d.as_secs().to_bits());
                    }
                }
                TraceEvent::Swap {
                    at,
                    end,
                    dir,
                    bytes,
                } => {
                    self.time(*at);
                    self.time(*end);
                    self.word(u64::from(*dir == SwapDir::Out));
                    self.word(*bytes);
                }
                _ => self.bytes(to_jsonl(std::slice::from_ref(ev)).as_bytes()),
            }
        }
    }

    fn response(&mut self, r: &Response) {
        let Response {
            id,
            conv,
            arrival,
            first_token,
            finish,
            output_tokens,
            prefill_tokens,
            cached_history_tokens,
        } = r;
        self.word(id.0);
        self.word(conv.0);
        self.time(*arrival);
        self.time(*first_token);
        self.time(*finish);
        self.n(*output_tokens);
        self.n(*prefill_tokens);
        self.n(*cached_history_tokens);
    }

    /// The introspection and replication surface between two slices.
    /// Draining the commit log here does not feed back into the engine.
    fn engine(&mut self, e: &mut SimServingEngine, convs: usize) {
        self.time(e.now());
        for n in [
            e.running_requests(),
            e.waiting_requests(),
            e.queue_depth(),
            e.gpu_slots_used(),
            e.gpu_capacity_tokens(),
            e.cpu_tokens_used(),
            e.kv_bytes_per_token(),
            e.manifest_sessions().len(),
        ] {
            self.n(n);
        }
        self.word(u64::from(e.is_idle()) | u64::from(e.responses_ready()) << 1);
        for conv in (0..convs as u64).map(SessionId) {
            self.n(e.cached_tokens(conv));
            let manifest = e.session_manifest(conv);
            self.n(manifest.map_or(usize::MAX, |m| m.total_tokens()));
        }
        for (conv, tokens) in e.take_committed_kv() {
            self.word(conv.0);
            self.n(tokens);
        }
    }

    // Destructured without `..`, so a new field cannot be left out. The
    // injector's fired counts (swap-in retries, allocation faults, worker
    // stalls) fold in among the engine's at the positions the digests fix.
    fn counters(&mut self, c: &EngineCounters, fired: &FaultCounters) {
        let EngineCounters {
            iterations,
            suspensions,
            prefill_tokens,
            decode_tokens,
            shared_prefix_hits,
            busy_time,
            recompute_fallbacks,
            chunk_faults,
            cold_read_faults,
        } = *c;
        for w in [
            iterations,
            suspensions,
            prefill_tokens,
            decode_tokens,
            shared_prefix_hits,
            swap_in_retries(fired),
            recompute_fallbacks,
            fired.get(FaultKind::GpuAllocFailure),
            fired.get(FaultKind::WorkerStall),
            chunk_faults,
            cold_read_faults,
        ] {
            self.word(w);
        }
        self.word(busy_time.as_secs().to_bits());
    }

    fn cache_stats(&mut self, s: &CacheStats) {
        let CacheStats {
            gpu_hit_tokens,
            cpu_hit_tokens,
            recomputed_tokens,
            swapped_out_tokens,
            swapped_in_tokens,
            dropped_tokens,
            revalidated_tokens,
            full_gpu_hits,
            partial_hits,
            lost_chunk_tokens,
            corrupted_chunk_tokens,
            swap_in_fault_tokens,
            ssd_hit_tokens,
            cold_hit_tokens,
            demoted_tokens,
            rehydrated_tokens,
            cold_read_fault_tokens,
            shared_hit_tokens,
        } = s;
        for w in [
            gpu_hit_tokens,
            cpu_hit_tokens,
            recomputed_tokens,
            swapped_out_tokens,
            swapped_in_tokens,
            dropped_tokens,
            revalidated_tokens,
            full_gpu_hits,
            partial_hits,
            lost_chunk_tokens,
            corrupted_chunk_tokens,
            swap_in_fault_tokens,
            ssd_hit_tokens,
            cold_hit_tokens,
            demoted_tokens,
            rehydrated_tokens,
            cold_read_fault_tokens,
            shared_hit_tokens,
        ] {
            self.word(*w);
        }
    }
}

/// A turn waiting for its arrival time to come inside the driven slice.
#[derive(Debug, Clone, Copy)]
struct Pending {
    at: SimTime,
    conv: usize,
}

/// The closed-loop client side: conversations, whose next turn is
/// submitted `think` after the previous one's response.
struct Client {
    /// `(prompt, output, think seconds)` per turn, per conversation.
    turns: Vec<Vec<(usize, usize, f64)>>,
    history: Vec<usize>,
    next_turn: Vec<usize>,
    /// Sorted by `(at, conv)`; the front is due first.
    pending: Vec<Pending>,
    next_id: u64,
    responses: Vec<Response>,
}

impl Client {
    fn new(sc: &Scenario) -> Self {
        let mut rng = Rng(sc.seed);
        let preamble = (sc.cfg)().shared_prefix_tokens;
        let mut turns = Vec::new();
        let mut pending = Vec::new();
        for conv in 0..sc.convs {
            pending.push(Pending {
                at: SimTime::from_secs(rng.secs(0.0, 0.6)),
                conv,
            });
            turns.push(
                (0..sc.turns)
                    .map(|_| {
                        (
                            rng.between(sc.prompt),
                            rng.between(sc.output),
                            rng.secs(0.3, 2.5),
                        )
                    })
                    .collect(),
            );
        }
        let mut client = Client {
            turns,
            // Every conversation starts with the deployment preamble.
            history: vec![preamble; sc.convs],
            next_turn: vec![0; sc.convs],
            pending,
            next_id: 0,
            responses: Vec::new(),
        };
        client.sort();
        client
    }

    fn sort(&mut self) {
        self.pending
            .sort_by(|a, b| a.at.total_cmp(&b.at).then(a.conv.cmp(&b.conv)));
    }

    /// Submits, in arrival order, every pending turn due by `until`
    /// (all of them for `None`).
    fn submit_due(&mut self, e: &mut SimServingEngine, until: Option<SimTime>) {
        let due = self
            .pending
            .iter()
            .take_while(|p| until.is_none_or(|t| p.at <= t))
            .count();
        for p in self.pending.drain(..due) {
            let (prompt, output, _) = self.turns[p.conv][self.next_turn[p.conv]];
            e.submit(
                Request::builder()
                    .id(RequestId(self.next_id))
                    .session(SessionId(p.conv as u64))
                    .arrival(p.at)
                    .prompt_tokens(prompt)
                    .output_tokens(output)
                    .history_tokens(self.history[p.conv])
                    .build()
                    .expect("scenario turns have a non-empty prompt"),
            );
            self.next_id += 1;
            self.next_turn[p.conv] += 1;
            self.history[p.conv] += prompt + output;
        }
    }

    /// Drains the engine and queues each finished conversation's next turn.
    fn collect(&mut self, e: &mut SimServingEngine) {
        for r in e.drain_responses() {
            let conv = r.conv.0 as usize;
            let done = self.next_turn[conv];
            if done < self.turns[conv].len() {
                let think = self.turns[conv][done - 1].2;
                self.pending.push(Pending {
                    at: r.finish + SimDuration::from_secs(think),
                    conv,
                });
            }
            self.responses.push(r);
        }
        self.sort();
    }
}

fn build_engine(sc: &Scenario, rec: Option<&SharedRecorder>) -> SimServingEngine {
    let model = ModelConfig::opt_13b();
    let mut hw = HardwareSpec::azure_nc_a100(1);
    hw.gpu_kv_budget_bytes = sc.gpu_tokens * model.kv_bytes_per_token();
    hw.cpu_cache_bytes_per_gpu = sc.cpu_tokens * model.kv_bytes_per_token();
    let mut b = SimServingEngine::builder((sc.cfg)(), model, hw);
    if let Some(rec) = rec {
        b = b.recorder(rec.clone());
    }
    if let Some(seed) = sc.fault_seed {
        b = b.fault_injector(FaultInjector::new(FaultConfig {
            pcie_failure: 0.5,
            cpu_chunk_loss: 0.01,
            cpu_chunk_corruption: 0.01,
            cold_read_stall: 0.2,
            cold_read_failure: 0.2,
            ..FaultConfig::chaos(seed)
        }));
    }
    b.build()
}

/// Runs one scenario under one drive; returns the digest, the engine's
/// counters and cache statistics, and the event stream.
fn run(
    sc: &Scenario,
    drive: Drive,
) -> (
    u64,
    EngineCounters,
    FaultCounters,
    CacheStats,
    Vec<TraceEvent>,
) {
    let rec = SharedRecorder::new();
    let mut e = build_engine(sc, Some(&rec));
    let mut client = Client::new(sc);
    let mut t = SimTime::ZERO;
    let mut slice = 0u32;
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    while !(client.pending.is_empty() && e.is_idle() && !e.responses_ready()) {
        slice += 1;
        t += SimDuration::from_secs(SLICE);
        match drive {
            Drive::Poll => {
                client.submit_due(&mut e, Some(t));
                if slice.is_multiple_of(3) {
                    // Without a deadline only due work runs: the batch
                    // drains to its next response, future arrivals stay
                    // queued.
                    let ready = e.poll(None);
                    assert!(ready || e.running_requests() == 0);
                    client.collect(&mut e);
                    client.submit_due(&mut e, Some(t));
                }
                while e.poll(Some(t)) {
                    client.collect(&mut e);
                    client.submit_due(&mut e, Some(t));
                }
                assert!(e.now() >= t, "poll(Some(t)) yields only at the deadline");
            }
            Drive::RunUntil => {
                client.submit_due(&mut e, Some(t));
                e.run_until(t);
                assert!(e.now() >= t, "run_until lands on or past t");
                client.collect(&mut e);
            }
            Drive::RunUntilIdle => {
                let horizon = t.max(e.now());
                client.submit_due(&mut e, Some(horizon));
                if e.is_idle() {
                    // Nothing due inside this slice: hand over the next
                    // arrival, however far ahead, and let the engine
                    // jump to it.
                    let next = client.pending.first().map(|p| p.at);
                    client.submit_due(&mut e, next);
                }
                e.run_until_idle();
                assert!(e.is_idle());
                client.collect(&mut e);
            }
        }
        d.engine(&mut e, sc.convs);
    }
    assert_eq!(
        client.responses.len(),
        sc.convs * sc.turns,
        "{}: every turn completes",
        sc.name
    );
    for r in &client.responses {
        d.response(r);
    }
    let counters = e.counters().clone();
    let fired = e.fault_counters().copied().unwrap_or_default();
    let stats = e.cache_stats().clone();
    d.counters(&counters, &fired);
    d.cache_stats(&stats);
    d.n(e.logical_resident_tokens());
    d.n(e.physical_resident_tokens());
    let events = rec.events();
    d.events(&events);
    // The engine's counters and gauges, with the distributions its
    // trace builds written in: the dump `serve_sim --metrics-out` makes.
    let mut metrics = e.metrics();
    TraceReport::from_events(&events).write_metrics(&mut metrics);
    d.bytes(metrics.prometheus().as_bytes());
    (d.0, counters, fired, stats, events)
}

/// Failed swap-in attempts: each is one fired PCIe fault.
fn swap_in_retries(fired: &FaultCounters) -> u64 {
    fired.get(FaultKind::PcieTransferFailure) + fired.get(FaultKind::PcieTimeout)
}

/// Asserts the run took the path its scenario exists to pin.
fn check_coverage(
    sc: &Scenario,
    c: &EngineCounters,
    fired: &FaultCounters,
    s: &CacheStats,
    events: &[TraceEvent],
    at: &str,
) {
    let resumed = events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Admitted { resumed: true, .. }))
        .count() as u64;
    let recoveries = |kind: RecoveryKind| {
        events
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::FaultRecovery { kind: k, .. } if *k == kind))
            .count()
    };
    if sc.expect == Expect::Reservation {
        assert!((sc.cfg)().reserve_max_decode);
        assert_eq!(c.suspensions, 0, "reserved decodes never overflow — {at}");
        let queued_behind_a_batch = events.iter().any(|ev| {
            matches!(ev, TraceEvent::Iteration { running, waiting, .. }
                if *running > 0 && *waiting > 0)
        });
        assert!(queued_behind_a_batch, "reservation never queued — {at}");
        return;
    }
    assert!(c.suspensions > 0, "nothing was suspended — {at}");
    assert_eq!(resumed, c.suspensions, "every suspension resumes — {at}");
    match sc.expect {
        Expect::Suspension | Expect::Reservation => {}
        Expect::ChunkedSuspension => {
            let cap = (sc.cfg)().chunked_prefill.expect("chunked preset");
            let split = events.iter().any(|ev| {
                matches!(ev, TraceEvent::Admitted { prompt_tokens, tail_tokens, recompute_tokens, .. }
                    if prompt_tokens + tail_tokens + recompute_tokens > cap)
            });
            assert!(split, "no prefill needed more than one slice — {at}");
        }
        Expect::SharedPrefix => {
            assert!(c.shared_prefix_hits > 0 && s.shared_hit_tokens > 0, "{at}");
            let resumed_with_chain = events.iter().any(|ev| {
                matches!(ev, TraceEvent::Admitted { resumed: true, shared_tokens, .. }
                    if *shared_tokens > 0)
            });
            assert!(resumed_with_chain, "no resume restored the chain — {at}");
        }
        Expect::DeepChaos => {
            assert!(s.demoted_tokens > 0, "nothing demoted — {at}");
            assert!(
                s.ssd_hit_tokens + s.cold_hit_tokens > 0,
                "no deep read — {at}"
            );
            let alloc_faults = fired.get(FaultKind::GpuAllocFailure);
            let stalls = fired.get(FaultKind::WorkerStall);
            assert!(alloc_faults > 0 && stalls > 0, "{at}");
            assert!(swap_in_retries(fired) > 0 && c.chunk_faults > 0, "{at}");
            assert!(c.cold_read_faults > 0, "no failed deep read — {at}");
            assert_eq!(
                recoveries(RecoveryKind::GpuAllocFault) as u64,
                alloc_faults,
                "{at}"
            );
            assert_eq!(
                recoveries(RecoveryKind::SwapInRetry) as u64,
                swap_in_retries(fired),
                "{at}"
            );
            assert_eq!(recoveries(RecoveryKind::WorkerStall) as u64, stalls, "{at}");
        }
    }
}

#[test]
fn golden_digests_hold_and_every_scenario_takes_its_path() {
    let mut table = String::new();
    let mut drifted = false;
    for (sc, golden) in SCENARIOS.iter().zip(&GOLDEN) {
        let mut cells = Vec::new();
        for (&drive, &expected) in DRIVES.iter().zip(golden) {
            let (digest, counters, fired, stats, events) = run(sc, drive);
            drifted |= digest != expected;
            cells.push(format!("{digest:#018x}"));
            let at = format!("{} under {drive:?}: {counters:?} {fired:?}", sc.name);
            check_coverage(sc, &counters, &fired, &stats, &events, &at);
        }
        table += &format!("    [{}], // {}\n", cells.join(", "), sc.name);
    }
    assert!(
        !drifted,
        "digest drift. `print_event_streams` dumps every run for diffing; if the \
         change in behaviour is intended, GOLDEN becomes:\n{table}"
    );
}

/// Tracing is passive and the engine keeps no second copy of what it
/// traces: in every scenario a traced and an untraced engine report the
/// same metrics, counters and gauges only. The distributions and the
/// completed-request count are the trace's.
#[test]
fn metrics_are_the_same_with_or_without_a_recorder() {
    for sc in &SCENARIOS {
        let serve = |rec: Option<&SharedRecorder>| {
            let mut e = build_engine(sc, rec);
            let mut client = Client::new(sc);
            let mut t = SimTime::ZERO;
            while !(client.pending.is_empty() && e.is_idle() && !e.responses_ready()) {
                t += SimDuration::from_secs(SLICE);
                client.submit_due(&mut e, Some(t));
                e.run_until(t);
                client.collect(&mut e);
            }
            e.metrics()
        };
        let rec = SharedRecorder::new();
        let traced = serve(Some(&rec));
        assert_eq!(traced, serve(None), "{}", sc.name);
        assert!(!traced.prometheus().contains("histogram"), "{}", sc.name);
        let report = TraceReport::from_events(&rec.events());
        let completed = report.histograms["pensieve_ttft_seconds"].count();
        assert_eq!(completed, (sc.convs * sc.turns) as u64, "{}", sc.name);
        let mut dump = traced;
        report.write_metrics(&mut dump);
        let count = dump.counter("pensieve_requests_completed_total");
        assert_eq!(count, completed, "{}", sc.name);
    }
}

/// State handoff while a suspended request waits in the queue: exports
/// are refused for every in-flight session (running, queued, suspended)
/// and granted for the rest, then a fail-stop orphans the queue — the
/// suspended request first, as the queue front — and the running batch,
/// in order.
#[test]
fn handoff_with_a_suspended_request_queued() {
    let sc = &SCENARIOS[0];
    let rec = SharedRecorder::new();
    let mut e = build_engine(sc, Some(&rec));
    let mut client = Client::new(sc);
    let mut t = SimTime::ZERO;
    let suspended_waiting = |e: &SimServingEngine| {
        let resumed = rec
            .events()
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::Admitted { resumed: true, .. }))
            .count() as u64;
        e.counters().suspensions > resumed
    };
    while !(suspended_waiting(&e) && e.running_requests() > 0) {
        assert!(!client.pending.is_empty() || !e.is_idle(), "never reached");
        t += SimDuration::from_secs(SLICE);
        client.submit_due(&mut e, Some(t));
        e.run_until(t);
        client.collect(&mut e);
    }
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.engine(&mut e, sc.convs);
    let in_flight = e.queue_depth();
    let mut refused = 0;
    for conv in (0..sc.convs as u64).map(SessionId) {
        match e.export_session(conv) {
            Some(export) => {
                assert_eq!(e.cached_tokens(conv), 0, "exported state is gone");
                d.n(export.shared.len());
                d.n(export.chunks.iter().map(|c| c.tokens).sum());
            }
            None => {
                refused += 1;
                d.n(usize::MAX);
            }
        }
    }
    assert_eq!(refused, in_flight, "one in-flight request per session");
    let orphans = e.fail_stop();
    assert_eq!(orphans.len(), in_flight);
    assert!(e.is_idle());
    for r in &orphans {
        d.word(r.id.0);
        d.word(r.conv.0);
        d.time(r.arrival);
        d.n(r.prompt_tokens);
        d.n(r.output_tokens);
        d.n(r.history_tokens);
    }
    d.engine(&mut e, sc.convs);
    assert_eq!(
        d.0, HANDOFF_GOLDEN,
        "handoff digest drift; if intended, HANDOFF_GOLDEN becomes {:#018x}",
        d.0
    );
}

/// The same scenario must reproduce itself.
#[test]
fn scenarios_are_deterministic() {
    let sc = &SCENARIOS[0];
    let (a, ..) = run(sc, Drive::Poll);
    let (b, ..) = run(sc, Drive::Poll);
    assert_eq!(a, b);
}

/// Diagnostic, not a check: prints every run's event stream. Run it on
/// two builds and diff the output —
/// `cargo test -p pensieve-core --test lifecycle_golden -- --ignored --nocapture`.
#[test]
#[ignore = "diagnostic output for diffing two builds"]
fn print_event_streams() {
    for sc in &SCENARIOS {
        for drive in DRIVES {
            println!("== {} under {drive:?}", sc.name);
            let (digest, .., events) = run(sc, drive);
            print!("{}", to_jsonl(&events));
            println!("digest {digest:#018x}");
        }
    }
}
