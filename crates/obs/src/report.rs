//! Post-processing of event logs: per-turn cache-hit attribution and
//! PCIe duplex/pipelining overlap statistics.
//!
//! This is the analysis behind `trace_report` (in `pensieve-bench`): it
//! answers "where did each admitted turn's history tokens come from?"
//! (GPU hit / revalidated / swapped in / recomputed — the §3 cache
//! effectiveness split, cf. Figure 14) and "how much did the two PCIe
//! directions and GPU compute actually overlap?" (the §4.2 duplex and
//! §4.3.3 pipelining claims). It is also where the serving stack's
//! distributions live: the iteration-time, batch-size, TTFT and
//! promotion-latency histograms are built from the events, never kept by
//! the engine or router a second time ([`TraceReport::write_metrics`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pensieve_model::{SimDuration, SimTime};

use crate::event::{SwapDir, TraceEvent};
use crate::metrics::{
    names, Histogram, MetricsRegistry, BATCH_QUERY_TOKENS_BUCKETS, ITERATION_SECONDS_BUCKETS,
    PROMOTION_LATENCY_SECONDS_BUCKETS, TTFT_SECONDS_BUCKETS,
};

/// Cache-source attribution for one admitted turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurnAttribution {
    /// Request id of the turn.
    pub request: u64,
    /// Conversation the turn belongs to.
    pub conv: u64,
    /// True when the conversation had prior state (a follow-up turn).
    pub resumed: bool,
    /// New prompt tokens in this turn.
    pub prompt_tokens: usize,
    /// History tokens served straight from GPU-resident chunks.
    pub gpu_hit_tokens: usize,
    /// History tokens revalidated from stale GPU copies (free).
    pub revalidate_tokens: usize,
    /// History tokens restored over PCIe from the CPU tier.
    pub swap_in_tokens: usize,
    /// History tokens recomputed because their cache was dropped.
    pub recompute_tokens: usize,
    /// Tokens credited to the shared system-prompt prefix.
    pub shared_tokens: usize,
}

impl TurnAttribution {
    /// All history tokens the cache was asked to produce for this turn.
    #[must_use]
    pub fn history_tokens(&self) -> usize {
        self.gpu_hit_tokens + self.revalidate_tokens + self.swap_in_tokens + self.recompute_tokens
    }
}

/// One standby promotion observed in the log: a session whose primary
/// fail-stopped and whose replicated KV state was imported at its
/// standby replica.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionRow {
    /// Conversation promoted.
    pub conv: u64,
    /// The dead primary's index.
    pub from: usize,
    /// The promoted standby's index.
    pub to: usize,
    /// When the promotion completed.
    pub at: SimTime,
    /// Tokens restored from replicated state.
    pub replicated_tokens: usize,
    /// Replication lag at crash — the unreplicated suffix recomputed.
    pub lag_tokens: usize,
    /// Crash-to-promotion latency.
    pub latency: SimDuration,
}

/// Aggregated report over one event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Per-turn attribution rows, in admission order.
    pub turns: Vec<TurnAttribution>,
    /// Scheduler iterations observed.
    pub iterations: u64,
    /// Requests that ran to completion.
    pub requests_completed: u64,
    /// Suspension events (§4.3.5).
    pub suspensions: u64,
    /// Fault-recovery events.
    pub fault_recoveries: u64,
    /// Time between the first and last event.
    pub span: SimDuration,
    /// Total simulated time GPU compute was busy (iteration compute).
    pub compute_busy: SimDuration,
    /// Total simulated time the H2D direction carried swap-in DMAs.
    pub swap_in_busy: SimDuration,
    /// Total simulated time the D2H direction carried swap-out DMAs.
    pub swap_out_busy: SimDuration,
    /// Bytes moved host-to-device (swap-in).
    pub swap_in_bytes: u64,
    /// Bytes moved device-to-host (swap-out).
    pub swap_out_bytes: u64,
    /// Time both PCIe directions were simultaneously busy — the §4.2
    /// full-duplex win over a half-duplex schedule.
    pub duplex_overlap: SimDuration,
    /// Time GPU compute and swap-in DMA were simultaneously busy — the
    /// §4.3.3 layered-pipelining win over stop-and-copy.
    pub compute_swap_in_overlap: SimDuration,
    /// Replica fail-stops handled by the cluster router.
    pub replica_failures: u64,
    /// Standby promotions, in event order (the failover timeline).
    pub promotions: Vec<PromotionRow>,
    /// Replication flushes put on the wire (delivered or lost).
    pub replication_flushes: u64,
    /// Replication flushes lost in transit (re-streamed later).
    pub replication_lost_flushes: u64,
    /// Delta tokens delivered to standbys across all flushes.
    pub replicated_tokens: u64,
    /// KV bytes put on the wire by replication flushes (incl. lost).
    pub replicated_bytes: u64,
    /// Tokens demoted down the storage hierarchy, keyed by path
    /// (`"cpu->ssd"`, `"ssd->cold"`, `"cpu->cold"`), in tokens.
    pub demotion_tokens: BTreeMap<String, u64>,
    /// History tokens read back from each deep tier (`"ssd"`, `"cold"`)
    /// by committed restores.
    pub tier_read_tokens: BTreeMap<String, u64>,
    /// Session manifests serialized to the cold store.
    pub manifests_persisted: u64,
    /// Manifests truncated by injected torn-write faults.
    pub torn_manifests: u64,
    /// Sessions rehydrated from cold-store manifests.
    pub rehydrations: u64,
    /// Tokens admitted back into caches by rehydration.
    pub rehydrated_tokens: u64,
    /// The trace's distributions by canonical metric name, one
    /// observation per event, in the log's order: each `Iteration`'s
    /// end-to-end time ([`names::ITERATION_SECONDS`]) and query tokens
    /// ([`names::BATCH_QUERY_TOKENS`]), each `RequestCompleted`'s time to
    /// first token ([`names::TTFT_SECONDS`]) and each `StandbyPromoted`'s
    /// latency ([`names::PROMOTION_LATENCY_SECONDS`]). A histogram is
    /// present once the log holds one of its events.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

/// Sums, merges and intersects `(start, end)` second intervals.
fn merged(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total(iv: &[(f64, f64)]) -> f64 {
    // `+ 0.0` normalises the empty sum: f64's additive identity is -0.0,
    // which would render as "-0.000s".
    iv.iter().map(|(s, e)| e - s).sum::<f64>() + 0.0
}

/// Total length of the intersection of two merged interval lists.
fn overlap(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

impl TraceReport {
    /// Builds the report from an event log, in any order. The
    /// histograms observe their events in the log's order, so their sums
    /// are exact for a log recorded in that order.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = Self::default();
        let mut first: Option<SimTime> = None;
        let mut last: Option<SimTime> = None;
        let mut compute_iv: Vec<(f64, f64)> = Vec::new();
        let mut in_iv: Vec<(f64, f64)> = Vec::new();
        let mut out_iv: Vec<(f64, f64)> = Vec::new();
        for ev in events {
            let at = ev.at();
            let end = match ev {
                TraceEvent::Iteration { end, .. }
                | TraceEvent::Swap { end, .. }
                | TraceEvent::Migration { end, .. } => *end,
                _ => at,
            };
            first = Some(first.map_or(at, |f| if at < f { at } else { f }));
            last = Some(last.map_or(end, |l| if end > l { end } else { l }));
            match ev {
                TraceEvent::Iteration {
                    prefill_tokens,
                    decode_seqs,
                    queue_delay,
                    compute,
                    stall,
                    ..
                } => {
                    report.iterations += 1;
                    let took = (*queue_delay + *compute + *stall).as_secs();
                    report.observe(names::ITERATION_SECONDS, ITERATION_SECONDS_BUCKETS, took);
                    let tokens = (prefill_tokens + decode_seqs) as f64;
                    report.observe(
                        names::BATCH_QUERY_TOKENS,
                        BATCH_QUERY_TOKENS_BUCKETS,
                        tokens,
                    );
                    // Time advances queue_delay, then compute, then stall:
                    // compute occupies [end - stall - compute, end - stall].
                    let done = end.as_secs() - stall.as_secs();
                    compute_iv.push((done - compute.as_secs(), done));
                }
                TraceEvent::Admitted {
                    request,
                    conv,
                    resumed,
                    prompt_tokens,
                    shared_tokens,
                    gpu_hit_tokens,
                    revalidate_tokens,
                    swap_in_tokens,
                    recompute_tokens,
                    ..
                } => report.turns.push(TurnAttribution {
                    request: *request,
                    conv: *conv,
                    resumed: *resumed,
                    prompt_tokens: *prompt_tokens,
                    gpu_hit_tokens: *gpu_hit_tokens,
                    revalidate_tokens: *revalidate_tokens,
                    swap_in_tokens: *swap_in_tokens,
                    recompute_tokens: *recompute_tokens,
                    shared_tokens: *shared_tokens,
                }),
                TraceEvent::Swap { dir, bytes, .. } => {
                    let (iv, bytes_acc) = match dir {
                        SwapDir::In => (&mut in_iv, &mut report.swap_in_bytes),
                        SwapDir::Out => (&mut out_iv, &mut report.swap_out_bytes),
                    };
                    iv.push((at.as_secs(), end.as_secs()));
                    *bytes_acc += bytes;
                }
                TraceEvent::Suspended { .. } => report.suspensions += 1,
                TraceEvent::FaultRecovery { .. } => report.fault_recoveries += 1,
                TraceEvent::RequestCompleted {
                    arrival,
                    first_token,
                    ..
                } => {
                    report.requests_completed += 1;
                    let ttft = first_token.saturating_duration_since(*arrival).as_secs();
                    report.observe(names::TTFT_SECONDS, TTFT_SECONDS_BUCKETS, ttft);
                }
                TraceEvent::ReplicaFailed { .. } => report.replica_failures += 1,
                TraceEvent::ReplicationFlush {
                    tokens,
                    bytes,
                    lost,
                    ..
                } => {
                    report.replication_flushes += 1;
                    report.replicated_bytes += bytes;
                    if *lost {
                        report.replication_lost_flushes += 1;
                    } else {
                        report.replicated_tokens += *tokens as u64;
                    }
                }
                TraceEvent::StandbyPromoted {
                    at,
                    conv,
                    from,
                    to,
                    replicated_tokens,
                    lag_tokens,
                    latency,
                } => {
                    report.promotions.push(PromotionRow {
                        conv: *conv,
                        from: *from,
                        to: *to,
                        at: *at,
                        replicated_tokens: *replicated_tokens,
                        lag_tokens: *lag_tokens,
                        latency: *latency,
                    });
                    let name = names::PROMOTION_LATENCY_SECONDS;
                    report.observe(name, PROMOTION_LATENCY_SECONDS_BUCKETS, latency.as_secs());
                }
                TraceEvent::ChunkDemoted {
                    tokens, from, to, ..
                } => {
                    let path = format!("{}->{}", from.as_str(), to.as_str());
                    *report.demotion_tokens.entry(path).or_insert(0) += *tokens as u64;
                }
                TraceEvent::TierReadCommitted { tokens, tier, .. } => {
                    *report
                        .tier_read_tokens
                        .entry(tier.as_str().to_owned())
                        .or_insert(0) += *tokens as u64;
                }
                TraceEvent::ManifestPersisted { torn, .. } => {
                    report.manifests_persisted += 1;
                    if *torn {
                        report.torn_manifests += 1;
                    }
                }
                TraceEvent::SessionRehydrated { tokens, .. } => {
                    report.rehydrations += 1;
                    report.rehydrated_tokens += *tokens as u64;
                }
                _ => {}
            }
        }
        if let (Some(f), Some(l)) = (first, last) {
            report.span = l.saturating_duration_since(f);
        }
        let compute_iv = merged(compute_iv);
        let in_iv = merged(in_iv);
        let out_iv = merged(out_iv);
        report.compute_busy = SimDuration::from_secs(total(&compute_iv));
        report.swap_in_busy = SimDuration::from_secs(total(&in_iv));
        report.swap_out_busy = SimDuration::from_secs(total(&out_iv));
        report.duplex_overlap = SimDuration::from_secs(overlap(&in_iv, &out_iv));
        report.compute_swap_in_overlap = SimDuration::from_secs(overlap(&compute_iv, &in_iv));
        report
    }

    /// Adds `v` to the histogram `name`, created with `bounds` at its
    /// first observation.
    fn observe(&mut self, name: &'static str, bounds: &[f64], v: f64) {
        let h = self.histograms.entry(name);
        h.or_insert_with(|| Histogram::new(bounds)).observe(v);
    }

    /// Writes what only the trace knows into `m`: the completed-request
    /// count, and each histogram whose events the log holds. The
    /// engine's and router's registries hold counters and gauges only,
    /// so a traced run's full dump is theirs plus this.
    pub fn write_metrics(&self, m: &mut MetricsRegistry) {
        m.counter_set(names::REQUESTS_COMPLETED_TOTAL, self.requests_completed);
        for (name, h) in &self.histograms {
            m.histogram_set(name, h.clone());
        }
    }

    /// Token totals across all turns:
    /// `(history, gpu_hit, revalidate, swap_in, recompute, shared)`.
    #[must_use]
    pub fn token_totals(&self) -> (usize, usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0, 0);
        for turn in &self.turns {
            t.0 += turn.history_tokens();
            t.1 += turn.gpu_hit_tokens;
            t.2 += turn.revalidate_tokens;
            t.3 += turn.swap_in_tokens;
            t.4 += turn.recompute_tokens;
            t.5 += turn.shared_tokens;
        }
        t
    }

    /// Renders the report as a plain-text summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |part: f64, whole: f64| {
            if whole > 0.0 {
                100.0 * part / whole
            } else {
                0.0
            }
        };
        let (history, gpu, reval, swap, recompute, shared) = self.token_totals();
        let h = history as f64;
        let _ = writeln!(out, "== trace report ==");
        let _ = writeln!(
            out,
            "span {:.3}s  iterations {}  turns {}  completed {}  suspensions {}  fault-recoveries {}",
            self.span.as_secs(),
            self.iterations,
            self.turns.len(),
            self.requests_completed,
            self.suspensions,
            self.fault_recoveries,
        );
        let _ = writeln!(
            out,
            "\n-- per-turn cache-hit attribution (history tokens) --"
        );
        let _ = writeln!(
            out,
            "history {history}  gpu-hit {gpu} ({:.1}%)  revalidated {reval} ({:.1}%)  swapped-in {swap} ({:.1}%)  recomputed {recompute} ({:.1}%)  shared-prefix credit {shared}",
            pct(gpu as f64, h),
            pct(reval as f64, h),
            pct(swap as f64, h),
            pct(recompute as f64, h),
        );
        let resumed = self.turns.iter().filter(|t| t.resumed).count();
        let _ = writeln!(
            out,
            "resumed turns {resumed}/{}  saved (non-recompute) {:.1}%",
            self.turns.len(),
            pct(h - recompute as f64, h),
        );
        let _ = writeln!(out, "\n-- PCIe / compute overlap --");
        let _ = writeln!(
            out,
            "swap-in busy {:.3}s ({} bytes)  swap-out busy {:.3}s ({} bytes)",
            self.swap_in_busy.as_secs(),
            self.swap_in_bytes,
            self.swap_out_busy.as_secs(),
            self.swap_out_bytes,
        );
        let _ = writeln!(
            out,
            "duplex overlap {:.3}s ({:.1}% of swap-in busy) — time both PCIe directions ran at once",
            self.duplex_overlap.as_secs(),
            pct(self.duplex_overlap.as_secs(), self.swap_in_busy.as_secs()),
        );
        let _ = writeln!(
            out,
            "compute busy {:.3}s; compute/swap-in overlap {:.3}s ({:.1}% of swap-in hidden behind compute)",
            self.compute_busy.as_secs(),
            self.compute_swap_in_overlap.as_secs(),
            pct(
                self.compute_swap_in_overlap.as_secs(),
                self.swap_in_busy.as_secs()
            ),
        );
        if !self.demotion_tokens.is_empty()
            || !self.tier_read_tokens.is_empty()
            || self.manifests_persisted > 0
            || self.rehydrations > 0
        {
            let _ = writeln!(out, "\n-- storage tiers --");
            for (path, tokens) in &self.demotion_tokens {
                let _ = writeln!(out, "demoted {path} {tokens} tokens");
            }
            for (tier, tokens) in &self.tier_read_tokens {
                let _ = writeln!(out, "read back from {tier} {tokens} tokens");
            }
            let _ = writeln!(
                out,
                "manifests persisted {} ({} torn)  rehydrations {} ({} tokens)",
                self.manifests_persisted,
                self.torn_manifests,
                self.rehydrations,
                self.rehydrated_tokens,
            );
        }
        if self.replica_failures > 0 || self.replication_flushes > 0 || !self.promotions.is_empty()
        {
            let _ = writeln!(out, "\n-- failover --");
            let _ = writeln!(
                out,
                "replica failures {}  replication flushes {} ({} lost)  replicated tokens {} ({} bytes on wire)",
                self.replica_failures,
                self.replication_flushes,
                self.replication_lost_flushes,
                self.replicated_tokens,
                self.replicated_bytes,
            );
            for p in &self.promotions {
                let _ = writeln!(
                    out,
                    "promotion conv {} replica {}->{} at {:.3}s: replicated {} tokens, lag at crash {} tokens (recomputed), latency {:.3}s",
                    p.conv,
                    p.from,
                    p.to,
                    p.at.as_secs(),
                    p.replicated_tokens,
                    p.lag_tokens,
                    p.latency.as_secs(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn interval_helpers() {
        let m = merged(vec![(2.0, 3.0), (0.0, 1.0), (0.5, 1.5), (3.0, 3.0)]);
        assert_eq!(m, vec![(0.0, 1.5), (2.0, 3.0)]);
        assert!((total(&m) - 2.5).abs() < 1e-12);
        let o = overlap(&[(0.0, 2.0), (3.0, 4.0)], &[(1.0, 3.5)]);
        assert!((o - 1.5).abs() < 1e-12, "overlap {o}");
    }

    #[test]
    fn attribution_and_overlap_from_events() {
        let events = vec![
            TraceEvent::Admitted {
                at: t(0.0),
                iteration: 0,
                request: 1,
                conv: 7,
                resumed: true,
                prompt_tokens: 10,
                tail_tokens: 0,
                shared_tokens: 4,
                gpu_hit_tokens: 60,
                revalidate_tokens: 10,
                swap_in_tokens: 20,
                recompute_tokens: 10,
            },
            TraceEvent::Swap {
                at: t(0.0),
                end: t(1.0),
                dir: SwapDir::In,
                bytes: 100,
            },
            TraceEvent::Swap {
                at: t(0.5),
                end: t(1.5),
                dir: SwapDir::Out,
                bytes: 50,
            },
            TraceEvent::Iteration {
                at: t(0.0),
                end: t(1.0),
                iteration: 0,
                running: 0,
                waiting: 1,
                prefill_seqs: 1,
                decode_seqs: 0,
                prefill_tokens: 10,
                queue_delay: SimDuration::from_secs(0.2),
                compute: SimDuration::from_secs(0.8),
                stall: SimDuration::ZERO,
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.turns.len(), 1);
        assert_eq!(r.turns[0].history_tokens(), 100);
        assert_eq!(r.turns[0].recompute_tokens, 10);
        assert_eq!(r.swap_in_bytes, 100);
        assert_eq!(r.swap_out_bytes, 50);
        // Swap-in [0,1] vs swap-out [0.5,1.5] overlap 0.5s.
        assert!((r.duplex_overlap.as_secs() - 0.5).abs() < 1e-9);
        // Compute [0.2,1.0] vs swap-in [0,1] overlap 0.8s.
        assert!((r.compute_swap_in_overlap.as_secs() - 0.8).abs() < 1e-9);
        // The span runs to the last interval's end.
        assert!((r.span.as_secs() - 1.5).abs() < 1e-9);
        let text = r.render();
        assert!(text.contains("gpu-hit 60 (60.0%)"), "{text}");
        assert!(text.contains("duplex overlap 0.500s"), "{text}");
    }

    #[test]
    fn failover_section_appears_only_with_failover_events() {
        let calm = TraceReport::from_events(&[]);
        assert!(!calm.render().contains("-- failover --"));
        let events = vec![
            TraceEvent::ReplicationFlush {
                at: t(0.5),
                conv: 3,
                from: 0,
                to: 1,
                tokens: 64,
                bytes: 4096,
                lost: false,
            },
            TraceEvent::ReplicationFlush {
                at: t(0.6),
                conv: 3,
                from: 0,
                to: 1,
                tokens: 32,
                bytes: 2048,
                lost: true,
            },
            TraceEvent::ReplicaFailed {
                at: t(1.0),
                replica: 0,
                requeued: 1,
            },
            TraceEvent::StandbyPromoted {
                at: t(1.002),
                conv: 3,
                from: 0,
                to: 1,
                replicated_tokens: 64,
                lag_tokens: 32,
                latency: SimDuration::from_millis(2.0),
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.replica_failures, 1);
        assert_eq!(r.replication_flushes, 2);
        assert_eq!(r.replication_lost_flushes, 1);
        assert_eq!(r.replicated_tokens, 64);
        assert_eq!(r.replicated_bytes, 6144);
        assert_eq!(r.promotions.len(), 1);
        assert_eq!(r.promotions[0].lag_tokens, 32);
        let text = r.render();
        assert!(text.contains("-- failover --"), "{text}");
        assert!(text.contains("promotion conv 3 replica 0->1"), "{text}");
        assert!(text.contains("lag at crash 32 tokens"), "{text}");
    }

    #[test]
    fn storage_tier_section_attributes_demotions_and_rehydrations() {
        use crate::event::StorageTier;
        let calm = TraceReport::from_events(&[]);
        assert!(!calm.render().contains("-- storage tiers --"));
        let events = vec![
            TraceEvent::ChunkDemoted {
                at: t(0.1),
                conv: 1,
                chunk: 0,
                tokens: 32,
                from: StorageTier::Cpu,
                to: StorageTier::Ssd,
            },
            TraceEvent::ChunkDemoted {
                at: t(0.2),
                conv: 1,
                chunk: 1,
                tokens: 32,
                from: StorageTier::Ssd,
                to: StorageTier::Cold,
            },
            TraceEvent::TierReadCommitted {
                at: t(0.5),
                conv: 1,
                tokens: 64,
                tier: StorageTier::Cold,
            },
            TraceEvent::ManifestPersisted {
                at: t(0.6),
                conv: 1,
                tokens: 64,
                bytes: 48,
                torn: true,
            },
            TraceEvent::SessionRehydrated {
                at: t(0.9),
                conv: 1,
                tokens: 64,
                replica: 0,
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.demotion_tokens.get("cpu->ssd"), Some(&32));
        assert_eq!(r.demotion_tokens.get("ssd->cold"), Some(&32));
        assert_eq!(r.tier_read_tokens.get("cold"), Some(&64));
        assert_eq!(r.manifests_persisted, 1);
        assert_eq!(r.torn_manifests, 1);
        assert_eq!(r.rehydrations, 1);
        assert_eq!(r.rehydrated_tokens, 64);
        let text = r.render();
        assert!(text.contains("-- storage tiers --"), "{text}");
        assert!(text.contains("demoted cpu->ssd 32 tokens"), "{text}");
        assert!(text.contains("read back from cold 64 tokens"), "{text}");
        assert!(
            text.contains("manifests persisted 1 (1 torn)  rehydrations 1 (64 tokens)"),
            "{text}"
        );
    }

    #[test]
    fn empty_log_renders_without_dividing_by_zero() {
        let r = TraceReport::from_events(&[]);
        assert_eq!(r.span, SimDuration::ZERO);
        let text = r.render();
        assert!(text.contains("turns 0"), "{text}");
    }
}
