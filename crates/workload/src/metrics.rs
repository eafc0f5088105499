//! Latency/throughput summaries matching the paper's reporting (§6.1):
//! normalized latency percentiles over a steady-state window, TTFT, and
//! request/token throughput.
//!
//! These summaries are what the serving sweeps print and persist: the
//! `fig10`/`fig11` rate sweeps, the `fig15` think-time sweep, and the
//! interactive `serve_sim` subcommand (all under
//! `cargo run --release -p pensieve-bench -- <name>`; measured results
//! in `EXPERIMENTS.md`). Distribution-level TTFT lives in the
//! `pensieve_ttft_seconds` histogram recorded alongside a trace — see
//! `docs/OBSERVABILITY.md`.

use pensieve_core::Response;
use pensieve_model::SimDuration;
use serde::{Deserialize, Serialize};

/// Summary of normalized latency (end-to-end latency / output tokens) over
/// a set of responses, plus throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of completed requests.
    pub requests: usize,
    /// Mean normalized latency, seconds per output token.
    pub mean_normalized: f64,
    /// Median normalized latency.
    pub p50_normalized: f64,
    /// 90th-percentile normalized latency (the paper's headline metric).
    pub p90_normalized: f64,
    /// Mean time to first token, seconds.
    pub mean_ttft: f64,
    /// Completed requests per second over the measurement span.
    pub throughput_rps: f64,
    /// Generated output tokens per second over the measurement span.
    pub throughput_tps: f64,
}

impl LatencySummary {
    /// Summarizes the steady-state portion of a run.
    ///
    /// Closed-loop runs have a warmup ramp and a long drain tail (think
    /// times keep trickling requests after arrivals stop), so raw
    /// completions/span understates capacity. This selects the window
    /// between the 10th and 90th percentile of request *arrivals*,
    /// reports latency over requests arriving in the window, and
    /// throughput as completions landing in it divided by its width.
    ///
    /// # Panics
    ///
    /// Panics if `responses` is empty.
    #[must_use]
    pub fn steady_state(responses: &[Response]) -> Self {
        assert!(!responses.is_empty());
        let mut arrivals: Vec<f64> = responses.iter().map(|r| r.arrival.as_secs()).collect();
        arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let lo = percentile(&arrivals, 0.10);
        let hi = percentile(&arrivals, 0.90);
        if hi - lo < 1e-9 {
            // Degenerate (few requests): fall back to the full span.
            let last_finish = responses
                .iter()
                .map(|r| r.finish.as_secs())
                .fold(0.0f64, f64::max);
            let span = SimDuration::from_secs((last_finish - arrivals[0]).max(1e-9));
            return Self::from_responses(responses, span);
        }
        let in_window: Vec<Response> = responses
            .iter()
            .filter(|r| r.arrival.as_secs() >= lo && r.arrival.as_secs() <= hi)
            .cloned()
            .collect();
        let completions = responses
            .iter()
            .filter(|r| r.finish.as_secs() >= lo && r.finish.as_secs() <= hi)
            .count();
        let tokens: usize = responses
            .iter()
            .filter(|r| r.finish.as_secs() >= lo && r.finish.as_secs() <= hi)
            .map(|r| r.output_tokens)
            .sum();
        let mut s = Self::from_responses(&in_window, SimDuration::from_secs(hi - lo));
        s.throughput_rps = completions as f64 / (hi - lo);
        s.throughput_tps = tokens as f64 / (hi - lo);
        s
    }

    /// Summarizes `responses`; `span` is the measurement duration used for
    /// throughput.
    ///
    /// # Panics
    ///
    /// Panics if `responses` is empty or `span` is zero.
    #[must_use]
    pub fn from_responses(responses: &[Response], span: SimDuration) -> Self {
        assert!(!responses.is_empty(), "no responses to summarize");
        assert!(span.as_secs() > 0.0, "zero measurement span");
        let mut norm: Vec<f64> = responses
            .iter()
            .map(|r| r.normalized_latency().as_secs())
            .collect();
        norm.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mean = norm.iter().sum::<f64>() / norm.len() as f64;
        let ttft =
            responses.iter().map(|r| r.ttft().as_secs()).sum::<f64>() / responses.len() as f64;
        let tokens: usize = responses.iter().map(|r| r.output_tokens).sum();
        LatencySummary {
            requests: responses.len(),
            mean_normalized: mean,
            p50_normalized: percentile(&norm, 0.50),
            p90_normalized: percentile(&norm, 0.90),
            mean_ttft: ttft,
            throughput_rps: responses.len() as f64 / span.as_secs(),
            throughput_tps: tokens as f64 / span.as_secs(),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_core::RequestId;
    use pensieve_kvcache::SessionId;
    use pensieve_model::SimTime;

    fn resp(arrival: f64, finish: f64, out: usize) -> Response {
        Response {
            id: RequestId(0),
            conv: SessionId(0),
            arrival: SimTime::from_secs(arrival),
            first_token: SimTime::from_secs(arrival + 0.1),
            finish: SimTime::from_secs(finish),
            output_tokens: out,
            prefill_tokens: 0,
            cached_history_tokens: 0,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    /// Degenerate input (all arrivals identical) falls back to full-span
    /// throughput instead of dividing by a zero-width window.
    #[test]
    fn steady_state_degenerate_falls_back() {
        let rs = vec![resp(1.0, 2.0, 10), resp(1.0, 3.0, 10)];
        let s = LatencySummary::steady_state(&rs);
        assert_eq!(s.requests, 2);
        assert!(s.throughput_rps > 0.0 && s.throughput_rps.is_finite());
    }

    /// The steady window excludes warmup and drain-tail requests from the
    /// latency statistics.
    #[test]
    fn steady_state_trims_warmup_and_tail() {
        // 20 requests arriving at t = 0..19; the nearest-rank p10..p90
        // window is [1, 17], so arrivals 0, 18 and 19 are excluded.
        let rs: Vec<Response> = (0..20)
            .map(|i| resp(i as f64, i as f64 + 1.0, 10))
            .collect();
        let s = LatencySummary::steady_state(&rs);
        assert_eq!(s.requests, 17);
    }

    #[test]
    fn summary_computes_expected_values() {
        // Two requests of 10 tokens with latencies 1s and 2s.
        let rs = vec![resp(0.0, 1.0, 10), resp(0.0, 2.0, 10)];
        let s = LatencySummary::from_responses(&rs, SimDuration::from_secs(4.0));
        assert!((s.mean_normalized - 0.15).abs() < 1e-12);
        assert_eq!(s.p90_normalized, 0.2);
        assert_eq!(s.requests, 2);
        assert!((s.throughput_rps - 0.5).abs() < 1e-12);
        assert!((s.throughput_tps - 5.0).abs() < 1e-12);
        assert!((s.mean_ttft - 0.1).abs() < 1e-9);
    }
}
