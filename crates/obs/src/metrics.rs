//! Deterministic metrics registry: counters, gauges, fixed-bucket
//! histograms, Prometheus-style text dump.
//!
//! Nothing here reads a wall clock or iterates hash-ordered containers —
//! every map is a `BTreeMap`, so registration order never changes the
//! exported text and traced runs stay bit-reproducible.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// States each metric name once: expands to one `pub const` per row and
/// `ALL`, the list of every row.
macro_rules! metric_names {
    ($( $(#[$meta:meta])* $name:ident = $wire:literal, )*) => {
        $( $(#[$meta])* pub const $name: &str = $wire; )*

        /// Every canonical metric name.
        pub const ALL: &[&str] = &[$( $name ),*];
    };
}

/// Canonical metric names recorded by the serving stack. The
/// docs-coverage test asserts each appears in `docs/OBSERVABILITY.md`.
pub mod names {
    metric_names! {
        /// Counter: scheduler iterations executed.
        ITERATIONS_TOTAL = "pensieve_iterations_total",
        /// Counter: query tokens processed in prefill.
        PREFILL_TOKENS_TOTAL = "pensieve_prefill_tokens_total",
        /// Counter: decode steps executed.
        DECODE_TOKENS_TOTAL = "pensieve_decode_tokens_total",
        /// Counter: requests suspended mid-generation (§4.3.5).
        SUSPENSIONS_TOTAL = "pensieve_suspensions_total",
        /// Counter: swap-in DMA attempts retried after injected faults.
        SWAP_IN_RETRIES_TOTAL = "pensieve_swap_in_retries_total",
        /// Counter: restores that fell back to dropped-token recomputation.
        RECOMPUTE_FALLBACKS_TOTAL = "pensieve_recompute_fallbacks_total",
        /// Counter: transient GPU allocation faults absorbed by backpressure.
        GPU_ALLOC_FAULTS_TOTAL = "pensieve_gpu_alloc_faults_total",
        /// Counter: injected worker stalls absorbed as longer iterations.
        WORKER_STALLS_TOTAL = "pensieve_worker_stalls_total",
        /// Counter: CPU-tier chunks lost or corrupted by injected faults.
        CHUNK_FAULTS_TOTAL = "pensieve_chunk_faults_total",
        /// Counter: completed requests.
        REQUESTS_COMPLETED_TOTAL = "pensieve_requests_completed_total",
        /// Counter: history tokens served by the shared system prompt.
        SHARED_PREFIX_HIT_TOKENS_TOTAL = "pensieve_shared_prefix_hit_tokens_total",
        /// Gauge: requests in the running batch.
        RUNNING_REQUESTS = "pensieve_running_requests",
        /// Gauge: requests waiting for admission.
        WAITING_REQUESTS = "pensieve_waiting_requests",
        /// Gauge: GPU KV slots in use (resident + lazily-copied tokens).
        GPU_SLOTS_USED = "pensieve_gpu_slots_used",
        /// Gauge: CPU cache tokens in use.
        CPU_TOKENS_USED = "pensieve_cpu_tokens_used",
        /// Histogram: end-to-end iteration time (queue delay + compute +
        /// stall), seconds.
        ITERATION_SECONDS = "pensieve_iteration_seconds",
        /// Histogram: query tokens per batched invocation.
        BATCH_QUERY_TOKENS = "pensieve_batch_query_tokens",
        /// Histogram: time to first token, seconds.
        TTFT_SECONDS = "pensieve_ttft_seconds",
        /// Counter: requests placed on a replica by the cluster router.
        ROUTED_REQUESTS_TOTAL = "pensieve_routed_requests_total",
        /// Counter: conversation migrations between replicas.
        MIGRATIONS_TOTAL = "pensieve_migrations_total",
        /// Counter: KV-tokens streamed to a migration target's CPU tier.
        MIGRATED_TOKENS_TOTAL = "pensieve_migrated_tokens_total",
        /// Counter: KV-tokens lost by the inter-node link during migration
        /// (recomputed at the target).
        MIGRATION_LOST_TOKENS_TOTAL = "pensieve_migration_lost_tokens_total",
        /// Counter: fault-injected replica deaths handled by the router.
        REPLICA_FAILURES_TOTAL = "pensieve_replica_failures_total",
        /// Counter: KV-tokens replicated to a standby's CPU tier.
        REPLICATED_TOKENS_TOTAL = "pensieve_replicated_tokens_total",
        /// Counter: KV bytes put on the wire by replication flushes.
        STANDBY_BYTES_TOTAL = "pensieve_standby_bytes_total",
        /// Counter: standby promotions after a primary fail-stop.
        STANDBY_PROMOTIONS_TOTAL = "pensieve_standby_promotions_total",
        /// Counter: unreplicated-suffix tokens recomputed after promotion.
        RECOMPUTED_SUFFIX_TOKENS_TOTAL = "pensieve_recomputed_suffix_tokens_total",
        /// Gauge: largest per-session replication lag (tokens committed at
        /// the primary but not yet replicated to its standby).
        REPLICATION_LAG_TOKENS = "pensieve_replication_lag_tokens",
        /// Histogram: crash-to-promotion latency, seconds.
        PROMOTION_LATENCY_SECONDS = "pensieve_promotion_latency_seconds",
        /// Counter: chunks lost in transit on the inter-node links
        /// (migration and replication combined).
        LINK_LOST_CHUNKS_TOTAL = "pensieve_link_lost_chunks_total",
        /// Counter: bytes put on the wire by the inter-node links
        /// (migration and replication combined, including lost chunks).
        LINK_STREAMED_BYTES_TOTAL = "pensieve_link_streamed_bytes_total",
        /// Counter: history tokens served by reading back from the SSD tier.
        SSD_HIT_TOKENS_TOTAL = "pensieve_ssd_hit_tokens_total",
        /// Counter: history tokens served by reading back from the cold tier.
        COLD_HIT_TOKENS_TOTAL = "pensieve_cold_hit_tokens_total",
        /// Counter: tokens demoted one storage tier down instead of dropped.
        DEMOTED_TOKENS_TOTAL = "pensieve_demoted_tokens_total",
        /// Counter: tokens rehydrated from cold-store session manifests.
        REHYDRATED_TOKENS_TOTAL = "pensieve_rehydrated_tokens_total",
        /// Counter: deep-tier reads that failed and fell back to recompute.
        COLD_READ_FAULTS_TOTAL = "pensieve_cold_read_faults_total",
        /// Counter: session manifests serialized to the cold store.
        MANIFESTS_PERSISTED_TOTAL = "pensieve_manifests_persisted_total",
        /// Counter: sessions rebuilt from cold-store manifests after a
        /// restart or failover.
        SESSION_REHYDRATIONS_TOTAL = "pensieve_session_rehydrations_total",
        /// Gauge: SSD (tier-2) cache tokens in use.
        SSD_TOKENS_USED = "pensieve_ssd_tokens_used",
        /// Gauge: cold-store (tier-3) cache tokens in use.
        COLD_TOKENS_USED = "pensieve_cold_tokens_used",
    }
}

/// Default bucket upper bounds for [`names::ITERATION_SECONDS`].
pub const ITERATION_SECONDS_BUCKETS: &[f64] =
    &[0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0];

/// Default bucket upper bounds for [`names::BATCH_QUERY_TOKENS`].
pub const BATCH_QUERY_TOKENS_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// Default bucket upper bounds for [`names::TTFT_SECONDS`].
pub const TTFT_SECONDS_BUCKETS: &[f64] = &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0];

/// Default bucket upper bounds for [`names::PROMOTION_LATENCY_SECONDS`].
pub const PROMOTION_LATENCY_SECONDS_BUCKETS: &[f64] =
    &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5];

/// A fixed-bucket histogram (cumulative at export time, per-bucket in
/// memory).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing. An implicit `+Inf`
    /// bucket always follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts[bounds.len()]` is `+Inf`.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.sum += v;
        self.total += 1;
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative count of observations `<= bounds()[i]`; the last entry
    /// (index `bounds().len()`) is the `+Inf` bucket and equals
    /// [`Histogram::count`].
    #[must_use]
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }
}

/// A metrics snapshot by name: counters and gauges as their owner read
/// them at one instant (`SimServingEngine::metrics`, `Router::metrics`),
/// and histograms as a trace's events build them
/// ([`TraceReport::write_metrics`](crate::TraceReport::write_metrics)).
/// Nothing holds a registry across a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a counter to its owner's current total.
    pub fn counter_set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_owned(), v);
    }

    /// Current value of a counter (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// Current value of a gauge (`None` if never written).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Sets the named histogram.
    pub fn histogram_set(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_owned(), h);
    }

    /// Adds `other`'s counters and gauges into `self`, name by name,
    /// which is what a fleet total over replicas that each own their
    /// metrics means. Owners hold no histograms: a fleet's come from its
    /// one merged trace.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0.0) += v;
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Deterministic: metrics are emitted in lexicographic name order.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let cumulative = h.cumulative();
            for (i, bound) in h.bounds().iter().enumerate() {
                let c = cumulative.get(i).copied().unwrap_or(0);
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {c}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_gauges() {
        let replica = |iterations, running| {
            let mut r = MetricsRegistry::new();
            r.counter_set("c", iterations);
            r.gauge_set("g", running);
            r
        };
        let mut fleet = MetricsRegistry::new();
        fleet.counter_set("router_only", 7);
        fleet.merge(&replica(5, 2.0));
        fleet.merge(&replica(3, 1.0));
        assert_eq!(fleet.counter("c"), 8);
        assert_eq!(fleet.counter("router_only"), 7);
        assert_eq!(fleet.gauge("g"), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(9.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 11.0).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![1, 2, 3]);
    }

    #[test]
    fn prometheus_dump_is_deterministic_and_complete() {
        let mut r = MetricsRegistry::new();
        r.counter_set(names::ITERATIONS_TOTAL, 4);
        r.gauge_set(names::RUNNING_REQUESTS, 2.0);
        let mut h = Histogram::new(ITERATION_SECONDS_BUCKETS);
        h.observe(0.03);
        r.histogram_set(names::ITERATION_SECONDS, h);
        let a = r.prometheus();
        let b = r.clone().prometheus();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE pensieve_iterations_total counter"));
        assert!(a.contains("pensieve_iterations_total 4"));
        assert!(a.contains("# TYPE pensieve_running_requests gauge"));
        assert!(a.contains("pensieve_iteration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(a.contains("pensieve_iteration_seconds_count 1"));
    }
}
