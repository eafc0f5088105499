//! Sweep machinery: what a serving sweep point is, how it is run, and
//! how rows are printed and written.

use crossbeam::pool::Pool;
use pensieve_cluster::{Router, RouterConfig, RouterPolicy};
use pensieve_core::{EngineBuilder, EngineConfig, SimServingEngine};
use pensieve_kvcache::CacheStats;
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_obs::SharedRecorder;
use pensieve_workload::dataset::{Conversation, DatasetSpec};
use pensieve_workload::driver::{run_closed_loop, DriverConfig};
use pensieve_workload::metrics::LatencySummary;
use serde::{Serialize, Value};

use crate::cli::write_report;

/// One serving-sweep measurement point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Engine name.
    pub system: String,
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Offered request rate (requests/s).
    pub request_rate: f64,
    /// Mean user think time (s).
    pub think_time: f64,
    /// Steady-state summary.
    pub summary: LatencySummary,
    /// Cache hit statistics at the end of the run.
    pub cache: CacheRow,
}

/// Serializable extract of [`CacheStats`].
#[derive(Debug, Clone, Serialize)]
pub struct CacheRow {
    /// Overall history hit rate.
    pub hit_rate: f64,
    /// CPU-tier hit rate over non-GPU-resident tokens.
    pub cpu_hit_rate: f64,
    /// Tokens recomputed due to drops.
    pub recomputed_tokens: u64,
    /// Tokens swapped GPU->CPU.
    pub swapped_out_tokens: u64,
    /// Tokens swapped CPU->GPU.
    pub swapped_in_tokens: u64,
}

impl From<&CacheStats> for CacheRow {
    fn from(s: &CacheStats) -> Self {
        CacheRow {
            hit_rate: s.hit_rate(),
            cpu_hit_rate: s.cpu_hit_rate(),
            recomputed_tokens: s.recomputed_tokens,
            swapped_out_tokens: s.swapped_out_tokens,
            swapped_in_tokens: s.swapped_in_tokens,
        }
    }
}

/// Parameters for one serving sweep point.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Engine behaviour.
    pub engine: EngineConfig,
    /// Served model.
    pub model: ModelConfig,
    /// Hardware (GPU count etc.).
    pub hardware: HardwareSpec,
    /// Workload dataset.
    pub dataset: DatasetSpec,
    /// Offered request rate.
    pub request_rate: f64,
    /// Mean think time seconds.
    pub think_time: f64,
    /// Seed for workload + arrivals.
    pub seed: u64,
    /// System prompt length shared by every conversation (0 = none).
    pub system_prompt_tokens: usize,
}

impl PointSpec {
    /// A point of the paper's §6 set-up: one A100 (`azure_nc_a100(1)`),
    /// 60 s mean think time, no system prompt. Sweeps that differ say so
    /// with struct-update syntax.
    #[must_use]
    pub fn paper(
        engine: EngineConfig,
        model: ModelConfig,
        dataset: DatasetSpec,
        request_rate: f64,
        seed: u64,
    ) -> Self {
        PointSpec {
            engine,
            model,
            hardware: HardwareSpec::azure_nc_a100(1),
            dataset,
            request_rate,
            think_time: 60.0,
            seed,
            system_prompt_tokens: 0,
        }
    }
}

/// The horizon most experiments default to, seconds of arrivals.
pub const DEFAULT_HORIZON: f64 = 400.0;

/// Seconds of conversation arrivals simulated per point:
/// `PENSIEVE_DURATION` if set, else the experiment's `default`.
#[must_use]
pub fn horizon(default: f64) -> f64 {
    std::env::var("PENSIEVE_DURATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Number of worker threads for sweeps (`PENSIEVE_THREADS`).
#[must_use]
pub fn sweep_threads() -> usize {
    std::env::var("PENSIEVE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
}

/// Generates the workload for a point: enough conversations to sustain the
/// offered rate for `duration` seconds.
#[must_use]
pub fn workload_for(spec: &PointSpec, duration: f64) -> Vec<Conversation> {
    let conv_rate = spec.request_rate / spec.dataset.mean_turns;
    let n = (conv_rate * duration).ceil() as usize;
    spec.dataset.generate(n.max(50), spec.seed)
}

/// Builds the engine a sweep point runs on.
#[must_use]
pub fn engine_for(spec: &PointSpec) -> SimServingEngine {
    engine_builder_for(spec).build()
}

/// The [`EngineBuilder`] for a sweep point, for callers that decorate
/// the engine (recorder, fault injector) before building.
#[must_use]
pub fn engine_builder_for(spec: &PointSpec) -> EngineBuilder {
    SimServingEngine::builder(
        spec.engine.clone(),
        spec.model.clone(),
        spec.hardware.clone(),
    )
}

/// Builds an N-replica cluster router for a sweep point. When a recorder
/// is given, the router and every replica share it, producing one merged
/// event trace for the whole cluster.
#[must_use]
pub fn cluster_for(
    spec: &PointSpec,
    replicas: usize,
    policy: RouterPolicy,
    recorder: Option<SharedRecorder>,
) -> Router<SimServingEngine> {
    let fleet: Vec<SimServingEngine> = (0..replicas)
        .map(|_| {
            let mut b = engine_builder_for(spec);
            if let Some(rec) = recorder.clone() {
                b = b.recorder(rec);
            }
            b.build()
        })
        .collect();
    let mut router = Router::new(fleet, policy, RouterConfig::default());
    if let Some(rec) = recorder {
        router = router.recorder(rec);
    }
    router
}

/// The closed-loop driver configuration a sweep point runs under (the
/// arrival seed is decorrelated from the workload-generation seed).
#[must_use]
pub fn driver_for(spec: &PointSpec) -> DriverConfig {
    DriverConfig {
        request_rate: spec.request_rate,
        mean_think_time: spec.think_time,
        seed: spec.seed.wrapping_mul(2654435761).wrapping_add(1),
        system_prompt_tokens: spec.system_prompt_tokens,
    }
}

/// [`driver_for`] with the point's own seed as the arrival seed. The
/// experiments written before the seeds were decorrelated
/// (`ablate_suspension`, `memory_timeline`, `bench_sharing`) run under
/// it, and their rows are pinned.
#[must_use]
pub fn raw_seed_driver(spec: &PointSpec) -> DriverConfig {
    DriverConfig {
        seed: spec.seed,
        ..driver_for(spec)
    }
}

/// Runs one sweep point to completion over `duration` seconds of
/// arrivals.
#[must_use]
pub fn run_point(spec: &PointSpec, duration: f64) -> SweepPoint {
    let mut engine = engine_for(spec);
    let convs = workload_for(spec, duration);
    let result = run_closed_loop(&mut engine, &convs, &driver_for(spec));
    SweepPoint {
        system: spec.engine.name.clone(),
        model: spec.model.name.clone(),
        dataset: spec.dataset.name.clone(),
        request_rate: spec.request_rate,
        think_time: spec.think_time,
        summary: result.summary(),
        cache: CacheRow::from(engine.cache_stats()),
    }
}

/// Maps `f` over `0..n` on the process-wide persistent pool
/// (`PENSIEVE_THREADS` wide), preserving index order in the output.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    Pool::global(sweep_threads().min(n.max(1))).map_partitions(n, f)
}

/// Runs many points in parallel (deterministic per point), preserving
/// input order in the output.
#[must_use]
pub fn run_sweep(specs: &[PointSpec], duration: f64) -> Vec<SweepPoint> {
    par_map(specs.len(), |idx| {
        let point = run_point(&specs[idx], duration);
        eprintln!(
            "  [{}] {} {} {} rate={:.1}: p90={:.1}ms tp={:.2} req/s",
            idx,
            point.system,
            point.model,
            point.dataset,
            point.request_rate,
            point.summary.p90_normalized * 1e3,
            point.summary.throughput_rps
        );
        point
    })
}

/// Writes experiment rows as pretty JSON to `results/<name>.json`.
///
/// # Panics
///
/// Panics if the results directory cannot be created or written.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    println!();
    write_report(&format!("results/{name}.json"), value);
}

/// Prints a simple fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Prints `rows` as a table whose cells come from each row's serialized
/// form: a column is `(header, field, decimals)`; numbers print to
/// `decimals` places, strings as they are.
///
/// # Panics
///
/// Panics if a row has no number or string under `field`.
pub fn print_records<T: Serialize>(rows: &[T], columns: &[(&str, &str, usize)]) {
    let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let value = row.to_value();
            let cell = |&(_, field, decimals): &(&str, &str, usize)| match value.get(field) {
                Some(Value::Number(n)) => format!("{n:.decimals$}"),
                Some(Value::String(s)) => s.clone(),
                other => panic!("no printable field {field:?}: {other:?}"),
            };
            columns.iter().map(cell).collect()
        })
        .collect();
    print_table(&headers, &cells);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order_and_is_deterministic() {
        let spec = |rate: f64| PointSpec {
            think_time: 10.0,
            ..PointSpec::paper(
                EngineConfig::pensieve(),
                ModelConfig::opt_13b(),
                DatasetSpec::sharegpt(),
                rate,
                1,
            )
        };
        // Tiny duration for test speed.
        let a = run_sweep(&[spec(0.5), spec(1.0)], 30.0);
        let b = run_sweep(&[spec(0.5), spec(1.0)], 30.0);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].request_rate, 0.5);
        assert_eq!(a[1].request_rate, 1.0);
        assert_eq!(a[0].summary, b[0].summary);
        assert_eq!(a[1].summary, b[1].summary);
    }
}
