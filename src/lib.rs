//! Pensieve: stateful LLM serving with a two-tier KV cache.
//!
//! This facade crate re-exports the workspace's public surface so that
//! downstream users can depend on a single crate. See the individual
//! crates for details:
//!
//! * [`model`] — architecture configs, hardware specs, the roofline cost
//!   model, and offline cost profiling.
//! * [`kernels`] — the paged KV pool and the multi-token paged attention
//!   kernel family (plus a tiny functional transformer).
//! * [`kvcache`] — the two-tier GPU/CPU cache manager and eviction
//!   policies.
//! * [`sim`] — discrete-event device models (PCIe link, GPU timing).
//! * [`obs`] — structured trace events, the metrics registry, and the
//!   JSONL / Chrome-trace / Prometheus exporters.
//! * [`core`] — the serving engines: Pensieve and the paper's baselines.
//! * [`cluster`] — multi-replica serving: placement policies,
//!   session-affinity routing, and KV migration between replicas.
//! * [`workload`] — multi-turn conversation workloads and the closed-loop
//!   driver.
//!
//! # Examples
//!
//! ```
//! use pensieve::core::{EngineConfig, Request, RequestId, ServingBackend, SimServingEngine};
//! use pensieve::kvcache::SessionId;
//! use pensieve::model::{HardwareSpec, ModelConfig, SimTime};
//!
//! let mut engine = SimServingEngine::builder(
//!     EngineConfig::pensieve(),
//!     ModelConfig::opt_13b(),
//!     HardwareSpec::azure_nc_a100(1),
//! )
//! .build();
//! engine.submit(
//!     Request::builder()
//!         .id(RequestId(0))
//!         .session(SessionId(1))
//!         .arrival(SimTime::ZERO)
//!         .prompt_tokens(64)
//!         .output_tokens(32)
//!         .build()
//!         .expect("request is well-formed"),
//! );
//! engine.run_until_idle();
//! assert_eq!(engine.drain_responses().len(), 1);
//! ```

pub use pensieve_cluster as cluster;
pub use pensieve_core as core;
pub use pensieve_kernels as kernels;
pub use pensieve_kvcache as kvcache;
pub use pensieve_model as model;
pub use pensieve_obs as obs;
pub use pensieve_sim as sim;
pub use pensieve_workload as workload;
