//! Pensieve's stateful LLM serving engine and the paper's baselines.
//!
//! One scheduler lives here, with two ways to carry out its batches:
//!
//! * [`engine::SimServingEngine`] — the full iteration-level serving system
//!   running against simulated device timing. One configurable
//!   implementation covers every system in the paper's evaluation:
//!   Pensieve, Pensieve (GPU cache only), Pensieve without unified
//!   scheduling, vLLM, and TensorRT-LLM (see [`config::EngineConfig`]'s
//!   presets). The scheduler, cache manager, eviction, suspension, and
//!   dropped-token recomputation logic are all real; each batch's
//!   duration comes from the cost model.
//! * [`functional::FunctionalEngine`] — the same engine with a real
//!   executor attached, scaled down: each tick it carries the
//!   `TieredKvCache`'s decisions out on real K/V bytes (lazy swap-out to
//!   host memory, swap-in, demotion, dropping) and runs the batch as one
//!   *real* forward pass of the tiny transformer over the paged KV pool.
//!   Its outputs are compared token-for-token against stateless
//!   recomputation in the tests.

// Lint levels: docs/LINTS.md has what each guards.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod backend;
pub mod config;
pub mod engine;
pub mod error;
mod executor;
pub mod functional;
pub mod request;
pub mod workers;

pub use backend::ServingBackend;
pub use config::EngineConfig;
pub use engine::{EngineBuilder, EngineCounters, SimServingEngine};
pub use error::WorkerError;
pub use functional::{FunctionalConfig, FunctionalEngine};
pub use request::{Request, RequestBuildError, RequestBuilder, RequestId, Response};
pub use workers::{ShardFleet, ThreadedTpEngine};
