//! Multi-replica cluster serving for the Pensieve reproduction.
//!
//! The paper evaluates Pensieve on a single serving node; this crate
//! extends the simulation to a fleet. Stateful serving changes the
//! cluster story in a way stateless serving never faced: a conversation's
//! KV state lives on *one* replica, so placement is no longer
//! interchangeable — sending a turn anywhere else forfeits the cache the
//! whole system exists to keep. The pieces:
//!
//! * [`RouterPolicy`] — `round_robin` and `least_loaded` baselines, plus
//!   `cache_aware` session-affinity placement that weighs cached
//!   hit-tokens against load imbalance.
//! * [`Router`] — N replicas behind one [`ServingBackend`] facade,
//!   driven only through that trait. Includes conversation migration
//!   over a simulated inter-node link (with dropped-token recomputation
//!   for chunks lost in transit) and replica fail-stop recovery.
//! * [`ReplicationConfig`] — streaming KV replication to a standby
//!   replica (DéjàVu-style): async mode bounds replication lag, sync
//!   mode adds a turn-commit barrier, and on fail-stop the standby is
//!   promoted so only the unreplicated suffix is recomputed. Chaos
//!   schedules ([`pensieve_sim::FaultSchedule`]) drive seeded crash and
//!   link-partition injections.
//! * [`RouterConfig`] — saturation/hysteresis and link-shape knobs.
//!
//! The whole cluster is deterministic: identical inputs produce an
//! identical event trace, which `results/BENCH_cluster.json` pins with a
//! trace hash.
//!
//! ```
//! use pensieve_cluster::{Router, RouterConfig, RouterPolicy};
//! use pensieve_core::{EngineConfig, ServingBackend, SimServingEngine};
//! use pensieve_model::{HardwareSpec, ModelConfig};
//!
//! let replicas: Vec<_> = (0..4)
//!     .map(|_| {
//!         SimServingEngine::builder(
//!             EngineConfig::pensieve(),
//!             ModelConfig::opt_13b(),
//!             HardwareSpec::azure_nc_a100(1),
//!         )
//!         .build()
//!     })
//!     .collect();
//! let router = Router::new(replicas, RouterPolicy::CacheAware, RouterConfig::default());
//! assert!(router.is_idle());
//! ```

// Lint levels: docs/LINTS.md has what each guards.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod policy;
pub mod replication;
pub mod router;

pub use policy::RouterPolicy;
pub use replication::{ReplicationConfig, ReplicationMode};
pub use router::{Router, RouterConfig};

// Re-exported so downstream code (benches, tests) can name the trait the
// router both implements and consumes without an extra dependency edge.
pub use pensieve_core::ServingBackend;

// Re-exported because `Router::pool` takes it — facade users must be
// able to name the worker pool without depending on the shim directly.
pub use crossbeam::pool::Pool;
