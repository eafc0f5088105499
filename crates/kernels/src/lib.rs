//! CPU reference implementations of Pensieve's GPU kernels.
//!
//! The paper's key kernel contribution is *multi-token attention over a
//! non-contiguous (paged) KV cache* (§4.4). This crate implements that
//! kernel and every comparator from the paper's Figure 12 microbenchmark in
//! portable Rust, together with the paged KV storage they operate on and a
//! tiny-but-complete functional transformer used to validate the whole
//! serving stack end to end (stateful serving must produce bit-identical
//! logits to stateless recomputation).
//!
//! Modules:
//!
//! * [`tensor`] — a minimal dense `f32` matrix.
//! * [`ops`] — matmul, softmax, RMSNorm/LayerNorm, SiLU/ReLU, RoPE.
//! * [`paged`] — block pool, block tables, gather.
//! * [`attention`] — the five attention kernels.
//! * [`model`] — the functional transformer (OPT-style and Llama-style).

// Lint levels: docs/LINTS.md has what each guards.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod attention;
pub mod model;
pub mod ops;
pub mod paged;
pub mod tensor;
pub mod tp;

pub use attention::{AttnConfig, AttnSeq};
pub use paged::{BlockId, BlockTable, KvLayout, OutOfBlocks, PagedKvCache};
pub use tensor::Matrix;

// Re-exported because the `*_pool` kernel entry points take it by
// reference — facade users must be able to name the pool type without a
// direct dependency on the `crossbeam` shim.
pub use crossbeam::pool::Pool;
