//! `pensieve-analyzer`: a workspace invariant linter.
//!
//! The serving stack's correctness arguments lean on conventions the
//! Rust compiler cannot enforce: panic-free swap-in/eviction paths
//! (each layer's typed error instead), deterministic iteration order in
//! the cache and scheduler (bit-identical replay and eviction-victim
//! selection), a fixed lock-acquisition order, and threading routed
//! through the sanctioned concurrency layers. This crate checks those
//! conventions statically with a hand-rolled lexer — no external parser
//! dependencies, consistent with the workspace's vendored-shims policy.
//!
//! See DESIGN.md §8 for the rule catalogue (R1–R4), DESIGN.md §13 and
//! docs/ANALYZER.md for the scope-tree pass behind the R5 concurrency
//! rules, and `src/main.rs` for the CLI that CI runs in `--deny` mode.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

pub use report::{render_text, suppression_report, to_json};
pub use rules::{Analyzer, Report, SuppressionRecord, Violation, RULE_IDS};
pub use scope::{Scope, ScopeKind, ScopeTree};
