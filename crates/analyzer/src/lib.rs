//! `pensieve-analyzer`: a workspace invariant linter.
//!
//! The serving stack's correctness arguments lean on conventions neither
//! the Rust compiler nor clippy can enforce: a fixed float-reduction
//! order inside pool closures (bit-identical kernels), an acyclic
//! lock-acquisition order, no lock guard held across a pool dispatch,
//! and pool closures that share no mutable state. This crate checks
//! those conventions statically with a hand-rolled lexer and a
//! scope-tree pass — no external parser dependencies, consistent with
//! the workspace's vendored-shims policy. Panic freedom, unchecked
//! indexing, hash-order iteration, wall-clock reads and raw threading
//! are clippy lints (docs/ANALYZER.md has the table).
//!
//! See DESIGN.md §8 and docs/ANALYZER.md for the rule catalogue,
//! DESIGN.md §13 for the scope-tree pass, and `src/main.rs` for the CLI
//! that CI runs in `--deny` mode.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

pub use report::{render_text, suppression_report, to_json};
pub use rules::{Analyzer, Report, SuppressionRecord, Violation, RULE_IDS};
pub use scope::{Scope, ScopeKind, ScopeTree};
