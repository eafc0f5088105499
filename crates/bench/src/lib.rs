//! Experiment harness for the paper's tables and figures.
//!
//! One binary, one table: every experiment is a row of [`COMMANDS`] and
//! runs as
//!
//! ```text
//! cargo run --release -p pensieve-bench -- <name> [flags]
//! cargo run --release -p pensieve-bench -- list
//! ```
//!
//! Each command prints a human-readable table and writes machine-readable
//! rows to `results/<name>.json` (the gated benches to
//! `results/BENCH_<name>.json`). This library holds the table, the flag
//! parser and report gate every command shares ([`cli`]), and the sweep
//! machinery (`harness`, `sweeps`).
//!
//! Scale knobs (environment variables):
//!
//! * `PENSIEVE_DURATION` — seconds of simulated conversation arrivals per
//!   sweep point (default 400, `fig15` 1200; larger = closer to steady
//!   state).
//! * `PENSIEVE_THREADS` — sweep-point parallelism (default: available
//!   cores).

use std::process::ExitCode;

pub mod cli;
mod cluster;
mod harness;
mod kernels;
mod serve_sim;
mod sharing;
mod studies;
mod sweeps;
mod tiers;

use cli::{Args, Flag};
use Action::{Run, Sweep};

/// What a command does once its flags have parsed.
enum Action {
    /// A serving sweep: a row of the sweep table, rendered by
    /// [`sweeps::run`].
    Sweep(sweeps::Sweep),
    /// Anything else.
    Run(fn(&Args) -> Result<(), String>),
}

/// One experiment: a row of [`COMMANDS`].
pub struct Command {
    /// Subcommand name (also the stem of `results/<name>.json`).
    pub name: &'static str,
    /// Where in the paper (or which extension) the experiment comes from.
    pub anchor: &'static str,
    /// One-line description, shown by `list` and in README.
    pub summary: &'static str,
    /// Every flag the command accepts; anything else is a usage error.
    pub flags: &'static [Flag],
    /// Placeholder of the one positional operand, if the command takes one.
    pub operand: Option<&'static str>,
    /// The experiment itself.
    action: Action,
}

impl Command {
    const fn new(
        name: &'static str,
        anchor: &'static str,
        summary: &'static str,
        flags: &'static [Flag],
        action: Action,
    ) -> Self {
        Command {
            name,
            anchor,
            summary,
            flags,
            operand: None,
            action,
        }
    }

    /// `usage: pensieve-bench <name> [--flag OPERAND]... [<operand>]`.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut line = format!("usage: pensieve-bench {}", self.name);
        for flag in self.flags {
            line.push_str(&match flag.operand {
                Some(op) => format!(" [{} {op}]", flag.name),
                None => format!(" [{}]", flag.name),
            });
        }
        if let Some(op) = self.operand {
            line.push_str(&format!(" <{op}>"));
        }
        line
    }
}

/// Every experiment, in the order README lists them.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command::new("table1", "Table 1", "model hyper-parameters", &[], Run(studies::table1)),
    Command::new("table2", "Table 2", "dataset statistics, paper vs synthetic generators", &[], Run(studies::table2)),
    Command::new("fig3", "Fig. 3", "prefill vs generation cost as history grows", &[], Run(studies::fig3)),
    Command::new("fig4", "Fig. 4", "attention cost of a 32-token chunk vs context size", &[], Run(studies::fig4)),
    Command::new("fig10", "Fig. 10", "1-GPU serving sweeps, four systems, two models, two datasets", &[], Sweep(sweeps::FIG10)),
    Command::new("fig11", "Fig. 11", "4-GPU serving sweeps, OPT-66B and Llama 2-70B", &[], Sweep(sweeps::FIG11)),
    Command::new("fig12", "Fig. 12", "multi-token attention kernel microbenchmark (wall clock)", &[], Run(kernels::fig12)),
    Command::new("fig13", "Fig. 13", "unified vs separate prefill/generation scheduling", &[], Sweep(sweeps::FIG13)),
    Command::new("fig14", "Fig. 14", "retention-value eviction vs LRU", &[], Sweep(sweeps::FIG14)),
    Command::new("fig15", "Fig. 15", "think-time sweep, incl. vLLM at 600 s", &[], Sweep(sweeps::FIG15)),
    Command::new("pcie_duplex", "§5", "retrieval-priority vs naive full-duplex PCIe", &[], Run(studies::pcie_duplex)),
    Command::new("ablate_chunk", "§4.3.1", "eviction chunk size, 8-256 tokens", &[], Sweep(sweeps::ABLATE_CHUNK)),
    Command::new("ablate_watermark", "§4.3.2", "swap watermark x decode reserve", &[], Sweep(sweeps::ABLATE_WATERMARK)),
    Command::new("ablate_eviction", "Table 3", "eviction shapes: retention-value, LRU, whole-conversation, trailing-end", &[], Sweep(sweeps::ABLATE_EVICTION)),
    Command::new("ablate_reservation", "§2.2", "ORCA max-length reservation vs paged growth vs stateful", &[], Sweep(sweeps::ABLATE_RESERVATION)),
    Command::new("ablate_suspension", "§4.3.5", "suspension victim choice under GPU memory pressure", &[], Run(studies::ablate_suspension)),
    Command::new("ablate_chunked_prefill", "ext.", "Sarathi-style chunked prefill on top of Pensieve", &[], Sweep(sweeps::ABLATE_CHUNKED_PREFILL)),
    Command::new("memory_timeline", "§4.3.2", "GPU/CPU tier occupancy over time", &[], Run(studies::memory_timeline)),
    Command::new("bench_cluster", "ext.", "4-replica routing policies + replica-failover suite (DESIGN §10)", &[], Run(cluster::bench_cluster)),
    Command::new("bench_tiers", "ext.", "deep-tier (SSD/cold) idle-time sweep, hit-token-rate gate (docs/STORAGE.md)", cli::GATE_FLAGS, Run(tiers::bench_tiers)),
    Command::new("bench_sharing", "ext.", "cross-conversation KV sharing, dedup-ratio gate (DESIGN §14)", cli::GATE_FLAGS, Run(sharing::bench_sharing)),
    Command::new("bench_kernels", "§4.4", "blocked attention/GEMM kernels vs straw-men, ratio-regression gate (wall clock)", cli::GATE_FLAGS, Run(kernels::bench_kernels)),
    Command::new("serve_sim", "§6", "serve one configuration; --trace-out / --metrics-out (docs/OBSERVABILITY.md)", serve_sim::FLAGS, Run(serve_sim::serve_sim)),
    Command { operand: Some("trace.jsonl"), ..Command::new("trace_report", "ext.", "validate a serve_sim trace and attribute cache hits per turn", cli::HELP_FLAGS, Run(serve_sim::trace_report)) },
];

/// The text `pensieve-bench list` prints: one `name # anchor: summary`
/// line per row of [`COMMANDS`]. README's command block is each of these
/// lines behind `cargo run --release -p pensieve-bench -- `.
#[must_use]
pub fn list() -> String {
    COMMANDS
        .iter()
        .map(|c| format!("{:<22} # {}: {}\n", c.name, c.anchor, c.summary))
        .collect()
}

/// Runs `pensieve-bench <argv...>`: `list`, or a row of [`COMMANDS`]
/// with its flags. Every failure — unknown subcommand, unknown flag,
/// missing operand, failed gate, unreadable input — prints its reason
/// to stderr and exits 1.
#[must_use]
pub fn run(argv: &[String]) -> ExitCode {
    let name = argv.first().map_or("", String::as_str);
    if name == "list" && argv.len() == 1 {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!(
            "unknown subcommand {name:?}; usage: pensieve-bench <name> [flags], where <name> is `list` or one of\n{}",
            list()
        );
        return ExitCode::FAILURE;
    };
    let outcome = Args::parse(cmd, &argv[1..]).and_then(|args| match &cmd.action {
        Action::Sweep(sweep) => {
            sweeps::run(cmd.name, sweep);
            Ok(())
        }
        Action::Run(run) => run(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("{reason}");
            ExitCode::FAILURE
        }
    }
}
