//! Benchmark of the Pensieve reproduction, measured from outside the
//! crates. See `README.md` next to this package for the metric and
//! workload tables.
//!
//! ```text
//! pensieve-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command appends)
//! pensieve-benchmark run     [--seed N] [--repeats N] [--seconds S] [--smoke] [--out FILE]
//! pensieve-benchmark trace   [--seed N] [--smoke] [--out FILE]
//! pensieve-benchmark compare A.json B.json
//! ```

mod alloc;
mod calibrate;
mod layers;
mod measure;
mod metrics;
mod report;
mod run;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  pensieve-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one run of one workload in this process; the last line of stdout is
      {\"correct\",\"attempted\",\"failed\",\"metrics\"} (end-to-end metrics with
      --trace 0, per-layer metrics with --trace 1)
  pensieve-benchmark run [--seed 42] [--repeats 3] [--seconds 20] [--smoke] [--out FILE]
      every workload, one fresh child process per repeat; median/min/max/n per
      metric; exits non-zero on a failed check
  pensieve-benchmark trace [--seed 42] [--smoke] [--out FILE]
      the traced run of every workload; per-layer metrics, span aggregates, and
      trace_<workload>.json (Chrome format) next to FILE
  pensieve-benchmark compare A.json B.json
      ratio of B to A per workload and end-to-end metric, against the bound:
      ok / worse / unresolved; exits non-zero on worse
workloads: chat_single chat_pressure cluster4_repl agentic_deep functional_chat";

/// `--flag value` pairs and bare flags of one invocation.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {flag}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn dispatch(argv: Vec<String>) -> Result<bool, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c.to_owned(), argv[1..].to_vec()),
        Some("--help" | "-h") | None => return Err(String::new()),
        _ => ("one".to_owned(), argv),
    };
    let args = Args(rest);
    let seed = args.parsed("--seed", 42u64)?;
    let seconds = args.parsed("--seconds", 20.0f64)?;
    let smoke = args.has("--smoke");
    match command.as_str() {
        "one" => {
            let name = args.value("--workload").ok_or("--workload is required")?;
            let trace = match args.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("invalid value {v:?} for --trace")),
            };
            let chrome_out = args.value("--chrome-out").map(std::path::Path::new);
            if !run::one(name, seed, seconds, trace, smoke, chrome_out) {
                return Err(format!("unknown workload {name:?}"));
            }
            Ok(true)
        }
        "run" => report::run_set(
            seed,
            args.parsed("--repeats", 3usize)?,
            seconds,
            smoke,
            args.value("--out"),
        ),
        "trace" => report::trace_set(seed, smoke, args.value("--out")),
        _ => match args.0.as_slice() {
            [a, b] => report::compare(a, b),
            _ => Err("compare takes two files".into()),
        },
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
