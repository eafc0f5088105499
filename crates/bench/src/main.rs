//! `pensieve-bench <name> [flags]`: see [`pensieve_bench::COMMANDS`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    pensieve_bench::run(&argv)
}
