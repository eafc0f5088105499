//! The flag parser and the report gate every command shares.
//!
//! A command declares the flags it accepts ([`Flag`]); [`Args::parse`]
//! rejects everything else — an unknown flag, a flag missing its
//! operand, a stray positional — with the reason and the command's
//! usage line, which the dispatcher turns into exit 1. The gated
//! benches (`bench_tiers`, `bench_sharing`, `bench_kernels`,
//! `bench_cluster`) describe their invariants as a [`Report`] and hand
//! it to [`emit`], so `--out` and `--check BASELINE` mean the same thing
//! in each.

use std::collections::BTreeMap;
use std::path::Path;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::Command;

/// One accepted flag.
pub struct Flag {
    /// The flag as typed (`--out`).
    pub name: &'static str,
    /// Placeholder of its operand (`PATH`); `None` for a switch.
    pub operand: Option<&'static str>,
}

impl Flag {
    /// A flag that takes no operand.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Flag {
            name,
            operand: None,
        }
    }

    /// A flag followed by one operand.
    #[must_use]
    pub const fn valued(name: &'static str, operand: &'static str) -> Self {
        Flag {
            name,
            operand: Some(operand),
        }
    }
}

/// `[--smoke] [--out PATH] [--check BASELINE]`, the gated benches' flags.
pub const GATE_FLAGS: &[Flag] = &[
    Flag::switch("--smoke"),
    Flag::valued("--out", "PATH"),
    Flag::valued("--check", "BASELINE"),
];

/// `[--help] [-h]`.
pub const HELP_FLAGS: &[Flag] = &[Flag::switch("--help"), Flag::switch("-h")];

/// A command line checked against its command's declaration.
#[derive(Debug)]
pub struct Args {
    flags: BTreeMap<&'static str, String>,
    operand: Option<String>,
    usage: String,
}

impl Args {
    /// Parses `argv` (everything after the subcommand name) against what
    /// `cmd` declares.
    ///
    /// # Errors
    ///
    /// Returns the reason followed by `cmd`'s usage line for an unknown
    /// flag, a valued flag at the end of the line, or a positional the
    /// command does not take (or takes once and got twice).
    pub fn parse(cmd: &Command, argv: &[String]) -> Result<Self, String> {
        let usage = cmd.usage();
        let fail = |problem: String| Err(format!("{problem}\n{usage}"));
        let (mut flags, mut operand) = (BTreeMap::new(), None);
        let mut it = argv.iter();
        while let Some(word) = it.next() {
            if let Some(flag) = cmd.flags.iter().find(|f| f.name == word) {
                let value = match flag.operand {
                    None => String::new(),
                    Some(op) => match it.next() {
                        Some(value) => value.clone(),
                        None => return fail(format!("{word} needs {op}")),
                    },
                };
                flags.insert(flag.name, value);
            } else if word.starts_with('-') {
                return fail(format!("unknown flag {word}"));
            } else if cmd.operand.is_some() && operand.is_none() {
                operand = Some(word.clone());
            } else {
                return fail(format!("unexpected argument {word}"));
            }
        }
        Ok(Args {
            flags,
            operand,
            usage,
        })
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The operand of `flag`, if it was given.
    #[must_use]
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The operand of `flag` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Names the flag and the offending text when it does not parse.
    pub fn parsed<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |text| {
            text.parse()
                .map_err(|_| format!("invalid value {text:?} for {flag}"))
        })
    }

    /// The positional operand, if the command takes one and it was given.
    #[must_use]
    pub fn operand(&self) -> Option<&str> {
        self.operand.as_deref()
    }

    /// The usage line of the command these arguments were parsed for.
    #[must_use]
    pub fn usage(&self) -> &str {
        &self.usage
    }
}

/// Writes `value` as pretty JSON to `path` (creating its directory),
/// prints `wrote <path>`, and returns the text written.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_report<T: Serialize>(path: &str, value: &T) -> String {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    let data = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(path, &data).expect("write report");
    println!("wrote {path}");
    data
}

/// A gated bench's report: where it lives and what must hold of it.
pub trait Report: Serialize + Deserialize {
    /// File stem: the committed report is `results/<NAME>.json`, which is
    /// also where a run without `--out` writes.
    const NAME: &'static str;

    /// Machine-portable invariants of one report, fresh or committed;
    /// each violation is prefixed with `label`.
    fn violations(&self, label: &str) -> Vec<String>;

    /// What a fresh report may not lose relative to `baseline`
    /// (`bench_kernels`' speedup ratios; nothing elsewhere).
    fn regressions(&self, _baseline: &Self) -> Vec<String> {
        Vec::new()
    }
}

/// Writes `report` to `out` (default `results/<NAME>.json`) and gates it:
/// the report must satisfy its own [`Report::violations`]; under
/// `--check BASELINE` the emitted file must also parse back, `BASELINE`
/// must parse and satisfy the same invariants, and the fresh report may
/// show no [`Report::regressions`] against it.
///
/// # Errors
///
/// Returns one `check failed: …` line per violation.
pub fn emit<R: Report>(report: &R, out: Option<&str>, check: Option<&str>) -> Result<(), String> {
    let default = format!("results/{}.json", R::NAME);
    let data = write_report(out.unwrap_or(&default), report);
    let mut bad = report.violations("report");
    if let Some(path) = check {
        if let Err(e) = serde_json::from_str::<R>(&data) {
            bad.push(format!("emitted report is malformed: {e}"));
        }
        match std::fs::read_to_string(path) {
            Err(e) => bad.push(format!("cannot read baseline {path}: {e}")),
            Ok(text) => match serde_json::from_str::<R>(&text) {
                Err(e) => bad.push(format!("baseline {path} is malformed: {e}")),
                Ok(baseline) => {
                    bad.extend(baseline.violations("baseline"));
                    bad.extend(report.regressions(&baseline));
                }
            },
        }
    }
    if !bad.is_empty() {
        let lines: Vec<String> = bad.iter().map(|v| format!("check failed: {v}")).collect();
        return Err(lines.join("\n"));
    }
    if let Some(path) = check {
        println!("check passed against {path}");
    }
    Ok(())
}
