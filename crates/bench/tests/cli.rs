//! The command-line surface: `list`, the dispatcher's and the shared flag
//! parser's failure modes, and the `--check BASELINE` gate. All but one
//! case fail before (or without) running an experiment, so the file is
//! quick in a debug build.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pensieve_bench::cli::{emit, Report};
use pensieve_bench::COMMANDS;
use serde::{Deserialize, Serialize};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pensieve-bench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn pensieve-bench")
}

/// Asserts `args` is rejected: exit 1, nothing on stdout, and stderr
/// holding `reason` and the subcommand's usage line.
fn assert_usage_error(args: &[&str], reason: &str) {
    let out = bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    let usage = format!("usage: pensieve-bench {}", args[0]);
    assert!(stderr.contains(&usage), "{args:?}: {stderr}");
}

#[test]
fn list_prints_exactly_the_command_table() {
    let out = bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(stdout, pensieve_bench::list());
    let names: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().expect("name"))
        .collect();
    let table: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(names, table);
}

#[test]
fn unknown_subcommand_fails_and_prints_the_list() {
    for args in [&["fig99"][..], &[], &["list", "extra"]] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown subcommand"), "{stderr}");
        assert!(stderr.ends_with(&pensieve_bench::list()), "{stderr}");
    }
}

#[test]
fn every_subcommand_rejects_a_flag_it_does_not_declare() {
    for cmd in COMMANDS {
        assert_usage_error(&[cmd.name, "--chekc"], "unknown flag --chekc");
    }
    // `bench_sharing` used to scan for the flags it knew, so this line
    // ran ungated and exited 0.
    assert_usage_error(
        &["bench_sharing", "--smoke", "--chekc"],
        "unknown flag --chekc",
    );
}

#[test]
fn a_flag_missing_its_operand_fails() {
    assert_usage_error(&["bench_sharing", "--smoke", "--out"], "--out needs PATH");
    assert_usage_error(&["bench_sharing", "--check"], "--check needs BASELINE");
    assert_usage_error(&["bench_tiers", "--check"], "--check needs BASELINE");
    assert_usage_error(&["serve_sim", "--rate"], "--rate needs REQ/S");
}

#[test]
fn a_stray_positional_fails() {
    assert_usage_error(&["fig4", "extra"], "unexpected argument extra");
    assert_usage_error(
        &["bench_kernels", "--smoke", "results/x.json"],
        "unexpected argument results/x.json",
    );
    assert_usage_error(
        &["trace_report", "a.jsonl", "b.jsonl"],
        "unexpected argument b.jsonl",
    );
    assert_usage_error(&["trace_report"], "missing <trace.jsonl>");
}

#[test]
fn serve_sim_help_describes_every_flag_it_declares() {
    let out = bench(&["serve_sim", "--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let serve_sim = COMMANDS
        .iter()
        .find(|c| c.name == "serve_sim")
        .expect("row");
    for flag in serve_sim.flags.iter().filter(|f| f.operand.is_some()) {
        assert!(
            help.contains(flag.name),
            "{} missing from --help",
            flag.name
        );
    }
}

#[test]
fn readme_command_block_is_the_list() {
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme).expect("read README.md");
    const PREFIX: &str = "cargo run --release -p pensieve-bench -- ";
    let block: String = readme
        .lines()
        .skip_while(|l| *l != "<!-- pensieve-bench list -->")
        .skip(2)
        .take_while(|l| *l != "```")
        .map(|l| format!("{}\n", l.strip_prefix(PREFIX).expect("command line")))
        .collect();
    assert_eq!(block, pensieve_bench::list());
}

/// A stand-in gated report: valid iff `ok`, regressed iff slower than
/// half the baseline.
#[derive(Serialize, Deserialize)]
struct Toy {
    ok: bool,
    speedup: f64,
}

impl Report for Toy {
    const NAME: &'static str = "BENCH_toy";

    fn violations(&self, label: &str) -> Vec<String> {
        if self.ok {
            Vec::new()
        } else {
            vec![format!("{label}: not ok")]
        }
    }

    fn regressions(&self, baseline: &Self) -> Vec<String> {
        if self.speedup < baseline.speedup / 2.0 {
            vec!["regressed".to_owned()]
        } else {
            Vec::new()
        }
    }
}

fn scratch(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path.to_str().expect("utf-8 path").to_owned()
}

#[test]
fn check_means_fresh_and_baseline_both_parse_and_both_hold() {
    let out = scratch("toy_out.json", "");
    let good = Toy {
        ok: true,
        speedup: 4.0,
    };
    let baseline = scratch("toy_base.json", r#"{"ok": true, "speedup": 6.0}"#);
    assert_eq!(emit(&good, Some(&out), None), Ok(()));
    assert_eq!(emit(&good, Some(&out), Some(&baseline)), Ok(()));
    let written: Toy =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("report")).expect("parses");
    assert_eq!(written.speedup, 4.0);

    let failing = |report: &Toy, check: Option<&str>| emit(report, Some(&out), check).unwrap_err();
    let bad = Toy {
        ok: false,
        speedup: 4.0,
    };
    assert_eq!(failing(&bad, None), "check failed: report: not ok");
    let bad_base = scratch("toy_bad_base.json", r#"{"ok": false, "speedup": 1.0}"#);
    assert_eq!(
        failing(&good, Some(&bad_base)),
        "check failed: baseline: not ok"
    );
    let fast_base = scratch("toy_fast_base.json", r#"{"ok": true, "speedup": 9.0}"#);
    assert_eq!(failing(&good, Some(&fast_base)), "check failed: regressed");
    let garbled = scratch("toy_garbled.json", r#"{"ok": tru"#);
    assert!(failing(&good, Some(&garbled)).contains("is malformed"));
    let missing = format!("{}/no_such_baseline.json", env!("CARGO_TARGET_TMPDIR"));
    assert!(failing(&good, Some(&missing)).contains("cannot read baseline"));
}

#[test]
fn a_report_without_out_lands_under_results() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("default_out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // The cheapest gated bench, end to end (1.5 s in a debug build).
    let out = Command::new(env!("CARGO_BIN_EXE_pensieve-bench"))
        .args(["bench_sharing", "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("spawn pensieve-bench");
    assert!(out.status.success());
    assert!(dir.join("results/BENCH_sharing.json").is_file());
    assert!(String::from_utf8_lossy(&out.stdout).ends_with("wrote results/BENCH_sharing.json\n"));
}
