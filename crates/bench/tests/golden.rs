//! Behavioural pins for the experiment commands.
//!
//! Every pure-simulation command runs at `PENSIEVE_DURATION=30` in a
//! scratch working directory, and an FNV-1a digest of its stdout and of
//! each JSON file it writes is compared against the table below. The
//! simulator is deterministic (same bytes in debug and release, at any
//! `PENSIEVE_THREADS`), so a digest moves only when a command's
//! workload, arithmetic, table layout or report shape moves. `fig12` and
//! `bench_kernels` print wall-clock and are pinned by shape instead.
//!
//! Release only: the 19 commands take ~2 s optimized and still over ten
//! minutes in a debug build (every cache mutator debug-asserts the
//! O(resident) `check_invariants`), so `cargo test --workspace` lists
//! these tests as ignored and CI runs
//! `cargo test --release -p pensieve-bench --test golden`.
//!
//! On a mismatch the failure prints the replacement rows; paste them
//! only for an intended behaviour change.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// How the test reaches a command: the one thing a change to the
/// harness's packaging may edit in this file.
fn command(name: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pensieve-bench"));
    cmd.arg(name);
    cmd
}

struct Pin {
    name: &'static str,
    args: &'static [&'static str],
    stdout: u64,
    /// Files written relative to the working directory, with digests.
    files: &'static [(&'static str, u64)],
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { name: "ablate_chunk", args: &[], stdout: 0x2808_259a_cc11_2029, files: &[("results/ablate_chunk.json", 0x667a_b0d7_36df_abfd)] },
    Pin { name: "ablate_chunked_prefill", args: &[], stdout: 0x2a10_104b_1896_d2f3, files: &[("results/ablate_chunked_prefill.json", 0x5bd0_2075_cc6b_b980)] },
    Pin { name: "ablate_eviction", args: &[], stdout: 0x402d_74b1_8f36_066a, files: &[("results/ablate_eviction.json", 0xfc4a_614a_fb13_8981)] },
    Pin { name: "ablate_reservation", args: &[], stdout: 0x7858_4862_aae6_a85c, files: &[("results/ablate_reservation.json", 0xffb6_f0ec_43e6_94e5)] },
    Pin { name: "ablate_watermark", args: &[], stdout: 0x4fe0_9920_6a39_d388, files: &[("results/ablate_watermark.json", 0x44d0_23d1_cdd2_a5ff)] },
    Pin { name: "fig10", args: &[], stdout: 0x88d3_9f71_58ef_4aa2, files: &[("results/fig10.json", 0xf620_ce06_bb18_9a72)] },
    Pin { name: "fig11", args: &[], stdout: 0xe5d8_508a_00e3_863e, files: &[("results/fig11.json", 0xe2cc_61b8_935e_e41d)] },
    Pin { name: "fig13", args: &[], stdout: 0x2633_f7b6_4a62_6e45, files: &[("results/fig13.json", 0xd93c_0f35_c482_2d09)] },
    Pin { name: "fig14", args: &[], stdout: 0x2950_3216_d3e2_4ca7, files: &[("results/fig14.json", 0x2c7b_4ab7_3725_112e)] },
    Pin { name: "fig15", args: &[], stdout: 0xdfaf_76e5_d80d_f045, files: &[("results/fig15.json", 0xf5f2_6039_9b6f_f6f3)] },
    Pin { name: "ablate_suspension", args: &[], stdout: 0x3318_f43a_a4ad_3041, files: &[("results/ablate_suspension.json", 0xcce2_1871_045a_61b9)] },
    Pin { name: "fig3", args: &[], stdout: 0x860d_2e66_0c98_f98e, files: &[("results/fig3.json", 0xe778_d475_d88c_ff26)] },
    Pin { name: "fig4", args: &[], stdout: 0xaa6f_cc8f_5139_da96, files: &[("results/fig4.json", 0xf828_33d1_118a_0e51)] },
    Pin { name: "table1", args: &[], stdout: 0x3731_2064_445a_2a55, files: &[("results/table1.json", 0x1213_e7f9_e3c2_c047)] },
    Pin { name: "table2", args: &[], stdout: 0x5c3e_1ae5_14fd_c5c5, files: &[("results/table2.json", 0x0dd7_3b64_1be9_8381)] },
    Pin { name: "memory_timeline", args: &[], stdout: 0x188a_794b_edc4_354e, files: &[("results/memory_timeline.json", 0x26f1_8a9a_adba_fb31)] },
    Pin { name: "pcie_duplex", args: &[], stdout: 0x624b_57a0_e3ad_b005, files: &[("results/pcie_duplex.json", 0x2f07_7fcd_8d70_9652)] },
    Pin { name: "bench_tiers", args: &["--smoke", "--out", "tiers.json"], stdout: 0x3e68_0433_a781_c9b5, files: &[("tiers.json", 0x3e59_f4ab_d62c_05eb)] },
    Pin { name: "bench_sharing", args: &["--smoke", "--out", "sharing.json"], stdout: 0xb4c5_4c4d_152a_f573, files: &[("sharing.json", 0xb96a_da90_9a19_cbef)] },
];

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `name args` in a fresh scratch directory and returns the
/// directory and the captured stdout.
fn run(name: &str, args: &[&str]) -> (PathBuf, Vec<u8>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = command(name)
        .args(args)
        .current_dir(&dir)
        .env("PENSIEVE_DURATION", "30")
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} {args:?} exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, out.stdout)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: >10 min in a debug build")]
fn pure_simulation_commands_are_byte_stable() {
    let mut moved = Vec::new();
    for pin in PINS {
        let (dir, stdout) = run(pin.name, pin.args);
        let files: Vec<(&str, u64)> = pin
            .files
            .iter()
            .map(|&(path, _)| {
                let bytes = std::fs::read(dir.join(path))
                    .unwrap_or_else(|e| panic!("{}: read {path}: {e}", pin.name));
                (path, fnv1a(&bytes))
            })
            .collect();
        let stdout = fnv1a(&stdout);
        if stdout != pin.stdout || files != pin.files {
            let files: Vec<String> = files
                .iter()
                .map(|(p, d)| format!("({p:?}, {d:#018x})"))
                .collect();
            moved.push(format!(
                "{}: stdout {stdout:#018x}, files [{}]",
                pin.name,
                files.join(", ")
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        moved.is_empty(),
        "{} of {} commands moved; measured digests:\n{}",
        moved.len(),
        PINS.len(),
        moved.join("\n")
    );
}

fn json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"))
}

/// Asserts `v` is an array of `rows` objects whose keys are exactly `keys`.
fn assert_rows(v: &Value, rows: usize, keys: &[&str]) {
    let arr = v.as_array().expect("array of rows");
    assert_eq!(arr.len(), rows);
    for row in arr {
        let got: Vec<&str> = row
            .as_object()
            .expect("row object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(got, keys);
    }
}

/// Lines of `stdout` that are table body rows with `cols` cells (the
/// header and its rule included).
fn table_lines(stdout: &[u8], cols: usize) -> usize {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            l.starts_with("  ") && l.split("  ").filter(|c| !c.trim().is_empty()).count() == cols
        })
        .count()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: real kernels are slow in a debug build"
)]
fn fig12_keeps_its_shape() {
    let (dir, stdout) = run("fig12", &[]);
    assert_rows(
        &json(&dir.join("results/fig12.json")),
        5,
        &[
            "context",
            "copyout_ms",
            "ideal_ms",
            "multiround_ms",
            "pensieve_ms",
        ],
    );
    assert_rows(
        &json(&dir.join("results/fig12_query_sweep.json")),
        5,
        &["multiround_ms", "pensieve_ms", "query_len"],
    );
    // Context table: header + rule + 5 rows of 5 cells; query sweep: the
    // same of 4 cells.
    assert_eq!(table_lines(&stdout, 5), 7);
    assert_eq!(table_lines(&stdout, 4), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: real kernels are slow in a debug build"
)]
fn bench_kernels_smoke_keeps_its_shape_and_bit_identity() {
    let (dir, stdout) = run("bench_kernels", &["--smoke", "--out", "kernels.json"]);
    let report = json(&dir.join("kernels.json"));
    assert_eq!(
        report.get("schema_version").and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(report.get("smoke").and_then(Value::as_bool), Some(true));
    let names = |section: &str| -> Vec<String> {
        report
            .get(section)
            .and_then(Value::as_array)
            .expect("section rows")
            .iter()
            .map(|r| {
                assert_eq!(r.get("bit_identical").and_then(Value::as_bool), Some(true));
                r.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(
        names("attention"),
        ["prefill_fig12", "generation", "ragged"]
    );
    assert_eq!(names("gemm"), ["proj_small"]);
    assert_rows(
        report.get("attention").expect("attention"),
        3,
        &[
            "batch",
            "bit_identical",
            "blocked_ms",
            "context",
            "multiround_ms",
            "name",
            "query_tokens",
            "speedup_vs_multiround",
            "tokens_per_s",
        ],
    );
    assert_rows(
        report.get("gemm").expect("gemm"),
        1,
        &[
            "bit_identical",
            "blocked_ms",
            "k",
            "m",
            "n",
            "name",
            "ref_ms",
            "speedup_vs_ref",
        ],
    );
    let text = String::from_utf8_lossy(&stdout);
    assert_eq!(
        text.lines().count(),
        5,
        "3 attention + 1 gemm + `wrote`:\n{text}"
    );
    assert!(text.ends_with("wrote kernels.json\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
