// analyzer-fixture: crates/kvcache/src/retired_rule_waivers.rs
//! Known-bad: comment waivers naming the rules clippy checks now. The
//! analyzer no longer knows these ids, so each is an unknown rule: a
//! waiver cannot outlive the rule it names. Their replacement is a
//! `#[expect(clippy::…, reason = "…")]` attribute (docs/ANALYZER.md).
//! Never compiled — input for the analyzer's own test suite.

pub fn hot_path(xs: &[u32], x: Option<u32>) -> u32 {
    // lint:allow(r1-panic): construction-time invariant //~ r4-suppression
    let a = x.unwrap();
    // lint:allow(r1-index): bounds checked by the caller //~ r4-suppression
    let b = xs[0];
    // lint:allow(r2-hash-iter): order not observable //~ r4-suppression
    // lint:allow(r2-wall-clock): observability only //~ r4-suppression
    // lint:allow(r2-ambient-rng): a test-only seed //~ r4-suppression
    // lint:allow(r3-raw-spawn): a sanctioned threading layer //~ r4-suppression
    // lint:allow-file(r3-adhoc-scope): a sanctioned threading layer //~ r4-suppression
    a + b
}
