//! Runs the analyzer over its own fixture corpus.
//!
//! Files under `fixtures/good/` must produce no violations. Files under
//! `fixtures/bad/` carry `//~ <rule>` expectation markers (or `//~^` for
//! the previous line, rustc-UI-test style) and must produce *exactly*
//! the expected `(line, rule)` set — no more, no fewer.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use pensieve_analyzer::{Analyzer, Violation, RULE_IDS};

fn fixture_files(sub: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(sub);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under {}", dir.display());
    files
}

fn analyze(path: &Path, src: &str) -> Vec<Violation> {
    let mut a = Analyzer::new();
    // The analysis path is only used for reporting; scoping comes from
    // the `// analyzer-fixture:` header each fixture carries.
    a.analyze_file(&path.file_name().unwrap().to_string_lossy(), src);
    a.finish().violations
}

/// Parses `//~ rule [rule ...]` (this line) and `//~^ rule` (previous
/// line) markers into an expected `(line, rule)` set.
fn expectations(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let rest = &line[pos + 3..];
        let (target, rest) = match rest.strip_prefix('^') {
            Some(r) => (lineno - 1, r),
            None => (lineno, rest),
        };
        for rule in rest.split_whitespace() {
            out.insert((target, rule.to_string()));
        }
    }
    out
}

#[test]
fn good_fixtures_are_clean() {
    for path in fixture_files("good") {
        let src = std::fs::read_to_string(&path).unwrap();
        let violations = analyze(&path, &src);
        assert!(
            violations.is_empty(),
            "{} should be clean, got: {violations:#?}",
            path.display()
        );
    }
}

#[test]
fn bad_fixtures_report_exactly_the_marked_violations() {
    for path in fixture_files("bad") {
        let src = std::fs::read_to_string(&path).unwrap();
        let expected = expectations(&src);
        assert!(
            !expected.is_empty(),
            "{} has no //~ markers",
            path.display()
        );
        let got: BTreeSet<(u32, String)> = analyze(&path, &src)
            .into_iter()
            .map(|v| (v.line, v.rule.to_string()))
            .collect();
        assert_eq!(
            got,
            expected,
            "{}: reported violations differ from //~ markers\nmissing: {:?}\nunexpected: {:?}",
            path.display(),
            expected.difference(&got).collect::<Vec<_>>(),
            got.difference(&expected).collect::<Vec<_>>(),
        );
    }
}

#[test]
fn every_rule_id_is_exercised_by_the_bad_corpus() {
    let mut seen = BTreeSet::new();
    for path in fixture_files("bad") {
        let src = std::fs::read_to_string(&path).unwrap();
        for v in analyze(&path, &src) {
            seen.insert(v.rule);
        }
    }
    for rule in RULE_IDS.iter().filter(|r| **r != "lex-error") {
        assert!(seen.contains(rule), "no bad fixture triggers {rule}");
    }
}
