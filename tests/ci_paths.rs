//! CI gates only on files that are actually in the repository: every
//! `results/*.json` baseline `.github/workflows/ci.yml` names must exist
//! in the checkout and be exempted from `.gitignore`'s `/results/*`
//! (a baseline that exists only on the machine that generated it passes
//! locally and fails every CI run), and every `--bin` / `--example` /
//! `--test` target that `ci.yml` or `README.md` hands to cargo must be a
//! source file of the package the command names.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn every_results_baseline_ci_names_is_in_the_tree() {
    let root = root();
    let ci = read(".github/workflows/ci.yml");
    let ignore = read(".gitignore");
    let mut named: Vec<&str> = ci
        .split(|c: char| c.is_whitespace() || "()'\"`".contains(c))
        .filter(|w| w.starts_with("results/") && w.ends_with(".json"))
        .collect();
    named.sort_unstable();
    named.dedup();
    assert!(!named.is_empty(), "ci.yml names no results/*.json baseline");
    for path in named {
        assert!(
            root.join(path).is_file(),
            "ci.yml names {path}, which is not in the tree"
        );
        assert!(
            ignore.lines().any(|l| l.trim() == format!("!/{path}")),
            "{path} is hidden by .gitignore's /results/*: add `!/{path}`"
        );
    }
}

/// Directory of workspace package `pkg` (`None`: the root package).
fn package_dir(pkg: Option<&str>) -> String {
    match pkg {
        None => String::new(),
        Some(p) => match p.strip_prefix("pensieve-") {
            Some(name) => format!("crates/{name}/"),
            None => format!("shims/{p}/"),
        },
    }
}

#[test]
fn every_cargo_target_ci_and_readme_name_is_in_the_tree() {
    let root = root();
    let mut checked = 0;
    for doc in [".github/workflows/ci.yml", "README.md"] {
        let text = read(doc).replace("\\\n", " ");
        for line in text.lines() {
            let Some(at) = line.find("cargo ") else {
                continue;
            };
            // Cargo's own arguments end at a bare `--`; the rest belongs
            // to the program being run.
            let args: Vec<&str> = line[at..]
                .split_whitespace()
                .take_while(|w| *w != "--" && !w.starts_with('#'))
                .collect();
            let value_of = |flag: &str| {
                args.iter()
                    .position(|w| *w == flag)
                    .and_then(|i| args.get(i + 1).copied())
            };
            let dir = package_dir(value_of("-p"));
            for (flag, sub) in [
                ("--bin", "src/bin"),
                ("--example", "examples"),
                ("--test", "tests"),
            ] {
                let Some(name) = value_of(flag) else {
                    continue;
                };
                let path = format!("{dir}{sub}/{name}.rs");
                assert!(
                    root.join(&path).is_file(),
                    "{doc} runs `{}`, but {path} is not in the tree",
                    args.join(" ")
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no cargo target found in ci.yml or README.md");
}
