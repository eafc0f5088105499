//! CI gates only on files that are actually in the repository: every
//! `results/*.json` baseline `.github/workflows/ci.yml` names must exist
//! in the checkout and be exempted from `.gitignore`'s `/results/*`
//! (a baseline that exists only on the machine that generated it passes
//! locally and fails every CI run), and every `--bin` / `--example` /
//! `--test` target that `ci.yml` or a document hands to cargo must be a
//! source file of the package the command names — for `pensieve-bench`,
//! which is one binary, the subcommand after the bare `--` must be a row
//! of its `COMMANDS` table — and every `scripts/*` path and every
//! `<crate>/src/….rs` or `<crate>/tests/….rs` source they name must be a
//! file.

use std::path::Path;

use pensieve_bench::COMMANDS;

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

/// `word` without the markdown and sentence punctuation around it.
fn bare(word: &str) -> &str {
    word.trim_matches(|c: char| "`|,.;:()".contains(c))
}

/// `ci.yml` and every document that shows a cargo command line.
fn documents() -> Vec<String> {
    let mut docs: Vec<String> = [
        ".github/workflows/ci.yml",
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .map(str::to_owned)
    .into();
    let dir = std::fs::read_dir(root().join("docs")).expect("read docs/");
    for entry in dir {
        let name = entry.expect("docs/ entry").file_name();
        let name = name.to_str().expect("utf-8 file name");
        if name.ends_with(".md") {
            docs.push(format!("docs/{name}"));
        }
    }
    docs
}

#[test]
fn every_cargo_target_ci_and_the_documents_name_is_in_the_tree() {
    let root = root();
    let is_command = |word: &str| COMMANDS.iter().any(|c| c.name == word);
    let mut checked = 0;
    for doc in documents() {
        let text = read(&doc).replace("\\\n", " ");
        for line in text.lines() {
            // The experiments are subcommands of one binary now; a `--bin
            // fig4` anywhere (a table cell, a sentence) is a stale recipe.
            let words: Vec<&str> = line.split_whitespace().map(bare).collect();
            for pair in words.windows(2) {
                assert!(
                    !(pair[0] == "--bin" && is_command(pair[1])),
                    "{doc} says `--bin {0}`; it is `pensieve-bench -- {0}` now: {line}",
                    pair[1]
                );
            }
            let Some(at) = line.find("cargo ") else {
                continue;
            };
            // Cargo's own arguments end at a bare `--`; the rest belongs
            // to the program being run.
            let mut rest = line[at..]
                .split_whitespace()
                .take_while(|w| !w.starts_with('#'));
            let args: Vec<&str> = rest.by_ref().take_while(|w| *w != "--").collect();
            let value_of = |flag: &str| {
                args.iter()
                    .position(|w| *w == flag)
                    .and_then(|i| args.get(i + 1).copied())
            };
            let pkg = value_of("-p").map(bare);
            if pkg == Some("pensieve-bench") && args.contains(&"run") {
                let sub = rest.next().map_or("", bare);
                assert!(
                    sub == "list" || sub.starts_with('<') || is_command(sub),
                    "{doc} runs `pensieve-bench -- {sub}`, which is not in COMMANDS: {line}"
                );
                checked += 1;
            }
            let dir = package_dir(pkg);
            for (flag, sub) in [
                ("--bin", "src/bin"),
                ("--example", "examples"),
                ("--test", "tests"),
            ] {
                // `<name>` is a placeholder in a recipe, not a target.
                let Some(name) = value_of(flag).map(bare).filter(|n| !n.starts_with('<')) else {
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
    assert!(checked >= 50, "only {checked} cargo targets found");
}

#[test]
fn every_script_ci_and_the_documents_name_is_in_the_tree() {
    let mut checked = 0;
    for doc in documents() {
        let text = read(&doc);
        let words = text.split(|c: char| c.is_whitespace() || "()'\"`".contains(c));
        for path in words.map(bare).filter(|w| w.starts_with("scripts/")) {
            assert!(
                root().join(path).is_file(),
                "{doc} names {path}, which is not in the tree"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "nothing names scripts/loc.sh any more");
}

/// `path` with its `{a,b,…}` group, if any, expanded into each
/// alternative.
fn expand(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_owned()];
    };
    let (head, tail) = (&path[..open], &path[close + 1..]);
    let alternatives = path[open + 1..close].split(',');
    alternatives
        .map(|alt| format!("{head}{alt}{tail}"))
        .collect()
}

/// A document pointing at a source file names it by its path from the
/// root, from `crates/` or from `shims/`; after a file is split or a
/// test moves, every such pointer must still name a file.
#[test]
fn every_source_file_ci_and_the_documents_name_is_in_the_tree() {
    let mut checked = 0;
    for doc in documents() {
        let text = read(&doc);
        let words = text.split(|c: char| c.is_whitespace() || "()'\"`".contains(c));
        let sources = words.map(bare).filter(|w| {
            let in_crate = w.contains("/src/") || w.contains("/tests/");
            in_crate && w.ends_with(".rs") && !w.contains(['*', '<', '…'])
        });
        for path in sources.flat_map(expand) {
            let found = ["", "crates/", "shims/"]
                .iter()
                .any(|dir| root().join(format!("{dir}{path}")).is_file());
            assert!(found, "{doc} names {path}, which is not in the tree");
            checked += 1;
        }
    }
    assert!(checked >= 50, "only {checked} source paths found");
}
