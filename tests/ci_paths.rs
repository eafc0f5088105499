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
//! file. The clippy lint scopes and waivers CI relies on are pinned here
//! too, and nothing CI, a document or a script runs may name the retired
//! workspace linter.

use std::path::Path;

use pensieve_bench::COMMANDS;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Every file under the directory `rel`, recursively, by its path from
/// the root.
fn files_under(rel: &str) -> Vec<String> {
    let mut files = Vec::new();
    let mut dirs = vec![rel.to_owned()];
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(root().join(&dir));
        for entry in entries.unwrap_or_else(|e| panic!("read {dir}: {e}")) {
            let name = entry.expect("directory entry").file_name();
            let path = format!("{dir}/{}", name.to_str().expect("utf-8 file name"));
            if root().join(&path).is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
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
    docs.extend(
        files_under("docs")
            .into_iter()
            .filter(|f| f.ends_with(".md")),
    );
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

/// The workspace linter is retired (docs/LINTS.md, "Retired analyzer
/// rules"): its crate, its package or its reference page named in CI, a
/// document, a script or the lint config is a recipe that no longer
/// works.
#[test]
fn nothing_names_the_retired_linter() {
    let mut files = documents();
    files.extend(files_under("scripts"));
    files.extend(["clippy.toml", ".gitignore"].map(str::to_owned));
    for file in files {
        let text = read(&file);
        for stale in ["crates/analyzer", "pensieve-analyzer", "docs/ANALYZER.md"] {
            assert!(!text.contains(stale), "{file} names {stale}, which is gone");
        }
    }
}

/// Every lint named in one of `rel`'s `#![deny(…)]` attributes.
fn denied_lints(rel: &str) -> Vec<String> {
    read(rel)
        .split("#![deny(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .flat_map(|(list, _)| list.split(',').map(|l| l.trim().to_owned()))
        .collect()
}

/// The clippy scopes the workspace's invariants rest on (docs/LINTS.md):
/// a crate root that loses a deny, a hot-path file that loses
/// `indexing_slicing`, a `clippy.toml` that loses a disallowed method or
/// type, or a lock waived in a third module would otherwise shrink a
/// scope with no test failing.
#[test]
fn every_hot_path_scope_denies_its_clippy_lints() {
    let panics = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::unreachable",
        "clippy::allow_attributes",
        "clippy::allow_attributes_without_reason",
    ];
    let hash_ordered = ["core", "kvcache", "kernels", "obs", "cluster"];
    for krate in ["core", "kvcache", "kernels", "sim", "obs", "cluster"] {
        let root = format!("crates/{krate}/src/lib.rs");
        let lints = denied_lints(&root);
        let hash = hash_ordered
            .contains(&krate)
            .then_some("clippy::iter_over_hash_type");
        for lint in panics.into_iter().chain(hash) {
            assert!(
                lints.iter().any(|l| l == lint),
                "{root} does not deny {lint}"
            );
        }
    }
    for file in [
        "crates/kvcache/src/lib.rs",
        "crates/sim/src/storage.rs",
        "crates/cluster/src/router.rs",
        "crates/cluster/src/replication.rs",
        "shims/crossbeam/src/lib.rs",
    ] {
        let lints = denied_lints(file);
        assert!(
            lints.iter().any(|l| l == "clippy::indexing_slicing"),
            "{file} does not deny clippy::indexing_slicing"
        );
    }
    let config = read("clippy.toml");
    // The `[…]` list `key` is set to.
    let list = |key: &str| {
        let rest = config
            .split_once(&format!("{key} = ["))
            .map_or("", |(_, r)| r);
        rest.split_once(']').map_or("", |(list, _)| list)
    };
    for (key, path) in [
        ("disallowed-methods", "std::time::Instant::now"),
        ("disallowed-methods", "std::time::SystemTime::now"),
        ("disallowed-methods", "std::thread::spawn"),
        ("disallowed-methods", "std::thread::scope"),
        ("disallowed-types", "std::sync::Mutex"),
        ("disallowed-types", "std::sync::RwLock"),
    ] {
        assert!(
            list(key).contains(&format!("path = \"{path}\"")),
            "clippy.toml's {key} does not list {path}"
        );
    }
    // A lock is waived once, for the module that owns it; a comment-style
    // waiver of the retired linter would look like a waiver and waive
    // nothing. Both needles are built at run time so this file matches
    // neither; the waiver is matched with whitespace removed, as rustfmt
    // breaks it over lines.
    let lock_waiver = format!("expect(clippy::{}", "disallowed_types");
    let dead_waiver = ["lint", "allow"].join(":");
    let mut lock_owners = Vec::new();
    for dir in ["crates", "shims", "src", "tests", "examples"] {
        for file in files_under(dir).into_iter().filter(|f| f.ends_with(".rs")) {
            let text = read(&file);
            assert!(
                !text.contains(&dead_waiver),
                "{file} has a `{dead_waiver}` comment, which nothing reads"
            );
            let squeezed: String = text.split_whitespace().collect();
            if squeezed.contains(&lock_waiver) {
                lock_owners.push(file);
            }
        }
    }
    lock_owners.sort_unstable();
    assert_eq!(
        lock_owners,
        ["crates/obs/src/recorder.rs", "shims/crossbeam/src/lib.rs"],
        "only the pool and the trace recorder may own a lock"
    );
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
