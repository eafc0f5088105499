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
//! too, and neither what CI, a document or a script runs nor a source
//! file may name the retired workspace linter. Scans of the shipped
//! source keep production code above each file's first test item, where
//! `scripts/loc.sh` stops counting, and keep every trace event and fault
//! kind produced somewhere.

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
/// works, and a source comment that says it scopes something describes
/// a check nothing runs.
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
    let sources = ["crates", "shims", "src"].into_iter().flat_map(files_under);
    for file in sources.filter(|f| f.ends_with(".rs")) {
        assert!(
            !read(&file).contains("workspace linter"),
            "{file} names the workspace linter, which is retired"
        );
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
/// type, or a lock waived in a second module would otherwise shrink a
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
        ["crates/obs/src/recorder.rs"],
        "only the trace recorder may own a lock"
    );
}

/// The workspace has no `unsafe`, and `forbid` keeps it so: unlike
/// `deny`, no crate, module or item below it can allow it back.
#[test]
fn every_manifest_forbids_unsafe_code() {
    let mut manifests = vec!["Cargo.toml".to_owned()];
    for dir in ["crates", "shims"] {
        let files = files_under(dir).into_iter();
        manifests.extend(files.filter(|f| f.ends_with("/Cargo.toml")));
    }
    let mut forbidding = Vec::new();
    for manifest in manifests {
        for line in read(&manifest).lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if key.trim() == "unsafe_code" {
                assert_eq!(
                    value.trim(),
                    "\"forbid\"",
                    "{manifest} sets unsafe_code to something other than forbid"
                );
                forbidding.push(manifest.clone());
            }
        }
    }
    assert!(
        forbidding.iter().any(|m| m == "Cargo.toml"),
        "the workspace lint table no longer forbids unsafe_code"
    );
}

/// CI's waiver budget is pinned to the current count, as its step says:
/// a removed `#[expect]` lowers it, so a later one cannot take the freed
/// slot unreviewed. The needles are built at run time so this file
/// matches neither.
#[test]
fn the_waiver_budget_is_the_waiver_count() {
    let ci = read(".github/workflows/ci.yml");
    let (_, step) = ci
        .split_once("name: Waiver ledger + budget gate")
        .expect("ci.yml has the waiver budget step");
    let budget: usize = step
        .split_once("-le ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("the waiver step compares the count with `-le N`");
    let needles = ["#", "#!"].map(|head| format!("{head}[{}(", "expect"));
    let mut count = 0;
    for dir in ["crates", "shims", "src", "tests", "examples"] {
        for file in files_under(dir).into_iter().filter(|f| f.ends_with(".rs")) {
            let text = read(&file);
            let waivers = text
                .lines()
                .filter(|l| needles.iter().any(|n| l.contains(n)));
            count += waivers.count();
        }
    }
    assert_eq!(
        budget, count,
        "ci.yml budgets {budget} waivers, the tree has {count}"
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

/// Byte offset of `text`'s first column-0 `#[cfg(test)]`, where
/// `scripts/loc.sh` stops counting: what comes after compiles into tests
/// only, so the test below enforces it.
fn test_start(text: &str) -> usize {
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            return offset;
        }
        offset += line.len();
    }
    text.len()
}

/// `scripts/loc.sh` counts each file up to its first column-0
/// `#[cfg(test)]`, so a production item placed after it would ship
/// uncounted: past that line, every item must carry `#[cfg(test)]`.
#[test]
fn only_test_items_follow_a_files_first_test_item() {
    let sources = ["crates", "shims"].into_iter().flat_map(files_under);
    for file in sources.filter(|f| f.ends_with(".rs") && f.contains("/src/")) {
        let text = read(&file);
        let mut gated = false;
        for line in text[test_start(&text)..].lines() {
            if line.starts_with("#[cfg(test)]") {
                gated = true;
            } else if line.starts_with(char::is_alphabetic) {
                assert!(
                    gated,
                    "{file}: `{line}` follows the file's first #[cfg(test)] item \
                     but compiles outside tests; move it above"
                );
                gated = false;
            }
        }
    }
}

/// The shipped source of every crate but `except`, shim and the facade:
/// each file outside a `tests/` directory, up to its first test item.
fn shipped_sources(except: &str) -> Vec<String> {
    let files = ["crates", "shims", "src"].into_iter().flat_map(files_under);
    files
        .filter(|f| f.ends_with(".rs") && !f.contains("/tests/") && !f.starts_with(except))
        .filter(|f| f.starts_with("src/") || f.contains("/src/"))
        .map(|f| {
            let text = read(&f);
            text[..test_start(&text)].to_owned()
        })
        .collect()
}

/// The variant names of `enum_name` as declared in `rel`.
fn enum_variants(rel: &str, enum_name: &str) -> Vec<String> {
    let text = read(rel);
    let (_, body) = text
        .split_once(&format!("pub enum {enum_name} {{"))
        .unwrap_or_else(|| panic!("{rel} declares no {enum_name}"));
    let body = body.split_once("\n}").map_or(body, |(b, _)| b);
    body.lines()
        .map(str::trim)
        .filter(|l| !l.starts_with("//") && !l.starts_with('#'))
        .filter_map(|l| l.strip_suffix(','))
        .map(str::to_owned)
        .collect()
}

/// Every trace event is recorded by the serving stack: a variant that
/// nothing outside `crates/obs` constructs pins an encoding and a
/// documentation row with no behaviour behind them. A construction is
/// `TraceEvent::Name { … }` whose braces hold no `..` and that is not a
/// pattern (followed by `=>`, `|`, `=` or `if`).
#[test]
fn every_trace_event_has_a_producer() {
    let sources = shipped_sources("crates/obs/");
    let constructed = |name: &str| {
        let needle = format!("TraceEvent::{name}");
        sources.iter().any(|text| {
            text.match_indices(&needle).any(|(at, _)| {
                let rest = &text[at + needle.len()..];
                let Some(body) = rest.trim_start().strip_prefix('{') else {
                    return false;
                };
                let Some(close) = body.find('}') else {
                    return false;
                };
                let after = body[close + 1..].trim_start();
                let pattern = ["=>", "|", "=", "if "].iter().any(|p| after.starts_with(p));
                !body[..close].contains("..") && !pattern
            })
        })
    };
    let orphans: Vec<&str> = pensieve_obs::event::VARIANTS
        .iter()
        .copied()
        .filter(|v| !constructed(v))
        .collect();
    assert!(
        orphans.is_empty(),
        "trace events nothing outside crates/obs records: {orphans:?}"
    );
}

/// Every fault kind is rolled somewhere: a kind no component polls is a
/// rate, a counter and a name that inject nothing. A roll's argument is
/// either `FaultKind::Name` or the variable of a `for kind in [...]`
/// loop over kinds.
#[test]
fn every_fault_kind_is_rolled() {
    let faults = "crates/sim/src/faults.rs";
    let mut rolled = Vec::new();
    for text in shipped_sources(faults) {
        for (at, _) in text.match_indices(".roll(") {
            let arg = &text[at + ".roll(".len()..];
            let arg = arg.split(')').next().unwrap_or_default().trim();
            let list = if arg.starts_with("FaultKind::") {
                arg
            } else {
                // `for kind in [FaultKind::A, FaultKind::B] { … roll(kind) … }`
                let head = format!("for {arg} in [");
                let list = text[..at]
                    .rsplit_once(&head)
                    .and_then(|(_, l)| l.split_once(']'));
                list.map_or("", |(l, _)| l)
            };
            let kinds = list
                .split(',')
                .map(|k| k.trim().trim_start_matches("FaultKind::"));
            rolled.extend(kinds.map(str::to_owned));
        }
    }
    let unrolled: Vec<String> = enum_variants(faults, "FaultKind")
        .into_iter()
        .filter(|k| !rolled.contains(k))
        .collect();
    assert!(
        unrolled.is_empty(),
        "fault kinds nothing outside {faults} rolls: {unrolled:?}"
    );
}
