//! Golden-file test for the JSONL wire format.
//!
//! `tests/golden/sample_events.jsonl` is `to_jsonl(&sample_events())`:
//! one line per [`pensieve_obs::TraceEvent`] variant, so it pins the wire
//! bytes of the whole schema in both directions. Regenerate it after an
//! intentional format change with:
//!
//! ```text
//! cargo test -p pensieve-obs --test jsonl_golden -- --ignored regenerate
//! ```

use pensieve_obs::{parse_jsonl, sample_events, to_jsonl};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("sample_events.jsonl")
}

#[test]
fn sample_events_serialize_to_the_golden_bytes() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file exists");
    assert_eq!(
        to_jsonl(&sample_events()),
        golden,
        "the JSONL wire format drifted from tests/golden/sample_events.jsonl; \
         if intentional, regenerate with \
         `cargo test -p pensieve-obs --test jsonl_golden -- --ignored regenerate`"
    );
}

#[test]
fn golden_bytes_parse_to_the_sample_events() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file exists");
    assert_eq!(
        parse_jsonl(&golden).expect("golden parses"),
        sample_events()
    );
}

/// Not a test: rewrites the golden file from the current serializer.
#[test]
#[ignore = "run explicitly to regenerate the golden file"]
fn regenerate() {
    std::fs::write(golden_path(), to_jsonl(&sample_events())).expect("write golden");
}
