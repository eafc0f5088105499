//! Keeps `docs/OBSERVABILITY.md` in sync with the code: every trace
//! event variant, every field of every variant, every wire-enum value
//! and every canonical metric name must be documented. Adding one
//! without documenting it fails this test.

use pensieve_obs::event::VARIANTS;
use pensieve_obs::metrics::names;
use pensieve_obs::{sample_events, DropReason, RecoveryKind, StorageTier, SwapDir};
use serde::Serialize;

fn doc_text() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("docs")
        .join("OBSERVABILITY.md");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("docs/OBSERVABILITY.md must exist ({e})"))
}

#[test]
fn every_event_variant_is_documented() {
    let doc = doc_text();
    let missing: Vec<&str> = VARIANTS
        .iter()
        .filter(|v| !doc.contains(&format!("`{v}`")))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "docs/OBSERVABILITY.md is missing event variants: {missing:?}"
    );
}

/// Each variant's table row (`| `Variant` | fields | meaning |`) names
/// every JSON key the variant puts on the wire besides `ev` and `at`.
#[test]
fn every_field_is_on_its_variants_row() {
    let doc = doc_text();
    let mut missing = Vec::new();
    for ev in sample_events() {
        let name = ev.variant_name();
        let row = doc
            .lines()
            .find(|l| l.starts_with(&format!("| `{name}` |")))
            .unwrap_or_default();
        let value = ev.to_value();
        let keys = value.as_object().expect("events are objects").keys();
        for key in keys.filter(|k| *k != "ev" && *k != "at") {
            if !row.contains(&format!("`{key}`")) {
                missing.push(format!("{name}.{key}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs/OBSERVABILITY.md table rows are missing fields: {missing:?}"
    );
}

/// Wire-enum values are documented as JSON strings: `` `"cpu-pressure"` ``.
#[test]
fn every_wire_name_is_documented() {
    let doc = doc_text();
    let missing: Vec<&str> = (SwapDir::ALL.iter().map(|x| x.as_str()))
        .chain(DropReason::ALL.iter().map(|x| x.as_str()))
        .chain(StorageTier::ALL.iter().map(|x| x.as_str()))
        .chain(RecoveryKind::ALL.iter().map(|x| x.as_str()))
        .filter(|name| !doc.contains(&format!("`\"{name}\"`")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/OBSERVABILITY.md is missing wire-enum values: {missing:?}"
    );
}

#[test]
fn every_metric_is_documented() {
    let doc = doc_text();
    let missing: Vec<&str> = names::ALL
        .iter()
        .filter(|m| !doc.contains(&format!("`{m}`")))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "docs/OBSERVABILITY.md is missing metrics: {missing:?}"
    );
}
