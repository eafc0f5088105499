//! Keeps `docs/STORAGE.md` in sync with the storage code: every cache
//! tier, manifest identifier, and deep-tier device spec (including its
//! latency/bandwidth figures) must be documented. Adding a tier or
//! changing a device model without updating the doc fails this test —
//! the exhaustive `match`es below additionally fail to *compile* when a
//! variant is added, forcing the list (and the doc) to grow with the
//! code.

use pensieve_kvcache::{ManifestError, Tier};
use pensieve_sim::StorageDeviceSpec;

fn doc_text() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("docs")
        .join("STORAGE.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("docs/STORAGE.md must exist ({e})"))
}

/// Every `Tier` variant; the match is exhaustive on purpose.
const TIERS: [Tier; 6] = [
    Tier::Gpu,
    Tier::GpuCopied,
    Tier::Cpu,
    Tier::Ssd,
    Tier::Cold,
    Tier::Dropped,
];

fn tier_name(t: Tier) -> &'static str {
    match t {
        Tier::Gpu => "Tier::Gpu",
        Tier::GpuCopied => "Tier::GpuCopied",
        Tier::Cpu => "Tier::Cpu",
        Tier::Ssd => "Tier::Ssd",
        Tier::Cold => "Tier::Cold",
        Tier::Dropped => "Tier::Dropped",
    }
}

#[test]
fn every_tier_is_documented() {
    let doc = doc_text();
    let missing: Vec<&str> = TIERS
        .iter()
        .map(|&t| tier_name(t))
        .filter(|n| !doc.contains(&format!("`{n}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/STORAGE.md is missing tiers: {missing:?}"
    );
}

#[test]
fn manifest_identifiers_are_documented() {
    let doc = doc_text();
    assert!(
        doc.contains("PNSVMAN2"),
        "docs/STORAGE.md must state the manifest magic"
    );
    assert!(
        doc.to_lowercase().contains("fnv"),
        "docs/STORAGE.md must name the checksum"
    );
    let errors = [ManifestError::Missing, ManifestError::Torn];
    let missing: Vec<&str> = errors
        .iter()
        .map(|e| match e {
            ManifestError::Missing => "ManifestError::Missing",
            ManifestError::Torn => "ManifestError::Torn",
        })
        .filter(|n| !doc.contains(&format!("`{n}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/STORAGE.md is missing manifest errors: {missing:?}"
    );
}

/// Renders a duration the way the doc's tier table does: whole
/// microseconds below a millisecond, whole milliseconds above.
fn fmt_latency(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.0} µs", secs * 1e6)
    } else {
        format!("{:.0} ms", secs * 1e3)
    }
}

/// Renders a bandwidth as the doc's `GB/s` figure, trimming a trailing
/// `.0` (3.5e9 -> "3.5 GB/s", 2.5e9 -> "2.5 GB/s", 1.2e9 -> "1.2 GB/s").
fn fmt_bandwidth(bytes_per_s: f64) -> String {
    let gb = bytes_per_s / 1e9;
    if (gb - gb.round()).abs() < 1e-9 {
        format!("{gb:.0} GB/s")
    } else {
        format!("{gb:.1} GB/s")
    }
}

#[test]
fn device_specs_match_the_tier_table() {
    let doc = doc_text();
    for spec in [StorageDeviceSpec::nvme(), StorageDeviceSpec::nfs()] {
        assert!(
            doc.contains(&format!("`{}`", spec.name))
                || doc.contains(&format!("StorageDeviceSpec::{}", spec.name)),
            "docs/STORAGE.md must name the `{}` device",
            spec.name
        );
        for (what, figure) in [
            ("read latency", fmt_latency(spec.read_latency.as_secs())),
            ("write latency", fmt_latency(spec.write_latency.as_secs())),
            ("read bandwidth", fmt_bandwidth(spec.read_bandwidth)),
            ("write bandwidth", fmt_bandwidth(spec.write_bandwidth)),
        ] {
            assert!(
                doc.contains(&figure),
                "docs/STORAGE.md tier table is missing the {} {what} figure {figure:?}",
                spec.name
            );
        }
    }
}

#[test]
fn storage_events_and_metrics_are_documented() {
    let doc = doc_text();
    // The deep hierarchy's observable surface: the doc must reference
    // each identifier so a reader can go from a trace or a metrics dump
    // back to this model.
    for name in [
        "ChunkDemoted",
        "ChunkDropped",
        "TierReadCommitted",
        "ManifestPersisted",
        "SessionRehydrated",
        "pensieve_demoted_tokens_total",
        "pensieve_ssd_hit_tokens_total",
        "pensieve_cold_hit_tokens_total",
        "pensieve_rehydrated_tokens_total",
        "pensieve_cold_read_faults_total",
        "pensieve_manifests_persisted_total",
        "pensieve_session_rehydrations_total",
    ] {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/STORAGE.md is missing storage identifier `{name}`"
        );
    }
}
