//! Report rendering: human-readable text and machine-readable JSON.

use serde_json::{Map, Value};

use crate::rules::Report;

/// Renders the report for terminals: one `path:line: [rule] msg` per
/// violation plus a summary line.
#[must_use]
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("{}:{}: [{}] {}\n", v.path, v.line, v.rule, v.msg));
    }
    out.push_str(&format!(
        "pensieve-analyzer: {} file(s) scanned, {} violation(s), {} suppressed\n",
        report.files_scanned,
        report.violations.len(),
        report.suppressed
    ));
    out
}

/// Renders the report as a JSON document:
///
/// ```json
/// {
///   "files_scanned": 42,
///   "suppressed": 3,
///   "violations": [ {"rule": "...", "path": "...", "line": 7, "msg": "..."} ]
/// }
/// ```
#[must_use]
pub fn to_json(report: &Report) -> String {
    let mut root = Map::new();
    root.insert(
        "files_scanned".to_string(),
        Value::Number(report.files_scanned as f64),
    );
    root.insert(
        "suppressed".to_string(),
        Value::Number(report.suppressed as f64),
    );
    let violations: Vec<Value> = report
        .violations
        .iter()
        .map(|v| {
            let mut m = Map::new();
            m.insert("rule".to_string(), Value::String(v.rule.to_string()));
            m.insert("path".to_string(), Value::String(v.path.clone()));
            m.insert("line".to_string(), Value::Number(f64::from(v.line)));
            m.insert("msg".to_string(), Value::String(v.msg.clone()));
            Value::Object(m)
        })
        .collect();
    root.insert("violations".to_string(), Value::Array(violations));
    // The shim's serializer is infallible for a hand-built `Value` tree.
    serde_json::to_string_pretty(&Value::Object(root)).unwrap_or_default()
}

/// Renders the suppression-debt report — every live `lint:allow` in the
/// scanned tree with its rule, location, reason, and how many findings
/// it silenced. CI archives this as an artifact so the waiver inventory
/// is reviewable per-PR instead of buried in source:
///
/// ```json
/// {
///   "total": 19,
///   "by_rule": { "r1-index": 1, "r1-panic": 18 },
///   "suppressions": [
///     {"rule": "...", "path": "...", "line": 7, "reason": "...",
///      "file_level": false, "fired": 1}
///   ]
/// }
/// ```
#[must_use]
pub fn suppression_report(report: &Report) -> String {
    let mut by_rule: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in &report.suppressions {
        *by_rule.entry(s.rule.as_str()).or_insert(0) += 1;
    }
    let mut root = Map::new();
    root.insert(
        "total".to_string(),
        Value::Number(report.suppressions.len() as f64),
    );
    let mut rules = Map::new();
    for (rule, n) in by_rule {
        rules.insert(rule.to_string(), Value::Number(n as f64));
    }
    root.insert("by_rule".to_string(), Value::Object(rules));
    let entries: Vec<Value> = report
        .suppressions
        .iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("rule".to_string(), Value::String(s.rule.clone()));
            m.insert("path".to_string(), Value::String(s.path.clone()));
            m.insert("line".to_string(), Value::Number(f64::from(s.line)));
            m.insert("reason".to_string(), Value::String(s.reason.clone()));
            m.insert("file_level".to_string(), Value::Bool(s.file_level));
            m.insert("fired".to_string(), Value::Number(f64::from(s.fired)));
            Value::Object(m)
        })
        .collect();
    root.insert("suppressions".to_string(), Value::Array(entries));
    serde_json::to_string_pretty(&Value::Object(root)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Analyzer;

    #[test]
    fn json_and_text_cover_violations() {
        let mut a = Analyzer::new();
        a.analyze_file(
            "crates/core/src/engine.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let report = a.finish();
        let text = render_text(&report);
        assert!(text.contains("crates/core/src/engine.rs:1: [r1-panic]"));
        let json = to_json(&report);
        assert!(json.contains("\"rule\": \"r1-panic\""));
        assert!(json.contains("\"files_scanned\": 1"));
    }

    #[test]
    fn suppression_report_lists_live_waivers() {
        let mut a = Analyzer::new();
        a.analyze_file(
            "crates/core/src/engine.rs",
            "fn f(x: Option<u32>) -> u32 {\n\
             // lint:allow(r1-panic): invariant proven by caller\n\
             x.unwrap()\n\
             }\n",
        );
        let report = a.finish();
        assert!(report.violations.is_empty());
        let debt = suppression_report(&report);
        assert!(debt.contains("\"total\": 1"));
        assert!(debt.contains("\"r1-panic\": 1"));
        assert!(debt.contains("invariant proven by caller"));
        assert!(debt.contains("\"fired\": 1"));
    }
}
