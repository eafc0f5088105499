//! `parse_jsonl` is the schema validator `trace_report` runs over logs it
//! did not write, so a hostile or damaged log must come back as a
//! [`pensieve_obs::JsonlError`] naming what is wrong — never a panic, in
//! debug or release — and never as an event that breaks a type's
//! invariant (a negative or infinite [`pensieve_model::SimTime`]).

use pensieve_obs::{parse_jsonl, sample_events, to_jsonl, TraceEvent};
use serde::{Deserialize, Map, Serialize, Value};

#[test]
fn negative_and_non_finite_times_are_errors_naming_the_field() {
    for at in ["-1", "1e999", "-1e999"] {
        let line = format!("\n{{\"ev\":\"Suspended\",\"at\":{at},\"conv\":1,\"tokens\":1}}\n");
        let err = parse_jsonl(&line).expect_err("invalid time");
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("\"at\""), "{err}");
    }
    let line = "{\"ev\":\"PipelinedSwapIn\",\"at\":1,\"bytes\":0,\"compute\":-0.5,\"total\":0}";
    let err = parse_jsonl(line).expect_err("invalid duration");
    assert!(err.message.contains("\"compute\""), "{err}");
    let line = "{\"ev\":\"LinkPartitioned\",\"at\":1,\"until\":-2}";
    let err = parse_jsonl(line).expect_err("invalid non-`at` time");
    assert!(err.message.contains("\"until\""), "{err}");
}

fn object_of(ev: &TraceEvent) -> Map {
    ev.to_value()
        .as_object()
        .expect("events are objects")
        .clone()
}

#[test]
fn removing_any_key_is_an_error_naming_it() {
    for ev in sample_events() {
        let full = object_of(&ev);
        for key in full.keys() {
            let mut m = full.clone();
            m.remove(key);
            let err = TraceEvent::from_value(&Value::Object(m))
                .expect_err("an event with a key removed must not parse");
            assert!(
                err.to_string().contains(&format!("{key:?}")),
                "{}: removing {key:?} gave {err}",
                ev.variant_name()
            );
        }
    }
}

#[test]
fn a_wrongly_typed_value_is_an_error_naming_its_key() {
    for ev in sample_events() {
        let full = object_of(&ev);
        for (key, value) in &full {
            // No field type accepts both a string and a number.
            let wrong = match value {
                Value::String(_) => Value::Number(1.0),
                _ => Value::String("x".to_owned()),
            };
            let mut m = full.clone();
            m.insert(key.clone(), wrong);
            let err = TraceEvent::from_value(&Value::Object(m))
                .expect_err("an event with a mistyped value must not parse");
            assert!(
                err.to_string().contains(&format!("{key:?}")),
                "{}: mistyping {key:?} gave {err}",
                ev.variant_name()
            );
        }
    }
}

#[test]
fn an_unknown_extra_key_is_ignored() {
    for ev in sample_events() {
        let mut m = object_of(&ev);
        m.insert("zz_future_field".to_owned(), Value::Number(7.0));
        assert_eq!(TraceEvent::from_value(&Value::Object(m)), Ok(ev));
    }
}

#[test]
fn a_log_truncated_at_any_byte_never_panics() {
    let text = to_jsonl(&sample_events());
    assert!(text.is_ascii(), "byte offsets are char boundaries");
    let all = sample_events();
    for cut in 0..=text.len() {
        // `Ok` when the cut falls between events; anywhere else the last
        // line is damaged and must be the one reported.
        match parse_jsonl(&text[..cut]) {
            Ok(events) => assert!(events.len() <= all.len()),
            Err(err) => assert_eq!(err.line, text[..cut].lines().count(), "{err}"),
        }
    }
    assert_eq!(parse_jsonl(&text), Ok(all));
}
