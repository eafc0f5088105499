//! Known-bad: one site per lint, disallowed method and disallowed type
//! in docs/LINTS.md, plus a bare, a reasonless and a stale waiver. Every
//! one must be reported; `scripts/clippy_control.sh` fails otherwise.
//! Never built by the workspace.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};
use std::time::{Instant, SystemTime};

pub fn unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn expect(x: Option<u32>) -> u32 {
    x.expect("present")
}

pub fn panics() {
    panic!("boom")
}

pub fn todo() {
    todo!()
}

pub fn unimplemented() {
    unimplemented!()
}

pub fn unreachable() {
    unreachable!()
}

pub fn index(xs: &[u32], i: usize) -> u32 {
    xs[i]
}

pub fn hash_iter(m: &HashMap<u32, u32>) -> u32 {
    let mut total = 0;
    for v in m.values() {
        total += v;
    }
    total
}

pub fn wall_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn threads() {
    std::thread::spawn(|| {});
    std::thread::scope(|_| {});
}

pub fn locks(counter: &Mutex<u32>, config: &RwLock<u32>) -> bool {
    counter.is_poisoned() || config.is_poisoned()
}

#[allow(dead_code, reason = "a bare allow, not an expect")]
fn bare_allow() {}

#[expect(dead_code)]
fn reasonless_expect() {}

#[expect(clippy::unwrap_used, reason = "the unwrap this covered is gone")]
pub fn stale_expect() {}
