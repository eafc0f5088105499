#!/bin/sh
# Negative controls for the static checks (docs/LINTS.md): two known-bad
# crates outside the workspace, each of which must be rejected with every
# expected diagnostic.
#
# - scripts/controls/clippy/lib.rs: clippy, under the root clippy.toml,
#   must report every hot-path lint, every disallowed method and type,
#   and a stale waiver.
# - scripts/controls/pool_capture/lib.rs: `cargo check` must report the
#   four ways a partition closure could share mutable state (the pool's
#   `Fn + Sync` bound) and no other error.
#
#   scripts/clippy_control.sh
set -eu
dir=target/clippy-control
mkdir -p "$dir"
out=$dir/diagnostics.json
if cargo clippy --quiet --manifest-path scripts/controls/clippy/Cargo.toml \
    --target-dir "$dir" --message-format=json -- -D warnings >"$out"; then
    echo "clippy accepted the known-bad control crate" >&2
    exit 1
fi
status=0
for lint in clippy::unwrap_used clippy::expect_used clippy::panic clippy::todo \
    clippy::unimplemented clippy::unreachable clippy::indexing_slicing \
    clippy::iter_over_hash_type clippy::disallowed_methods clippy::disallowed_types \
    clippy::allow_attributes clippy::allow_attributes_without_reason \
    unfulfilled_lint_expectations; do
    grep -q "\"code\":{\"code\":\"$lint\"" "$out" || { echo "$lint did not fire" >&2; status=1; }
done
for method in std::time::Instant::now std::time::SystemTime::now std::thread::spawn \
    std::thread::scope; do
    grep -q "disallowed method \`$method\`" "$out" || { echo "$method is not disallowed" >&2; status=1; }
done
for ty in std::sync::Mutex std::sync::RwLock; do
    grep -q "disallowed type \`$ty\`" "$out" || { echo "$ty is not disallowed" >&2; status=1; }
done
out=$dir/captures.json
if cargo check --quiet --manifest-path scripts/controls/pool_capture/Cargo.toml \
    --target-dir "$dir" --message-format=json >"$out"; then
    echo "a pool closure that shares mutable state compiled" >&2
    exit 1
fi
# Each entry: an error code, then the start of its message.
for error in "E0594 cannot assign" "E0596 cannot borrow" "E0277 \`RefCell<" "E0277 \`Cell<"; do
    grep "\"code\":{\"code\":\"${error%% *}\"" "$out" | grep -q "\"message\":\"${error#* }" ||
        { echo "pool capture control: no $error" >&2; status=1; }
done
errors=$(grep -c '"code":{"code":"E' "$out" || true)
[ "$errors" -eq 4 ] || { echo "pool capture control: $errors errors, expected 4" >&2; status=1; }
[ "$status" -eq 0 ] && echo "controls: every lint, disallowed item and capture error fired"
exit "$status"
