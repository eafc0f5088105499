#!/bin/sh
# Negative control for the clippy lints that guard the hot-path crates
# (docs/ANALYZER.md, "Rules clippy checks"): runs clippy, under the root
# clippy.toml, on a known-bad crate outside the workspace and fails
# unless it is rejected with every lint, every disallowed method and a
# stale-waiver report present.
#
#   scripts/clippy_control.sh
set -eu
dir=target/clippy-control
mkdir -p "$dir"
out=$dir/diagnostics.json
if cargo clippy --quiet --manifest-path crates/analyzer/fixtures/clippy/Cargo.toml \
    --target-dir "$dir" --message-format=json -- -D warnings >"$out"; then
    echo "clippy accepted the known-bad control crate" >&2
    exit 1
fi
status=0
for lint in clippy::unwrap_used clippy::expect_used clippy::panic clippy::todo \
    clippy::unimplemented clippy::unreachable clippy::indexing_slicing \
    clippy::iter_over_hash_type clippy::disallowed_methods clippy::allow_attributes \
    clippy::allow_attributes_without_reason unfulfilled_lint_expectations; do
    grep -q "\"code\":{\"code\":\"$lint\"" "$out" || { echo "$lint did not fire" >&2; status=1; }
done
for method in std::time::Instant::now std::time::SystemTime::now std::thread::spawn \
    std::thread::scope; do
    grep -q "disallowed method \`$method\`" "$out" || { echo "$method is not disallowed" >&2; status=1; }
done
[ "$status" -eq 0 ] && echo "clippy control: every migrated lint fired"
exit "$status"
