#!/usr/bin/env bash
# The perf-claim protocol (ROADMAP, "Perf claim") as one command: the
# benchmark built at PARENT_REV against the benchmark built from the
# working tree, N alternating pairs of untraced runs of one workload.
#
#   scripts/pairs.sh PARENT_REV WORKLOAD SEED N [SECONDS]
#
# PARENT_REV is checked out into a temporary `git worktree` (removed on
# exit) and both sides build with `--offline`; the working tree's
# `benchmark/Cargo.lock`, which cargo rewrites on an in-place build, is
# restored afterwards. Each pair runs both binaries with
# `--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`
# (SECONDS defaults to BENCHMARK.json's `run_seconds`), the side that
# goes first alternating from pair to pair. Prints each pair's
# `host_req_per_s`, the change/parent ratio, the median ratio and the
# parent's quartiles, then both sides' medians of `setup_s` and
# `host_peak_rss_mb`. Exits 1 if any run fails its checks or if any
# `sim_*` value or response digest differs from the first run's.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: scripts/pairs.sh PARENT_REV WORKLOAD SEED N [SECONDS]" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
seconds=${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}

tmp=$(mktemp -d)
lock="$root/benchmark/Cargo.lock"
cp "$lock" "$tmp/Cargo.lock"
cleanup() {
    cp "$tmp/Cargo.lock" "$lock"
    git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/parent" "$rev"
echo "building $rev ..." >&2
CARGO_TARGET_DIR="$tmp/target" cargo build --release --offline --quiet \
    --manifest-path "$tmp/parent/benchmark/Cargo.toml"
echo "building the working tree ..." >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
cp "$tmp/Cargo.lock" "$lock"
parent_bin="$tmp/target/release/pensieve-benchmark"
change_bin="$root/benchmark/target/release/pensieve-benchmark"

run() { # side pair
    local bin=$parent_bin
    [ "$1" = change ] && bin=$change_bin
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$tmp/$1.$2.out" 2>/dev/null
}
for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then run parent "$k"; run change "$k"; else run change "$k"; run parent "$k"; fi
    echo "pair $k/$pairs done" >&2
done

python3 - "$tmp" "$pairs" <<'EOF'
import json, statistics, sys

tmp, pairs = sys.argv[1], int(sys.argv[2])

def read(side, k):
    lines = open(f"{tmp}/{side}.{k}.out").read().splitlines()
    last = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    pins = {name: v for name, v in metrics.items() if name.startswith("sim_")}
    pins["response_digests"] = detail["response_digests"]
    ok = last["correct"] and last["failed"] == 0
    return metrics, pins, ok

reference, bad, ratios, runs = None, [], [], {"parent": [], "change": []}
print(f"{'pair':>4} {'parent':>12} {'change':>12} {'ratio':>7}")
for k in range(1, pairs + 1):
    for side in runs:
        metrics, pins, ok = read(side, k)
        runs[side].append(metrics)
        reference = reference or pins
        if not ok:
            bad.append(f"pair {k} {side}: the run failed its checks")
        bad += [f"pair {k} {side}: {n} differs" for n in pins if pins[n] != reference[n]]
    p, c = (runs[side][-1]["host_req_per_s"] for side in ("parent", "change"))
    ratios.append(c / p)
    print(f"{k:>4} {p:>12.1f} {c:>12.1f} {c / p:>7.3f}")
parents = [m["host_req_per_s"] for m in runs["parent"]]
q = statistics.quantiles(parents, n=4) if pairs > 1 else [parents[0]] * 3
wins = sum(r > 1 for r in ratios)
print(f"median ratio {statistics.median(ratios):.3f}, change wins {wins}/{pairs}, "
      f"parent median {statistics.median(parents):.1f} (quartiles {q[0]:.1f}-{q[2]:.1f})")
for name in ("setup_s", "host_peak_rss_mb"):
    p, c = (statistics.median(m[name] for m in runs[side]) for side in ("parent", "change"))
    print(f"{name}: parent median {p:.6g}, change median {c:.6g}, ratio {c / p:.3f}")
for line in bad:
    print(line)
sys.exit(1 if bad else 0)
EOF
