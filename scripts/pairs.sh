#!/usr/bin/env bash
# The perf-claim protocol (ROADMAP, "Perf claim") as one command: the
# benchmark built at PARENT_REV against the benchmark built from the
# working tree, N alternating pairs of untraced runs of each workload.
#
#   scripts/pairs.sh PARENT_REV WORKLOAD[,WORKLOAD...] SEED N [SECONDS]
#
# PARENT_REV is exported with `git archive` into a temporary directory
# (under TMPDIR, removed on exit) and both sides build with `--offline`;
# the working tree's `benchmark/Cargo.lock`, which cargo rewrites on an
# in-place build, is restored afterwards. Each pair runs both binaries
# with `--workload W --seed SEED --seconds SECONDS --trace 0` (SECONDS
# defaults to BENCHMARK.json's `run_seconds`), the side that goes first
# alternating from pair to pair.
#
# Per workload it prints each pair's `host_req_per_s` and change/parent
# ratio, the median ratio, how many pairs the change won and the
# parent's quartiles; then, for every end-to-end metric BENCHMARK.json
# declares, the median of the per-pair change/parent ratios, marked
# `WORSE` when it moved in the metric's worse direction by more than
# its `bound`. Exits 1 if any metric is marked, any run fails its
# checks, or any `sim_*` value or response digest differs from the
# workload's first run.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: scripts/pairs.sh PARENT_REV WORKLOAD[,WORKLOAD...] SEED N [SECONDS]" >&2
    exit 2
fi
rev=$1 workloads=$2 seed=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
seconds=${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}

tmp=$(mktemp -d)
lock="$root/benchmark/Cargo.lock"
cp "$lock" "$tmp/Cargo.lock"
cleanup() {
    cp "$tmp/Cargo.lock" "$lock"
    rm -rf "$tmp"
}
trap cleanup EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
echo "building $rev ..." >&2
CARGO_TARGET_DIR="$tmp/target" cargo build --release --offline --quiet \
    --manifest-path "$tmp/parent/benchmark/Cargo.toml"
echo "building the working tree ..." >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
cp "$tmp/Cargo.lock" "$lock"
parent_bin="$tmp/target/release/pensieve-benchmark"
change_bin="$root/benchmark/target/release/pensieve-benchmark"

run() { # side workload pair
    local bin=$parent_bin
    [ "$1" = change ] && bin=$change_bin
    "$bin" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$tmp/$1.$2.$3.out" 2>/dev/null
}
for workload in ${workloads//,/ }; do
    for k in $(seq 1 "$pairs"); do
        if [ $((k % 2)) -eq 1 ]; then
            run parent "$workload" "$k"; run change "$workload" "$k"
        else
            run change "$workload" "$k"; run parent "$workload" "$k"
        fi
        echo "$workload: pair $k/$pairs done" >&2
    done
done

python3 - "$tmp" "$pairs" "$workloads" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

tmp, pairs, workloads, bench = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(","), sys.argv[4]
end_to_end = json.load(open(bench))["end_to_end"]

def read(side, workload, k):
    lines = open(f"{tmp}/{side}.{workload}.{k}.out").read().splitlines()
    last = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    pins = {name: v for name, v in metrics.items() if name.startswith("sim_")}
    pins["response_digests"] = detail["response_digests"]
    ok = last["correct"] and last["failed"] == 0
    return metrics, pins, ok

def ratio(change, parent):
    if parent == change:
        return 1.0
    return change / parent if parent else float("inf")

bad = []
for workload in workloads:
    reference, runs = None, {"parent": [], "change": []}
    print(f"== {workload}")
    print(f"{'pair':>4} {'parent':>12} {'change':>12} {'ratio':>7}")
    for k in range(1, pairs + 1):
        for side in runs:
            metrics, pins, ok = read(side, workload, k)
            runs[side].append(metrics)
            reference = reference or pins
            if not ok:
                bad.append(f"{workload} pair {k} {side}: the run failed its checks")
            bad += [f"{workload} pair {k} {side}: {n} differs" for n in pins if pins[n] != reference[n]]
        p, c = (runs[side][-1]["host_req_per_s"] for side in ("parent", "change"))
        print(f"{k:>4} {p:>12.1f} {c:>12.1f} {c / p:>7.3f}")
    parents = [m["host_req_per_s"] for m in runs["parent"]]
    q = statistics.quantiles(parents, n=4) if pairs > 1 else [parents[0]] * 3
    speedups = [c["host_req_per_s"] / p["host_req_per_s"] for p, c in zip(runs["parent"], runs["change"])]
    wins = sum(r > 1 for r in speedups)
    print(f"median ratio {statistics.median(speedups):.3f}, change wins {wins}/{pairs}, "
          f"parent median {statistics.median(parents):.1f} (quartiles {q[0]:.1f}-{q[2]:.1f})")
    print(f"{'metric':<22} {'parent median':>14} {'change median':>14} {'ratio':>7}  bound")
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        p_med = statistics.median(m[name] for m in runs["parent"])
        c_med = statistics.median(m[name] for m in runs["change"])
        r = statistics.median(ratio(c[name], p[name]) for p, c in zip(runs["parent"], runs["change"]))
        worse = r > 1 + bound if spec["better"] == "lower" else r < 1 - bound
        mark = "  WORSE" if worse else ""
        print(f"{name:<22} {p_med:>14.6g} {c_med:>14.6g} {r:>7.3f}  {spec['better']} {bound}{mark}")
        if worse:
            bad.append(f"{workload}: {name} median ratio {r:.3f} is worse than its bound {bound}")
for line in bad:
    print(line)
sys.exit(1 if bad else 0)
EOF
