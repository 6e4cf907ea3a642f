#!/usr/bin/env bash
# Build stackbench offline, run every workload untraced and then traced, and
# merge the result lines into one JSON document.
#
#   benchmark/run.sh [seed] [seconds]
#
# Output goes under the cargo target directory (ignored by git):
#   <target>/stackbench-out/results.json      the merged results
#   <target>/stackbench-out/trace-<w>.json    one Chrome trace per workload
# Exits non-zero as soon as a run fails its checks.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."
seed="${1:-1}"
seconds="${2:-12}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/stackbench}"
out="$CARGO_TARGET_DIR/stackbench-out"
mkdir -p "$out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/stackbench"

workloads="wilson_cg_f64 ladder_f16 dist_cg_r2 hmc_quenched farm_mix"
for trace in 0 1; do
    for w in $workloads; do
        echo "== $w --trace $trace" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --out "$out" | tee "$out/$w.trace$trace.log" | tail -n 1 >"$out/$w.trace$trace.json"
    done
done

# Merge: {"machine": ..., "seed": ..., "results": {"<workload>": {"end_to_end": ..., "per_layer": ...}}}
{
    machine="$(grep -m1 '^machine: ' "$out/wilson_cg_f64.trace0.log" | sed 's/^machine: //; s/\\/\\\\/g; s/"/\\"/g')"
    printf '{"machine": "%s", "seed": %s, "seconds": %s, "results": {' "$machine" "$seed" "$seconds"
    sep=""
    for w in $workloads; do
        printf '%s\n"%s": {"end_to_end": %s, "per_layer": %s}' "$sep" "$w" \
            "$(cat "$out/$w.trace0.json")" "$(cat "$out/$w.trace1.json")"
        sep=","
    done
    printf '\n}}\n'
} >"$out/results.json"
echo "merged results: $out/results.json" >&2
