#!/usr/bin/env bash
# Perf-regression gate: times the parent revision and the change on the
# same host, bench by bench, and fails on a slowdown.
#
# Usage: scripts/bench_gate.sh [<base-rev>]   (default: HEAD^)
#
# Builds `gnr-bench` at <base-rev> (the parent, from a `git archive`
# export with its own target dir under target/bench_gate/) and at the
# working tree (the change). Every `ablations` and `experiments` bench
# then runs in ROUNDS rounds; each round runs both binaries with
# `--quick --json --filter <suite/name>` under GNR_TELEMETRY=1, and the
# side that goes first alternates between rounds, so a slow host phase
# hits both sides of one bench instead of every bench of one side. The
# documents land in target/bench_gate/{parent,change}/ and
# `gnr-bench compare` applies the policy (see crates/bench/src/compare.rs):
#   - fail (exit 1) when a bench's best min_ns over the change's rounds
#     exceeds the best over the parent's rounds by more than x1.25,
#   - fail when a filtered change-side run yields anything but one record,
#   - warn only on per-iteration counter drift and one-sided benches.
# A bench the first pass flags runs RETRY_ROUNDS more rounds on both
# sides before the final verdict: more rounds can only lower either
# side's minimum, so a real regression stays flagged.
set -euo pipefail
cd "$(dirname "$0")/.."

# Chosen by measurement on a 2-vCPU host: in three gate runs of an
# unchanged tree, 3 rounds left 0, 2 and 5 of 46 benches over the bound
# (worst x1.60), and 4 more rounds of just those brought each one back
# under it (worst final ratio 1.14); a run takes 10-12 minutes.
ROUNDS=3
RETRY_ROUNDS=4

GATE=target/bench_gate
base=$(git rev-parse --verify "${1:-HEAD^}^{commit}")

# The export keeps the files' mtimes at "now" (tar -m), so cargo
# rebuilds whenever the exported revision changes, older or newer.
if [ "$(cat "$GATE/base-src.rev" 2>/dev/null)" != "$base" ]; then
  rm -rf "$GATE/base-src"
  mkdir -p "$GATE/base-src"
  git archive "$base" | tar -x -m -C "$GATE/base-src"
  echo "$base" > "$GATE/base-src.rev"
fi

echo "== bench gate: build parent ($base) and change =="
cargo build -p gnr-bench --release --offline \
  --manifest-path "$GATE/base-src/Cargo.toml" --target-dir "$GATE/base-target"
cargo build -p gnr-bench --release --offline
rm -rf "$GATE/bin" "$GATE/parent" "$GATE/change"
mkdir -p "$GATE/bin" "$GATE/parent" "$GATE/change"
cp "$GATE/base-target/release/gnr-bench" "$GATE/bin/parent"
cp target/release/gnr-bench "$GATE/bin/change"

gated=$("$GATE/bin/change" --suite ablations --suite experiments --list)

round=0
# measure <rounds> <bench>...: runs each bench <rounds> times per side.
measure() {
  local rounds=$1 bench r side
  shift
  for bench in "$@"; do
    for ((r = 0; r < rounds; r++)); do
      round=$((round + 1))
      for side in $( ((round % 2)) && echo parent change || echo change parent); do
        GNR_TELEMETRY=1 "$GATE/bin/$side" --suite "${bench%%/*}" --quick --json \
          --filter "$bench" > "$GATE/$side/$(echo "$bench" | tr / _).$round.json"
      done
    done
  done
}

compare() {
  "$GATE/bin/change" compare --parent "$GATE/parent" --change "$GATE/change" \
    | tee "$GATE/report.txt"
}

echo "== bench gate: $(echo "$gated" | wc -l) benches x $ROUNDS rounds per side =="
# shellcheck disable=SC2086 # bench names hold no whitespace
measure "$ROUNDS" $gated
status=0
compare || status=$?
if [ "$status" -eq 1 ]; then
  flagged=$(sed -n 's/^FAIL: \([^ :]*\): .*/\1/p' "$GATE/report.txt" | grep -Fx "$gated" || true)
  if [ -n "$flagged" ]; then
    echo "== bench gate: $RETRY_ROUNDS more rounds for: $(echo $flagged) =="
    # shellcheck disable=SC2086
    measure "$RETRY_ROUNDS" $flagged
    status=0
    compare || status=$?
  fi
fi
exit "$status"
