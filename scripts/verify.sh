#!/usr/bin/env bash
# Tiered verification for gnrlab: hermetic build + tests + robustness + lints.
#
# The workspace has zero external crate dependencies, so everything here
# runs with --offline: a network-isolated container must pass this script
# unmodified.
#
# Usage: scripts/verify.sh [--tier N] [--skip-lint]
#   --tier 1     build (workspace + flowbench) + full test suite (both
#                thread counts)
#   --tier 2     tier 1 plus the fault-injection suite, scaling ablation,
#                and lints (fmt + clippy -D warnings)
#   --skip-lint  omit the fmt/clippy steps (CI runs them in a dedicated
#                `lint` job, so the verify tiers must not duplicate them)
#   default      all tiers
#
# CI runs `--tier 1` on every push and `--tier 2 --skip-lint` on PRs;
# pre-commit runs default to everything. The bench perf gate lives in
# scripts/bench_gate.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

TIER=all
SKIP_LINT=0
while [ $# -gt 0 ]; do
  case "$1" in
    --tier)
      shift
      TIER="${1:?--tier needs a value}"
      ;;
    --skip-lint)
      SKIP_LINT=1
      ;;
    *)
      echo "usage: scripts/verify.sh [--tier 1|2] [--skip-lint]" >&2
      exit 2
      ;;
  esac
  shift
done
case "$TIER" in
  1|2|all) ;;
  *)
    echo "error: unknown tier '$TIER' (expected 1, 2, or nothing)" >&2
    exit 2
    ;;
esac

echo "== tier-1: cargo build --release (offline) =="
cargo build --release --offline

# flowbench (the end-to-end benchmark) has its own [workspace], so the
# build above does not compile it; a public-API change it depends on
# would otherwise only surface when the benchmark runs.
echo "== tier-1: cargo build flowbench (offline) =="
cargo build --release --offline --manifest-path flowbench/Cargo.toml

echo "== tier-1: cargo test -q (offline, whole workspace, GNR_THREADS=1) =="
GNR_THREADS=1 cargo test --workspace -q --offline

echo "== tier-1: cargo test -q (offline, whole workspace, GNR_THREADS=4) =="
GNR_THREADS=4 cargo test --workspace -q --offline

# The workspace pass above already runs these, but they are the named
# gate for the transport layer (DESIGN.md §11): physics goldens,
# transport invariants on every solver path, and the surface-GF cache
# determinism/fallback contract (the NEGF bit pins run on both pool
# sizes below). sparse_mna (DESIGN.md §12) pins
# the sparse MNA backend against the legacy dense path; mode_space
# (DESIGN.md §15) pins the reduced transform's algebra, fallback
# bit-identity, and pool-size determinism.
echo "== tier-1: acceleration-layer conformance suites (GNR_THREADS=4) =="
GNR_THREADS=4 cargo test -q --offline \
  --test physics_conformance --test transport_invariants --test surface_cache \
  --test sparse_mna --test mode_space

# Budgeted-execution acceptance gate (DESIGN.md §13): cancel / checkpoint /
# resume bit-identity with the §4 pins intact, partial results on budget
# exhaustion, corrupt-checkpoint discard. Named on both pool sizes because
# resume determinism across thread counts is the whole contract.
echo "== tier-1: budget/checkpoint acceptance suite (GNR_THREADS=1 and 4) =="
GNR_THREADS=1 cargo test -q --offline --test budget_checkpoint
GNR_THREADS=4 cargo test -q --offline --test budget_checkpoint

# Characterization-service acceptance gate (DESIGN.md §14): the
# content-addressed table store (byte-identical warm hits, keyed-field
# misses, corrupt-entry eviction with pinned counters) and the job API
# (streaming chunk boundaries, cancel/resume by seed range with the §4
# pins intact, FIFO queue drain). Named on both pool sizes because both
# the cached bytes and the counters must be thread-count invariant.
echo "== tier-1: table-cache / service acceptance suites (GNR_THREADS=1 and 4) =="
GNR_THREADS=1 cargo test -q --offline --test table_cache --test service_jobs
GNR_THREADS=4 cargo test -q --offline --test table_cache --test service_jobs

# Netlist front-end acceptance gate (DESIGN.md §16): the deck-conformance
# suite (committed golden decks reproduce the programmatic builders
# bit-identically across DC / VTC / transient / SNM), the parser
# robustness suite (seeded round-trips, malformed-deck corpus with typed
# errors, scale-suffix goldens), and the circuit zoo (adder truth table,
# SRAM butterfly SNM golden, NAND-tree and clock-chain orderings, the
# deck job through the service API). Named on both pool sizes because the
# bit-identity pins must be thread-count invariant.
echo "== tier-1: netlist conformance / parser / circuit zoo (GNR_THREADS=1 and 4) =="
GNR_THREADS=1 cargo test -q --offline \
  --test netlist_conformance --test netlist_parser --test circuit_zoo
GNR_THREADS=4 cargo test -q --offline \
  --test netlist_conformance --test netlist_parser --test circuit_zoo

# Golden pins, as f64 bit patterns. Transient step (DESIGN.md §12.1):
# FO4 metrics at two (V_DD, V_T) corners, a trapezoidal FO4 waveform and
# a 3x3 design-space map. NEGF transport integrator (DESIGN.md §11): the
# accelerated and mode-space 4x4 tables, an adaptive SCF bias point, the
# warm-started uniform SCF table, and per-energy counters on an isolated
# sink. Surrogate table build (DESIGN.md §2.1): the Fast library's
# AllFour, OneOfFour and nominal tables, the scaled single-model table,
# the leakage-minimum search, the charged library model, a ballistic NEGF
# table's frozen-profile pre-pass, and the library's Poisson-solve count.
# Named on both pool sizes because the pinned bits must be thread-count
# invariant.
echo "== tier-1: transient-step, NEGF and surrogate-table golden pins (GNR_THREADS=1 and 4) =="
GNR_THREADS=1 cargo test -q --offline \
  --test transient_pins --test negf_pins --test surrogate_table_pins
GNR_THREADS=4 cargo test -q --offline \
  --test transient_pins --test negf_pins --test surrogate_table_pins

if [ "$TIER" = "1" ]; then
  echo "verify: tier-1 checks passed"
  exit 0
fi

echo "== tier-2: fault-injection suite (release) =="
cargo test --release --offline --test fault_tolerance

# Chaos soak: every site in gnr_num::fault::REGISTERED_SITES armed at
# p = 0.3 over the composite workload (SCF, DC rescue chain, transient
# ladder, checkpointed Monte Carlo). Fails on any panic or non-typed
# error; new fault sites join the soak just by registering.
echo "== tier-2: chaos soak over all registered fault sites (release) =="
cargo test --release --offline --test chaos_soak -- --nocapture

echo "== tier-2: par_scaling ablation (serial vs 4-thread table build) =="
cargo run -p gnr-bench --release --offline -- --suite ablations --filter par_scaling --quick

if [ "$SKIP_LINT" = "1" ]; then
  echo "== tier-2: lints skipped (--skip-lint; CI's lint job owns them) =="
else
  echo "== tier-2: cargo fmt --check =="
  cargo fmt --check

  echo "== tier-2: cargo clippy -D warnings (offline) =="
  cargo clippy --workspace --all-targets --offline -- -D warnings
fi

echo "verify: all checks passed"
