#!/usr/bin/env bash
# The xsdb benchmark: one command that builds xsd-serve and the drivers
# in release mode, runs the workloads, checks every response against the
# generator's expected answer, and prints every metric by name with its
# unit. The last line of stdout is the run's result as one JSON object.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Without --workload every workload runs; without --trace each workload
# runs twice, first untraced over the wire (end-to-end metrics), then
# with the STATS-bracketed wire run and the in-process traced replay
# (per-layer metrics). Results land in benchmark/out/:
# result_<workload>.json, result_layer_<workload>.json and
# trace_<workload>.jsonl. --scale and --flip are the self-test's.
set -u

BENCH="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH")"

workloads="ingest point_query scan_query mixed_rw"
seed=1
seconds=10
traces="0 1"
extra=()
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 64; }
  case "$1" in
    --workload) workloads="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) traces="$2" ;;
    --scale | --flip) extra+=("$1" "$2") ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 64 ;;
  esac
  shift 2
done

if [ ! -f "$ROOT/Cargo.toml" ] || [ ! -d "$ROOT/crates/xsserver" ]; then
  echo "run.sh: $ROOT is not a checkout of the repository (no crates/xsserver): nothing to measure" >&2
  exit 1
fi

# One target directory for the server and both drivers, so the layer
# crates compile once. A relative CARGO_TARGET_DIR is relative to the
# caller's directory.
target="${CARGO_TARGET_DIR:-$BENCH/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

build() { cargo build --release --offline --quiet --manifest-path "$@" >&2; }
build "$ROOT/Cargo.toml" -p xsserver --bin xsd-serve || { echo "run.sh: xsd-serve does not build" >&2; exit 1; }
build "$BENCH/Cargo.toml" || { echo "run.sh: the wire driver does not build" >&2; exit 1; }
trace_ok=1
case " $traces " in *" 1 "*)
  if ! build "$BENCH/trace/Cargo.toml"; then
    trace_ok=0
    echo "run.sh: ==================================================================" >&2
    echo "run.sh: THE TRACED REPLAY DOES NOT BUILD AGAINST THIS COMMIT." >&2
    echo "run.sh: Per-layer metrics are unavailable until a benchmark issue" >&2
    echo "run.sh: re-points benchmark/trace/src/adapters.rs; end-to-end metrics" >&2
    echo "run.sh: are unaffected." >&2
    echo "run.sh: ==================================================================" >&2
  fi ;;
esac

out="$BENCH/out"
# A stale WAL left by a killed run must never be replayed into a fresh one.
rm -rf "$out/tmp"
mkdir -p "$out/tmp"

status=0
for workload in $workloads; do
  for trace in $traces; do
    args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
          --server "$target/release/xsd-serve" --out "$out" ${extra[@]+"${extra[@]}"})
    if [ "$trace" = 1 ] && [ "$trace_ok" = 0 ]; then
      status=1
      continue
    fi
    "$target/release/xsbench-wire" "${args[@]}" || status=$?
    if [ "$trace" = 1 ] && [ "$status" = 0 ]; then
      "$target/release/xsbench-trace" "${args[@]}" || status=$?
    fi
  done
done
exit "$status"
