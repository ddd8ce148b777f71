#!/usr/bin/env bash
# Self-test of the harness: the same code paths as a measuring run at
# 1/20 size in under 30 s -- every op kind, the open-loop rungs, kill -9
# and restart, the traced replay -- so harness bugs show without a
# five-minute run. Asserts that
#   * a flipped expected checksum makes run.sh exit non-zero and name the op;
#   * every run prints exactly the metric names BENCHMARK.json declares,
#     each once (end_to_end with --trace 0, per_layer with --trace 1);
#   * spec.rs and BENCHMARK.json name the same metrics.
set -u
BENCH="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
log="$BENCH/out/selftest.log"
mkdir -p "$BENCH/out"

# Also builds everything, so the timed part below starts warm.
if "$BENCH/run.sh" --workload point_query --seed 7 --seconds 1 --scale 20 --trace 0 --flip 3 > "$log" 2>&1; then
  echo "selftest: a flipped checksum did not fail the run" >&2; exit 1
fi
grep -q "WRONG ANSWER  (wire) X\?QUERY \[" "$log" || { echo "selftest: the failing op was not named; see $log" >&2; exit 1; }

start=$(date +%s)
"$BENCH/run.sh" --seed 7 --seconds 1 --scale 20 > "$log" 2>&1 || { echo "selftest: run.sh failed; see $log" >&2; exit 1; }
took=$(( $(date +%s) - start ))

python3 - "$BENCH" "$log" <<'PY' || exit 1
import json, re, sys, os
bench, log = sys.argv[1], sys.argv[2]
spec = json.load(open(os.path.join(os.path.dirname(bench), "BENCHMARK.json")))
def strict(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)
lines = [l for l in open(log) if l.startswith('{"correct"')]
want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
n = len(spec["workloads"])
assert len(lines) == 2 * n, f"expected {2 * n} result lines, found {len(lines)}"
for i, line in enumerate(lines):
    r = json.loads(line, object_pairs_hook=strict)
    assert sorted(r) == ["attempted", "correct", "failed", "metrics"], sorted(r)
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, line[:120]
    names = list(r["metrics"])
    assert sorted(names) == sorted(want[i % 2]), (
        f"result line {i}: missing {sorted(set(want[i % 2]) - set(names))}, extra {sorted(set(names) - set(want[i % 2]))}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for k, v in r["metrics"].items():
        assert v["unit"] == units[k], (k, v["unit"], units[k])
# spec.rs is the table the programs print from; BENCHMARK.json must name the same metrics.
src = open(os.path.join(bench, "src", "spec.rs")).read()
declared = re.findall(r'\("([a-z0-9_.]+)", "[^"]+", (?:Lower|Higher)\)', src)
assert sorted(declared) == sorted(want[0] + want[1]), "spec.rs and BENCHMARK.json disagree"
print(f"selftest: {len(lines)} result lines carry exactly the declared metrics")
PY
if [ "$took" -gt 30 ]; then
  echo "selftest: took ${took}s, over the 30 s budget" >&2; exit 1
fi
echo "selftest: ok in ${took}s"
