#!/usr/bin/env bash
# A/A check: run the whole benchmark twice on the same commit and print,
# per workload x end-to-end metric, both values, their ratio, the bound
# from BENCHMARK.json and pass/fail. Also requires failed = 0 in both
# runs and the exactly-repeating STATS count metrics to be identical.
# Exits non-zero on any miss.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
set -u
BENCH="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$BENCH/out"
for pass in a b; do
  echo "aa.sh: pass $pass" >&2
  if ! "$BENCH/run.sh" "$@" > "$out.aa_$pass.log" 2>&1; then
    mkdir -p "$out"; mv "$out.aa_$pass.log" "$out/aa_$pass.log"
    echo "aa.sh: pass $pass failed; see $out/aa_$pass.log" >&2
    exit 1
  fi
  mv "$out.aa_$pass.log" "$out/aa_$pass.log"
  rm -rf "$out/aa_$pass"; mkdir -p "$out/aa_$pass"
  cp "$out"/result_*.json "$out/aa_$pass/"
done
python3 - "$BENCH" <<'PY'
import json, sys, os
bench = sys.argv[1]
spec = json.load(open(os.path.join(os.path.dirname(bench), "BENCHMARK.json")))
# STATS deltas that do not depend on how two connections interleave.
# (bytes_out_per_op is not among them: the STATS answers that bracket a round
# are counted in it, and their length varies with the digits they carry.)
exact = ["xsserver.bytes_in_per_op", "xmlparse.bytes_per_op",
         "storage.wal_bytes_per_op", "storage.wal_fsyncs_per_op", "xsmodel.cm_cache_hit_ratio",
         "xquery.steps_guided_share", "xquery.steps_dewey_share", "xquery.steps_postings_share",
         "xquery.pruned_share", "xsanalyze.accept_share", "xsanalyze.recheck_share",
         "xsanalyze.reject_share", "xsanalyze.revalidated_nodes_per_update"]
def load(p, kind, w):
    return json.load(open(os.path.join(bench, "out", f"aa_{p}", f"result_{kind}{w}.json")))
ok = True
print(f"{'workload':<12} {'metric':<28} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6}  verdict")
for w in [x["name"] for x in spec["workloads"]]:
    a, b = load("a", "", w), load("b", "", w)
    la, lb = load("a", "layer_", w), load("b", "layer_", w)
    for r in (a, b, la, lb):
        if not r["correct"] or r["failed"] != 0:
            print(f"{w:<12} failed ops: {r['failed']} of {r['attempted']}  FAIL"); ok = False
    for m in spec["end_to_end"]:
        va, vb = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        lo, hi = min(va, vb), max(va, vb)
        worse = (hi - lo) / lo if lo > 0 else float("inf")
        good = worse <= m["bound"]
        ok &= good
        print(f"{w:<12} {m['name']:<28} {va:>14.5f} {vb:>14.5f} {worse:>9.3f} {m['bound']:>6.2f}  {'pass' if good else 'FAIL'}")
    for name in exact:
        va, vb = la["metrics"][name]["value"], lb["metrics"][name]["value"]
        if va != vb:
            print(f"{w:<12} {name:<28} {va:>14.5f} {vb:>14.5f}  count differs  FAIL"); ok = False
print("aa.sh:", "every metric agrees within its bound" if ok else "MISSES ABOVE")
sys.exit(0 if ok else 1)
PY
