#!/usr/bin/env bash
# Two sets of runs of the same code must agree within the benchmark's
# own bounds. Runs every workload twice at seed 1 (set A, set B), prints
# the end-to-end metrics side by side, and fails if any metric differs
# between the sets by more than its bound in BENCHMARK.json or if the
# report digests differ; then runs every workload once at seed 2, where
# every spec assertion must still hold. Takes about 7 minutes.
#
#   bash benchmark/agree.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p "$root/.bench_build"
out="$(mktemp -d "$root/.bench_build/agree.XXXXXX")"
trap 'rm -rf "$out"' EXIT

status=0
for w in $workloads; do
  for set in A B; do
    echo "== $w set $set (seed 1)" >&2
    bash benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 0 > "$out/$w.$set" || status=1
  done
  echo "== $w seed 2" >&2
  bash benchmark/run.sh --workload "$w" --seed 2 --seconds "$seconds" --trace 0 > "$out/$w.seed2" || status=1
done

python3 - "$out" $workloads <<'PY' || status=1
import json, sys
out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0
def load(path):
    lines = open(path).read().splitlines()
    sha = next((l.split()[2] for l in lines if l.startswith("# report_sha256 ")), None)
    return json.loads(lines[-1]), sha
for w in workloads:
    (a, sha_a), (b, sha_b) = load(f"{out}/{w}.A"), load(f"{out}/{w}.B")
    s2, _ = load(f"{out}/{w}.seed2")
    print(f"{w}: report_sha256 {'identical' if sha_a == sha_b else 'DIFFERS'}; seed 2 {'passes' if s2['correct'] else 'FAILS'}")
    bad += sha_a != sha_b or not (a["correct"] and b["correct"] and s2["correct"])
    for name, bound in bounds.items():
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        diff = abs(va - vb) / min(abs(va), abs(vb))
        flag = "" if diff <= bound else "  <-- beyond its bound"
        bad += diff > bound
        print(f"  {name:26s} A={va:<12.6g} B={vb:<12.6g} diff={diff:7.2%} bound={bound:.0%}{flag}")
sys.exit(1 if bad else 0)
PY
exit $status
