#!/usr/bin/env bash
# pair.sh — the paired protocol a speed claim is made with.
#
# Usage:
#   scripts/pair.sh <parent-ref> <workload> [pairs=10] [metric=wall_ms_per_host_hour]
#
# Checks <parent-ref> out into .bench_build/parent/ (git archive: a plain
# copy of the committed files, no worktree registered in .git), then runs
# the repository benchmark — each side's own benchmark/run.sh, exactly as
# a driver would — on the parent and on this working tree in alternating
# order: parent first on even pairs, change first on odd ones. Prints
# every pair's two values, the win count (ties count for neither side),
# each side's median and quartiles, and every distinct report_sha256 each
# side produced. A gain is claimed when the change wins at least nine
# pairs in ten and the medians lie further apart than the parent's own
# interquartile spread (benchmark/README.md).
#
# SEED (default 1) and SECONDS_PER_RUN (default 30, BENCHMARK.json's
# run_seconds) are taken from the environment. It lives under scripts/
# because a change that claims a gain may not touch benchmark/.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,20p' "$0" >&2
  exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}" metric="${4:-wall_ms_per_host_hour}"
seed="${SEED:-1}" secs="${SECONDS_PER_RUN:-30}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$root/.bench_build/parent"
mkdir -p "$parent"
# Replace the sources of an earlier run; keep its build cache.
find "$parent" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git -C "$root" archive "$ref" | tar -x -C "$parent"

# Every run's result line is also kept, one JSON object per line, so the
# other end-to-end metrics of the same runs can be read afterwards.
runs="$root/.bench_build/pair-runs"
mkdir -p "$runs"
: >"$runs/parent.jsonl"
: >"$runs/change.jsonl"

# run <checkout> <side> prints "<metric value> <report_sha256>" for one run.
run() {
  local out
  out="$(bash "$1/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0)"
  tail -n 1 <<<"$out" >>"$runs/$2.jsonl"
  local value sha
  value="$(tail -n 1 <<<"$out" | sed -nE "s/.*\"$metric\":\{\"value\":([^,}]+).*/\1/p")"
  sha="$(sed -nE 's/^# report_sha256 ([0-9a-f]+).*/\1/p' <<<"$out" | head -n 1)"
  if [[ -z "$value" ]]; then
    echo "pair.sh: no $metric in the output of $1/benchmark/run.sh" >&2
    exit 1
  fi
  echo "$value $sha"
}

# stats <values...> prints "median q1 q3" (linear interpolation).
stats() {
  printf '%s\n' "$@" | sort -g | awk '
    { v[NR] = $1 }
    function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "# pair.sh parent=$ref ($(git -C "$root" rev-parse --short "$ref")) workload=$workload metric=$metric pairs=$pairs seed=$seed seconds=$secs"
pvals=() cvals=() psha="" csha=""
wins=0 losses=0
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    read -r p ps < <(run "$parent" parent)
    read -r c cs < <(run "$root" change)
    order="parent,change"
  else
    read -r c cs < <(run "$root" change)
    read -r p ps < <(run "$parent" parent)
    order="change,parent"
  fi
  pvals+=("$p") cvals+=("$c")
  [[ " $psha " == *" $ps "* ]] || psha+=" $ps"
  [[ " $csha " == *" $cs "* ]] || csha+=" $cs"
  verdict="$(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? "win" : (c > p) ? "loss" : "tie" }')"
  [[ $verdict == win ]] && wins=$((wins + 1))
  [[ $verdict == loss ]] && losses=$((losses + 1))
  printf 'pair %2d (%s): parent=%s change=%s ratio=%s %s\n' "$i" "$order" "$p" "$c" \
    "$(awk -v p="$p" -v c="$c" 'BEGIN { printf "%.3f", c / p }')" "$verdict"
done

read -r pmed pq1 pq3 < <(stats "${pvals[@]}")
read -r cmed cq1 cq3 < <(stats "${cvals[@]}")
echo "# lower-is-better wins: change $wins, parent $losses, of $pairs pairs"
echo "# parent median=$pmed q1=$pq1 q3=$pq3"
echo "# change median=$cmed q1=$cq1 q3=$cq3"
awk -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" 'BEGIN {
  printf "# change/parent median ratio %.3f; medians apart by %.6g, parent interquartile spread %.6g\n", cm / pm, pm - cm, q3 - q1 }'
echo "# parent report_sha256:$psha"
echo "# change report_sha256:$csha"
echo "# result lines of every run: $runs/{parent,change}.jsonl"
