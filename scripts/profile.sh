#!/usr/bin/env bash
# profile.sh — profile a scenario run end to end.
#
# Builds cmd/avmemsim and executes one scenario twice, dropping the
# artifacts under profiles/: once with -cpuprofile and -trace, once with
# -memprofile. This is the deployment-engine view: world build,
# warmup, drivers, workload — everything `avmemsim run` does, and what
# the repository benchmark (benchmark/README.md) times end to end.
#
# Usage:
#   scripts/profile.sh                              # scenarios/mixed-workload.json
#   scripts/profile.sh scenarios/churn-storm.json   # another scenario
#   scripts/profile.sh scenarios/mixed-workload.json -backend memnet
#                                                   # extra run flags pass through
#
# The heap profile records every allocation (-memprofile sets
# runtime.MemProfileRate = 1 before the run), not 512 KB samples: its
# per-site counts are exact for objects of 16 bytes or more, while a
# smaller pointer-free object is recorded only when it opens a new tiny
# block (MemStats.Mallocs counts them all). A claim about allocations
# quotes them. That
# recording slows malloc down and would fill a CPU profile of the same
# run with stack unwinding (runtime.tracebackPCs, runtime.pcvalue), so
# the heap profile comes from a run of its own. Both runs are the same
# deterministic simulation; the first one's report is printed.
#
# Inspect with:
#   go tool pprof -top profiles/cpu.pprof
#   go tool pprof -top -sample_index=alloc_objects profiles/mem.pprof   # allocation counts per site (exact from 16 bytes)
#   go tool pprof -top -sample_index=alloc_space profiles/mem.pprof
#   go tool trace profiles/exec.trace
set -euo pipefail
cd "$(dirname "$0")/.."

scenario="${1:-scenarios/mixed-workload.json}"
shift $(( $# > 0 ? 1 : 0 ))

mkdir -p profiles
go build -o profiles/avmemsim ./cmd/avmemsim
profiles/avmemsim run -q \
  -cpuprofile profiles/cpu.pprof \
  -trace profiles/exec.trace \
  "$@" "${scenario}"
profiles/avmemsim run -q \
  -memprofile profiles/mem.pprof \
  "$@" "${scenario}" >/dev/null
echo "wrote profiles/{cpu,mem}.pprof profiles/exec.trace" >&2
echo "try: go tool pprof -top profiles/cpu.pprof" >&2
