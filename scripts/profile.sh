#!/usr/bin/env bash
# profile.sh — profile a scenario run end to end.
#
# Builds cmd/avmemsim and executes one scenario with the profiler flags
# (-cpuprofile / -memprofile / -trace) turned on, dropping the artifacts
# under profiles/. This is the deployment-engine view: world build,
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
# runtime.MemProfileRate = 1 before the run), so its per-site counts are
# exact, not 512 KB samples: a claim about allocations quotes them. That
# recording slows the run down, so the CPU profile of the same run
# over-weights malloc; take CPU profiles from a run without -memprofile.
#
# Inspect with:
#   go tool pprof -top profiles/cpu.pprof
#   go tool pprof -top -sample_index=alloc_objects profiles/mem.pprof   # exact allocation counts per site
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
  -memprofile profiles/mem.pprof \
  -trace profiles/exec.trace \
  "$@" "${scenario}"
echo "wrote profiles/{cpu,mem}.pprof profiles/exec.trace" >&2
echo "try: go tool pprof -top profiles/cpu.pprof" >&2
