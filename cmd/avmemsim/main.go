// Command avmemsim drives trace-driven AVMEM simulations: it executes
// declarative scenario files (churn bursts, overlay and attack probes,
// monitor degradation, workload batches, assertions), among them the
// figures of the paper's evaluation (Middleware 2007, §4).
//
// Usage:
//
//	avmemsim run scenarios/paper/overnet.json     # Figs 2–5, 7–9, 11–13 at the
//	                                              # paper's scale, claims asserted
//	avmemsim run scenarios/churn-storm.json       # execute a scenario
//	avmemsim run -backend memnet scenarios/churn-storm.json
//	                                              # same scenario on the live runtime
//	avmemsim run -seeds 8 -parallel 4 scenarios/churn-storm.json
//	                                              # multi-seed sweep, 4 worlds at once
//	avmemsim run -metrics-addr :9090 -progress scenarios/mixed-workload.json
//	                                              # watch it live: /metrics, /healthz,
//	                                              # /debug/pprof + stderr progress line
//	avmemsim run -trace-ops out.trace.json scenarios/mixed-workload.json
//	                                              # causal op trace for Perfetto
//	avmemsim tracecheck out.trace.json            # schema-check an emitted trace
//	avmemsim validate scenarios/churn-storm.json  # check a scenario file
//	avmemsim validate -dir scenarios              # check every *.json in a tree
//	avmemsim fuzz -budget 60s -seed 1             # metamorphic fuzz campaign:
//	                                              # random worlds through every
//	                                              # invariant oracle, failures
//	                                              # minimized into scenarios/fuzz-corpus/
//
// `avmemsim run` exits non-zero when a scenario assertion fails; see
// internal/scenario for the spec format and scenarios/ for examples —
// scenario events cover the whole operation catalogue: anycast and
// multicast batches, range-casts, in-overlay aggregations, churn
// bursts, attack probes, monitor-noise ramps, and adversary onsets.
//
// Architecture: DESIGN.md §9 (deployment engines and the scenario
// layer).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"

	"avmem/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "avmemsim:", err)
		os.Exit(1)
	}
}

// runScenario executes a scenario file and renders its report. A failed
// assertion surfaces as an error so the process exits non-zero.
// With -seeds N > 1 the scenario is swept over N consecutive seeds
// (spec.Seed, spec.Seed+1, …) with up to -parallel worlds in flight and
// a mean/min/max aggregate report; the aggregate is identical for every
// -parallel value, including 1 (determinism per world, parallelism
// across worlds).
func runScenario(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("avmemsim run", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "suppress progress lines")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to sweep, starting at the spec's seed")
	parallel := fs.Int("parallel", 0, "worlds in flight at once for a multi-seed sweep (0 = GOMAXPROCS)")
	backend := fs.String("backend", scenario.BackendSim,
		"execution engine: 'sim' (virtual-time simulator) or 'memnet' (real nodes on the simulated network)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file, recording every allocation (go tool pprof -sample_index=alloc_objects; per-site counts are exact for objects of 16 bytes or more, a smaller pointer-free object is recorded only when it opens a new tiny block) and the live heap at the end of the run, the deployment included (-sample_index=inuse_space)")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	var of obsFlags
	fs.StringVar(&of.metricsAddr, "metrics-addr", "",
		"serve /metrics (Prometheus text), /healthz, and /debug/pprof on this address for the duration of the run (e.g. :9090)")
	fs.StringVar(&of.metricsOut, "metrics-out", "",
		"write the end-of-run metrics dump (Prometheus text, fully sorted) to this file ('-' = stderr)")
	fs.DurationVar(&of.metricsHold, "metrics-hold", 0,
		"keep serving -metrics-addr this long after the run completes, so scrapers can collect the final counters")
	fs.StringVar(&of.traceOps, "trace-ops", "",
		"write the causal op trace in Chrome trace-event format to this file (load in Perfetto; virtual-time axis)")
	fs.StringVar(&of.traceJSONL, "trace-jsonl", "",
		"write the causal op trace as JSON Lines (one span per line) to this file")
	fs.BoolVar(&of.progress, "progress", false,
		"print a periodic stderr line with virtual time, events processed, and events/sec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: avmemsim run [-q] [-backend sim|memnet] [-seeds N] [-parallel P] [-metrics-addr a] [-metrics-out f] [-metrics-hold d] [-trace-ops f] [-trace-jsonl f] [-progress] [-cpuprofile f] [-memprofile f] [-trace f] <scenario.json>")
	}
	stopProf, err := startProfiles(*cpuprofile, *memprofile, *tracefile)
	if err != nil {
		return err
	}
	defer stopProf()
	if *seeds < 1 {
		return fmt.Errorf("avmemsim run: -seeds must be >= 1, got %d", *seeds)
	}
	spec, err := scenario.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var log io.Writer = out
	if *quiet {
		log = nil
	}
	ob, err := startObs(of, os.Stderr)
	if err != nil {
		return err
	}
	opts := scenario.Options{Log: log, Backend: *backend}
	if ob != nil {
		// One registry/tracer serves the whole invocation; with
		// -seeds > 1 the counters aggregate across every world of the
		// sweep (instruments are atomic, so concurrent worlds are safe).
		opts.Metrics = ob.reg
		opts.OpTrace = ob.tracer
	}
	if *seeds > 1 {
		multi, err := scenario.RunMany(spec, scenario.SeedRange(spec.Seed, *seeds), *parallel, opts)
		if err != nil {
			ob.finish()
			return err
		}
		multi.WriteReport(out)
		if err := ob.finish(); err != nil {
			return err
		}
		if !multi.Passed() {
			return fmt.Errorf("scenario %q: %d assertion failure(s) across %d seeds",
				multi.Name, len(multi.Failures), *seeds)
		}
		return nil
	}
	res, err := scenario.Run(spec, opts)
	if err != nil {
		ob.finish()
		return err
	}
	res.WriteReport(out)
	if err := ob.finish(); err != nil {
		return err
	}
	if !res.Passed() {
		return fmt.Errorf("scenario %q: %d assertion(s) failed", res.Name, len(res.Failures))
	}
	return nil
}

// validateScenario checks scenario files without building the world.
// Unlike `run`, it reports every spec error at once — each with its key
// path and source line — and exits non-zero with a summary count. With
// -dir, every *.json under the directory is validated (the fuzz corpus
// and the checked-in scenario library in one sweep).
func validateScenario(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("avmemsim validate", flag.ContinueOnError)
	dir := fs.String("dir", "", "validate every *.json under this directory (recursively), in addition to any positional files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if *dir != "" {
		found, err := scenarioFiles(*dir)
		if err != nil {
			return err
		}
		if len(found) == 0 {
			return fmt.Errorf("validate: no *.json files under %s", *dir)
		}
		paths = append(paths, found...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("usage: avmemsim validate [-dir directory] [scenario.json ...]")
	}
	total, bad := 0, 0
	for _, path := range paths {
		spec, problems := scenario.LoadFileAll(path)
		if len(problems) == 0 {
			fmt.Fprintf(out, "scenario %q valid: %d event(s), %d assertion(s)\n",
				spec.Name, len(spec.Events), len(spec.Assertions))
			continue
		}
		total += len(problems)
		bad++
		for _, p := range problems {
			fmt.Fprintf(out, "%s: %s\n", path, p)
		}
	}
	if total > 0 {
		return fmt.Errorf("validate: %d error(s) in %d of %d file(s)", total, bad, len(paths))
	}
	return nil
}

// scenarioFiles walks dir and returns every *.json file under it in
// lexical order.
func scenarioFiles(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// usage is what avmemsim prints when it is given no subcommand.
const usage = `usage: avmemsim <command> [flags] [args]

commands:
  run         execute a scenario file and report its metrics and assertions
  validate    check scenario files without building a world
  tracecheck  schema-check an emitted op trace
  fuzz        run a metamorphic fuzz campaign over generated scenarios

The paper's §4 figures are the scenario files under scenarios/paper/.`

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenario(args[1:], out)
		case "validate":
			return validateScenario(args[1:], out)
		case "tracecheck":
			return checkTrace(args[1:], out)
		case "fuzz":
			return fuzzScenarios(args[1:], out)
		}
	}
	return errors.New(usage)
}
