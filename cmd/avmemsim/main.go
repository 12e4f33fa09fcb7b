// Command avmemsim drives trace-driven AVMEM simulations: it
// regenerates the figures of the paper's evaluation (Middleware 2007,
// §4) and executes declarative scenario files (churn bursts, attack
// probes, monitor degradation, workload batches, assertions).
//
// Usage:
//
//	avmemsim -fig all                      # every figure, full scale
//	avmemsim -fig 9 -seed 7                # one figure
//	avmemsim -fig 2,5,11 -quick            # scaled-down quick pass
//	avmemsim -trace overnet.trace -fig 2   # use an archived trace
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
// Full scale means the paper's setting: a 1442-host, 7-day Overnet-like
// churn trace, 24-hour warmup, 5 runs × 50 messages per point.
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
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"avmem/internal/exp"
	"avmem/internal/scenario"
	"avmem/internal/stats"
	"avmem/internal/trace"
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
		"execution engine: 'sim' (virtual-time simulator) or 'memnet' (real nodes on a deterministic in-process network)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
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

type config struct {
	figs      map[string]bool
	seed      int64
	quick     bool
	tracePath string
	out       io.Writer
}

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
	fs := flag.NewFlagSet("avmemsim", flag.ContinueOnError)
	figFlag := fs.String("fig", "all", "comma-separated figure list (2..13) or 'all'")
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "scaled-down run (600 hosts, 8h warmup, 2x25 messages)")
	tracePath := fs.String("trace", "", "path to an avmem-trace file (default: synthesize Overnet-like)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	figs := map[string]bool{}
	if *figFlag == "all" {
		for _, f := range []string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"} {
			figs[f] = true
		}
	} else {
		for _, f := range strings.Split(*figFlag, ",") {
			figs[strings.TrimSpace(f)] = true
		}
	}

	cfg := config{figs: figs, seed: *seed, quick: *quick, tracePath: *tracePath, out: out}
	return runFigures(cfg)
}

func (c config) printf(format string, args ...any) {
	fmt.Fprintf(c.out, format, args...)
}

func (c config) loadTrace() (*trace.Trace, error) {
	if c.tracePath != "" {
		f, err := os.Open(c.tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	gen := trace.DefaultGenConfig(c.seed)
	if c.quick {
		gen.Hosts = 600
		gen.Epochs = 504
	}
	return trace.Generate(gen)
}

func (c config) worldConfig(tr *trace.Trace) exp.WorldConfig {
	wc := exp.WorldConfig{Seed: c.seed, Trace: tr}
	if c.quick {
		wc.ProtocolPeriod = 2 * time.Minute
	}
	return wc
}

func (c config) warmup() time.Duration {
	if c.quick {
		return 8 * time.Hour
	}
	return 24 * time.Hour
}

func (c config) batch(spec *exp.AnycastSpec) {
	if c.quick {
		spec.Runs, spec.PerRun = 2, 25
	}
}

func (c config) mbatch(spec *exp.MulticastSpec) {
	if c.quick {
		spec.Runs, spec.PerRun = 2, 25
	}
}

func runFigures(c config) error {
	start := time.Now()
	tr, err := c.loadTrace()
	if err != nil {
		return err
	}
	c.printf("# AVMEM evaluation — seed %d, %d hosts × %d epochs, warmup %v%s\n\n",
		c.seed, tr.Hosts(), tr.Epochs(), c.warmup(), map[bool]string{true: " (quick)", false: ""}[c.quick])

	need := func(f string) bool { return c.figs[f] }

	// Figures 2–4 and 7–9, 11–13 share one default world.
	var w *exp.World
	needDefault := need("2") || need("3") || need("4") || need("5") ||
		need("7") || need("8") || need("9") || need("10") ||
		need("11") || need("12") || need("13")
	if needDefault {
		w, err = exp.NewWorld(c.worldConfig(tr))
		if err != nil {
			return err
		}
		w.Warmup(c.warmup())
		c.printf("world ready: N*=%.0f, online now=%d, mean degree=%.1f (%.1fs)\n\n",
			w.NStar, len(w.OnlineHosts()), w.MeanDegree(), time.Since(start).Seconds())
	}

	if need("2") {
		printFig2(c, w)
	}
	if need("3") {
		printFig3(c, w)
	}
	if need("4") {
		printFig4(c, w)
	}
	if need("5") {
		printFig5(c, w)
	}
	if need("6") {
		if err := printFig6(c, tr); err != nil {
			return err
		}
	}
	if need("7") {
		if err := printFig7(c, w); err != nil {
			return err
		}
	}
	if need("8") {
		if err := printFig8(c, w); err != nil {
			return err
		}
	}
	var fig9 []exp.AnycastResult
	if need("9") {
		fig9, err = printFig9(c, w)
		if err != nil {
			return err
		}
	}
	if need("10") {
		if err := printFig10(c, tr, fig9); err != nil {
			return err
		}
	}
	if need("11") || need("12") || need("13") {
		if err := printFig11to13(c, w); err != nil {
			return err
		}
	}
	c.printf("total wall time: %.1fs\n", time.Since(start).Seconds())
	return nil
}

func printFig2(c config, w *exp.World) {
	snap := exp.SnapshotOverlay(w)
	c.printf("== Figure 2(a): online-node availability distribution (%d online) ==\n", snap.OnlineCount)
	c.printf("%-12s %s\n", "avail", "nodes")
	for i, n := range snap.AvailHistogram {
		c.printf("%-12.2f %d\n", float64(i)*0.05, n)
	}
	c.printf("\n== Figure 2(b,c): median sliver sizes per availability bucket ==\n")
	c.printf("%-12s %-12s %s\n", "avail", "HS-median", "VS-median")
	for i := 0; i < 10; i++ {
		c.printf("%-12.1f %-12s %s\n", float64(i)*0.1, fmtNaN(snap.HSMedian[i]), fmtNaN(snap.VSMedian[i]))
	}
	c.printf("\n")
}

func printFig3(c config, w *exp.World) {
	hs := exp.ScanHorizontalScaling(w)
	c.printf("== Figure 3: HS size vs candidate count (sublinearity ratio %.2f; <1 is sublinear) ==\n",
		hs.SublinearityRatio())
	// Bucket candidates into ranges of 50 for a compact table.
	buckets := map[int][]float64{}
	for _, p := range hs.Points {
		buckets[int(p.X)/50] = append(buckets[int(p.X)/50], p.Y)
	}
	c.printf("%-22s %-10s %s\n", "candidates-in-band", "nodes", "mean-HS-size")
	for b := 0; b < 12; b++ {
		ys, ok := buckets[b]
		if !ok {
			continue
		}
		c.printf("%-22s %-10d %.1f\n", fmt.Sprintf("[%d,%d)", b*50, (b+1)*50), len(ys), stats.Mean(ys))
	}
	c.printf("\n")
}

func printFig4(c config, w *exp.World) {
	deg := exp.ScanVSInDegree(w)
	c.printf("== Figure 4: incoming VS references per availability range ==\n")
	c.printf("%-12s %-16s %s\n", "avail", "incoming-VS-links", "online-nodes")
	for i := 0; i < 10; i++ {
		c.printf("%-12.1f %-16.0f %d\n", float64(i)*0.1, deg.PerBucket[i], deg.Population[i])
	}
	c.printf("\n")
}

func printFig5(c config, w *exp.World) {
	c.printf("== Figure 5: flooding attack — fraction of non-neighbors accepting ==\n")
	c.printf("%-12s %-14s %s\n", "avail", "cushion=0", "cushion=0.1")
	r0 := exp.FloodingAttack(w, 0)
	r1 := exp.FloodingAttack(w, 0.1)
	for i := 0; i < 10; i++ {
		c.printf("%-12.1f %-14s %s\n", float64(i)*0.1, fmtNaN(r0.PerBucket[i]), fmtNaN(r1.PerBucket[i]))
	}
	c.printf("overall: cushion=0 %.3f, cushion=0.1 %.3f\n\n", r0.Overall, r1.Overall)
}

func printFig6(c config, tr *trace.Trace) error {
	// Figure 6 needs an imperfect monitor: bounded error plus 20-minute
	// staleness, the regime the paper attributes rejections to.
	wc := c.worldConfig(tr)
	wc.MonitorErr = 0.05
	wc.MonitorStaleness = 20 * time.Minute
	w, err := exp.NewWorld(wc)
	if err != nil {
		return err
	}
	w.Warmup(c.warmup())
	c.printf("== Figure 6: legitimate rejection rate (noisy monitor ±0.05, 20m staleness) ==\n")
	c.printf("%-12s %-14s %s\n", "avail", "cushion=0", "cushion=0.1")
	r0 := exp.LegitimateRejection(w, 0)
	r1 := exp.LegitimateRejection(w, 0.1)
	for i := 0; i < 10; i++ {
		c.printf("%-12.1f %-14s %s\n", float64(i)*0.1, fmtNaN(r0.PerBucket[i]), fmtNaN(r1.PerBucket[i]))
	}
	c.printf("overall: cushion=0 %.3f, cushion=0.1 %.3f\n\n", r0.Overall, r1.Overall)
	return nil
}

func printFig7(c config, w *exp.World) error {
	c.printf("== Figure 7: range anycast MID → [0.85,0.95], hops CDF ==\n")
	c.printf("%-16s %-10s %-9s %-9s %-8s %s\n", "variant", "delivered", "ttl-exp", "dropped", "hops:", "cdf(1..6)")
	for _, spec := range exp.Fig7Variants() {
		c.batch(&spec)
		res, err := exp.RunAnycasts(w, spec)
		if err != nil {
			return err
		}
		cdf := res.HopsCDF()
		row := make([]string, 0, 6)
		for h := 1; h < len(cdf); h++ {
			row = append(row, fmt.Sprintf("%.2f", cdf[h]))
		}
		c.printf("%-16s %-10.2f %-9.2f %-9.2f %-8s %s\n", res.Name, res.FractionDelivered(),
			res.FractionTTLExpired(), res.FractionRetryExpired(), "", strings.Join(row, " "))
	}
	c.printf("\n")
	return nil
}

func printFig8(c config, w *exp.World) error {
	c.printf("== Figure 8: range anycast HIGH → {[0.85,0.95],[0.44,0.54],[0.15,0.25]} ==\n")
	c.printf("%-36s %s\n", "variant→target", "fraction-delivered")
	for _, spec := range exp.Fig8Variants() {
		c.batch(&spec)
		res, err := exp.RunAnycasts(w, spec)
		if err != nil {
			return err
		}
		c.printf("%-36s %.2f\n", res.Name, res.FractionDelivered())
	}
	c.printf("\n")
	return nil
}

func printFig9(c config, w *exp.World) ([]exp.AnycastResult, error) {
	c.printf("== Figure 9: retried-greedy anycast HIGH → [0.15,0.25] (AVMEM overlay) ==\n")
	results, err := runRetrySweep(c, w)
	if err != nil {
		return nil, err
	}
	printRetryTable(c, results)
	return results, nil
}

func printFig10(c config, tr *trace.Trace, fig9 []exp.AnycastResult) error {
	// The baseline is a SCAMP/CYCLON-like random overlay; those systems
	// maintain O(log N) views, so the consistent random predicate is
	// sized to 2·ln(N*) expected neighbors.
	degree := 2 * math.Log(tr.MeanOnline())
	w, err := exp.NewRandomWorld(c.worldConfig(tr), degree)
	if err != nil {
		return err
	}
	w.Warmup(c.warmup())
	c.printf("== Figure 10: retried-greedy anycast HIGH → [0.15,0.25] (random overlay, degree ≈ %.0f) ==\n", degree)
	results, err := runRetrySweep(c, w)
	if err != nil {
		return err
	}
	printRetryTable(c, results)
	if len(fig9) == len(results) && len(fig9) > 0 {
		c.printf("AVMEM vs random delivered fraction at retry=8: %.2f vs %.2f\n\n",
			fig9[2].FractionDelivered(), results[2].FractionDelivered())
	}
	return nil
}

func runRetrySweep(c config, w *exp.World) ([]exp.AnycastResult, error) {
	out := make([]exp.AnycastResult, 0, 4)
	for _, spec := range exp.Fig9Specs() {
		c.batch(&spec)
		res, err := exp.RunAnycasts(w, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func printRetryTable(c config, results []exp.AnycastResult) {
	c.printf("%-10s %-11s %-13s %-15s %s\n", "retries", "delivered", "ttl-expired", "retry-expired", "avg-latency")
	for _, r := range results {
		c.printf("%-10s %-11.2f %-13.2f %-15.2f %v\n",
			strings.TrimPrefix(r.Name, "retry="), r.FractionDelivered(),
			r.FractionTTLExpired(), r.FractionRetryExpired(), r.MeanLatency().Round(time.Millisecond))
	}
	c.printf("\n")
}

func printFig11to13(c config, w *exp.World) error {
	c.printf("== Figures 11–13: multicast latency / spam / reliability ==\n")
	c.printf("%-26s %-9s %-14s %-12s %-12s %s\n",
		"scenario", "entered", "p50-latency", "max-latency", "mean-spam", "mean-reliability")
	for _, spec := range exp.Fig11Specs() {
		c.mbatch(&spec)
		res, err := exp.RunMulticasts(w, spec)
		if err != nil {
			return err
		}
		lat := make([]float64, len(res.WorstLatencies))
		for i, l := range res.WorstLatencies {
			lat[i] = float64(l.Milliseconds())
		}
		p50 := time.Duration(stats.Percentile(lat, 50)) * time.Millisecond
		c.printf("%-26s %-9.2f %-14v %-12v %-12.3f %.3f\n",
			res.Name, frac(res.Entered, res.Sent), p50,
			res.MaxWorstLatency().Round(time.Millisecond),
			res.MeanSpamRatio(), res.MeanReliability())
	}
	c.printf("\n")
	return nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtNaN(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
