// Command benchmark is the repository's benchmark harness: four
// fixed-work workloads driven end to end through scenario.Run, host-hour
// cost and the paper's §4 outcome figures as end-to-end metrics, and a
// per-layer budget - CPU shares from a profile, phase spans stamped from
// outside, registry counts, and layer kernels - from a separate traced
// run. README.md documents every workload and metric; BENCHMARK.json at
// the repository root is the contract the driver runs it under:
//
//	bash benchmark/run.sh --workload maint-2k-sim --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report (environment stamp, quartiles, report digest,
// spans). The exit status is non-zero when a correctness check fails.
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"avmem/internal/obs"
	"avmem/internal/scenario"
	"avmem/internal/trace"
)

//go:embed workloads/*.json
var workloadFS embed.FS

// workload is one row of the harness table: a spec file and the engine
// it runs on. There are no other knobs.
type workload struct {
	name    string
	spec    string // workloads/<spec>.json
	backend string
	shards  int
	// reps caps the timed reps of a run; --seconds may stop it sooner.
	reps int
	// par2 adds one ShardThreads: 2 rep to the traced run and reports
	// its speed-up over the fastest serial rep (informational).
	par2 bool
	why  string
}

var workloads = []workload{
	{name: "maint-2k-sim", spec: "maint-2k", backend: scenario.BackendSim, reps: 12,
		why: "2000 hosts, at least 95% background maintenance (shuffle, discovery, hashing) on the sim engine: where a shuffle/core/ids change must show"},
	{name: "maint-2k-memnet", spec: "maint-2k", backend: scenario.BackendMemnet, reps: 6,
		why: "the same spec on 2000 real node.Node agents over memnet: a Cyclon-only win must not move it, a core/ids win must move both"},
	{name: "maint-10k-sim", spec: "maint-10k", backend: scenario.BackendSim, shards: 8, reps: 3, par2: true,
		why: "the same event shape at 10000 hosts on 8 shard heaps: working set beyond the pair-hash caches, view-size-growing discovery, GC"},
	{name: "ops-600-sim", spec: "ops-600", backend: scenario.BackendSim, reps: 14,
		why: "600 audited hosts, 18% Byzantine, dense aggregate/anycast/rangecast/multicast load: ops, agg, audit and the event queue, not maintenance"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fleetSeed generates every workload's churn trace. The fleet - which
// hosts exist, how available each is, when it is up - is one fixed
// world per workload, the way the paper evaluates on the one Overnet
// trace; --seed drives everything else (shuffle partners, latencies,
// initiator picks, the adversary cohort). Seeding the trace too makes
// the population itself the dominant source of run-to-run variation
// (total events move by +-25% between traces at 600 hosts, +-3% between
// seeds on one trace), which would drown the costs this benchmark is
// for.
const fleetSeed = 1

// traceDir is where a run writes its workload's fleet trace: inside the
// checkout, next to the build outputs.
const traceDir = ".bench_build/traces"

// prepare loads a workload's embedded spec, applies the run's seed, and
// points the fleet at the fixed churn trace, written under dir in the
// avmem-trace format scenario.Run reads.
func prepare(w workload, seed int64, dir string) (*scenario.Spec, error) {
	data, err := workloadFS.ReadFile("workloads/" + w.spec + ".json")
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", w.spec, err)
	}
	spec.Seed = seed
	if err := writeFleetTrace(spec, filepath.Join(dir, w.spec+".trace")); err != nil {
		return nil, err
	}
	return spec, nil
}

// writeFleetTrace synthesizes the spec's fleet (hosts and days, as
// scenario.Run would) from fleetSeed, archives it at path, and makes the
// spec load it.
func writeFleetTrace(spec *scenario.Spec, path string) error {
	gen := trace.DefaultGenConfig(fleetSeed)
	gen.Hosts = spec.Fleet.Hosts
	gen.Epochs = int(spec.Fleet.Days * 24 * 3)
	tr, err := trace.Generate(gen)
	if err != nil {
		return fmt.Errorf("fleet trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	spec.Fleet.Trace = path
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "scenario seed (overrides the spec's)")
	seconds := fs.Int("seconds", 30, "time budget of the run; reps stop when the next one would not fit")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	onlyKernels := fs.Bool("kernels", false, "run only the layer kernels, at full sampling (5 samples of 0.3 s each)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One thread runs Go code. Every workload simulates on one goroutine,
	// so all a second P adds is the garbage collector's background
	// workers - and the guest this benchmark is run on gets about 1.3
	// cores of host time when both of its vCPUs are busy (and at times
	// only one): with the collector beside it the simulating thread is
	// throttled by an amount that depends on the host's other tenants.
	// With one P the collector takes its share of the same thread, and a
	// run measures the program, not the hypervisor's scheduler.
	runtime.GOMAXPROCS(1)
	if *onlyKernels {
		vals, err := runKernels(5, 300*time.Millisecond)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printEnv(stdout)
		for _, k := range kernels {
			fmt.Fprintf(stdout, "%-32s %12.4f %s\n", k.name, vals[k.name], k.unit)
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	spec, err := prepare(w, *seed, traceDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printEnv(stdout)
	cfg := runConfig{budget: time.Duration(*seconds) * time.Second, kernelSamples: 3, kernelMin: 60 * time.Millisecond, refDiv: 1}
	res, err := measure(w, spec, cfg, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printEnv stamps the recording box next to the numbers.
func printEnv(out io.Writer) {
	commit := "unknown" // a driver checkout is not a git repository
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# env nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct bool `json:"correct"`
	// Attempted counts the management operations the measured reps asked
	// for; Failed counts those that were never initiated (no eligible
	// initiator). An initiated anycast that the overlay then fails to
	// deliver is a simulated outcome, reported by anycast_delivery_rate,
	// not a failed operation of the program.
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig is how long a run may take and how its kernel pass samples.
type runConfig struct {
	budget        time.Duration // --seconds
	kernelSamples int
	kernelMin     time.Duration // minimum length of one kernel sample
	refDiv        int           // reference-kernel samples do 1/refDiv of their work (ref.go)
}

// kernelBudget is the time a traced run sets aside for its kernel pass:
// the kernels' state (filling 2000 CYCLON views, warming 2000 shuffle
// agents) plus a sizing probe and the samples of each.
func (c runConfig) kernelBudget() time.Duration {
	return 1500*time.Millisecond + time.Duration(len(kernels)*(c.kernelSamples+1))*c.kernelMin
}

// setupProbes caps the set-up probes of an end-to-end run; a twentieth
// of the run's budget caps their time.
const setupProbes = 16

// session is one invocation of the harness on one workload: what it
// runs, its time budget, and the reps done so far.
type session struct {
	w    workload
	spec *scenario.Spec
	opts scenario.Options // the workload's engine, untraced
	cfg  runConfig
	hh   float64 // host-hours of one rep
	out  io.Writer
	res  *result

	start   time.Time
	longest time.Duration // slowest rep so far, set-up and bracket included
	reps    []*rep        // every rep whose report digest must agree

	// ref, when set, brackets every rep with reference-kernel samples
	// (ref.go); lastRef is the sample that closed the previous rep and
	// opens the next.
	ref     *refKernel
	lastRef refSample
}

// measure runs one workload within its budget and returns the result
// line. The human-readable report goes to out as it is produced.
func measure(w workload, spec *scenario.Spec, cfg runConfig, traced bool, out io.Writer) (*result, error) {
	s := &session{
		w: w, spec: spec, cfg: cfg, out: out,
		opts:  scenario.Options{Backend: w.backend, Shards: w.shards},
		hh:    hostHours(spec),
		res:   &result{Metrics: map[string]value{}},
		start: time.Now(),
	}
	fmt.Fprintf(out, "# workload=%s spec=%s backend=%s shards=%d seed=%d trace=%v hosts=%d host_hours=%.0f ops_per_rep=%d\n",
		w.name, w.spec, w.backend, w.shards, spec.Seed, traced, spec.Fleet.Hosts, s.hh, opsAttempted(spec))
	run := s.endToEnd
	if traced {
		run = s.traced
	}
	if err := run(); err != nil {
		return nil, err
	}
	s.verdict()
	return s.res, nil
}

// rep runs the spec once more under o and records it.
func (s *session) rep(o scenario.Options) (*rep, error) {
	t0 := time.Now()
	if s.ref != nil && s.lastRef == (refSample{}) {
		s.lastRef = s.ref.sample()
	}
	r, err := runRep(s.spec, o)
	if err != nil {
		return nil, err
	}
	if s.ref != nil {
		after := s.ref.sample()
		r.speed = s.ref.speedBetween(s.lastRef, after)
		s.lastRef = after
	}
	s.longest = max(s.longest, time.Since(t0))
	s.reps = append(s.reps, r)
	return r, nil
}

// fits reports whether n more reps (plus reserve) fit in the budget,
// judged by the longest rep so far with a 10% margin.
func (s *session) fits(n int, reserve time.Duration) bool {
	need := time.Duration(float64(s.longest)*1.1)*time.Duration(n) + reserve
	return time.Since(s.start)+need <= s.cfg.budget
}

// verdict applies the correctness checks: every assertion of every rep
// held, the report is byte-identical across reps (the engines are
// deterministic per seed, with or without observability armed), and
// every metric is a finite number.
func (s *session) verdict() {
	res, out := s.res, s.out
	res.Correct = true
	var report bytes.Buffer
	s.reps[0].res.WriteReport(&report)
	for _, line := range strings.Split(strings.TrimSpace(report.String()), "\n") {
		fmt.Fprintf(out, "#   %s\n", line)
	}
	fmt.Fprintf(out, "# report_sha256 %s\n", s.reps[0].digest)
	asked := opsAttempted(s.spec)
	for i, r := range s.reps {
		for _, f := range r.res.Failures {
			res.Correct = false
			fmt.Fprintf(out, "# FAIL rep %d assertion: %s\n", i, f)
		}
		if r.digest != s.reps[0].digest {
			res.Correct = false
			fmt.Fprintf(out, "# FAIL rep %d report_sha256 %s differs from rep 0\n", i, r.digest)
		}
		res.Attempted += asked
		res.Failed += asked - r.sent
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			fmt.Fprintf(out, "# FAIL metric %s is %v\n", name, v.Value)
			res.Metrics[name] = value{0, v.Unit}
		}
	}
}

// endToEnd is the --trace 0 run: timed reps until the workload's cap or
// the budget, each bracketed by reference-kernel samples, then the
// end-to-end metrics - over the reps, the median of the faster half for
// the three times (taken at reference speed, see ref.go) and the median
// for the allocation counters - and the (identical) values of any rep
// for what is simulated.
func (s *session) endToEnd() error {
	ref, err := newRefKernel(s.cfg.refDiv)
	if err != nil {
		return err
	}
	ref.work() // warm its code and data before the first sample
	s.ref = ref

	// Set-up probes. A workload whose rep takes 9 s sets up three times
	// in a run, the first time on a cold heap - too few for a steady
	// setup_s. So the run first sets the same fleet up several more
	// times: the spec with no warm-up and only its first (control) event
	// builds the identical deployment and then simulates next to nothing.
	// The probes share one pair of brackets.
	probe := *s.spec
	probe.Warmup, probe.Events, probe.Assertions = 0, s.spec.Events[:1], nil
	var probes []time.Duration
	before := ref.sample()
	for t0 := time.Now(); len(probes) < setupProbes && time.Since(t0) < s.cfg.budget/20; {
		r, err := runRep(&probe, s.opts)
		if err != nil {
			return err
		}
		probes = append(probes, r.setup)
	}
	s.lastRef = ref.sample()
	probeSpeed := ref.speedBetween(before, s.lastRef).wall

	var timed []*rep
	// At least two timed reps, so the digest check compares something.
	for len(timed) < s.w.reps && (len(timed) < 2 || s.fits(1, 0)) {
		r, err := s.rep(s.opts)
		if err != nil {
			return err
		}
		timed = append(timed, r)
	}
	res, hh, out := s.res, s.hh, s.out
	series, raw := map[string][]float64{}, map[string][]float64{}
	for _, d := range probes {
		raw["setup_s"] = append(raw["setup_s"], d.Seconds())
		series["setup_s"] = append(series["setup_s"], d.Seconds()/probeSpeed)
	}
	fmt.Fprintf(out, "# set-up probes n=%d median_ms=%.2f speed_wall=%.4f\n", len(probes), 1e3*median(raw["setup_s"]), probeSpeed)
	for i, r := range timed {
		fmt.Fprintf(out, "# rep %d setup_ms=%.2f wall_ms=%.1f cpu_ms=%.1f alloc_mb=%.1f allocs=%d speed_wall=%.4f speed_cpu=%.4f\n",
			i, ms(r.setup), ms(r.wall), ms(r.cpu), float64(r.bytes)/(1<<20), r.allocs, r.speed.wall, r.speed.cpu)
		raw["setup_s"] = append(raw["setup_s"], r.setup.Seconds())
		raw["wall_ms_per_host_hour"] = append(raw["wall_ms_per_host_hour"], ms(r.wall)/hh)
		raw["cpu_ms_per_host_hour"] = append(raw["cpu_ms_per_host_hour"], ms(r.cpu)/hh)
		series["setup_s"] = append(series["setup_s"], r.setup.Seconds()/r.speed.wall)
		series["wall_ms_per_host_hour"] = append(series["wall_ms_per_host_hour"], ms(r.wall)/hh/r.speed.wall)
		series["cpu_ms_per_host_hour"] = append(series["cpu_ms_per_host_hour"], ms(r.cpu)/hh/r.speed.cpu)
		series["alloc_mb_per_host_hour"] = append(series["alloc_mb_per_host_hour"], float64(r.bytes)/(1<<20)/hh)
		series["allocs_per_host_hour"] = append(series["allocs_per_host_hour"], float64(r.allocs)/hh)
	}
	sim := outcomes(timed[0].res.Metrics)
	for _, m := range endToEnd {
		var v float64
		switch {
		case series[m.Name] != nil:
			vals := series[m.Name]
			v = median(vals)
			if raw[m.Name] != nil { // a time
				v = lowerHalfMedian(vals)
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(out, "# %-24s %.6g %s (min=%.6g q1=%.6g median=%.6g q3=%.6g n=%d)\n",
				m.Name, v, m.Unit, slices.Min(vals), q1, median(vals), q3, len(vals))
			if rv := raw[m.Name]; rv != nil {
				fmt.Fprintf(out, "# %-24s %.6g %s as measured (min=%.6g)\n", "  "+m.Name, median(rv), m.Unit, slices.Min(rv))
			}
		case m.Name == "peak_rss_mb":
			v = peakRSSMB() - refTableBytes/(1<<20)
			fmt.Fprintf(out, "# %-24s %.6g %s (process VmHWM less the reference kernel's table)\n", m.Name, v, m.Unit)
		default:
			v = sim[m.Name]
			fmt.Fprintf(out, "# %-24s %.6g %s (simulated, exact per seed)\n", m.Name, v, m.Unit)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	return nil
}

// outcomes derives the simulated end-to-end metrics from a run's
// Result.Metrics. Dissemination folds flood multicasts and range-casts,
// weighting each family by presence: coverage is the mean delivered
// share of the eligible population, and the useful fraction is coverage
// over coverage plus spam (out-of-range receptions per eligible node) -
// the share of receptions that were wanted. It stays defined, and 1,
// when an engine records no spam at all.
func outcomes(m map[string]float64) map[string]float64 {
	var cover, spam, fams float64
	if v, ok := m["multicast_reliability"]; ok {
		cover, spam, fams = cover+v, spam+m["multicast_spam_ratio"], fams+1
	}
	if v, ok := m["rangecast_coverage"]; ok {
		cover, spam, fams = cover+v, spam+m["rangecast_spam_ratio"], fams+1
	}
	out := map[string]float64{
		"anycast_delivery_rate": m["anycast_delivery_rate"],
		"anycast_mean_hops":     m["anycast_mean_hops"],
	}
	if fams > 0 {
		out["dissem_coverage"] = cover / fams
		out["dissem_useful_frac"] = cover / (cover + spam)
	}
	return out
}

// traced is the --trace 1 run: untraced baseline reps, then reps with
// the obs registry and op tracer armed, all under one CPU profile; then
// the optional ShardThreads: 2 rep and the kernels.
func (s *session) traced() error {
	w, spec, opts, cfg, res, out := s.w, s.spec, s.opts, s.cfg, s.res, s.out
	after := 1 // reps still owed once the baseline is done
	if w.par2 {
		after++
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	defer pprof.StopCPUProfile() // a no-op once stopped below
	// Up to three baseline reps and up to two traced ones. The traced
	// overhead compares the fastest of each (see bestOf); the counts and
	// spans come from the first traced rep.
	var baseWalls, tracedWalls []float64
	for len(baseWalls) < 3 && (len(baseWalls) < 1 || s.fits(after+1, cfg.kernelBudget())) {
		r, err := s.rep(opts)
		if err != nil {
			return err
		}
		baseWalls = append(baseWalls, ms(r.wall))
	}
	var tr *rep
	var reg *obs.Registry
	var tracer *obs.Tracer
	for len(tracedWalls) < 2 && (tr == nil || s.fits(after, cfg.kernelBudget())) {
		topts := opts
		topts.Metrics, topts.OpTrace = obs.NewRegistry(), obs.NewTracer(0)
		r, err := s.rep(topts)
		if err != nil {
			return err
		}
		tracedWalls = append(tracedWalls, ms(r.wall))
		if tr == nil {
			tr, reg, tracer = r, topts.Metrics, topts.OpTrace
		}
	}
	pprof.StopCPUProfile()

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := cpuShares(samples)
	for _, l := range cpuLayers {
		res.Metrics[l+".cpu_share"] = value{shares[l], "ratio"}
	}

	spans := phaseSpans(spec, tr)
	for _, s := range spans {
		fmt.Fprintf(out, "# span rep=%d name=%s start_ms=%.3f end_ms=%.3f ops=%d\n",
			len(baseWalls), s.name, ms(s.start), ms(s.end), s.ops)
	}
	for name, v := range spanValues(spec, tr, spans) {
		res.Metrics[name] = v
	}

	counts := promTotals(reg)
	events := counts["sim_events_total"]
	spanCount := float64(len(tracer.Snapshot())) + float64(tracer.Dropped())
	m := tr.res.Metrics
	vals := map[string]float64{
		"sim.events_per_host_hour":     events / s.hh,
		"sim.events_per_s":             events / tr.wall.Seconds(),
		"ops.anycast.delivered":        counts["ops_anycast_delivered_total"],
		"ops.multicast.delivered":      counts["ops_multicast_delivered_total"],
		"ops.rangecast.delivered":      counts["ops_rangecast_delivered_total"],
		"ops.agg.accuracy":             m["agg_accuracy"],
		"ops.agg.partial_accept_ratio": ratio(counts["ops_agg_results_total"], counts["ops_agg_rejected_partials_total"]),
		"ops.agg.forgery_rejected":     counts["ops_agg_forgery_rejected_total"],
		"ops.dissem.useful_ratio": ratio(
			counts["ops_multicast_delivered_total"]+counts["ops_rangecast_delivered_total"],
			counts["ops_multicast_spam_total"]+counts["ops_rangecast_spam_total"]),
		"audit.suspicions":         counts["audit_suspicions_total"],
		"audit.evictions":          counts["audit_evictions_total"],
		"core.mean_sliver_size":    m["mean_sliver_size"],
		"core.max_sliver_size":     m["max_sliver_size"],
		"obs.spans_recorded":       spanCount,
		"obs.traced_overhead_frac": slices.Min(tracedWalls)/slices.Min(baseWalls) - 1,
	}
	for _, d := range countMetrics {
		v, ok := vals[d.Name]
		if !ok {
			panic("benchmark: count metric declared but not computed: " + d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	fmt.Fprintf(out, "# reps baseline=%d traced=%d profile_samples=%d baseline_wall_ms=%.1f traced_wall_ms=%.1f (fastest of each)\n",
		len(baseWalls), len(tracedWalls), len(samples), slices.Min(baseWalls), slices.Min(tracedWalls))

	if w.par2 {
		if s.fits(1, cfg.kernelBudget()) {
			popts := opts
			popts.ShardThreads = 2
			// The one rep that needs a second thread to mean anything.
			prev := runtime.GOMAXPROCS(2)
			// Not through s.rep: the thread-parallel engine follows a
			// different canonical order, so its digest legitimately differs.
			pr, err := runRep(spec, popts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# sim.par2_speedup %.4f ratio (fastest serial rep / one ShardThreads=2 rep; informational)\n",
				slices.Min(baseWalls)/ms(pr.wall))
		} else {
			fmt.Fprintf(out, "# sim.par2_speedup skipped: no time left in the budget\n")
		}
	}

	kv, err := runKernels(cfg.kernelSamples, cfg.kernelMin)
	if err != nil {
		return err
	}
	for _, k := range kernels {
		res.Metrics[k.name] = value{kv[k.name], k.unit}
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "# %-32s %.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return nil
}

// ratio returns useful/(useful+wasted), 0 when nothing happened.
func ratio(useful, wasted float64) float64 {
	if useful+wasted == 0 {
		return 0
	}
	return useful / (useful + wasted)
}

// span is one phase of a rep, timed between two progress lines.
type span struct {
	name       string
	start, end time.Duration // offsets from the start of the rep's Run
	ops        int
}

// phaseSpans cuts a rep into set-up, warm-up and one span per event.
// An event's span runs from the previous progress line to its own, so
// it covers the virtual time the engine advanced to reach the event
// (background maintenance included) and the event itself. The first
// event's span is the warm-up: no workload spec starts with a batch.
func phaseSpans(spec *scenario.Spec, r *rep) []span {
	t0 := r.marks[0].at.Add(-r.setup)
	off := func(i int) time.Duration { return r.marks[i].at.Sub(t0) }
	spans := []span{
		{name: "scenario.setup", start: 0, end: off(0)},
		{name: "exp.warmup", start: off(0), end: off(1)},
	}
	for i := 1; i < len(spec.Events); i++ {
		e := &spec.Events[i]
		spans = append(spans, span{name: eventKind(e), start: off(i), end: off(i + 1), ops: batchCount(e)})
	}
	return spans
}

// eventKind names an event's span after the layer entry point it
// drives.
func eventKind(e *scenario.Event) string {
	switch {
	case e.AnycastBatch != nil:
		return "ops.anycast"
	case e.MulticastBatch != nil:
		return "ops.multicast"
	case e.Rangecast != nil:
		return "ops.rangecast"
	case e.Aggregate != nil:
		return "ops.aggregate"
	}
	return "scenario.control"
}

// spanValues folds spans into the span metrics. A family the workload
// never runs reports 0.
func spanValues(spec *scenario.Spec, r *rep, spans []span) map[string]value {
	wall := map[string]time.Duration{}
	ops := map[string]int{}
	for _, s := range spans {
		wall[s.name] += s.end - s.start
		ops[s.name] += s.ops
	}
	warmHH := float64(spec.Fleet.Hosts) * (spec.Warmup.D() + spec.Events[0].At.D()).Hours()
	out := map[string]value{
		"scenario.setup_ms":           {ms(r.setup), "ms"},
		"exp.warmup_ms_per_host_hour": {ms(wall["exp.warmup"]) / warmHH, "ms"},
	}
	for _, fam := range []string{"anycast", "multicast", "rangecast", "aggregate"} {
		v := 0.0
		if n := ops["ops."+fam]; n > 0 {
			v = float64(wall["ops."+fam].Microseconds()) / float64(n)
		}
		out["ops."+fam+".wall_us_per_op"] = value{v, "us"}
	}
	return out
}

// promTotals reads every counter and gauge of the registry, summing
// labeled instances into their family.
func promTotals(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = reg.WritePrometheus(&buf)
	totals := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		totals[name] += v
	}
	return totals
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lowerHalfMedian is the median of the faster half of v (the smaller
// ceil(n/2) values): the estimator for the three time metrics. What
// disturbs a rep after its speed correction only adds time - a burst of
// neighbour load that its brackets missed, page faults on a heap the
// previous collection has just shrunk - while a bracket that caught a
// burst the rep did not makes one rep look too fast, so the minimum is
// not safe either. Over four sets of ten runs per workload it spread no
// more between runs than the plain median on wall and CPU, and a third
// as much on set-up, which is hit by 30-50% on about a third of the reps.
func lowerHalfMedian(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s[:(len(s)+1)/2])
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the method the driver uses).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN() // reported as a failed run: the metric is required
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
