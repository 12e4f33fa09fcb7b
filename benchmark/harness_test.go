package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"avmem/internal/scenario"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadSpecs loads and validates every workload spec through the
// harness's own path, fleet trace included.
func TestWorkloadSpecs(t *testing.T) {
	dir := t.TempDir()
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		spec, err := prepare(w, 2, dir)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if spec.Seed != 2 || spec.Fleet.Trace == "" {
			t.Errorf("%s: seed %d trace %q: the run's seed and the fleet trace were not applied", w.name, spec.Seed, spec.Fleet.Trace)
		}
		if spec.Description == "" || len(spec.Assertions) == 0 {
			t.Errorf("%s: spec needs a description and assertions", w.name)
		}
		if batchCount(&spec.Events[0]) != 0 {
			t.Errorf("%s: the first event is a batch; its span is reported as warm-up", w.name)
		}
		if hostHours(spec) <= 0 || opsAttempted(spec) == 0 {
			t.Errorf("%s: host-hours %v, ops %d", w.name, hostHours(spec), opsAttempted(spec))
		}
	}
}

// TestBenchmarkJSON checks the contract file at the repository root
// against the harness tables, name by name.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "bash benchmark/run.sh" || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, harness %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
	}
	names := map[string]bool{}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, harness reports %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if !nameRE.MatchString(m.Name) || names[m.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, m.Name)
			}
			names[m.Name] = true
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: listed %+v, harness %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: %s bound %v, harness %v (must be in (0, 0.25])", kind, m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if !names["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// testSpec is a 60-host scenario with one batch of every family.
func testSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	minute := func(m int) scenario.Duration { return scenario.Duration(time.Duration(m) * time.Minute) }
	floor := 0.0
	spec := &scenario.Spec{
		Name:   "harness-test",
		Fleet:  scenario.Fleet{Hosts: 60, Days: 1, ProtocolPeriod: minute(2)},
		Warmup: scenario.Duration(2 * time.Hour),
		Events: []scenario.Event{
			{At: 0, ChurnBurst: &scenario.ChurnBurst{Fraction: 0.2, Duration: minute(10)}},
			{At: minute(1), AnycastBatch: &scenario.AnycastBatch{Count: 20, BandHi: 1.01, TargetLo: 0.5, TargetHi: 1}},
			{At: minute(3), MulticastBatch: &scenario.MulticastBatch{Count: 5, BandHi: 1.01, TargetLo: 0.5, TargetHi: 1}},
			{At: minute(5), Rangecast: &scenario.RangecastBatch{Count: 5, BandHi: 1.01, TargetLo: 0.5, TargetHi: 1}},
			{At: minute(7), Aggregate: &scenario.AggregateBatch{Count: 3, BandHi: 1.01, TargetLo: 0.5, TargetHi: 1}},
		},
		Assertions: []scenario.Assertion{{Metric: "anycast_delivery_rate", Min: &floor}},
	}
	spec.Seed = 3
	if err := writeFleetTrace(spec, t.TempDir()+"/fleet.trace"); err != nil {
		t.Fatal(err)
	}
	return spec
}

var testConfig = runConfig{budget: time.Second, kernelSamples: 1, kernelMin: time.Millisecond, refDiv: 50}

// TestHarnessPath runs the whole harness on the 60-host spec: timed
// reps, the digest check, the traced rep with its profile,
// spans, counts and kernels, and the result line.
func TestHarnessPath(t *testing.T) {
	w := workload{name: "harness-test", spec: "harness-test", backend: scenario.BackendSim, reps: 3, par2: true, shards: 2}
	spec := testSpec(t)
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		var report bytes.Buffer
		res, err := measure(w, spec, testConfig, tc.traced, &report)
		if err != nil {
			t.Fatalf("traced=%v: %v", tc.traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.Attempted%opsAttempted(spec) != 0 {
			t.Errorf("traced=%v: correct %v attempted %d failed %d\n%s", tc.traced, res.Correct, res.Attempted, res.Failed, report.String())
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("traced=%v: %d metrics, want %d", tc.traced, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or in unit %q, want %q", tc.traced, d.Name, v.Unit, d.Unit)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
			t.Errorf("result line has keys %v (%v), want correct, attempted, failed, metrics", back, err)
		}
		if !strings.Contains(report.String(), "# report_sha256 ") {
			t.Errorf("traced=%v: report lacks the digest line", tc.traced)
		}
		if !tc.traced {
			if !strings.Contains(report.String(), " speed_wall=") || strings.Contains(report.String(), "speed_wall=0.0000") {
				t.Errorf("end-to-end reps lack a reference-speed bracket:\n%s", report.String())
			}
			for _, name := range []string{"setup_s", "wall_ms_per_host_hour", "cpu_ms_per_host_hour", "peak_rss_mb",
				"alloc_mb_per_host_hour", "allocs_per_host_hour", "anycast_delivery_rate", "dissem_coverage", "dissem_useful_frac"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			continue
		}
		var shares float64
		for _, l := range cpuLayers {
			shares += res.Metrics[l+".cpu_share"].Value
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("CPU shares sum to %v", shares)
		}
		for _, name := range []string{"sim.events_per_host_hour", "ops.anycast.delivered", "ops.aggregate.wall_us_per_op",
			"ops.agg.accuracy", "obs.spans_recorded", "core.mean_sliver_size", "shuffle.cyclon_tick_ns", "sim.event_ns"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
			}
		}
		if !strings.Contains(report.String(), "# span rep=") || !strings.Contains(report.String(), "# sim.par2_speedup") {
			t.Errorf("traced report lacks spans or the par2 line:\n%s", report.String())
		}
	}
}

// TestFailedAssertionFailsRun: a violated floor must surface as
// correct=false (and so as a non-zero exit status).
func TestFailedAssertionFailsRun(t *testing.T) {
	spec := testSpec(t)
	impossible := 2.0
	spec.Assertions = []scenario.Assertion{{Metric: "anycast_delivery_rate", Min: &impossible}}
	w := workload{name: "harness-test", backend: scenario.BackendSim, reps: 2}
	var report bytes.Buffer
	res, err := measure(w, spec, testConfig, false, &report)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(report.String(), "# FAIL rep 0 assertion") {
		t.Errorf("correct %v with an impossible floor:\n%s", res.Correct, report.String())
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"avmem/internal/shuffle.(*Cyclon).merge", "avmem/internal/exp.(*World).tick"}, "shuffle"},
		{[]string{"runtime.memmove", "avmem/internal/ids.PairHash", "avmem/internal/core.(*Membership).DiscoverIdx"}, "ids"},
		{[]string{"crypto/sha256.blockAMD64", "crypto/sha256.(*digest).Write", "avmem/internal/ids.PairHash"}, "ids"},
		{[]string{"aeshashbody", "runtime.mapaccess1_faststr", "avmem/internal/shuffle.(*Cyclon).merge"}, "go.map"},
		{[]string{"internal/runtime/maps.ctrlGroup.matchH2", "avmem/internal/core.(*Membership).admit"}, "go.map"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "avmem/internal/ops.(*Router).forwardAgg"}, "go.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "avmem/internal/sim.(*World).At"}, "go.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, "go.other"},
		{[]string{"main.(*stampWriter).Write", "fmt.Fprintf", "avmem/internal/scenario.(*runState).logf"}, "scenario"},
		{nil, "go.other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the driver uses for spreads.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v, want 1, 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	for _, tc := range []struct {
		v    []float64
		want float64
	}{{[]float64{7}, 7}, {[]float64{9, 5}, 5}, {[]float64{9, 5, 7}, 6}, {[]float64{8, 2, 6, 4, 10, 12}, 4}} {
		if m := lowerHalfMedian(tc.v); m != tc.want {
			t.Errorf("lowerHalfMedian(%v) = %v, want %v", tc.v, m, tc.want)
		}
	}
}

// TestRefKernel: a sample does the same work every time, and two
// samples at nominal cost give a speed factor of 1.
func TestRefKernel(t *testing.T) {
	k, err := newRefKernel(50)
	if err != nil {
		t.Fatal(err)
	}
	k.work()
	first := k.sink
	k.sink = 0
	k.work()
	if k.sink != first || first == 0 {
		t.Errorf("two samples computed %d and %d, want the same non-zero value", first, k.sink)
	}
	if s := k.sample(); s.wall <= 0 || s.cpu <= 0 {
		t.Errorf("sample = %+v, want positive times", s)
	}
	nominal := refSample{wall: refNominal / 50, cpu: refNominal / 50}
	if sp := k.speedBetween(nominal, nominal); sp.wall != 1 || sp.cpu != 1 {
		t.Errorf("speed at nominal cost = %+v, want 1", sp)
	}
}
