package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"avmem/internal/trace"
)

// writeTinyTrace archives a small synthetic trace for CLI tests.
func writeTinyTrace(t *testing.T) string {
	t.Helper()
	gen := trace.DefaultGenConfig(5)
	gen.Hosts = 150
	gen.Epochs = 120 // ~1.7 days
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceScenario is a scenario over the archived trace at path whose one
// event is the given JSON action.
func traceScenario(t *testing.T, path, events string) string {
	t.Helper()
	return writeScenario(t, `{
  "name": "from-trace",
  "seed": 3,
  "fleet": {"trace": "`+path+`", "protocol_period": "2m"},
  "warmup": "8h",
  "events": [`+events+`]
}`)
}

func TestRunFig2FromTraceFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full world")
	}
	path := traceScenario(t, writeTinyTrace(t), `{"at": "0s", "label": "fig2-4", "overlay_probe": {}}`)
	var out strings.Builder
	start := time.Now()
	if err := run([]string{"run", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"150 hosts", "HS-median", "VS-in-links", "fig2-4/hs_median_sliver_size"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	t.Logf("fig 2 regeneration took %v", time.Since(start))
}

func TestRunFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full world")
	}
	path := traceScenario(t, writeTinyTrace(t), `{"at": "0s", "label": "fig5-cushion0", "attack": {"cushion": 0}},
    {"at": "0s", "label": "fig5-cushion0.1", "attack": {"cushion": 0.1}}`)
	var out strings.Builder
	if err := run([]string{"run", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cushion 0.10", "legit-reject", "fig5-cushion0/attack_accept_rate", "fig5-cushion0.1/attack_accept_rate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("want error for unknown flag")
	}
	// With no subcommand there is nothing to run: the usage is the error.
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "usage: avmemsim <command>") {
		t.Errorf("no subcommand: error %v, want the usage", err)
	}
	// Flags of the two removed executors (shard heaps, worker threads)
	// are no longer defined.
	for _, args := range [][]string{
		{"-shards", "2"},
		{"-shard-threads", "2"},
		{"-mutexprofile", "m.pprof"},
		{"-blockprofile", "b.pprof"},
	} {
		args = append(append([]string{"run"}, args...), "../../scenarios/mixed-workload.json")
		if err := run(args, &out); err == nil {
			t.Errorf("want error for removed flag %s", args[1])
		}
	}
}

func TestRunRejectsMissingTrace(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "does-not-exist.trace")
	path := traceScenario(t, missing, `{"at": "0s", "overlay_probe": {}}`)
	var out strings.Builder
	if err := run([]string{"run", path}, &out); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("missing trace file: error %v, want one naming %s", err, missing)
	}
}

// writeScenario drops a scenario file into a temp dir.
func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinyScenario = `{
  "name": "cli-tiny",
  "seed": 1,
  "fleet": {"hosts": 120, "days": 1, "protocol_period": "2m"},
  "warmup": "2h",
  "events": [
    {"at": "0s", "churn_burst": {"fraction": 0.3, "duration": "20m"}},
    {"at": "2m", "anycast_batch": {"count": 8, "band_lo": 0, "band_hi": 1.01, "target_lo": 0.5, "target_hi": 1}}
  ],
  "assertions": [{"metric": "anycast_delivery_rate", "min": 0.5}]
}`

func TestRunScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full world")
	}
	path := writeScenario(t, tinyScenario)
	var out strings.Builder
	if err := run([]string{"run", path}, &out); err != nil {
		t.Fatalf("scenario run failed: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"churn burst", "anycast batch", "PASS"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// Armed, the registry changes no byte of the report, and its dump
	// carries the tracer's overflow and the event queue's depth and chunks.
	dump := filepath.Join(t.TempDir(), "metrics.txt")
	var armed strings.Builder
	if err := run([]string{"run", "-metrics-out", dump, path}, &armed); err != nil {
		t.Fatal(err)
	}
	if armed.String() != text {
		t.Error("-metrics-out changed the report")
	}
	metrics, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"obs_trace_spans_dropped_total 0\n", "sim_queue_depth ", "sim_queue_depth_peak ", "sim_queue_chunks ", "sim_queue_key_moves_total "} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

func TestRunScenarioAssertionFailureIsError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full world")
	}
	body := strings.Replace(tinyScenario, `"min": 0.5`, `"min": 1.5`, 1)
	path := writeScenario(t, body)
	var out strings.Builder
	err := run([]string{"run", "-q", path}, &out)
	if err == nil {
		t.Fatalf("failed assertion did not error:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("report missing FAIL line:\n%s", out.String())
	}
}

func TestValidateScenario(t *testing.T) {
	path := writeScenario(t, tinyScenario)
	var out strings.Builder
	if err := run([]string{"validate", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cli-tiny") {
		t.Errorf("validate output missing name:\n%s", out.String())
	}
}

func TestValidateRejectsMalformedScenario(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"name": "x", "bogus": true, "events": [{"at": "0s", "attack": {"cushion": 0}}]}`,
		"no events":      `{"name": "x"}`,
		"unknown metric": `{"name": "x", "events": [{"at": "0s", "attack": {"cushion": 0}}], "assertions": [{"metric": "vibes", "min": 1}]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeScenario(t, body)
			var out strings.Builder
			if err := run([]string{"validate", path}, &out); err == nil {
				t.Error("malformed scenario validated")
			}
		})
	}
	var out strings.Builder
	if err := run([]string{"validate", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing scenario file validated")
	}
}

// TestCheckedInScenariosValidate guards the scenario files — the
// examples, the paper suite under paper/ and the fuzz corpus — against
// spec drift.
func TestCheckedInScenariosValidate(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	paths, err := scenarioFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name, _ := filepath.Rel(dir, path)
		t.Run(filepath.ToSlash(name), func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"validate", path}, &out); err != nil {
				t.Errorf("checked-in scenario invalid: %v", err)
			}
		})
	}
	if len(paths) < 3 {
		t.Errorf("expected at least 3 checked-in scenarios, found %d", len(paths))
	}
}

// TestPaperScenarios runs the paper's §4 suite at its own scale (1442
// hosts, 24 h warm-up): every figure's claim must hold.
func TestPaperScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 1442-host worlds")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "paper", "*.json"))
	if err != nil || len(paths) != 3 {
		t.Fatalf("paper suite: %v, %v", paths, err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"run", "-q", path}, &out); err != nil {
				t.Errorf("%v\n%s", err, out.String())
			}
		})
	}
}

// TestValidateReportsAllErrors: the validate subcommand collects every
// spec problem — each with its key path and source line — and exits
// non-zero with a summary count, instead of stopping at the first.
func TestValidateReportsAllErrors(t *testing.T) {
	body := `{
  "name": "",
  "fleet": {
    "hosts": 4
  },
  "adversaries": {
    "fraction": 0.9,
    "behaviors": ["psychic"]
  },
  "events": [
    {
      "at": "0s",
      "churn_burst": { "fraction": 2, "duration": "5m" }
    }
  ],
  "assertions": [
    { "metric": "vibes", "min": 1 }
  ]
}`
	path := writeScenario(t, body)
	var out strings.Builder
	err := run([]string{"validate", path}, &out)
	if err == nil {
		t.Fatal("invalid scenario validated")
	}
	if !strings.Contains(err.Error(), "6 error(s)") {
		t.Errorf("summary %q does not count all 6 errors", err.Error())
	}
	got := out.String()
	for _, want := range []string{
		"line 2: name:",
		"line 4: fleet.hosts:",
		"line 7: adversaries.fraction:",
		`line 8: adversaries.behaviors[0]: unknown behavior "psychic"`,
		"line 13: events[0].churn_burst.fraction:",
		"line 17: assertions[0].metric:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("validate output missing %q:\n%s", want, got)
		}
	}
}

// TestValidateMultipleFiles: several files in one invocation, valid
// ones reported as such and the bad one failing the run.
func TestValidateMultipleFiles(t *testing.T) {
	good := writeScenario(t, tinyScenario)
	bad := writeScenario(t, `{"name": "x"}`)
	var out strings.Builder
	if err := run([]string{"validate", good, bad}, &out); err == nil {
		t.Fatal("bad file in the batch validated")
	}
	if !strings.Contains(out.String(), "cli-tiny") {
		t.Errorf("valid file not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "events") {
		t.Errorf("bad file's problem not reported:\n%s", out.String())
	}
}

// TestMemProfileShowsTheDeploymentInUse: the heap profile -memprofile
// writes is taken while the deployment is reachable, so its inuse
// samples hold the hosts' membership lists — not only what the command
// itself keeps after the run.
func TestMemProfileShowsTheDeploymentInUse(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	path := filepath.Join(t.TempDir(), "mem.pprof")
	var out strings.Builder
	if err := run([]string{"run", "-q", "-memprofile", path, "../../scenarios/examples/quickstart.json"}, &out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("no heap profile written: %v", err)
	}
	// The file is the profile the runtime has published; read it in process.
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var inuse int64
	for _, r := range recs[:n] {
		for frames := runtime.CallersFrames(r.Stack()); ; {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "avmem/internal/core.") {
				inuse += r.InUseBytes()
				break
			}
			if !more {
				break
			}
		}
	}
	if inuse < 1<<10 {
		t.Fatalf("membership state in use in the heap profile: %d bytes, want the deployment's", inuse)
	}
	t.Logf("membership state in use: %d bytes", inuse)
}
