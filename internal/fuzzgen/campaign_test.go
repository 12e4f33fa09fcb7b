package fuzzgen

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"avmem/internal/scenario"
)

// fastOptions keeps campaign tests cheap: tiny worlds, the expensive
// cross-engine and sweep oracles disabled.
func fastOptions() Options {
	return Options{
		Budget: time.Millisecond, // Min/Max drive the loop, not the clock
		Gen:    GenOptions{MinHosts: 50, MaxHosts: 80, MaxEvents: 2},
		Oracle: OracleConfig{MemnetMaxHosts: -1, RunManyMaxHosts: -1},
	}
}

// TestCampaignRunsMinScenarios pins that Min keeps the campaign going
// past an exhausted budget — the CI floor.
func TestCampaignRunsMinScenarios(t *testing.T) {
	opts := fastOptions()
	opts.Seed = 100
	opts.Min = 5
	rep, err := Campaign(opts)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.Ran+rep.Infeasible < 5 {
		t.Fatalf("Min=5 but only %d scenarios ran (%d infeasible)", rep.Ran, rep.Infeasible)
	}
	if rep.Failed() {
		t.Fatalf("healthy campaign reported findings: %+v", rep.Findings)
	}
}

// TestCampaignStopsAtMax pins the scenario ceiling.
func TestCampaignStopsAtMax(t *testing.T) {
	opts := fastOptions()
	opts.Budget = time.Hour // Max must stop it, not the clock
	opts.Max = 3
	rep, err := Campaign(opts)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.Ran+rep.Infeasible != 3 {
		t.Fatalf("Max=3 but %d scenarios ran (%d infeasible)", rep.Ran, rep.Infeasible)
	}
}

// TestWriteCorpusRoundTrips pins the corpus file contract: the written
// spec loads back through the scenario loader with zero problems and
// carries the provenance description.
func TestWriteCorpusRoundTrips(t *testing.T) {
	dir := t.TempDir()
	spec := Generate(42)
	vs := []Violation{{Oracle: "determinism", Detail: "x"}, {Oracle: "semantic", Detail: "y"}}
	path, err := WriteCorpus(dir, 42, spec, vs)
	if err != nil {
		t.Fatalf("WriteCorpus: %v", err)
	}
	if filepath.Base(path) != "fuzz-seed42.json" {
		t.Fatalf("unexpected corpus file name %q", path)
	}
	back, problems := scenario.LoadFileAll(path)
	if len(problems) > 0 {
		t.Fatalf("corpus file has problems: %v", problems)
	}
	if back.Name != "fuzz-seed42" {
		t.Fatalf("corpus spec name %q", back.Name)
	}
	if !strings.Contains(back.Description, "determinism, semantic") {
		t.Fatalf("description lacks oracle provenance: %q", back.Description)
	}
}

// TestCampaignWritesCorpusOnFailure injects a failing oracle via an
// impossible semantic bound… not possible from outside, so instead it
// exercises the corpus path directly through a campaign whose oracle
// layer is replaced by a spec the engines cannot run: a trace path
// that does not exist resolves to a "run" violation (not infeasible),
// which must shrink and land in the corpus dir.
func TestCampaignWritesCorpusOnFailure(t *testing.T) {
	// Campaign generates its own specs, which are healthy by
	// construction; to test the failure path end to end we simulate what
	// Campaign does on a finding, using Shrink + WriteCorpus with a
	// synthetic always-failing oracle.
	dir := t.TempDir()
	spec := Generate(7)
	check := syntheticOracleAlways()
	min, minVs := shrinkWith(spec, check, 50)
	if len(minVs) == 0 {
		t.Fatal("synthetic oracle did not fail")
	}
	path, err := WriteCorpus(dir, 7, min, minVs)
	if err != nil {
		t.Fatalf("WriteCorpus: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corpus file missing: %v", err)
	}
}

func syntheticOracleAlways() func(*scenario.Spec) []Violation {
	return func(*scenario.Spec) []Violation {
		return []Violation{{Oracle: "semantic", Detail: "synthetic"}}
	}
}

// TestOracleBattery pins which oracles Check reports under, read off
// the fail(...) calls in oracle.go: dropping or adding one is a visible
// diff here.
func TestOracleBattery(t *testing.T) {
	src, err := os.ReadFile("oracle.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile(`fail\("([a-z]+)"`).FindAllSubmatch(src, -1) {
		if name := string(m[1]); !seen[name] {
			seen[name] = true
			got = append(got, name)
		}
	}
	want := []string{"run", "determinism", "obs", "memnet", "runmany", "semantic"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle names %v, want %v", got, want)
	}
}

// TestInfeasibleClassification pins that only the benign
// config-rejection error is treated as infeasible.
func TestInfeasibleClassification(t *testing.T) {
	if !infeasible(Violation{Oracle: "run", Detail: `exp: adversary band [0.98,0.99) selects no hosts`}) {
		t.Error("adversary-band rejection should be infeasible")
	}
	if infeasible(Violation{Oracle: "run", Detail: "panic: index out of range"}) {
		t.Error("a panic is never infeasible")
	}
}

// TestReportWriteReport smoke-tests both render paths.
func TestReportWriteReport(t *testing.T) {
	var b strings.Builder
	(&Report{Ran: 3, Elapsed: time.Second}).WriteReport(&b)
	if !strings.Contains(b.String(), "PASS") {
		t.Fatalf("clean report lacks PASS: %q", b.String())
	}
	b.Reset()
	rep := &Report{Ran: 1, Findings: []Finding{{
		Seed:       9,
		Violations: []Violation{{Oracle: "obs", Detail: "diverged"}},
		CorpusPath: "scenarios/fuzz-corpus/fuzz-seed9.json",
	}}}
	rep.WriteReport(&b)
	out := b.String()
	if !strings.Contains(out, "FAIL: seed 9") || !strings.Contains(out, "obs: diverged") {
		t.Fatalf("failure report incomplete: %q", out)
	}
}
