package fuzzgen

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"avmem/internal/scenario"
)

// smallSpec returns a fast hand-built spec that exercises several
// oracles without a campaign's cost.
func smallSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "oracle-small",
		Seed: 7,
		Fleet: scenario.Fleet{
			Hosts:          80,
			Days:           0.5,
			ProtocolPeriod: scenario.Duration(2 * time.Minute),
		},
		Warmup: scenario.Duration(time.Hour),
		Events: []scenario.Event{
			{At: 0, AnycastBatch: &scenario.AnycastBatch{Count: 4, TargetLo: 0.3, TargetHi: 0.9}},
			{At: scenario.Duration(2 * time.Minute), Aggregate: &scenario.AggregateBatch{Count: 2, TargetLo: 0, TargetHi: 1}},
		},
	}
}

// TestCheckPassesOnHealthySpec runs the full oracle battery on a known
// good spec: every invariant must hold.
func TestCheckPassesOnHealthySpec(t *testing.T) {
	if vs := Check(smallSpec(), OracleConfig{}); len(vs) > 0 {
		t.Fatalf("healthy spec tripped oracles: %v", vs)
	}
}

// TestCheckReportsRunErrors pins that an unexecutable spec surfaces as
// a run violation, not a panic or a silent pass.
func TestCheckReportsRunErrors(t *testing.T) {
	s := smallSpec()
	s.Fleet.Trace = "does-not-exist.trace"
	vs := Check(s, OracleConfig{})
	if len(vs) != 1 || vs[0].Oracle != "run" {
		t.Fatalf("want exactly one run violation, got %v", vs)
	}
}

// TestSemanticOracle drives checkSemantics with fabricated results to
// pin each bound.
func TestSemanticOracle(t *testing.T) {
	cases := []struct {
		name    string
		metrics map[string]float64
		adv     bool
		noisy   bool   // degrade the monitor (a non-quiet world)
		want    string // substring of the expected violation ("" = none)
	}{
		{"clean", map[string]float64{"anycast_delivery_rate": 0.9, "online_fraction": 0.5}, false, false, ""},
		{"rate above one", map[string]float64{"rangecast_coverage": 1.2}, false, false, "outside [0,1]"},
		{"negative counter", map[string]float64{"agg_rejected_partials": -1}, true, false, "negative"},
		{"forgery tripwire", map[string]float64{"agg_forgery_accepted": 2}, true, false, "agg_forgery_accepted"},
		{"honest forgery rejection", map[string]float64{"agg_forgery_rejected": 1}, false, false, "honest run rejected"},
		{"honest pdf rejection", map[string]float64{"agg_rejected_partials": 3}, false, false, "PDF sanity"},
		// A degraded monitor can honestly push availability claims past
		// the PDF hull — no violation (fuzz-seed40 calibration) …
		{"noisy-monitor pdf rejection ok", map[string]float64{"agg_rejected_partials": 3}, false, true, ""},
		// … but forgery verdicts come from binding tokens, which noise
		// cannot excuse.
		{"noisy-monitor forgery rejection", map[string]float64{"agg_forgery_rejected": 1}, false, true, "honest run rejected"},
		{"audit fp bound", map[string]float64{"audit_false_positive_rate": 0.2}, true, false, "honest-FP contract"},
		{"delivery plus drop", map[string]float64{"anycast_delivery_rate": 0.8, "anycast_drop_rate": 0.4}, false, false, "exceeds 1"},
		{"quiet accuracy floor", map[string]float64{"agg_completion_rate": 1, "agg_coverage": 0.9, "agg_accuracy": 0.1}, false, false, "accuracy"},
		// Sparse trees in tiny worlds keep accuracy low without being
		// wrong — the floor is gated on coverage (fuzz-seed35
		// calibration).
		{"sparse-tree accuracy ok", map[string]float64{"agg_completion_rate": 1, "agg_coverage": 0.05, "agg_accuracy": 0.05}, false, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec()
			if tc.adv {
				spec.Adversaries = &scenario.AdversariesSpec{Fraction: 0.1, Behaviors: []string{"inflate"}}
			}
			if tc.noisy {
				spec.Fleet.MonitorError = 0.02
				spec.Fleet.MonitorStaleness = scenario.Duration(30 * time.Minute)
			}
			var vs []Violation
			fail := func(oracle, format string, args ...any) {
				vs = append(vs, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
			}
			// The PDF-rejection contract is judged per reason
			// (TestSemanticOraclePDFRejections); here every rejected
			// partial is one the count check dropped.
			rejected := map[string]int64{"agg-count-bounds": int64(tc.metrics["agg_rejected_partials"])}
			checkSemantics(spec, &scenario.Result{Metrics: tc.metrics}, rejected, fail)
			if tc.want == "" {
				if len(vs) > 0 {
					t.Fatalf("unexpected violations: %v", vs)
				}
				return
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.Detail, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want violation containing %q, got %v", tc.want, vs)
			}
		})
	}
}

// TestSemanticOraclePDFRejections pins the honest-world contract of the
// PDF sanity checks, which is judged on the instrumented run's
// per-reason counters: the count and average checks never fire; the hull
// check may, while the monitor is too young for a node's cached and fresh
// self-availability to agree within the hull tolerance (fuzz-seed155 and
// fuzz-seed1033 calibration), or when the monitor is degraded
// (fuzz-seed40).
func TestSemanticOraclePDFRejections(t *testing.T) {
	cases := []struct {
		name     string
		rejected map[string]int64
		warmup   time.Duration
		refresh  time.Duration
		noisy    bool
		want     string
	}{
		{name: "nothing rejected", rejected: map[string]int64{}, warmup: 8 * time.Hour},
		{name: "count rejection at any age", rejected: map[string]int64{"agg-count-bounds": 3}, warmup: 30 * time.Minute, want: "agg-count-bounds"},
		{name: "average rejection at any age", rejected: map[string]int64{"agg-avg-bounds": 1}, warmup: time.Hour, want: "agg-avg-bounds"},
		{name: "hull rejection, 30-minute-old monitor", rejected: map[string]int64{"agg-hull-bounds": 4}, warmup: 30 * time.Minute},
		{name: "hull rejection, 4 h warm-up, 30 m refresh", rejected: map[string]int64{"agg-hull-bounds": 1}, warmup: 4 * time.Hour, refresh: 30 * time.Minute},
		{name: "hull rejection, 4 h warm-up, 10 m refresh", rejected: map[string]int64{"agg-hull-bounds": 1}, warmup: 4 * time.Hour, refresh: 10 * time.Minute, want: "agg-hull-bounds"},
		{name: "hull rejection, settled monitor", rejected: map[string]int64{"agg-hull-bounds": 4}, warmup: 8 * time.Hour, want: "agg-hull-bounds"},
		{name: "degraded monitor", rejected: map[string]int64{"agg-hull-bounds": 3, "agg-count-bounds": 1}, warmup: 8 * time.Hour, noisy: true},
	}
	for _, tc := range cases {
		spec := smallSpec()
		spec.Warmup = scenario.Duration(tc.warmup)
		spec.Fleet.RefreshPeriod = scenario.Duration(tc.refresh)
		if tc.noisy {
			spec.Fleet.MonitorError = 0.02
		}
		var got []string
		checkSemantics(spec, &scenario.Result{Metrics: map[string]float64{}}, tc.rejected,
			func(_, format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) })
		if (tc.want == "") != (len(got) == 0) || (tc.want != "" && !strings.Contains(got[0], tc.want)) {
			t.Errorf("%s: violations %v, want %q", tc.name, got, tc.want)
		}
	}
}
