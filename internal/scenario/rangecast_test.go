package scenario

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"avmem/internal/ops"
)

// managementScenarioFiles are the checked-in range-cast/aggregation
// scenarios; the acceptance bar (aggregation accuracy >= 0.95 under
// churn, >= 0.9 under an 18% aggregation-targeted Byzantine mix,
// range-cast coverage >= 0.85 through a 40% outage) lives in their own
// assertion blocks.
var managementScenarioFiles = []string{
	filepath.Join("..", "..", "scenarios", "availability-census.json"),
	filepath.Join("..", "..", "scenarios", "rangecast-storm.json"),
	filepath.Join("..", "..", "scenarios", "byzantine-census.json"),
}

// tinyAggSpec is a fast spec exercising the whole new family: a
// rangecast, two aggregate ops, and a churn burst between them.
func tinyAggSpec() *Spec {
	return &Spec{
		Name: "tiny-agg",
		Seed: 3,
		Fleet: Fleet{
			Hosts:          120,
			Days:           1,
			ProtocolPeriod: dur("2m"),
		},
		Warmup: dur("2h"),
		Events: []Event{
			{At: dur("0s"), Aggregate: &AggregateBatch{
				Count: 5, BandLo: 0.33, TargetLo: 0.5, TargetHi: 1,
			}},
			{At: dur("2m"), ChurnBurst: &ChurnBurst{Fraction: 0.3, Duration: dur("20m")}},
			{At: dur("4m"), Aggregate: &AggregateBatch{
				Count: 5, Op: "avg", BandLo: 0.33, TargetLo: 0.5, TargetHi: 1,
			}},
			{At: dur("10m"), Rangecast: &RangecastBatch{
				Count: 5, BandLo: 0.33, TargetLo: 0.5, TargetHi: 1, Payload: "cfg",
			}},
		},
		Assertions: []Assertion{
			{Metric: "agg_completion_rate", Min: f(0.8)},
			{Metric: "agg_accuracy", Min: f(0.8)},
			{Metric: "rangecast_coverage", Min: f(0.5)},
		},
	}
}

// TestRunAggAndRangecastEvents smoke-tests the new event kinds and
// their metric names on the default backend.
func TestRunAggAndRangecastEvents(t *testing.T) {
	res, err := Run(tinyAggSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("tiny agg scenario failed: %v", res.Failures)
	}
	for _, want := range []string{
		"agg_accuracy", "agg_coverage", "agg_completion_rate", "agg_mean_hops",
		"rangecast_coverage", "rangecast_spam_ratio",
	} {
		if _, ok := res.Metrics[want]; !ok {
			t.Errorf("metric %q missing: %v", want, res.Metrics)
		}
	}
}

// TestManagementScenariosPassOnBothBackends executes the checked-in
// census and storm scenarios on the simulator and the live memnet
// runtime and requires every in-spec assertion — including the 0.95
// accuracy bar under churn — to hold on each.
func TestManagementScenariosPassOnBothBackends(t *testing.T) {
	for _, path := range managementScenarioFiles {
		for _, backend := range []string{BackendSim, BackendMemnet} {
			t.Run(filepath.Base(path)+"/"+backend, func(t *testing.T) {
				spec, err := LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(spec, Options{Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Passed() {
					t.Fatalf("assertions failed: %v", res.Failures)
				}
				// The flat 0.95 accuracy bar is the churn-only standard;
				// adversarial scenarios carry their own (0.9 under an 18%
				// Byzantine mix) in their assertion blocks.
				if acc := res.Metrics["agg_accuracy"]; spec.Adversaries == nil && acc < 0.95 {
					t.Errorf("agg_accuracy %v below the 0.95 bar", acc)
				}
			})
		}
	}
}

// TestManagementScenariosDeterministicPerSeed pins bit-determinism:
// the same spec and seed produce identical metrics and event logs on
// each backend, partial-combining trees included.
func TestManagementScenariosDeterministicPerSeed(t *testing.T) {
	for _, path := range managementScenarioFiles {
		for _, backend := range []string{BackendSim, BackendMemnet} {
			t.Run(filepath.Base(path)+"/"+backend, func(t *testing.T) {
				run := func() *Result {
					spec, err := LoadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(spec, Options{Backend: backend})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				a, b := run(), run()
				if !reflect.DeepEqual(a.Metrics, b.Metrics) {
					t.Errorf("metrics differ across identical runs:\n a: %v\n b: %v", a.Metrics, b.Metrics)
				}
				if !reflect.DeepEqual(a.EventLog, b.EventLog) {
					t.Errorf("event logs differ across identical runs:\n a: %v\n b: %v", a.EventLog, b.EventLog)
				}
			})
		}
	}
}

// TestAggregationSeedsIndependent: aggregation metrics are a function
// of the seed — identical for the same seed (pinned above), and the
// sweep aggregate reflects genuinely independent worlds (distinct
// seeds may coincide on saturated metrics, but the runs are separate).
func TestAggregationSeedsIndependent(t *testing.T) {
	multi, err := RunMany(tinyAggSpec(), SeedRange(3, 3), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(multi.Runs))
	}
	agg, ok := multi.Metrics["agg_accuracy"]
	if !ok {
		t.Fatal("sweep aggregate missing agg_accuracy")
	}
	if agg.N != 3 {
		t.Errorf("agg_accuracy aggregated over %d runs, want 3", agg.N)
	}
	if agg.Min > agg.Mean || agg.Mean > agg.Max {
		t.Errorf("aggregate out of order: %+v", agg)
	}
}

// TestRunManyParallelMatchesSerialWithAggregation extends the parallel
// runner contract to the new family: a multi-seed sweep containing
// rangecast and aggregate events is bit-identical at any parallelism.
func TestRunManyParallelMatchesSerialWithAggregation(t *testing.T) {
	seeds := SeedRange(1, 4)
	serial, err := RunMany(tinyAggSpec(), seeds, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMany(tinyAggSpec(), seeds, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Fatalf("parallel aggregate diverged from serial:\nserial:   %v\nparallel: %v",
			serial.Metrics, parallel.Metrics)
	}
	for i := range seeds {
		if !reflect.DeepEqual(serial.Runs[i].Metrics, parallel.Runs[i].Metrics) {
			t.Fatalf("seed %d run diverged between serial and parallel", seeds[i])
		}
	}
}

// TestAuditLayerDoesNotPerturbCensus is the audit-enabled-unchanged
// regression for the new family: the checked-in census scenario ships
// with auditing on; stripping it must leave the metrics, event log,
// and rendered report byte-identical — auditing observes the new
// message types without perturbing honest runs.
func TestAuditLayerDoesNotPerturbCensus(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "availability-census.json")
	render := func(withAudit bool) (string, *Result) {
		spec, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !withAudit {
			spec.Fleet.Audit = nil
		}
		res, err := Run(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteReport(&buf)
		return buf.String() + "\n" + strings.Join(res.EventLog, "\n"), res
	}
	audited, auditedRes := render(true)
	plain, plainRes := render(false)
	if plain != audited {
		t.Fatalf("audit layer perturbed the census:\n--- audit off ---\n%s\n--- audit on ---\n%s", plain, audited)
	}
	if !plainRes.Passed() || !auditedRes.Passed() {
		t.Fatalf("census failed: %v / %v", plainRes.Failures, auditedRes.Failures)
	}
}

// TestRangecastAggregateSpecValidation covers the new spec blocks.
func TestRangecastAggregateSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"rangecast zero count", `{"name":"x","events":[{"at":"0s","rangecast":{"count":0,"target_lo":0.2,"target_hi":0.8}}]}`},
		{"rangecast inverted band", `{"name":"x","events":[{"at":"0s","rangecast":{"count":5,"target_lo":0.8,"target_hi":0.2}}]}`},
		{"rangecast band above 1", `{"name":"x","events":[{"at":"0s","rangecast":{"count":5,"target_lo":0.2,"target_hi":1.2}}]}`},
		{"rangecast bad flavor", `{"name":"x","events":[{"at":"0s","rangecast":{"count":5,"target_lo":0.2,"target_hi":0.8,"flavor":"psychic"}}]}`},
		{"aggregate unknown op", `{"name":"x","events":[{"at":"0s","aggregate":{"count":5,"op":"median","target_lo":0.2,"target_hi":0.8}}]}`},
		{"aggregate bad initiator band", `{"name":"x","events":[{"at":"0s","aggregate":{"count":5,"band_lo":2,"target_lo":0.2,"target_hi":0.8}}]}`},
		{"two actions", `{"name":"x","events":[{"at":"0s","rangecast":{"count":5,"target_lo":0.2,"target_hi":0.8},"aggregate":{"count":5,"target_lo":0.2,"target_hi":0.8}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.json)); err == nil {
				t.Errorf("accepted malformed scenario: %s", tc.json)
			}
		})
	}
	// The empty band is deliberately legal.
	ok := `{"name":"x","events":[{"at":"0s","rangecast":{"count":5,"target_lo":0.5,"target_hi":0.5}}]}`
	if _, err := Load(strings.NewReader(ok)); err != nil {
		t.Errorf("empty band rejected: %v", err)
	}
}

// TestAggregateRedundancyBound: a spec's redundancy is bounded by the
// router's own ops.MaxAggRedundancy — the bound is admitted, one past it
// fails Validate and the message names the bound.
func TestAggregateRedundancyBound(t *testing.T) {
	spec := func(r int) string {
		return fmt.Sprintf(`{"name":"x","events":[{"at":"0s","aggregate":{"count":5,"op":"avg","target_lo":0.2,"target_hi":0.8,"redundancy":%d}}]}`, r)
	}
	if _, err := Load(strings.NewReader(spec(ops.MaxAggRedundancy))); err != nil {
		t.Errorf("redundancy %d rejected: %v", ops.MaxAggRedundancy, err)
	}
	_, err := Load(strings.NewReader(spec(ops.MaxAggRedundancy + 1)))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("[0,%d]", ops.MaxAggRedundancy)) {
		t.Errorf("redundancy %d: error %v, want one naming the bound %d", ops.MaxAggRedundancy+1, err, ops.MaxAggRedundancy)
	}
}
