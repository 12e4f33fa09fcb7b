package scenario

import (
	"math"
	"reflect"
	"testing"
)

// TestRunDeterministic is the determinism contract of DESIGN.md §5: the
// same (trace, seed) pair — here regenerated from the same spec — must
// reproduce bit-identical scenario metrics, including across the cohort
// ticks and the radix event queue.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinySpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinySpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("same (trace, seed) diverged:\n first: %v\nsecond: %v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.EventLog, b.EventLog) {
		t.Fatalf("event logs diverged:\n first: %v\nsecond: %v", a.EventLog, b.EventLog)
	}
}

// TestRunManyParallelMatchesSerial is the parallel-runner contract:
// determinism per world, parallelism across worlds — the aggregate of a
// multi-seed sweep is bit-identical for any parallelism.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	seeds := SeedRange(1, 4)
	serial, err := RunMany(tinySpec(), seeds, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMany(tinySpec(), seeds, 4, Options{})
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

func TestRunManyAggregates(t *testing.T) {
	seeds := SeedRange(1, 3)
	multi, err := RunMany(tinySpec(), seeds, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi.Seeds, seeds) {
		t.Errorf("Seeds = %v, want %v", multi.Seeds, seeds)
	}
	if len(multi.Runs) != len(seeds) {
		t.Fatalf("Runs = %d, want %d", len(multi.Runs), len(seeds))
	}
	a, ok := multi.Metrics["anycast_delivery_rate"]
	if !ok {
		t.Fatal("aggregate missing anycast_delivery_rate")
	}
	if a.N != len(seeds) {
		t.Errorf("N = %d, want %d", a.N, len(seeds))
	}
	if a.Min > a.Mean || a.Mean > a.Max {
		t.Errorf("aggregate out of order: %+v", a)
	}
	var sum float64
	for _, r := range multi.Runs {
		sum += r.Metrics["anycast_delivery_rate"]
	}
	if want := sum / float64(len(seeds)); math.Abs(a.Mean-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", a.Mean, want)
	}
}

func TestRunManyValidation(t *testing.T) {
	if _, err := RunMany(tinySpec(), nil, 1, Options{}); err == nil {
		t.Error("want error for no seeds")
	}
	bad := tinySpec()
	bad.Name = ""
	if _, err := RunMany(bad, SeedRange(1, 2), 1, Options{}); err == nil {
		t.Error("want error for invalid spec")
	}
}

func TestRunManyReportsPerSeedFailures(t *testing.T) {
	spec := tinySpec()
	spec.Assertions = []Assertion{{Metric: "anycast_delivery_rate", Min: f(1.1)}}
	multi, err := RunMany(spec, SeedRange(1, 2), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Passed() {
		t.Fatal("impossible assertion passed")
	}
	if len(multi.Failures) != 2 {
		t.Fatalf("Failures = %v, want one per seed", multi.Failures)
	}
}
