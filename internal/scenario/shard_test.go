package scenario

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// renderRun is renderRunObs with only the shard count set.
func renderRun(t *testing.T, spec *Spec, shards int) []byte {
	t.Helper()
	return renderRunObs(t, spec, Options{Shards: shards})
}

// TestShardCountInvariance pins the tentpole guarantee end to end: the
// checked-in mixed workload produces byte-identical collector output
// for shards ∈ {1, 2, 8}. (CI also runs this under -race.)
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard full-scenario sweep")
	}
	spec, err := LoadFile("../../scenarios/mixed-workload.json")
	if err != nil {
		t.Fatal(err)
	}
	want := renderRun(t, spec, 1)
	for _, n := range []int{2, 8} {
		if got := renderRun(t, spec, n); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d output diverged from shards=1", n)
		}
	}
}

// TestShardEpochBoundaryChurn kills a quarter of the fleet exactly on a
// 20-minute trace-epoch boundary and restores it exactly on the next —
// the worst case for any engine that batches work per epoch — and
// checks the sharded schedules agree byte for byte.
func TestShardEpochBoundaryChurn(t *testing.T) {
	spec := &Spec{
		Name: "epoch-boundary-churn",
		Seed: 11,
		Fleet: Fleet{
			Hosts:          60,
			Days:           0.5,
			ProtocolPeriod: Duration(2 * time.Minute),
		},
		// Warmup of 40m puts event time zero exactly on an epoch
		// boundary (trace epochs are 20m).
		Warmup: Duration(40 * time.Minute),
		Events: []Event{
			{At: 0, ChurnBurst: &ChurnBurst{
				Fraction: 0.25, Duration: Duration(20 * time.Minute)}},
			{At: Duration(2 * time.Minute), AnycastBatch: &AnycastBatch{
				Count: 10, BandLo: 0, BandHi: 1.01, TargetLo: 0.5, TargetHi: 1}},
			{At: Duration(25 * time.Minute), AnycastBatch: &AnycastBatch{
				Count: 10, BandLo: 0, BandHi: 1.01, TargetLo: 0.5, TargetHi: 1}},
		},
	}
	want := renderRun(t, spec, 1)
	for _, n := range []int{2, 8} {
		if got := renderRun(t, spec, n); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d output diverged from shards=1", n)
		}
	}
}

// TestShardsRejectedOnMemnet keeps the flag honest: the live-runtime
// backend has no event queue to shard.
func TestShardsRejectedOnMemnet(t *testing.T) {
	spec := &Spec{
		Name:  "memnet-shards",
		Seed:  1,
		Fleet: Fleet{Hosts: 20, Days: 0.5},
	}
	if _, err := Run(spec, Options{Backend: BackendMemnet, Shards: 4}); err == nil {
		t.Fatal("want error for -shards on memnet backend")
	}
}

// TestShardThreadsIgnored pins the one residue of the removed
// thread-parallel engine: Options.ShardThreads still compiles for the
// frozen benchmark harness, changes no byte of the report on either
// backend, and is called out once on the "fleet ready" progress line.
func TestShardThreadsIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario sweep")
	}
	spec, err := LoadFile("../../scenarios/mixed-workload.json")
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	got := renderRunObs(t, spec, Options{Shards: 8, ShardThreads: 2, Log: &log})
	if !bytes.Equal(got, renderRun(t, spec, 8)) || !bytes.Equal(got, renderRun(t, spec, 0)) {
		t.Fatal("ShardThreads=2 changed the report")
	}
	const notice = "; ShardThreads=2 ignored (serial engine)"
	first, _, _ := strings.Cut(log.String(), "\n")
	if !strings.HasPrefix(first, "fleet ready") || !strings.HasSuffix(first, notice) ||
		strings.Count(log.String(), "ShardThreads") != 1 {
		t.Fatalf("want the notice once, on the fleet-ready line; log starts %q", first)
	}
	if n := strings.Count(log.String(), "\n"); n != 1+len(spec.Events) {
		t.Fatalf("progress log has %d lines for %d events; the notice must not add one", n, len(spec.Events))
	}

	log.Reset()
	if _, err := Run(tinySpec(), Options{Backend: BackendMemnet, ShardThreads: 2, Log: &log}); err != nil {
		t.Fatalf("ShardThreads on memnet: %v", err)
	}
	if strings.Count(log.String(), notice) != 1 {
		t.Fatalf("memnet log lacks the notice: %q", log.String())
	}
}

// TestSimRunOwnsNoGoroutines pins that a sim world has nothing to tear
// down: Run on the sharded engine returns with no more goroutines than
// it was called with (fewer is possible only when a straggler from an
// earlier test exits meanwhile).
func TestSimRunOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Run(tinySpec(), Options{Shards: 8}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before Run, %d after", before, after)
	}
}
