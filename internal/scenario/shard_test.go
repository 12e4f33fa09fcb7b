package scenario

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestShardOptionsIgnored pins the residue of the two removed executors
// (shard heaps, worker threads): Options.Shards and Options.ShardThreads
// still compile for the frozen benchmark harness, change no byte of the
// report on either backend, and are called out once, on the "fleet ready"
// progress line — the harness counts log lines, so the notice adds none.
func TestShardOptionsIgnored(t *testing.T) {
	const notice = "; Shards=8 ShardThreads=2 ignored (one event queue, serial engine)"
	for _, backend := range []string{BackendSim, BackendMemnet} {
		spec := tinySpec()
		want := renderRunObs(t, spec, Options{Backend: backend})
		var log strings.Builder
		got := renderRunObs(t, spec, Options{Backend: backend, Shards: 8, ShardThreads: 2, Log: &log})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Shards=8 ShardThreads=2 changed the report", backend)
		}
		first, _, _ := strings.Cut(log.String(), "\n")
		if !strings.HasPrefix(first, "fleet ready") || !strings.HasSuffix(first, notice) ||
			strings.Count(log.String(), "ignored") != 1 {
			t.Errorf("%s: want the notice once, on the fleet-ready line; log starts %q", backend, first)
		}
		if n := strings.Count(log.String(), "\n"); n != 1+len(spec.Events) {
			t.Errorf("%s: progress log has %d lines for %d events; the notice must not add one", backend, n, len(spec.Events))
		}
	}
}

// TestSimRunOwnsNoGoroutines pins that a sim world has nothing to tear
// down: Run returns with no more goroutines than it was called with
// (fewer is possible only when a straggler from an earlier test exits
// meanwhile).
func TestSimRunOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Run(tinySpec(), Options{}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before Run, %d after", before, after)
	}
}
