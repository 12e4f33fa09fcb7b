package scenario

import (
	"bytes"
	"io"
	"testing"
	"time"

	"avmem/internal/obs"
)

// renderRunObs executes spec with the given options and renders the
// full report — metrics, event log, assertion outcomes — to bytes.
func renderRunObs(t *testing.T, spec *Spec, opts Options) []byte {
	t.Helper()
	res, err := Run(spec, opts)
	if err != nil {
		t.Fatalf("run %+v: %v", opts, err)
	}
	var buf bytes.Buffer
	res.WriteReport(&buf)
	for _, line := range res.EventLog {
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// obsOpts clones base and arms a fresh registry + tracer on it,
// returning all three so callers can assert the instruments actually
// saw traffic (a vacuous byte-identity test would also pass if the
// observability layer were never wired in).
func obsOpts(base Options) (Options, *obs.Registry, *obs.Tracer) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	base.Metrics = reg
	base.OpTrace = tr
	return base, reg, tr
}

// requireObserved fails unless the registry counted simulator events
// and the tracer captured op spans during the run.
func requireObserved(t *testing.T, reg *obs.Registry, tr *obs.Tracer) {
	t.Helper()
	if n := reg.Counter("sim_events_total").Value(); n == 0 {
		t.Fatal("observability was armed but sim_events_total stayed 0")
	}
	if len(tr.Snapshot()) == 0 {
		t.Fatal("observability was armed but the op tracer recorded no spans")
	}
}

// TestObsNeutralSimSerial pins the core observability contract on the
// default engine: arming a metrics registry and an op tracer must not
// change a single byte of the scenario report.
func TestObsNeutralSimSerial(t *testing.T) {
	want := renderRunObs(t, tinySpec(), Options{})
	opts, reg, tr := obsOpts(Options{})
	got := renderRunObs(t, tinySpec(), opts)
	requireObserved(t, reg, tr)
	if !bytes.Equal(got, want) {
		t.Fatal("metrics+trace instrumentation changed the serial sim report")
	}
}

// TestObsLiveScrapeDuringRun scrapes the registry continuously
// while the event loop is flushing its batched counters into it: the
// pattern of the /metrics goroutine reading mid-run. Under -race this
// pins that live snapshot reads are consistent with the loop's
// concurrent writes, and that they do not perturb the run's output.
func TestObsLiveScrapeDuringRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario sweep")
	}
	spec, err := LoadFile("../../scenarios/mixed-workload.json")
	if err != nil {
		t.Fatal(err)
	}
	want := renderRunObs(t, spec, Options{})

	opts, reg, tr := obsOpts(Options{})
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("mid-run scrape: %v", err)
				return
			}
			_ = reg.Counter("sim_events_total").Value()
			time.Sleep(time.Millisecond)
		}
	}()
	got := renderRunObs(t, spec, opts)
	close(stop)
	<-scraped
	requireObserved(t, reg, tr)
	if !bytes.Equal(got, want) {
		t.Fatal("mid-run registry scrapes changed the report")
	}
}

// TestObsNeutralMemnet pins the contract on the live-runtime backend:
// real node.Node instances over an in-memory network, with the same
// registry and tracer threaded through node.Config.
func TestObsNeutralMemnet(t *testing.T) {
	want := renderRunObs(t, tinySpec(), Options{Backend: BackendMemnet})
	opts, reg, tr := obsOpts(Options{Backend: BackendMemnet})
	got := renderRunObs(t, tinySpec(), opts)
	requireObserved(t, reg, tr)
	if !bytes.Equal(got, want) {
		t.Fatal("metrics+trace instrumentation changed the memnet report")
	}
}
