package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"avmem/internal/obs"
)

// obsFlags is the observability flag set of `avmemsim run`: the live
// telemetry surface, the end-of-run metrics dump, the causal op trace
// exports, and the periodic progress line. All of it is
// determinism-neutral — the scenario report on stdout is byte-identical
// whether or not any of these are set (pinned by
// internal/scenario/obs_test.go); telemetry goes to its own sinks
// (HTTP, files, stderr).
type obsFlags struct {
	metricsAddr string
	metricsOut  string
	metricsHold time.Duration
	traceOps    string
	traceJSONL  string
	progress    bool
}

// enabled reports whether any observability feature was requested.
func (f obsFlags) enabled() bool {
	return f.metricsAddr != "" || f.metricsOut != "" || f.traceOps != "" ||
		f.traceJSONL != "" || f.progress
}

// obsSetup is the live observability state of one `avmemsim run`.
type obsSetup struct {
	flags  obsFlags
	reg    *obs.Registry
	tracer *obs.Tracer
	srv    *obs.Server
	stop   chan struct{}
	done   chan struct{}
	errw   io.Writer
}

// startObs builds the registry/tracer, binds the telemetry listener,
// and starts the progress ticker. Returns nil when no observability
// flag is set — the zero-cost path.
func startObs(f obsFlags, errw io.Writer) (*obsSetup, error) {
	if !f.enabled() {
		return nil, nil
	}
	s := &obsSetup{flags: f, reg: obs.NewRegistry(), errw: errw}
	if f.traceOps != "" || f.traceJSONL != "" {
		s.tracer = obs.NewTracer(0)
	}
	if f.metricsAddr != "" {
		srv, err := obs.Serve(f.metricsAddr, s.reg)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr %s: %w", f.metricsAddr, err)
		}
		s.srv = srv
		fmt.Fprintf(errw, "telemetry: serving /metrics /healthz /debug/pprof on http://%s\n", srv.Addr)
	}
	if f.progress {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.progressLoop()
	}
	return s, nil
}

// progressLoop prints one stderr line per second with virtual time,
// total events, and the wall-clock event rate. It only reads atomic
// snapshots from the registry — the engine never notices it running.
func (s *obsSetup) progressLoop() {
	defer close(s.done)
	events := s.reg.Counter("sim_events_total")
	vtime := s.reg.Gauge("sim_virtual_time_seconds")
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last := int64(0)
	lastWall := time.Now()
	line := func() {
		n := events.Value()
		now := time.Now()
		rate := float64(n-last) / now.Sub(lastWall).Seconds()
		last, lastWall = n, now
		vt := time.Duration(vtime.Value() * float64(time.Second)).Round(time.Second)
		fmt.Fprintf(s.errw, "progress: vt=%v events=%d (%.0f ev/s)\n", vt, n, rate)
	}
	for {
		select {
		case <-s.stop:
			// Runs shorter than one tick still get a (final) line.
			line()
			return
		case <-tick.C:
			line()
		}
	}
}

// finish flushes every requested sink: stops the progress ticker,
// honors -metrics-hold (the listener keeps serving the final counters
// so a scraper can collect them), writes the trace exports and the
// metrics dump, and shuts the listener down. Safe on a nil receiver.
func (s *obsSetup) finish() error {
	if s == nil {
		return nil
	}
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	// What the op-trace ring evicted is a number on the run's registry —
	// before the hold, so a final scrape carries it like -metrics-out does.
	dropped := s.tracer.Dropped()
	s.reg.Counter("obs_trace_spans_dropped_total").Add(dropped)
	if s.srv != nil && s.flags.metricsHold > 0 {
		fmt.Fprintf(s.errw, "telemetry: holding /metrics on http://%s for %v\n", s.srv.Addr, s.flags.metricsHold)
		time.Sleep(s.flags.metricsHold)
	}
	var firstErr error
	if s.srv != nil {
		if err := s.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.flags.traceOps != "" {
		if err := writeFileWith(s.flags.traceOps, s.tracer.WriteChromeTrace); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.flags.traceJSONL != "" {
		if err := writeFileWith(s.flags.traceJSONL, s.tracer.WriteJSONL); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(s.errw, "telemetry: op-trace ring dropped %d oldest spans (raise obs.DefaultTraceCap to keep more)\n", dropped)
	}
	if s.flags.metricsOut != "" {
		if s.flags.metricsOut == "-" {
			if err := s.reg.WritePrometheus(s.errw); err != nil && firstErr == nil {
				firstErr = err
			}
		} else if err := writeFileWith(s.flags.metricsOut, s.reg.WritePrometheus); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// writeFileWith creates path and streams fn into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkTrace implements `avmemsim tracecheck`: the minimal Chrome
// trace-event schema gate CI runs over emitted op traces.
func checkTrace(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: avmemsim tracecheck <trace.json> [more.json ...]")
	}
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		n, err := obs.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("tracecheck %s: %w", path, err)
		}
		fmt.Fprintf(out, "trace %q valid: %d event(s)\n", path, n)
	}
	return nil
}
