package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"avmem/internal/scenario"
)

// mark is one progress line scenario.Run wrote, stamped on arrival.
type mark struct {
	at   time.Time
	text string
}

// snapshot is the process-wide cost counters at one instant.
type snapshot struct {
	at     time.Time
	cpu    time.Duration // getrusage user+sys, all threads
	bytes  uint64        // runtime.MemStats.TotalAlloc
	allocs uint64        // runtime.MemStats.Mallocs
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:  ms.TotalAlloc,
		allocs: ms.Mallocs,
	}
}

// stampWriter is the io.Writer handed to scenario.Run as Options.Log.
// scenario.Run writes one line when the fleet is built ("fleet ready
// ...") and one when each event completes, each with a single Write, so
// stamping the writes times the run's phases from outside the engine.
// The first write also snapshots the cost counters: everything after it
// is the measured simulation, everything before it is set-up.
type stampWriter struct {
	ready snapshot
	marks []mark
}

func (w *stampWriter) Write(p []byte) (int, error) {
	if len(w.marks) == 0 {
		w.ready = takeSnapshot()
		w.marks = append(w.marks, mark{w.ready.at, strings.TrimSpace(string(p))})
	} else {
		w.marks = append(w.marks, mark{time.Now(), strings.TrimSpace(string(p))})
	}
	return len(p), nil
}

// rep is one complete scenario.Run and what it cost.
type rep struct {
	setup  time.Duration // start of Run to the "fleet ready" line
	wall   time.Duration // "fleet ready" to Run's return
	cpu    time.Duration // process CPU over the same interval
	bytes  uint64        // heap bytes allocated over the same interval
	allocs uint64        // heap objects allocated over the same interval
	marks  []mark        // marks[0] is "fleet ready", marks[i+1] is event i
	res    *scenario.Result
	digest string // SHA-256 of Result.WriteReport
	sent   int    // operations the batches report as initiated
	speed  speed  // how slow the machine ran around this rep (ref.go); zero when not bracketed
}

// batchSent matches the leading "<kind> batch: <n>" of the line a
// workload batch writes on completion; n is how many operations found
// an initiator and were started.
var batchSent = regexp.MustCompile(`\b(?:anycast|multicast|rangecast|aggregate) batch: (\d+) `)

// runRep executes spec once. A collected garbage heap before the run
// keeps one rep's leftovers out of the next one's GC work.
func runRep(spec *scenario.Spec, opts scenario.Options) (*rep, error) {
	runtime.GC()
	w := &stampWriter{}
	opts.Log = w
	start := time.Now()
	res, err := scenario.Run(spec, opts)
	end := takeSnapshot()
	if err != nil {
		return nil, err
	}
	if len(w.marks) != 1+len(spec.Events) || !strings.HasPrefix(w.marks[0].text, "fleet ready") {
		return nil, fmt.Errorf("progress log has %d lines for %d events: the phase spans need \"fleet ready\" plus one line per event",
			len(w.marks), len(spec.Events))
	}
	r := &rep{
		setup:  w.ready.at.Sub(start),
		wall:   end.at.Sub(w.ready.at),
		cpu:    end.cpu - w.ready.cpu,
		bytes:  end.bytes - w.ready.bytes,
		allocs: end.allocs - w.ready.allocs,
		marks:  w.marks,
		res:    res,
	}
	for i := range spec.Events {
		if batchCount(&spec.Events[i]) == 0 {
			continue
		}
		m := batchSent.FindStringSubmatch(w.marks[i+1].text)
		if m == nil {
			return nil, fmt.Errorf("event %d: cannot read the initiated count from %q", i, w.marks[i+1].text)
		}
		n, _ := strconv.Atoi(m[1]) // the pattern admits only digits
		r.sent += n
	}
	var report bytes.Buffer
	res.WriteReport(&report)
	sum := sha256.Sum256(report.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	return r, nil
}

// batchCount returns how many operations a workload event asks for (0
// for control events: churn bursts, adversary switches, probes).
func batchCount(e *scenario.Event) int {
	switch {
	case e.AnycastBatch != nil:
		return e.AnycastBatch.Count
	case e.MulticastBatch != nil:
		return e.MulticastBatch.Count
	case e.Rangecast != nil:
		return e.Rangecast.Count
	case e.Aggregate != nil:
		return e.Aggregate.Count
	}
	return 0
}

// opsAttempted is the number of management operations one rep of spec
// asks for.
func opsAttempted(spec *scenario.Spec) int {
	n := 0
	for i := range spec.Events {
		n += batchCount(&spec.Events[i])
	}
	return n
}

// hostHours is the simulated work of one rep: every host of the fleet
// for the warm-up plus the offset of the last event. A per-spec
// constant, so per-host-hour costs compare across fleet sizes and
// horizons (and, times period/1h, give cost per node per protocol
// period).
func hostHours(spec *scenario.Spec) float64 {
	horizon := spec.Warmup.D() + spec.Events[len(spec.Events)-1].At.D()
	return float64(spec.Fleet.Hosts) * horizon.Hours()
}
