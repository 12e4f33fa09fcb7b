package sim

import "avmem/internal/obs"

// This file wires the engine into the obs metrics registry. The
// instrumentation is determinism-neutral by construction: it records
// values the engine already computed (event counts, virtual
// timestamps, the queue's length, chunks and refill moves) into atomic
// instruments and never reads the wall clock. An uninstrumented world
// (w.obs == nil) pays one predictable nil check per event.

// obsFlushEvery is how many fired events the run loops batch
// locally before flushing to the shared atomic counter. Batching keeps
// the per-event cost to an increment-and-compare; the live /metrics
// and -progress readers see totals at most one batch stale.
const obsFlushEvery = 4096

// simObs is the engine's instrument set. The batch count is owned by
// the goroutine running the event loop; everything a live /metrics
// scrape reads is an atomic obs instrument.
type simObs struct {
	events *obs.Counter // sim_events_total
	vtime  *obs.Gauge   // sim_virtual_time_seconds
	depth  *obs.Gauge   // sim_queue_depth: events queued at the last flush
	peak   *obs.Gauge   // sim_queue_depth_peak: the deepest flush so far
	chunks *obs.Gauge   // sim_queue_chunks: key chunks the queue has allocated
	moves  *obs.Counter // sim_queue_key_moves_total: keys moved by refills
	asleep *obs.Counter // sim_timer_runs_asleep_total: timer runs skipped, host offline
	shared *obs.Counter // sim_net_shared_copies_total: copies filed on another copy's delivery body
	batch  int          // local event count since last flush
	moved  uint64       // the queue's refill moves already published
	slept  uint64       // the world's asleep count already published
	copies uint64       // the networks' shared copies already published
	hook   func()       // the owner's own flush (OnFlush), nil when unset
	// fired counts the events of each class (classNames) since the last
	// flush, which adds them to byClass: sim_events_fired_total{kind}.
	fired   [numClasses]int64
	byClass [numClasses]*obs.Counter
}

// Instrument registers the engine's metrics in reg and starts
// recording into them. Call it before the first Run. A nil registry
// leaves the world uninstrumented.
func (w *World) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.obs = &simObs{
		events: reg.Counter("sim_events_total"),
		vtime:  reg.Gauge("sim_virtual_time_seconds"),
		depth:  reg.Gauge("sim_queue_depth"),
		peak:   reg.Gauge("sim_queue_depth_peak"),
		chunks: reg.Gauge("sim_queue_chunks"),
		moves:  reg.Counter("sim_queue_key_moves_total"),
		asleep: reg.Counter("sim_timer_runs_asleep_total"),
		shared: reg.Counter("sim_net_shared_copies_total"),
		moved:  w.events.moves,
		slept:  w.asleep,
		copies: w.sharedCopies(),
	}
	for c, name := range classNames {
		w.obs.byClass[c] = reg.Counter(`sim_events_fired_total{kind="` + name + `"}`)
	}
}

// OnFlush registers fn to run whenever the engine publishes its own
// counters — at batch boundaries and on run-loop exit, on the goroutine
// running the loop — so a deployment can publish plain counters it keeps
// next to its state on the same schedule. No-op on an uninstrumented
// world.
func (w *World) OnFlush(fn func()) {
	if w.obs != nil {
		w.obs.hook = fn
	}
}

// step accounts one fired event of w.
func (o *simObs) step(w *World) {
	o.batch++
	if o.batch >= obsFlushEvery {
		o.flush(w)
	}
}

// flush publishes the local batch and its per-class counts, the clock,
// the queue's depth, chunks and refill moves, the timer runs skipped
// while their hosts slept and the networks' shared copies to the shared
// instruments.
// Called at batch boundaries and on loop exit, so the depth is a sample
// every obsFlushEvery events, not every event's — the peak is the
// deepest sample.
func (o *simObs) flush(w *World) {
	if o.batch > 0 {
		o.events.Add(int64(o.batch))
		o.batch = 0
		for c, n := range o.fired {
			if n > 0 {
				o.byClass[c].Add(n)
				o.fired[c] = 0
			}
		}
	}
	o.vtime.Set(w.now.Seconds())
	queued := float64(w.events.n)
	o.depth.Set(queued)
	if queued > o.peak.Value() {
		o.peak.Set(queued)
	}
	o.chunks.Set(float64(len(w.events.chunks)))
	if m := w.events.moves; m > o.moved {
		o.moves.Add(int64(m - o.moved))
		o.moved = m
	}
	if a := w.asleep; a > o.slept {
		o.asleep.Add(int64(a - o.slept))
		o.slept = a
	}
	if c := w.sharedCopies(); c > o.copies {
		o.shared.Add(int64(c - o.copies))
		o.copies = c
	}
	if o.hook != nil {
		o.hook()
	}
}

// sharedCopies sums the copies the world's networks filed on another
// copy's delivery body (Network.SendAddr).
func (w *World) sharedCopies() uint64 {
	var c uint64
	for _, n := range w.nets {
		c += n.shared
	}
	return c
}
