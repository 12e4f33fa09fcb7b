package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// This file is the thread-parallel executor: a conservative-window
// parallel discrete-event engine (Chandy–Misra–Bryant style) layered on
// the sharded queue of shard.go. Each shard becomes a *lane* with its
// own heap, clock, sequence counter, RNG stream, and per-destination
// outboxes; a coordinator repeatedly picks the globally minimal pending
// event and — when the lookahead permits — lets every lane drain its
// own heap up to `base + lookahead` on its own worker thread. Cross-lane
// sends travel through per-(src,dst) outbox queues that the coordinator
// drains at window barriers in deterministic lane order, so the merged
// schedule is a pure function of (trace, seed, shards, lookahead) — the
// relaxed determinism contract of DESIGN.md §14: bit-identical across
// repeated runs and any GOMAXPROCS or worker-thread count ≥ 2, but a
// *different* (still deterministic) canonical order than the serial
// tournament of shards with threads ≤ 1.

// seqCtxBits is the width of the scheduling-context tag packed into the
// low bits of every sequence number once SetParallel is configured:
// lanes 0..maxShards-1, plus one global context. Counters live in the
// high bits, so each context's events stay FIFO among themselves and
// the (at, seq) key remains a total order across contexts.
const seqCtxBits = 7

// ctxGlobal tags events scheduled from the coordinator/quiesced context
// (At/After/Every and unbound senders).
const ctxGlobal = maxShards

// lane is the per-shard execution context of the parallel engine. All
// fields are owned by the lane's worker while a window is running and
// by the coordinator between windows; the window barrier (channel send
// + WaitGroup wait) publishes every write.
type lane struct {
	// now is the lane-local clock: the timestamp of the last event this
	// lane fired. The lane's effective clock is max(now, World.now).
	now time.Duration
	// seq counts the lane's scheduled events (high bits of the seq key).
	seq uint64
	// rng is the lane's private deterministic stream, splitmix64-remixed
	// from the world seed so handlers stop contending on the world RNG.
	rng *rand.Rand
	// out[dst] buffers events this lane scheduled onto lane dst during
	// the current window; the coordinator drains them at the barrier in
	// (src, dst, append) order.
	out [][]event
	// deferred holds operations that touch cross-lane shared state
	// (Defer); they run serially at the barrier in (at, seq) order.
	deferred []deferredOp
	// dirty marks that out or deferred is non-empty.
	dirty bool
	// stats is the lane's slice of the network counters.
	stats NetworkStats
	// processed counts events fired by this lane (windows only).
	processed uint64
	// drainNs accumulates wall nanoseconds this lane spent draining in
	// the current window (only timed when the world is instrumented);
	// the coordinator folds it into the obs lane counters at the
	// barrier. Wall-clock reads never influence event order.
	drainNs int64

	_ [16]byte // pad to 128 bytes: lanes are adjacent in one slice
}

// deferredOp is a barrier-deferred operation with its deterministic
// ordering key.
type deferredOp struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// parallelExec is the window/barrier machinery attached to a World by
// SetParallel.
type parallelExec struct {
	w         *World
	threads   int
	lookahead time.Duration
	// enabled gates window execution; DisableParallel clears it and the
	// engine falls back to the serial merged order (same seq encoding,
	// so the fallback point is itself deterministic).
	enabled bool
	// inWindow is true while workers are draining lanes; Defer consults
	// it to decide between immediate and barrier execution.
	inWindow bool
	lanes    []lane
	// hook, when set, runs at the start of every window with the window
	// base time (the deployment layer prefills epoch caches here).
	hook func(base time.Duration)
	// windows counts executed parallel windows (test/diagnostic probe).
	windows uint64

	// Worker plumbing: one persistent goroutine per thread, striped over
	// the lanes (worker j owns lanes j, j+threads, …), signaled per
	// window through its own channel and joined through runWg.
	drainTo time.Duration
	start   []chan struct{}
	runWg   sync.WaitGroup
	wg      sync.WaitGroup
	quit    chan struct{}
	started bool
	closed  bool

	defBuf []deferredOp
}

// splitmix64 is the SplitMix64 finalizer; it remixes (seed, lane) into
// statistically independent per-lane RNG seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SetParallel upgrades a sharded world to thread-parallel execution:
// threads worker goroutines drain the shard heaps concurrently inside
// conservative windows of length lookahead (the minimum cross-shard
// delivery latency — see BoundedLatency). It must be called once, after
// SetShards and before anything is scheduled, because it switches the
// sequence-number encoding (and therefore the canonical event order)
// for the whole run. threads is clamped to the shard count. The caller
// owns teardown: Close stops the workers.
func (w *World) SetParallel(threads int, lookahead time.Duration) error {
	if w.par != nil {
		return fmt.Errorf("sim: parallel execution already configured")
	}
	if w.sh == nil {
		return fmt.Errorf("sim: SetParallel requires a sharded queue (call SetShards first)")
	}
	if threads < 2 {
		return fmt.Errorf("sim: SetParallel needs at least 2 threads, got %d", threads)
	}
	if lookahead <= 0 {
		return fmt.Errorf("sim: lookahead must be positive, got %v", lookahead)
	}
	if w.sh.pending() > 0 || len(w.events.keys) > 0 {
		return fmt.Errorf("sim: SetParallel must be called before scheduling events")
	}
	n := len(w.sh.shards)
	if threads > n {
		threads = n
	}
	p := &parallelExec{
		w:         w,
		threads:   threads,
		lookahead: lookahead,
		enabled:   true,
		lanes:     make([]lane, n),
		start:     make([]chan struct{}, threads),
		quit:      make(chan struct{}),
	}
	for i := range p.lanes {
		ln := &p.lanes[i]
		ln.rng = rand.New(rand.NewSource(int64(splitmix64(uint64(w.seed) ^ uint64(i+1)*0x9E3779B97F4A7C15))))
		ln.out = make([][]event, n)
	}
	w.par = p
	return nil
}

// ParallelActive reports whether conservative-window parallel execution
// is configured and still enabled (DisableParallel clears it).
func (w *World) ParallelActive() bool { return w.par != nil && w.par.enabled }

// ParallelWindows reports how many parallel windows have executed — the
// probe tests use to assert the engine actually ran multi-threaded.
func (w *World) ParallelWindows() uint64 {
	if w.par == nil {
		return 0
	}
	return w.par.windows
}

// DisableParallel permanently falls back to serial merged execution
// (the deployment layer calls this when a mid-run reconfiguration —
// e.g. a monitor-noise ramp — introduces state the lanes cannot touch
// concurrently). The sequence encoding is unchanged, so the run stays
// deterministic; it just stops using windows. Must be called from
// quiesced context (never from inside a running window).
func (w *World) DisableParallel() {
	if w.par != nil {
		if w.par.enabled && w.obs != nil {
			w.obs.disabled.Inc()
		}
		w.par.enabled = false
	}
}

// SetWindowHook registers fn to run at the start of every parallel
// window with the window's base time, before any lane starts draining.
// The deployment layer uses it to prefill per-epoch caches so window
// reads stay pure.
func (w *World) SetWindowHook(fn func(base time.Duration)) {
	if w.par != nil {
		w.par.hook = fn
	}
}

// Close stops the worker goroutines. Idempotent; a no-op for worlds
// without parallel execution. The world must be quiesced (no Run in
// progress).
func (w *World) Close() {
	p := w.par
	if p == nil || p.closed {
		return
	}
	p.closed = true
	if p.started {
		close(p.quit)
		p.wg.Wait()
	}
}

// laneFor maps a host index onto its owning lane (host mod shards —
// the same placement shardedQueue.push uses for host-owned events).
func (p *parallelExec) laneFor(host int32) int {
	return int(uint32(host)) % len(p.lanes)
}

// laneNow is lane l's effective clock: its local clock, floored by the
// world clock (the current window base, or the quiesced time).
func (p *parallelExec) laneNow(l int) time.Duration {
	if t := p.lanes[l].now; t > p.w.now {
		return t
	}
	return p.w.now
}

// laneSeq allocates the next (counter, lane) sequence key for lane l.
// Must be called from l's own context (its worker during a window, or
// the coordinator between windows).
func (p *parallelExec) laneSeq(l int) uint64 {
	ln := &p.lanes[l]
	ln.seq++
	return ln.seq<<seqCtxBits | uint64(l)
}

// globalSeq allocates the next global-context sequence key.
func (w *World) globalSeq() uint64 {
	w.seq++
	return w.seq<<seqCtxBits | ctxGlobal
}

// pushFrom schedules ev — created in lane src's context — onto lane
// dst: same-lane events go straight into the lane's heap, cross-lane
// events into the src→dst outbox with their timestamp clamped to at
// least one lookahead past src's clock (the conservative-safety bound;
// network latencies already respect it, the clamp is defensive).
func (p *parallelExec) pushFrom(src, dst int, ev event) {
	if dst == src {
		p.w.sh.shards[dst].push(ev.at, ev.seq, &ev.payload)
		return
	}
	ln := &p.lanes[src]
	if min := p.laneNow(src) + p.lookahead; ev.at < min {
		ev.at = min
	}
	ln.out[dst] = append(ln.out[dst], ev)
	ln.dirty = true
}

// HostScheduler is a host-affine clock/timer facade over the world: in
// a parallel world, Now is the host's lane clock and After schedules on
// the host's lane, so per-host protocol code runs entirely inside its
// lane. In a serial world both degrade to the world clock and heap. It
// satisfies the runtime layer's Scheduler contract.
type HostScheduler struct {
	w    *World
	host int32
}

// HostScheduler returns the host-affine scheduler facade for host.
func (w *World) HostScheduler(host int32) *HostScheduler {
	return &HostScheduler{w: w, host: host}
}

// Now returns the host's effective clock.
func (s *HostScheduler) Now() time.Duration { return s.w.hostNow(s.host) }

// After schedules fn on the host's lane, d past the host's clock.
func (s *HostScheduler) After(d time.Duration, fn func()) { s.w.AfterHost(d, s.host, fn) }

// hostNow returns host's effective clock: its lane clock in a parallel
// world, the world clock otherwise.
func (w *World) hostNow(host int32) time.Duration {
	if w.par == nil {
		return w.now
	}
	return w.par.laneNow(w.par.laneFor(host))
}

// AtHost schedules fn at virtual time at, on host's lane in a parallel
// world (falling back to At otherwise). In a parallel world it may only
// be called from the owning lane's context or while the world is
// quiesced — the lane's heap, clock, and sequence counter are touched
// without locks.
func (w *World) AtHost(at time.Duration, host int32, fn func()) {
	if fn == nil {
		return
	}
	p := w.par
	if p == nil {
		w.At(at, fn)
		return
	}
	l := p.laneFor(host)
	if hnow := p.laneNow(l); at < hnow {
		at = hnow
	}
	w.sh.shards[l].push(at, p.laneSeq(l), &payload{kind: evFunc, fn: fn})
}

// AfterHost schedules fn d past host's effective clock, on host's lane.
// Same context rules as AtHost.
func (w *World) AfterHost(d time.Duration, host int32, fn func()) {
	w.AtHost(w.hostNow(host)+d, host, fn)
}

// EveryHost is Every with lane affinity: the periodic tick lives on
// host's lane and reschedules itself against the lane clock, so a
// cohort driver keyed to one lane runs inside parallel windows without
// touching any other lane's state.
func (w *World) EveryHost(offset, period time.Duration, host int32, stop func() bool, fn func()) error {
	if period <= 0 {
		return fmt.Errorf("sim: period must be positive, got %v", period)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil periodic function")
	}
	var tick func()
	tick = func() {
		if stop != nil && stop() {
			return
		}
		fn()
		w.AfterHost(period, host, tick)
	}
	w.AfterHost(offset, host, tick)
	return nil
}

// Defer runs fn serially at the next window barrier when called from
// inside a parallel window, and immediately otherwise. Lane code uses
// it for operations that touch state owned by other lanes (the central
// shuffle's view exchanges, rejoin bootstraps). Barrier execution order
// is the deterministic (at, seq) order of the deferring events. host
// names the calling lane (the code must actually be running on it).
func (w *World) Defer(host int32, fn func()) {
	p := w.par
	if p == nil || !p.inWindow {
		fn()
		return
	}
	l := p.laneFor(host)
	ln := &p.lanes[l]
	at := p.laneNow(l)
	ln.deferred = append(ln.deferred, deferredOp{at: at, seq: p.laneSeq(l), fn: fn})
	ln.dirty = true
}

// LaneRand returns the deterministic RNG stream for host's lane (the
// world RNG in a serial world). Lane streams may only be used from
// their own lane's context.
func (w *World) LaneRand(host int32) *rand.Rand {
	if w.par == nil {
		return w.rng
	}
	return w.par.lanes[w.par.laneFor(host)].rng
}

// spawnWorkers starts the persistent worker pool: thread j drains lanes
// j, j+threads, … each window. Lazy — only worlds that actually execute
// a window pay for goroutines.
func (p *parallelExec) spawnWorkers() {
	p.started = true
	for j := 0; j < p.threads; j++ {
		ch := make(chan struct{}, 1)
		p.start[j] = ch
		p.wg.Add(1)
		go func(j int, ch chan struct{}) {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case <-ch:
					for l := j; l < len(p.lanes); l += p.threads {
						p.drainLane(l)
					}
					p.runWg.Done()
				}
			}
		}(j, ch)
	}
}

// drainLane fires lane l's events with at < drainTo, advancing the
// lane clock. Runs on the lane's worker.
func (p *parallelExec) drainLane(l int) {
	ln := &p.lanes[l]
	h := &p.w.sh.shards[l]
	drainTo := p.drainTo
	var t0 time.Time
	if p.w.obs != nil {
		t0 = time.Now()
	}
	for len(h.keys) > 0 && h.keys[0].at < drainTo {
		k := h.pop()
		ln.now = k.at
		h.fire(k.slot)
		ln.processed++
	}
	if p.w.obs != nil {
		ln.drainNs += time.Since(t0).Nanoseconds()
	}
}

// drainBarrier flushes every lane's outboxes into the destination heaps
// (src-major, then dst, then FIFO — a deterministic order) and runs the
// deferred operations in (at, seq) order. Called by the coordinator
// between windows and before head selection.
func (p *parallelExec) drainBarrier() {
	nDef := 0
	for s := range p.lanes {
		ls := &p.lanes[s]
		if !ls.dirty {
			continue
		}
		ls.dirty = false
		for d := range ls.out {
			box := ls.out[d]
			if len(box) == 0 {
				continue
			}
			if o := p.w.obs; o != nil {
				o.outboxFlush.Observe(float64(len(box)))
			}
			for i := range box {
				p.w.sh.shards[d].push(box[i].at, box[i].seq, &box[i].payload)
				box[i] = event{}
			}
			ls.out[d] = box[:0]
		}
		nDef += len(ls.deferred)
	}
	if nDef == 0 {
		return
	}
	buf := p.defBuf[:0]
	for s := range p.lanes {
		ls := &p.lanes[s]
		buf = append(buf, ls.deferred...)
		for i := range ls.deferred {
			ls.deferred[i] = deferredOp{}
		}
		ls.deferred = ls.deferred[:0]
	}
	sort.Slice(buf, func(a, b int) bool {
		if buf[a].at != buf[b].at {
			return buf[a].at < buf[b].at
		}
		return buf[a].seq < buf[b].seq
	})
	for i := range buf {
		buf[i].fn()
		buf[i].fn = nil
	}
	p.defBuf = buf[:0]
}

// runParallel is the coordinator loop behind Run and RunAll for a
// parallel-configured world. Each iteration drains the barrier, finds
// the globally minimal pending event, and either fires it serially
// (global-context events, or when the lookahead window would be empty
// or windows are disabled) or launches one conservative window: all
// lanes drain concurrently up to min(base+lookahead, next global event,
// until). maxEvents (<= 0: unbounded) is checked between windows, so a
// window may overshoot it slightly.
func (w *World) runParallel(until time.Duration, maxEvents int) int {
	p := w.par
	n := 0
	for {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		p.drainBarrier()
		var ghead, lhead *eventKey
		if len(w.events.keys) > 0 {
			ghead = &w.events.keys[0]
		}
		li := -1
		for i := range w.sh.shards {
			keys := w.sh.shards[i].keys
			if len(keys) == 0 {
				continue
			}
			if lhead == nil || keys[0].before(lhead) {
				lhead = &keys[0]
				li = i
			}
		}
		if ghead != nil && (lhead == nil || ghead.before(lhead)) {
			// Global-context event is globally minimal: fire serially.
			if ghead.at > until {
				break
			}
			k := w.events.pop()
			w.now = k.at
			w.events.fire(k.slot)
			n++
			if w.obs != nil {
				w.obs.serialSteps.Inc()
				w.obs.step(w.now)
			}
			continue
		}
		if lhead == nil || lhead.at > until {
			break
		}
		base := lhead.at
		end := base + p.lookahead
		if end < base {
			end = maxDuration // overflow guard (RunAll horizon)
		}
		if ghead != nil && ghead.at < end {
			end = ghead.at
		}
		if until < maxDuration && until+1 < end {
			end = until + 1 // events at exactly `until` must still fire
		}
		if !p.enabled || end <= base {
			// Serial step on the winning lane: the window would be empty
			// (a global event shares the base timestamp) or windows are
			// disabled — the tournament-merge fallback.
			k := w.sh.shards[li].pop()
			w.now = k.at
			p.lanes[li].now = k.at
			w.sh.shards[li].fire(k.slot)
			n++
			if w.obs != nil {
				w.obs.serialSteps.Inc()
				w.obs.step(w.now)
			}
			continue
		}
		// One conservative window [base, end).
		w.now = base
		if p.hook != nil {
			p.hook(base)
		}
		if !p.started {
			p.spawnWorkers()
		}
		p.drainTo = end
		p.inWindow = true
		var wstart time.Time
		if w.obs != nil {
			wstart = time.Now()
		}
		p.runWg.Add(p.threads)
		for j := range p.start {
			p.start[j] <- struct{}{}
		}
		p.runWg.Wait()
		p.inWindow = false
		p.windows++
		if w.obs != nil {
			w.obs.flush(w.now)
			w.obs.windowDone(w.now, p.lanes, time.Since(wstart).Nanoseconds())
		}
		for i := range p.lanes {
			n += int(p.lanes[i].processed)
			p.lanes[i].processed = 0
		}
	}
	if until < maxDuration && until > w.now {
		w.now = until
	}
	if w.obs != nil {
		w.obs.flush(w.now)
	}
	return n
}

// maxDuration is the RunAll horizon sentinel.
const maxDuration = time.Duration(1<<63 - 1)

// BoundedLatency is a LatencyModel with a guaranteed lower bound on
// every sample — the lookahead of the parallel engine.
type BoundedLatency interface {
	LatencyModel
	// MinLatency returns a value no Sample call will go below.
	MinLatency() time.Duration
}

// MinLatency implements BoundedLatency.
func (u UniformLatency) MinLatency() time.Duration { return u.Min }

// MinLatency implements BoundedLatency.
func (f FixedLatency) MinLatency() time.Duration { return time.Duration(f) }

// LookaheadOf returns the conservative lookahead a latency model
// guarantees: its minimum one-way latency, or 0 when the model declares
// no bound (which disables window parallelism).
func LookaheadOf(m LatencyModel) time.Duration {
	if b, ok := m.(BoundedLatency); ok {
		return b.MinLatency()
	}
	return 0
}
