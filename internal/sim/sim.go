// Package sim is a deterministic discrete-event simulator: a virtual
// clock, an event heap, seeded randomness, and a message-passing network
// with a configurable per-hop latency model and online/offline delivery
// semantics.
//
// All of the paper's experiments execute on this engine. Determinism is
// a design goal (DESIGN.md §5): the world is single-threaded and events
// with equal timestamps fire in scheduling order, so a (trace, seed)
// pair regenerates every figure bit-identically. One (at, seq) heap is
// the whole determinism story (DESIGN.md §14).
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"avmem/internal/ids"
)

// World is the simulation universe: clock, event queue, and RNG.
// Create one with NewWorld; the zero value is not usable.
type World struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	rng    *rand.Rand
	// obs, when non-nil, is the metrics instrumentation installed by
	// Instrument (instrument.go). Determinism-neutral: the run loops
	// only record what they already computed.
	obs *simObs
	// nets are the networks created on this world: a queued delivery names
	// its network by position here (payload.net1) instead of by pointer.
	nets []*Network
}

// NewWorld creates a world at time zero with a deterministic RNG.
func NewWorld(seed int64) *World {
	return &World{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (w *World) Now() time.Duration { return w.now }

// Rand returns the world's deterministic random source.
func (w *World) Rand() *rand.Rand { return w.rng }

// At schedules fn to run at virtual time at. Times in the past run at
// the current instant (never before already-queued same-time events).
func (w *World) At(at time.Duration, fn func()) {
	if fn == nil {
		return
	}
	w.schedule(at, &payload{kind: evFunc, fn: fn})
}

// schedule queues one event of any shape under the next sequence number
// — the single point where (at, seq) keys are assigned, so closures,
// deliveries and the SendCall events interleave exactly as if each had
// been an At closure.
func (w *World) schedule(at time.Duration, p *payload) {
	if at < w.now {
		at = w.now
	}
	w.seq++
	w.events.push(at, w.seq, p)
}

// After schedules fn to run d from now.
func (w *World) After(d time.Duration, fn func()) { w.At(w.now+d, fn) }

// Every schedules fn to run now+offset, then every period thereafter,
// until stop returns true (checked before each run). period must be
// positive.
func (w *World) Every(offset, period time.Duration, stop func() bool, fn func()) error {
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
		w.After(period, tick)
	}
	w.After(offset, tick)
	return nil
}

// Run processes all events with timestamp <= until, advancing the clock
// event by event, and leaves the clock at until. It returns the number
// of events processed.
func (w *World) Run(until time.Duration) int {
	n := 0
	for len(w.events.keys) > 0 && w.events.keys[0].at <= until {
		k := w.events.pop()
		w.now = k.at
		w.events.fire(k.slot, w.nets)
		n++
		if w.obs != nil {
			w.obs.step(w)
		}
	}
	if until > w.now {
		w.now = until
	}
	if w.obs != nil {
		w.obs.flush(w)
	}
	return n
}

// RunAll drains the event queue completely. Periodic schedules created
// with Every never drain; use Run with a horizon for those. maxEvents
// bounds runaway execution (<= 0 means no bound). It returns the number
// of events processed.
func (w *World) RunAll(maxEvents int) int {
	n := 0
	for len(w.events.keys) > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		k := w.events.pop()
		w.now = k.at
		w.events.fire(k.slot, w.nets)
		n++
		if w.obs != nil {
			w.obs.step(w)
		}
	}
	if w.obs != nil {
		w.obs.flush(w)
	}
	return n
}

// Pending returns the number of queued events.
func (w *World) Pending() int {
	return len(w.events.keys)
}

// evKind names the four event shapes the queue carries.
type evKind uint8

const (
	// evFunc runs a closure (At/After/Every).
	evFunc evKind = iota
	// evDeliver is the firing half of Network.SendAddr.
	evDeliver
	// evAttempt is the delivery attempt of Network.SendCallAddr; it
	// carries the callback and both latencies drawn at send time.
	evAttempt
	// evResult reports a SendCall outcome (ok) to its callback.
	evResult
)

// payload is the body of a queued event: what to run when its key
// reaches the head of the heap. The shapes share one struct so a slab
// slot fits any of them; scheduling never boxes through an interface
// nor allocates a closure per message.
type payload struct {
	kind evKind
	ok   bool // evResult: the verdict
	// net1 names the network of an evDeliver or evAttempt: its position in
	// World.nets plus one. A byte instead of a pointer is what lets both
	// address memos ride in the slot at its old size.
	net1 uint8
	// to1 and from1 are the host-index memos of the message's two
	// addresses (index plus one, 0 = none) exactly as the sender handed
	// them over — unverified until the event fires.
	to1, from1 int32
	// from, to, msg: the message of evDeliver and evAttempt.
	from, to ids.NodeID
	msg      any
	fn       func()        // evFunc
	onResult func(ok bool) // evAttempt, evResult
	// out, back are the two hop latencies of an evAttempt, drawn when the
	// call was sent: the nack fires ackTimeout − out after the attempt,
	// the ack back after it.
	out, back time.Duration
}

// eventKey is what the heap orders: 24 bytes, no pointers. slot indexes
// the payload slab.
type eventKey struct {
	at   time.Duration
	seq  uint64
	slot uint32
}

// before orders keys by (at, seq).
func (a *eventKey) before(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is an index-based 4-ary min-heap of keys ordered by
// (at, seq) — earliest deadline first, FIFO among equal deadlines — over
// a slab of payloads that never move. Sifting therefore shuffles three
// plain words per level instead of a pointer-carrying event, and the
// collector never scans the key array. A 4-ary layout halves the tree
// depth of a binary heap, which matters on push — the dominant operation
// in a periodic-reschedule workload, where a pushed event almost always
// carries a deadline at least one protocol period in the future and
// therefore settles after a single parent comparison (the fast path
// BenchmarkSchedulerReschedule measures). Slots vacated by fired events
// are reused through a free list, so the slab is as long as the largest
// number of events ever pending at once.
type eventHeap struct {
	keys []eventKey
	slab []payload
	free []uint32
}

// push copies *p into a free slab slot and inserts its key, sifting the
// hole up from the last leaf.
func (h *eventHeap) push(at time.Duration, seq uint64, p *payload) {
	var slot uint32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = *p
	} else {
		slot = uint32(len(h.slab))
		h.slab = append(h.slab, *p)
	}
	k := eventKey{at: at, seq: seq, slot: slot}
	h.keys = append(h.keys, k)
	keys := h.keys
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(&keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

// pop removes and returns the minimum key, sifting the displaced last
// leaf down. The payload stays in its slot until fire consumes it.
func (h *eventHeap) pop() eventKey {
	keys := h.keys
	top := keys[0]
	last := len(keys) - 1
	k := keys[last]
	keys = keys[:last]
	h.keys = keys
	// Sift the hole at the root down: promote the smallest of up to four
	// children until k fits.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if keys[c].before(&keys[min]) {
				min = c
			}
		}
		if !keys[min].before(&k) {
			break
		}
		keys[i] = keys[min]
		i = min
	}
	if last > 0 {
		keys[i] = k
	}
	return top
}

// fire runs the event in slot and recycles the slot. What the event
// needs is read out and the slot zeroed — so the closure or message can
// be collected — before anything runs: the callback may push, which
// reuses free slots and may move the slab. nets is the owning world's
// network table (payload.net1).
func (h *eventHeap) fire(slot uint32, nets []*Network) {
	p := &h.slab[slot]
	switch p.kind {
	case evFunc:
		fn := p.fn
		h.release(slot)
		fn()
	case evDeliver:
		n, from, to, msg := nets[p.net1-1], p.fromAddr(), p.toAddr(), p.msg
		h.release(slot)
		n.deliver(from, to, msg)
	case evAttempt:
		call := *p
		h.release(slot)
		nets[call.net1-1].attempt(&call)
	case evResult:
		onResult, ok := p.onResult, p.ok
		h.release(slot)
		onResult(ok)
	}
}

// fromAddr and toAddr reassemble the two addresses of a queued message.
func (p *payload) fromAddr() ids.Addr { return ids.AddrAt(p.from, p.from1-1) }
func (p *payload) toAddr() ids.Addr   { return ids.AddrAt(p.to, p.to1-1) }

// release zeroes a consumed slot and returns it to the free list.
func (h *eventHeap) release(slot uint32) {
	h.slab[slot] = payload{}
	h.free = append(h.free, slot)
}

// LatencyModel samples one-way message latencies.
type LatencyModel interface {
	// Sample draws one latency using the provided RNG.
	Sample(rng *rand.Rand) time.Duration
}

// UniformLatency samples uniformly from [Min, Max], the paper's
// per-virtual-hop model ("selected uniformly at random from the
// interval [20ms, 80ms]").
type UniformLatency struct {
	Min time.Duration
	Max time.Duration
}

var _ LatencyModel = UniformLatency{}

// Sample implements LatencyModel.
func (u UniformLatency) Sample(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)+1))
}

// FixedLatency always returns the same latency; handy in tests.
type FixedLatency time.Duration

var _ LatencyModel = FixedLatency(0)

// Sample implements LatencyModel.
func (f FixedLatency) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// PaperLatency is the paper's U[20ms, 80ms] virtual-hop model.
func PaperLatency() LatencyModel {
	return UniformLatency{Min: 20 * time.Millisecond, Max: 80 * time.Millisecond}
}
