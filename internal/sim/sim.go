// Package sim is a deterministic discrete-event simulator: a virtual
// clock, an event queue, seeded randomness, and a message-passing network
// over a fixed host universe, with a configurable per-hop latency model
// and online/offline delivery semantics.
//
// All of the paper's experiments execute on this engine. Determinism is
// a design goal (DESIGN.md §5): the world is single-threaded and events
// with equal timestamps fire in scheduling order, so a (trace, seed)
// pair regenerates every figure bit-identically. One monotone radix
// queue, FIFO among equal deadlines, is the whole determinism story
// (DESIGN.md §14).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"avmem/internal/ids"
)

// World is the simulation universe: clock, event queue, and RNG.
// Create one with NewWorld; the zero value is not usable.
type World struct {
	now    time.Duration
	events eventQueue
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
	w.schedule(at).fn = fn // kind evFunc is the zero value
}

// schedule queues one event of any shape — the single point where keys
// are filed, so closures, deliveries and the SendCall events interleave
// exactly as if each had been an At closure. Clamping at to now is what
// keeps the queue monotone. It returns the event's zeroed slab slot for
// the caller to fill in place; the pointer is valid until the next
// schedule, which may move the slab.
func (w *World) schedule(at time.Duration) *payload {
	if at < w.now {
		at = w.now
	}
	return w.events.push(at)
}

// later returns now+d, saturated at the end of virtual time instead of
// wrapping around to a negative time (which schedule would clamp to now).
func (w *World) later(d time.Duration) time.Duration {
	if d > math.MaxInt64-w.now {
		return math.MaxInt64
	}
	return w.now + d
}

// After schedules fn to run d from now — at the end of virtual time
// (math.MaxInt64) when now+d does not fit.
func (w *World) After(d time.Duration, fn func()) { w.At(w.later(d), fn) }

// Every schedules fn to run now+offset, then every period thereafter,
// until stop returns true (checked before each run) or the next run would
// fall past the end of virtual time. period must be positive.
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
		if period <= math.MaxInt64-w.now {
			w.At(w.now+period, tick)
		}
	}
	w.After(offset, tick)
	return nil
}

// Run processes all events with timestamp <= until, advancing the clock
// event by event, and leaves the clock at until. It returns the number
// of events processed.
func (w *World) Run(until time.Duration) int {
	n := 0
	for w.events.due(until) {
		k := w.events.pop()
		w.now = k.at
		if w.obs != nil {
			w.obs.fired[w.events.class(k.slot)]++
		}
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
	// The bound is checked first: due may refill, and a refill must not
	// move the queue's base past the clock the loop leaves behind.
	for (maxEvents <= 0 || n < maxEvents) && w.events.due(math.MaxInt64) {
		k := w.events.pop()
		w.now = k.at
		if w.obs != nil {
			w.obs.fired[w.events.class(k.slot)]++
		}
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
	return w.events.n
}

// evKind names the four event shapes the queue carries.
type evKind uint8

const (
	// evFunc runs a closure (At/After/Every).
	evFunc evKind = iota
	// evDeliver is the firing half of Network.SendAddr.
	evDeliver
	// evAttempt is the delivery attempt of Network.SendCallAddr or
	// SendNackAddr; it carries the callback and both latencies drawn at
	// send time.
	evAttempt
	// evResult reports a SendCall outcome (ok) to its callback, or a
	// SendNack failure to its nack callback.
	evResult
)

// Event classes, the labels of sim_events_fired_total: the four kinds,
// with evResult split by its verdict.
const (
	classResultNack = int(evResult) + 1
	numClasses      = classResultNack + 1
)

// classNames label the event classes, indexed by class.
var classNames = [numClasses]string{"func", "deliver", "attempt", "result-ok", "result-nack"}

// class returns the event class of the payload in slot.
func (q *eventQueue) class(slot uint32) int {
	p := &q.slab[slot]
	if p.kind == evResult && !p.ok {
		return classResultNack
	}
	return int(p.kind)
}

// payload is the body of a queued event: what to run when its key
// reaches the front of the queue. The shapes share one struct so a slab
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
	// fn is the closure of an evFunc, and the callback of a nack-only
	// evAttempt (SendNackAddr) and of the evResult it may file.
	fn       func()
	onResult func(ok bool) // evAttempt, evResult of SendCallAddr
	// out, back are the two hop latencies of an evAttempt, drawn when the
	// call was sent: the nack fires ackTimeout − out after the attempt,
	// the ack back after it.
	out, back time.Duration
}

// eventKey is what the queue orders: 16 bytes, no pointers. slot
// indexes the payload slab.
type eventKey struct {
	at   time.Duration
	slot uint32
}

// The queue's radix: a key is filed by the highest digitBits-wide digit
// in which it differs from base, and by its own value of that digit —
// digitWays buckets per digit level, levels levels to cover a
// non-negative int64, plus bucket 0 for keys at exactly base.
const (
	digitBits  = 6
	digitWays  = 1 << digitBits
	levels     = (63 + digitBits - 1) / digitBits
	numBuckets = 1 + levels*digitWays
)

// chunkKeys is how many keys one chunk of a bucket holds; chunkBlock
// chunks are allocated at once.
const (
	chunkKeys  = 32
	chunkBlock = 16
)

// keyChunk is a fixed block of keys. Chunks never move, so a pointer to
// one stays valid while the queue grows.
type keyChunk [chunkKeys]eventKey

// bucket is one radix bucket: a FIFO list of chunks, read from the head
// and appended to at the tail.
type bucket struct {
	head, tail int32         // first and last chunk (indexes into eventQueue.chunks)
	lo, hi     int32         // read position in head, write position in tail
	n          int           // keys held; head and tail mean nothing at 0
	min        time.Duration // the smallest at among them
}

// eventQueue is a monotone radix queue with 64-way digits (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990) of keys over a slab of payloads
// that never move. Virtual time never runs backwards — World.schedule
// clamps at to now — so every key pushed is at or after base, the time of
// the last refill. Bucket 0 holds the keys at exactly base; any other key
// lives in bucket (ℓ, d), where ℓ is the highest digit in which at differs
// from base and d is at's value of that digit (bucketOf). Buckets are
// ordered by (ℓ, d), and every key of a lower bucket is earlier than every
// key of a higher one.
//
// Pops come from the front of bucket 0. When it is empty, the lowest
// non-empty bucket — one TrailingZeros over the level mask, one over that
// level's digit mask — is redistributed once around its minimum (the new
// base), which each bucket tracks on insert. Its keys all share digit d
// with the new base, so they land on lower levels, and every other bucket
// stays right as it is. A key moves at most once per level and in practice
// about three times.
//
// Equal deadlines pop in insertion order with no sequence number: pushes
// append at a bucket's tail, and a bucket receives keys from a refill only
// while it is empty (every lower bucket is, or the refill would have taken
// that one), in the order the source held them. So every bucket holds its
// keys in insertion order, and bucket 0 — one deadline — is FIFO.
//
// Buckets are lists of fixed chunks drawn from one shared free list, so
// the queue holds about pending/chunkKeys chunks plus one partial chunk
// per non-empty bucket, however the keys are spread over the buckets.
// Slots vacated by fired events are reused through a free list too, so the
// slab is as long as the largest number of events ever pending at once.
type eventQueue struct {
	base      time.Duration
	n         int                // keys pending
	levelMask uint16             // bit ℓ set iff some bucket of level ℓ holds keys
	digitMask [levels]uint64     // digitMask[ℓ] bit d set iff bucket (ℓ, d) holds keys
	buckets   [numBuckets]bucket // 0, then (ℓ, d) at 1 + ℓ·digitWays + d
	chunks    []*keyChunk
	next      []int32 // next[c]: the chunk after c in its bucket's list
	spare     []int32 // chunks no bucket holds
	moves     uint64  // keys redistributed by refills, ever
	slab      []payload
	free      []uint32
}

// bucketOf returns the bucket a key at at belongs in around base.
func (q *eventQueue) bucketOf(at time.Duration) int {
	x := uint64(at ^ q.base)
	if x == 0 {
		return 0
	}
	l := uint(bits.Len64(x)-1) / digitBits
	d := uint(uint64(at)>>(l*digitBits)) & (digitWays - 1)
	return 1 + int(l<<digitBits|d)
}

// push files a key at at and returns its slab slot, zeroed, for the
// caller to fill in place. The pointer is valid until the next push: the
// slab may move when it grows.
func (q *eventQueue) push(at time.Duration) *payload {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, payload{})
	}
	q.add(q.bucketOf(at), eventKey{at: at, slot: slot})
	q.n++
	return &q.slab[slot]
}

// add appends k to the tail of bucket i.
func (q *eventQueue) add(i int, k eventKey) {
	b := &q.buckets[i]
	if b.n == 0 {
		c := q.newChunk()
		b.head, b.tail, b.lo, b.hi, b.min = c, c, 0, 0, k.at
		if i > 0 {
			l := (i - 1) >> digitBits
			q.levelMask |= 1 << l
			q.digitMask[l] |= 1 << ((i - 1) & (digitWays - 1))
		}
	} else {
		if b.hi == chunkKeys {
			c := q.newChunk()
			q.next[b.tail] = c
			b.tail, b.hi = c, 0
		}
		if k.at < b.min {
			b.min = k.at
		}
	}
	q.chunks[b.tail][b.hi] = k
	b.hi++
	b.n++
}

// newChunk takes a chunk off the shared free list, first refilling the
// list with a block of new chunks when it is empty.
func (q *eventQueue) newChunk() int32 {
	if len(q.spare) == 0 {
		blk := new([chunkBlock]keyChunk)
		for i := range blk {
			q.chunks = append(q.chunks, &blk[i])
			q.next = append(q.next, 0)
			q.spare = append(q.spare, int32(len(q.chunks)-1))
		}
	}
	n := len(q.spare)
	c := q.spare[n-1]
	q.spare = q.spare[:n-1]
	return c
}

// due reports whether the earliest pending key is at or before until,
// refilling an empty bucket 0 when that key is due. It never refills
// around a key beyond until: base must not pass until, or an event
// scheduled later between until and that key would fall below base.
func (q *eventQueue) due(until time.Duration) bool {
	if q.buckets[0].n > 0 {
		return q.base <= until
	}
	if q.levelMask == 0 {
		return false
	}
	l := bits.TrailingZeros16(q.levelMask)
	i := 1 + l<<digitBits + bits.TrailingZeros64(q.digitMask[l])
	if q.buckets[i].min > until {
		return false
	}
	q.refill(i)
	return true
}

// refill empties bucket i — the lowest non-empty one, with bucket 0
// empty — into the buckets below it around its minimum, which becomes
// base. Each source chunk returns to the free list once read.
func (q *eventQueue) refill(i int) {
	src := q.buckets[i]
	q.buckets[i].n = 0
	l := (i - 1) >> digitBits
	if q.digitMask[l] &^= 1 << ((i - 1) & (digitWays - 1)); q.digitMask[l] == 0 {
		q.levelMask &^= 1 << l
	}
	q.base = src.min
	q.moves += uint64(src.n)
	c := src.head
	for left := src.n; left > 0; {
		m := min(left, chunkKeys)
		for _, k := range q.chunks[c][:m] {
			q.add(q.bucketOf(k.at), k)
		}
		left -= m
		q.spare = append(q.spare, c)
		c = q.next[c]
	}
}

// pop removes and returns the front key of bucket 0, which due has just
// reported present. The payload stays in its slot until fire consumes it.
func (q *eventQueue) pop() eventKey {
	b := &q.buckets[0]
	k := q.chunks[b.head][b.lo]
	b.lo++
	b.n--
	q.n--
	if b.n == 0 {
		q.spare = append(q.spare, b.head) // head == tail: fully read
	} else if b.lo == chunkKeys {
		q.spare = append(q.spare, b.head)
		b.head, b.lo = q.next[b.head], 0
	}
	return k
}

// fire runs the event in slot and recycles the slot. What the event
// needs is read out and the slot zeroed — so the closure or message can
// be collected — before anything runs: the callback may push, which
// reuses free slots and may move the slab. nets is the owning world's
// network table (payload.net1).
func (q *eventQueue) fire(slot uint32, nets []*Network) {
	p := &q.slab[slot]
	switch p.kind {
	case evFunc:
		fn := p.fn
		q.release(slot)
		fn()
	case evDeliver:
		n, from, to, msg := nets[p.net1-1], p.fromAddr(), p.toAddr(), p.msg
		q.release(slot)
		n.deliver(from, to, msg)
	case evAttempt:
		call := *p
		q.release(slot)
		nets[call.net1-1].attempt(&call)
	case evResult:
		onResult, onNack, ok := p.onResult, p.fn, p.ok
		q.release(slot)
		if onNack != nil {
			onNack()
		} else {
			onResult(ok)
		}
	}
}

// fromAddr and toAddr reassemble the two addresses of a queued message.
func (p *payload) fromAddr() ids.Addr { return ids.AddrAt(p.from, p.from1-1) }
func (p *payload) toAddr() ids.Addr   { return ids.AddrAt(p.to, p.to1-1) }

// release zeroes a consumed slot and returns it to the free list.
func (q *eventQueue) release(slot uint32) {
	q.slab[slot] = payload{}
	q.free = append(q.free, slot)
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
