// Package sim is a deterministic discrete-event simulator: a virtual
// clock, an event queue, seeded randomness, and a message-passing network
// over a fixed host universe, with a configurable per-hop latency model
// and online/offline delivery semantics.
//
// All of the paper's experiments execute on this engine. Determinism is
// a design goal (DESIGN.md §5): the world is single-threaded and events
// with equal timestamps fire in scheduling order, so a (trace, seed)
// pair regenerates every figure bit-identically. Events live in one
// monotone radix queue, FIFO among equal deadlines, and periodic timers
// from their second run on in one FIFO ring per period. Every push and
// every re-arm takes the next push rank, and the loop fires whichever of
// the queue head and the earliest ring head comes first by (at, rank):
// exactly the order the timers' re-pushes would have taken, as long as
// two events due at the same instant were ranked fewer than 2³¹ ranks
// apart (DESIGN.md §5, §14).
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
	// rings hold the periodic timers past their first run, one ring per
	// period (timerRing). timers counts their members; first indexes the
	// ring whose head comes first by (at, rank), -1 when every ring is
	// empty, and ringAt is that head's at (math.MaxInt64 when none) —
	// the one value the run loop compares each queue event against.
	rings  []timerRing
	timers int
	first  int
	ringAt time.Duration
	// online is the liveness probe of the first network bound on this
	// world (Network.Bind): a host-bound timer's run is skipped while it
	// reports the timer's host offline, and asleep counts those runs.
	// Without a bound network every host is online.
	online func(i int) bool
	asleep uint64
}

// NewWorld creates a world at time zero with a deterministic RNG.
func NewWorld(seed int64) *World {
	return &World{rng: rand.New(rand.NewSource(seed)), first: -1, ringAt: math.MaxInt64}
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
// the caller to fill in place; slots never move, so the pointer names
// the event until it fires.
func (w *World) schedule(at time.Duration) *payload {
	return w.events.push(w.notBefore(at))
}

// notBefore returns at, or now when at is in the past.
func (w *World) notBefore(at time.Duration) time.Duration { return max(at, w.now) }

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

// Stoppable is the owner of callbacks scheduled with AfterUnless: once
// it reports stopped, they fire as no-ops.
type Stoppable interface{ Stopped() bool }

// AfterUnless is After for a callback that belongs to s: the event asks
// s when it comes due and skips fn once s is stopped. The check rides in
// the queued event itself (its payload's otherwise unused message
// field), so a caller with a stop condition allocates no wrapper closure
// per call, and the event still fires, and counts, as a func.
func (w *World) AfterUnless(d time.Duration, s Stoppable, fn func()) {
	if fn == nil {
		return
	}
	p := w.schedule(w.later(d))
	p.fn, p.msg = fn, s
}

// Every schedules fn to run now+offset, then every period thereafter,
// until stop returns true (checked before each run) or the next run would
// fall past the end of virtual time. period must be positive.
//
// The first run is a queued event that carries the timer; from then on
// the timer is a member of its period's ring, re-armed at its tail with
// the rank its re-push would have taken, so it fires in exactly the order
// a closure re-pushed after each run would, and a run allocates nothing.
func (w *World) Every(offset, period time.Duration, stop func() bool, fn func()) error {
	var s Stoppable
	if stop != nil {
		s = stopFunc(stop)
	}
	return w.EveryHost(-1, offset, period, s, fn)
}

// stopFunc is a stop check as a Stoppable. A func value is one pointer,
// so boxing it allocates nothing.
type stopFunc func() bool

func (f stopFunc) Stopped() bool { return f() }

// EveryHost is Every for a timer that belongs to host, an index of the
// universe the world's first bound network declares (Network.Bind), or
// -1 for none, and to s (nil: none), which a run asks whether the timer
// stopped, as an AfterUnless event asks its owner. While the network's
// liveness probe reports host offline, a run asks neither s nor fn: the
// timer is only re-armed, exactly as a run would re-arm it, and still
// counts as a fired timer (and in sim_timer_runs_asleep_total). A timer
// stopped while its host slept is therefore dropped at its first run
// once the host is back. The first run is queued as an event that
// carries the timer itself (evTimer), so starting a timer allocates
// nothing.
func (w *World) EveryHost(host int, offset, period time.Duration, s Stoppable, fn func()) error {
	if period <= 0 {
		return fmt.Errorf("sim: period must be positive, got %v", period)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil periodic function")
	}
	r := w.ring(period)
	p := w.schedule(w.later(offset))
	p.kind, p.fn, p.msg = evTimer, fn, s
	p.to1, p.from1 = int32(max(host, -1))+1, int32(r)
	return nil
}

// startTimer makes the first run of the timer the evTimer event in slot
// carries, releasing the slot first as fire does.
func (w *World) startTimer(slot uint32) {
	p := w.events.at(slot)
	t, r := timer{host1: p.to1, fn: p.fn}, int(p.from1)
	if p.msg != nil {
		t.stop = p.msg.(Stoppable)
	}
	w.events.release(slot)
	w.runTimer(r, t)
}

// runTimer makes one run of t, a timer of ring r, at now: its stop check
// and function unless its host sleeps, then its re-arm unless it
// stopped.
func (w *World) runTimer(r int, t timer) {
	if t.host1 == 0 || !w.sleeps(t.host1) {
		if t.stop != nil && t.stop.Stopped() {
			return
		}
		t.fn()
	}
	w.rearm(r, t)
}

// sleeps reports whether the host of a timer (its index plus one) is
// offline now, counting the run it skips.
func (w *World) sleeps(host1 int32) bool {
	if w.online == nil || w.online(int(host1-1)) {
		return false
	}
	w.asleep++
	return true
}

// Run processes all events with timestamp <= until, advancing the clock
// event by event, and leaves the clock at until. It returns the number
// of events processed.
func (w *World) Run(until time.Duration) int {
	n := w.run(until, 0)
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
	n := w.run(math.MaxInt64, maxEvents)
	if w.obs != nil {
		w.obs.flush(w)
	}
	return n
}

// run fires events at or before until, at most maxEvents of them (<= 0:
// no bound), and returns how many it fired. The bound is checked first:
// due may refill, and a refill must not move the queue's base past the
// clock the loop leaves behind. For the same reason the queue is asked
// only up to the earliest ring head: a ring timer that fires before the
// queue's next key may schedule at its own instant, below a base moved to
// that key.
func (w *World) run(until time.Duration, maxEvents int) int {
	n := 0
	for maxEvents <= 0 || n < maxEvents {
		if w.events.due(min(until, w.ringAt)) && (w.events.base < w.ringAt || !w.timerFirst()) {
			k := w.events.pop()
			w.now = k.at
			if w.obs != nil {
				w.obs.fired[w.events.class(k.slot)]++
			}
			if w.events.fire(k, w.nets) {
				w.startTimer(k.slot)
			}
		} else if w.first >= 0 && w.ringAt <= until {
			if w.obs != nil {
				w.obs.fired[classTimer]++
			}
			w.fireTimer()
		} else {
			break
		}
		n++
		if w.obs != nil {
			w.obs.step(w)
		}
	}
	return n
}

// Pending returns the number of pending events: queued ones and
// periodic timers waiting in their rings.
func (w *World) Pending() int {
	return w.events.n + w.timers
}

// timer is a periodic timer waiting in its period's ring: its next run
// and the push rank that run takes, its host's index plus one (0 = none;
// EveryHost), its owner's stop check and its function. The host fills
// what would be padding after the rank.
type timer struct {
	at    time.Duration
	rank  uint32
	host1 int32
	stop  Stoppable
	fn    func()
}

// timerRing is the FIFO of every timer of one period, a circular buffer
// read at head whose length is a power of two. A member is appended one
// period after the run that re-armed it, with the next push rank, so it
// is never earlier by (at, rank) than a member already held: the ring
// stays sorted, and its head is its first timer. started counts the
// timers ever started on the period, so the buffer is sized for all of
// them at once.
type timerRing struct {
	period  time.Duration
	buf     []timer
	head, n int
	started int
}

// ring counts one more timer started on period and returns the index of
// its ring, adding an empty one for a new period.
func (w *World) ring(period time.Duration) int {
	for i := range w.rings {
		if w.rings[i].period == period {
			w.rings[i].started++
			return i
		}
	}
	w.rings = append(w.rings, timerRing{period: period, started: 1})
	return len(w.rings) - 1
}

// rearm files t, which has just run at now, one period later at the tail
// of ring r with the next push rank — or drops it when that run would
// fall past the end of virtual time.
func (w *World) rearm(r int, t timer) {
	g := &w.rings[r]
	if g.period > math.MaxInt64-w.now {
		return
	}
	t.at, t.rank = w.now+g.period, w.events.rank
	w.events.rank++
	if g.n == len(g.buf) {
		size := 8
		for size <= len(g.buf) || size < g.started {
			size *= 2
		}
		buf := make([]timer, size)
		for i := range g.n {
			buf[i] = g.buf[(g.head+i)&(len(g.buf)-1)]
		}
		g.buf, g.head = buf, 0
	}
	g.buf[(g.head+g.n)&(len(g.buf)-1)] = t
	g.n++
	w.timers++
	if g.n == 1 {
		w.nextTimer()
	}
}

// fireTimer runs the earliest ring head, which the run loop has found
// due before every queued event, and re-arms it.
func (w *World) fireTimer() {
	r := w.first
	g := &w.rings[r]
	t := g.buf[g.head]
	g.buf[g.head] = timer{}
	g.head = (g.head + 1) & (len(g.buf) - 1)
	g.n--
	w.timers--
	w.nextTimer()
	w.now = t.at
	w.runTimer(r, t)
}

// nextTimer finds the ring whose head comes first by (at, rank) and
// caches it in first and ringAt.
func (w *World) nextTimer() {
	w.first, w.ringAt = -1, math.MaxInt64
	for i := range w.rings {
		g := &w.rings[i]
		if g.n == 0 {
			continue
		}
		h := &g.buf[g.head]
		if w.first < 0 || h.at < w.ringAt || h.at == w.ringAt && rankBefore(h.rank, w.headRank()) {
			w.first, w.ringAt = i, h.at
		}
	}
}

// headRank is the rank of the earliest ring head.
func (w *World) headRank() uint32 {
	g := &w.rings[w.first]
	return g.buf[g.head].rank
}

// timerFirst reports whether the earliest ring head fires before the
// queue head, both due at base: the tie is broken by push rank.
func (w *World) timerFirst() bool {
	return w.first >= 0 && rankBefore(w.headRank(), w.events.headRank())
}

// rankBefore reports whether push rank a was taken before b. Ranks wrap
// around at 2³²; the difference read as signed is exact while the two
// were taken fewer than 2³¹ ranks apart.
func rankBefore(a, b uint32) bool { return int32(a-b) < 0 }

// evKind names the six event shapes the queue carries; each but evTimer
// is also the event's class (classNames).
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
	// evAck reports a SendCall success to its callback.
	evAck
	// evNack reports a SendCall failure to its callback, or a SendNack
	// failure to its nack callback.
	evNack
	// evTimer is the first run of a periodic timer (EveryHost),
	// counted as a func: fn, its stop check in msg, its host index plus
	// one in to1 and its ring in from1. World.run makes the run
	// (startTimer); later runs come out of the ring.
	evTimer
)

// Event classes, the labels of sim_events_fired_total: the five kinds
// and the runs of periodic timers out of their rings ("func" counts only
// closures that went through the queue, an Every's first run among
// them).
const (
	classTimer = int(evNack) + 1
	numClasses = classTimer + 1
)

// classNames label the event classes, indexed by class.
var classNames = [numClasses]string{"func", "deliver", "attempt", "result-ok", "result-nack", "timer"}

// class returns the event class of the payload in slot.
func (q *eventQueue) class(slot uint32) int {
	if k := q.at(slot).kind; k != evTimer {
		return int(k)
	}
	return int(evFunc)
}

// payload is the body of a queued event: what to run when its key
// reaches the front of the queue. The shapes share one struct so a slab
// slot fits any of them; scheduling never boxes through an interface
// nor allocates a closure per message.
//
// An evDeliver payload is a delivery body: the copies of one message
// that one sender fanned out at one instant share it, each with a key of
// its own that names its target (eventKey.to1; Network.SendAddr).
type payload struct {
	kind evKind
	// net1 names the network of an evDeliver or evAttempt: its position in
	// World.nets plus one. A byte instead of a pointer is what lets both
	// address memos ride in the slot at its old size.
	net1 uint8
	// copies counts the keys of an evDeliver body still queued; the last
	// one to fire releases the slot.
	copies uint16
	// to1 and from1 are the host-index memos of the message's two
	// addresses (index plus one, 0 = none) exactly as the sender handed
	// them over — unverified until the event fires. to1 is the target of
	// a body's first copy only.
	to1, from1 int32
	// rank is the push rank the event was filed with (eventQueue.rank),
	// read only when the event ties with a ring timer on its deadline —
	// for a body, its first copy's rank, which decides that tie for every
	// copy: the copies took consecutive ranks (Network.SendAddr), so no
	// timer's rank lies between them. It fills what was padding, so the
	// slot stays 96 bytes.
	rank uint32
	// from, to, msg: the message of evDeliver and evAttempt; msg is
	// also the Stoppable of an AfterUnless evFunc and of an evTimer.
	from, to ids.NodeID
	msg      any
	// fn is the closure of an evFunc, and the callback of a nack-only
	// evAttempt (SendNackAddr) and of the evNack it may file.
	fn       func()
	onResult func(ok bool) // evAttempt, evAck and evNack of SendCallAddr
	// out, back are the two hop latencies of an evAttempt, drawn when the
	// call was sent: the nack fires ackTimeout − out after the attempt,
	// the ack back after it.
	out, back time.Duration
}

// eventKey is what the queue orders: 16 bytes, no pointers. slot
// names a slot of the payload slab, which holds the key's push rank too.
// to1 is the target of a copy filed on another copy's delivery body: its
// verified host index plus one, in what would be padding; 0 for every
// other key.
type eventKey struct {
	at   time.Duration
	slot uint32
	to1  int32
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

// slabChunk is how many payloads one chunk of the slab holds: 6 KB, so a
// world's first push allocates little.
const (
	slabShift = 6
	slabChunk = 1 << slabShift
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
// The payload slab is a list of fixed chunks of slots too, added one at a
// time and never moved. Slots vacated by fired events are reused through a
// free list, so the slab holds the largest number of events ever pending
// at once, rounded up to a chunk.
type eventQueue struct {
	base      time.Duration
	n         int                // keys pending
	levelMask uint16             // bit ℓ set iff some bucket of level ℓ holds keys
	digitMask [levels]uint64     // digitMask[ℓ] bit d set iff bucket (ℓ, d) holds keys
	buckets   [numBuckets]bucket // 0, then (ℓ, d) at 1 + ℓ·digitWays + d
	chunks    []*keyChunk
	next      []int32               // next[c]: the chunk after c in its bucket's list
	spare     []int32               // chunks no bucket holds
	moves     uint64                // keys redistributed by refills, ever
	rank      uint32                // the push rank the next push or timer re-arm takes
	slab      []*[slabChunk]payload // slot s is slab[s>>slabShift][s%slabChunk]
	slots     uint32                // slots ever handed out
	free      []uint32
}

// at returns the payload in slot.
func (q *eventQueue) at(slot uint32) *payload {
	return &q.slab[slot>>slabShift][slot&(slabChunk-1)]
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

// push files a key at at and returns its slab slot, zeroed but for the
// push rank, for the caller to fill in place.
func (q *eventQueue) push(at time.Duration) *payload { return q.at(q.pushSlot(at)) }

// pushSlot is push returning the slot's number.
func (q *eventQueue) pushSlot(at time.Duration) uint32 {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		if slot = q.slots; slot%slabChunk == 0 {
			q.slab = append(q.slab, new([slabChunk]payload))
		}
		q.slots++
	}
	q.at(slot).rank = q.rank
	q.file(eventKey{at: at, slot: slot})
	return slot
}

// file queues k, taking the next push rank.
func (q *eventQueue) file(k eventKey) {
	q.add(q.bucketOf(k.at), k)
	q.n++
	q.rank++
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

// headRank returns the push rank of the front key of bucket 0, which due
// has just reported present.
func (q *eventQueue) headRank() uint32 {
	b := &q.buckets[0]
	return q.at(q.chunks[b.head][b.lo].slot).rank
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

// fire runs the event of key k and recycles its slot — a delivery
// body's only once its last copy has fired. What the event needs is read
// out and the slot zeroed — so the closure or message can be collected —
// before anything runs: the callback may push, which reuses free slots,
// this one first. nets is the owning world's network table
// (payload.net1). An evTimer is left in its slot for the world to start:
// fire reports it.
func (q *eventQueue) fire(k eventKey, nets []*Network) (timerStart bool) {
	slot := k.slot
	p := q.at(slot)
	switch p.kind {
	case evFunc:
		fn, owner := p.fn, p.msg
		q.release(slot)
		if owner == nil || !owner.(Stoppable).Stopped() {
			fn()
		}
	case evDeliver:
		n, from, to, msg := nets[p.net1-1], p.fromAddr(), p.toAddr(), p.msg
		if k.to1 > 0 {
			to = ids.AddrAt(n.hosts[k.to1-1], k.to1-1)
		}
		if p.copies--; p.copies == 0 {
			q.release(slot)
		}
		n.deliver(from, to, msg)
	case evAttempt:
		call := *p
		q.release(slot)
		nets[call.net1-1].attempt(&call)
	case evAck, evNack:
		onResult, onNack, ok := p.onResult, p.fn, p.kind == evAck
		q.release(slot)
		if onNack != nil {
			onNack()
		} else {
			onResult(ok)
		}
	case evTimer:
		return true
	}
	return false
}

// fromAddr and toAddr reassemble the two addresses of a queued message.
func (p *payload) fromAddr() ids.Addr { return ids.AddrAt(p.from, p.from1-1) }
func (p *payload) toAddr() ids.Addr   { return ids.AddrAt(p.to, p.to1-1) }

// release zeroes a consumed slot and returns it to the free list.
func (q *eventQueue) release(slot uint32) {
	*q.at(slot) = payload{}
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
