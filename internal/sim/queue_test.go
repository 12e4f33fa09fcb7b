package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"avmem/internal/ids"
)

// refKey is a pending event of the reference model: its deadline and its
// insertion number, the tie-break the queue must reproduce.
type refKey struct {
	at  time.Duration
	seq uint64
}

// sortRef orders the reference model by (at, seq).
func sortRef(model []refKey) {
	sort.Slice(model, func(i, j int) bool {
		if model[i].at != model[j].at {
			return model[i].at < model[j].at
		}
		return model[i].seq < model[j].seq
	})
}

// TestHeapPopsInAtSeqOrder drives the queue through random insert/pop
// interleavings and checks every pop returns exactly the (at, seq)-minimum
// of what a sorted reference model says is pending — and that the slot the
// key names still holds that event's own payload. Deadlines are drawn
// from a few ticks after the last pop, as World.schedule clamps them, so
// ties are common.
func TestHeapPopsInAtSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		var model []refKey // reference of pending keys
		var fired uint64   // seq of the payload that ran last
		var now time.Duration
		seq := uint64(0)
		for step := 0; step < 400; step++ {
			if len(model) == 0 || rng.Intn(3) != 0 {
				seq++
				s := seq
				// Mostly near deadlines to force ties, sometimes far ones —
				// up to the end of virtual time — to spread keys over every
				// digit level.
				at := saturated(now, time.Duration(rng.Intn(20)))
				if rng.Intn(8) == 0 {
					at = saturated(now, time.Duration(rng.Int63n(1<<uint(rng.Intn(63)))))
				}
				q.push(at).fn = func() { fired = s }
				model = append(model, refKey{at: at, seq: s})
				continue
			}
			sortRef(model)
			want := model[0]
			model = model[1:]
			if !q.due(math.MaxInt64) {
				t.Fatalf("trial %d step %d: queue reports nothing due, model holds %d", trial, step, len(model)+1)
			}
			k := q.pop()
			if k.at != want.at {
				t.Fatalf("trial %d step %d: popped at %v, want %v", trial, step, k.at, want.at)
			}
			now = k.at
			q.fire(k, nil)
			if fired != want.seq {
				t.Fatalf("trial %d step %d: slot %d ran the payload of seq %d, want %d", trial, step, k.slot, fired, want.seq)
			}
			if q.n != len(model) {
				t.Fatalf("trial %d step %d: queue len %d, model len %d", trial, step, q.n, len(model))
			}
			if int(q.slots) != q.n+len(q.free) || len(q.slab) != (int(q.slots)+slabChunk-1)/slabChunk {
				t.Fatalf("trial %d step %d: slab %d slots in %d chunks, pending %d + free %d",
					trial, step, q.slots, len(q.slab), q.n, len(q.free))
			}
		}
		// Drain: the remaining events must run in (at, seq) order.
		sortRef(model)
		for _, want := range model {
			q.due(math.MaxInt64)
			k := q.pop()
			q.fire(k, nil)
			if k.at != want.at || fired != want.seq {
				t.Fatalf("trial %d: drain ran %v/%d, want %v/%d", trial, k.at, fired, want.at, want.seq)
			}
		}
		if q.due(math.MaxInt64) || q.n != 0 {
			t.Fatalf("trial %d: %d keys left after the drain", trial, q.n)
		}
	}
}

// TestHeapSeqTieBreakExhaustive pushes many events at one identical
// deadline and checks strict FIFO pops.
func TestHeapSeqTieBreakExhaustive(t *testing.T) {
	w := NewWorld(1)
	const n = 3*chunkKeys + 1 // spans several chunks
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		w.At(time.Millisecond, func() { got = append(got, i) })
	}
	w.Run(time.Second)
	if len(got) != n {
		t.Fatalf("ran %d of %d events", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-deadline pop order broken at %d: got %d", i, v)
		}
	}
}

// TestRunNeverMovesBasePastHorizon: Run(t) stops short of the next event,
// and an event scheduled afterwards between t and that event must fire
// first. A queue that refilled around the far event while looking at it
// would file the new one below its base.
func TestRunNeverMovesBasePastHorizon(t *testing.T) {
	w := NewWorld(1)
	var order []string
	w.At(10*time.Second, func() { order = append(order, "far") })
	w.At(10*time.Second+1, func() { order = append(order, "far+1") })
	w.At(time.Second, func() { order = append(order, "near") })
	if n := w.Run(5 * time.Second); n != 1 {
		t.Fatalf("Run(5s) fired %d events, want 1", n)
	}
	if w.events.base > 5*time.Second {
		t.Fatalf("queue base %v moved past the horizon 5s", w.events.base)
	}
	w.At(7*time.Second, func() { order = append(order, "between") })
	w.At(5*time.Second, func() { order = append(order, "at-horizon") })
	w.Run(time.Minute)
	want := []string{"near", "at-horizon", "between", "far", "far+1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

// TestEventKeySize pins the queue's key at two words.
func TestEventKeySize(t *testing.T) {
	if got := unsafe.Sizeof(eventKey{}); got != 16 {
		t.Fatalf("eventKey is %d bytes, want 16", got)
	}
}

// TestQueueChunksBounded: the shared chunk free list keeps the chunks
// ever allocated at what the pending keys fill plus at most one partial
// chunk per bucket and one partial block, however the keys spread over
// the buckets — here 10⁶ events, at most 5000 pending, deadlines from
// nanoseconds to days out.
func TestQueueChunksBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q eventQueue
	var now time.Duration
	peak := 0
	push := func() {
		at := now + time.Duration(rng.Int63n(1<<uint(rng.Intn(48))+1))
		q.push(at)
		peak = max(peak, q.n)
	}
	for q.n < 5000 {
		push()
	}
	for fired := 0; fired < 1_000_000; fired++ {
		q.due(math.MaxInt64)
		k := q.pop()
		now = k.at
		q.release(k.slot)
		// Hold the depth between 4000 and 5000: refill to the top after
		// each dip, one push per pop otherwise.
		for q.n < 4000 || (q.n < 5000 && rng.Intn(2) == 0) {
			push()
		}
	}
	bound := (peak+chunkKeys-1)/chunkKeys + numBuckets + chunkBlock - 1
	if len(q.chunks) > bound {
		t.Fatalf("%d chunks allocated for a peak of %d pending keys, bound %d", len(q.chunks), peak, bound)
	}
	if q.moves == 0 {
		t.Fatal("no key was ever moved by a refill")
	}
}

// TestSlabReusesAndZeroesSlots pins the payload slab's two promises: a
// fired event's slot is the next one handed out (the slab grows only
// with the number of events pending at once), and it holds nothing the
// collector could still reach.
func TestSlabReusesAndZeroesSlots(t *testing.T) {
	var q eventQueue
	for i := 0; i < 3; i++ {
		*q.push(time.Duration(i)) = payload{kind: evAttempt, net1: 1, to1: 2, from1: 3,
			from: "a", to: "b", msg: i, fn: func() {}, onResult: func(bool) {}, out: 1, back: 2, copies: 4}
	}
	q.due(math.MaxInt64)
	k := q.pop()
	if k.at != 0 {
		t.Fatalf("popped at %v, want 0", k.at)
	}
	// Consume the slot without running the attempt.
	q.release(k.slot)
	p := q.at(k.slot)
	if p.kind != evFunc || p.copies != 0 || p.net1 != 0 || p.to1 != 0 || p.from1 != 0 || p.from != "" || p.to != "" || p.msg != nil ||
		p.fn != nil || p.onResult != nil || p.out != 0 || p.back != 0 {
		t.Fatalf("released slot not zeroed: %+v", *p)
	}
	ran := false
	q.push(9).fn = func() { ran = true }
	if q.slots != 3 || len(q.free) != 0 {
		t.Fatalf("slab %d / free %d after reuse, want 3 / 0", q.slots, len(q.free))
	}
	var last eventKey
	for q.due(math.MaxInt64) {
		last = q.pop()
	}
	if last.at != 9 || last.slot != k.slot {
		t.Fatalf("new event took slot %d at %v, want the released slot %d at 9", last.slot, last.at, k.slot)
	}
	q.fire(last, nil)
	if !ran {
		t.Fatal("reused slot did not run the new payload")
	}
}

// TestScheduledSlotIsZero: every slot schedule hands out is zero in
// every field except the push rank, which is the next one, so a caller
// that fills in place only the fields of its own shape leaves nothing of
// an earlier event behind. The slots are reused ones, each having carried
// closures, deliveries, attempts and both verdicts over many fire cycles.
func TestScheduledSlotIsZero(t *testing.T) {
	w := NewWorld(1)
	hosts := []ids.NodeID{"a", "b", "c"}
	net := NewNetwork(w, UniformLatency{Min: time.Millisecond, Max: 9 * time.Millisecond}, nil, 20*time.Millisecond)
	net.Bind(hosts, func(i int) bool { return i != 2 }) // calls to c nack
	for _, id := range hosts {
		net.RegisterAddr(id.Addr(), func(ids.Addr, any) {})
	}
	rng := rand.New(rand.NewSource(5))
	addr := func() ids.Addr {
		i := rng.Intn(len(hosts))
		return ids.AddrAt(hosts[i], int32(i))
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 30; i++ {
			switch i % 3 {
			case 0:
				net.SendAddr(addr(), addr(), i)
			case 1:
				net.SendCallAddr(addr(), addr(), i, func(bool) {})
			case 2:
				w.After(time.Duration(rng.Intn(30))*time.Millisecond, func() {})
			}
		}
		w.Run(w.Now() + time.Second)
	}
	slots := int(w.events.slots)
	if w.Pending() != 0 || len(w.events.free) != slots {
		t.Fatalf("%d pending, %d of %d slots free after the drain", w.Pending(), len(w.events.free), slots)
	}
	for i := 0; i < slots; i++ {
		rank := w.events.rank
		p := w.schedule(w.Now())
		if p.rank != rank {
			t.Fatalf("scheduled slot %d of %d has rank %d, want the next rank %d", i, slots, p.rank, rank)
		}
		rest := *p
		rest.rank = 0
		if !reflect.ValueOf(rest).IsZero() {
			t.Fatalf("scheduled slot %d of %d is not zero but for its rank: %+v", i, slots, *p)
		}
		p.fn = func() {}
	}
	if int(w.events.slots) != slots {
		t.Fatalf("slab grew from %d to %d slots with every slot free", slots, w.events.slots)
	}
	w.Run(w.Now())
}

// TestFireSurvivesSlabGrowth fires an event whose callback pushes enough
// to add slab chunks, reusing its own slot first: fire must have finished
// with the slot before the callback runs.
func TestFireSurvivesSlabGrowth(t *testing.T) {
	w := NewWorld(1)
	ran := 0
	w.At(0, func() {
		for i := 0; i < 1000; i++ {
			w.After(time.Millisecond, func() { ran++ })
		}
	})
	w.Run(time.Second)
	if ran != 1000 || w.Pending() != 0 {
		t.Fatalf("ran %d of 1000, %d pending", ran, w.Pending())
	}
	if got, chunks := w.events.slots, len(w.events.slab); got != 1000 || chunks != (1000+slabChunk-1)/slabChunk {
		t.Fatalf("slab grew to %d slots in %d chunks for 1000 concurrent events", got, chunks)
	}
}

// TestHeldSlotSurvivesChunkGrowth: a slot pointer schedule handed out
// still names its own event after three more chunks' worth of pushes —
// filled only afterwards, every event runs its own payload, in order.
func TestHeldSlotSurvivesChunkGrowth(t *testing.T) {
	w := NewWorld(1)
	const n = 3*slabChunk + 5
	held := make([]*payload, n)
	for i := range held {
		held[i] = w.schedule(time.Duration(i))
	}
	if len(w.events.slab) != 4 {
		t.Fatalf("%d events pending in %d chunks, want 4", n, len(w.events.slab))
	}
	var ran []int
	for i, p := range held {
		p.fn = func() { ran = append(ran, i) }
	}
	w.Run(time.Duration(n))
	if len(ran) != n {
		t.Fatalf("ran %d of %d events", len(ran), n)
	}
	for i, got := range ran {
		if got != i {
			t.Fatalf("event %d ran the payload filled for %d", i, got)
		}
	}
}

// schedulerAPI is what the queue fuzzer drives: the World and its
// reference both implement it.
type schedulerAPI interface {
	Now() time.Duration
	At(at time.Duration, fn func())
	Every(offset, period time.Duration, stop func() bool, fn func()) error
	EveryHost(host int, offset, period time.Duration, s Stoppable, fn func()) error
	Run(until time.Duration) int
	RunAll(maxEvents int) int
	Pending() int
}

// refWorld is the reference scheduler: pending events in a plain slice,
// the (at, seq)-minimum found by a scan before every pop. A periodic
// timer is a closure that re-pushes itself with At after each run.
// online is the liveness probe of host-bound timers (nil: always up).
type refWorld struct {
	now     time.Duration
	seq     uint64
	pending []refKey
	fns     map[uint64]func()
	online  func(i int) bool
}

func (r *refWorld) Now() time.Duration { return r.now }
func (r *refWorld) Pending() int       { return len(r.pending) }

func (r *refWorld) At(at time.Duration, fn func()) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.pending = append(r.pending, refKey{at: at, seq: r.seq})
	r.fns[r.seq] = fn
}

// Every is World.Every as it was before periodic timers had rings: one
// queued closure per timer, re-pushed one period later after each run.
func (r *refWorld) Every(offset, period time.Duration, stop func() bool, fn func()) error {
	var s Stoppable
	if stop != nil {
		s = stopFunc(stop)
	}
	return r.EveryHost(-1, offset, period, s, fn)
}

// EveryHost is the same closure for a host-bound timer: it re-pushes
// itself after every run, and asks s and calls fn only while the host is
// online.
func (r *refWorld) EveryHost(host int, offset, period time.Duration, s Stoppable, fn func()) error {
	var tick func()
	tick = func() {
		if host < 0 || r.online == nil || r.online(host) {
			if s != nil && s.Stopped() {
				return
			}
			fn()
		}
		if period <= math.MaxInt64-r.now {
			r.At(r.now+period, tick)
		}
	}
	r.At(saturated(r.now, offset), tick)
	return nil
}

// step fires the earliest event if it is due at or before until.
func (r *refWorld) step(until time.Duration) bool {
	if len(r.pending) == 0 {
		return false
	}
	first := 0
	for i, k := range r.pending {
		if k.at < r.pending[first].at || (k.at == r.pending[first].at && k.seq < r.pending[first].seq) {
			first = i
		}
	}
	k := r.pending[first]
	if k.at > until {
		return false
	}
	last := len(r.pending) - 1
	r.pending[first] = r.pending[last]
	r.pending = r.pending[:last]
	r.now = k.at
	fn := r.fns[k.seq]
	delete(r.fns, k.seq)
	fn()
	return true
}

func (r *refWorld) Run(until time.Duration) int {
	n := 0
	for r.step(until) {
		n++
	}
	if until > r.now {
		r.now = until
	}
	return n
}

func (r *refWorld) RunAll(maxEvents int) int {
	n := 0
	for (maxEvents <= 0 || n < maxEvents) && r.step(math.MaxInt64) {
		n++
	}
	return n
}

// fuzzDelay maps one byte to a delay: the low nibble is a mantissa m,
// the high nibble h a shift of 4h bits, so the delays span zero,
// nanosecond ties, every digit level of the queue and the digit
// boundaries themselves (4<<4 = 2⁶, 1<<12, 4<<16, 1<<24, ...). h = 15 is
// the end of virtual time less m.
func fuzzDelay(b byte) time.Duration {
	m, h := time.Duration(b&0x0f), uint(b>>4)
	if h == 15 {
		return math.MaxInt64 - m
	}
	return m << (4 * h)
}

// saturated is now+d, capped at the end of virtual time as World.After
// caps it.
func saturated(now, d time.Duration) time.Duration {
	if d > math.MaxInt64-now {
		return math.MaxInt64
	}
	return now + d
}

// timerPeriods are the periods a fuzz program's timers run at, indexed
// by bits 3–6 of the instruction: 1 and 5 ns, P and 5P on digit
// boundaries, whose runs coincide with each other and with events at
// fuzzDelay's delays, up to periods that carry the second run to the end
// of virtual time or past it.
// timerRuns is how many runs a fuzz program's timer makes at most.
const timerRuns = 8

var timerPeriods = [16]time.Duration{1, 2, 5, 16, 1 << 6, 5 << 6, 1 << 12, 5 << 12, 1 << 24, 5 << 24,
	1 << 36, 1 << 48, math.MaxInt64 / 4, math.MaxInt64 / 2, math.MaxInt64 - 15, math.MaxInt64}

// fuzzHosts is how many hosts a fuzz program's timers belong to.
const fuzzHosts = 4

// fuzzLiveness is a fuzz program's scripted liveness schedule: host h
// sleeps through the next sleeps[h] runs of its timers, the same count
// on both schedulers, since each asks the probe exactly once per
// host-bound run. Sleeping by runs rather than by time keeps every
// program finite whatever its periods and horizons.
type fuzzLiveness struct{ sleeps [fuzzHosts]int }

// online is the probe both schedulers are bound to.
func (l *fuzzLiveness) online(h int) bool {
	if l.sleeps[h] > 0 {
		l.sleeps[h]--
		return false
	}
	return true
}

// queueTranscript runs the fuzz program ops on s, whose host-bound timers
// sleep by live, and returns what every step observed. Two-byte
// instructions: schedule an event (which, when it fires, may schedule a
// child at a tie-prone delay), Run to a horizon, RunAll with a small
// bound, start a periodic timer, stop one, or put a host to sleep for a
// number of its timers' runs. Timer k belongs to host k%5 − 1 (none at
// −1). A timer stops itself after timerRuns runs and a host sleeps
// through at most 15, so every program ends; an even timer also schedules
// an event one period out from each run, due with its own next run. All
// timers are stopped before the final drain.
func queueTranscript(s schedulerAPI, live *fuzzLiveness, ops []byte) []int64 {
	var log []int64
	id := 0
	var stopped []*bool
	var event func(delay time.Duration) func()
	event = func(delay time.Duration) func() {
		id++
		me := id
		return func() {
			log = append(log, int64(me), int64(s.Now()))
			if me%3 == 0 {
				s.At(saturated(s.Now(), delay), event(delay/2))
			}
		}
	}
	for len(ops) >= 2 {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		switch op % 4 {
		case 0, 1:
			s.At(saturated(s.Now(), fuzzDelay(arg)), event(fuzzDelay(op)))
		case 2:
			log = append(log, -1, int64(s.Run(saturated(s.Now(), fuzzDelay(arg)))))
		case 3:
			switch {
			case op < 0x80:
				log = append(log, -2, int64(s.RunAll(int(arg%8)+1)))
			case op&0x04 == 0:
				id++
				me, runs, stop := id, 0, new(bool)
				stopped = append(stopped, stop)
				period := timerPeriods[op>>3&0x0f]
				if err := s.EveryHost(me%5-1, fuzzDelay(arg), period, stopFunc(func() bool { return *stop || runs >= timerRuns }), func() {
					runs++
					log = append(log, int64(me), int64(s.Now()))
					if me%2 == 0 {
						s.At(saturated(s.Now(), period), event(period/2))
					}
				}); err != nil {
					panic(err)
				}
			case op&0x08 != 0:
				live.sleeps[arg%fuzzHosts] = int(arg>>2) & 0x0f
			case len(stopped) > 0:
				*stopped[int(arg)%len(stopped)] = true
			}
		}
		log = append(log, -3, int64(s.Now()), int64(s.Pending()))
	}
	for _, stop := range stopped {
		*stop = true
	}
	log = append(log, -4, int64(s.RunAll(0)), int64(s.Now()))
	return log
}

// FuzzEventQueue interleaves scheduling, periodic timers, horizon runs,
// bounded drains and hosts sleeping under their timers on a World and on
// the sorted reference scheduler: every event must fire at the same time
// and in the same order, and Run, RunAll, Now and Pending must agree
// after every step. Each program runs twice on a World: with push ranks
// from 0, and with ranks that wrap around after its eighth push.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0x11, 0, 0x11, 1, 0x52, 2, 0x10, 0, 0x01, 3, 7})
	f.Add([]byte{0, 0xff, 0, 0x21, 2, 0x30, 0, 0x22, 2, 0xf0, 3, 1})
	// Ties on digit boundaries: events and children at 2⁶, 2·2⁶, 2¹², 2²⁴,
	// 2³⁶ and 2⁴⁸ ns out, some due at once from different bases, with
	// horizon runs stopping exactly on a boundary.
	f.Add([]byte{0, 0x18, 0x14, 0x14, 1, 0x14, 2, 0x14, 0, 0x14, 0, 0x18, 3, 7,
		0x31, 0x31, 0, 0x61, 1, 0x61, 2, 0x61, 0x14, 0x61, 0, 0x91, 0, 0xc1, 1, 0xc1, 2, 0xc1, 3, 7})
	// The top digit level: deadlines and horizons at the end of virtual
	// time, where every later schedule saturates onto one instant.
	f.Add([]byte{0, 0xf0, 0, 0xff, 0xf0, 0xf0, 2, 0xc1, 0, 0xf0, 3, 7, 2, 0xf0, 0, 0x01, 0x31, 0x14, 3, 7})
	// A timer of period 2²⁴ and long events due at its second run: one
	// queued before the timer, one after its re-arm, and an even timer's
	// own event, queued by the run before its re-arm.
	f.Add([]byte{0, 0x61, 0xc3, 0x00, 2, 0x00, 0, 0x61, 0xcb, 0x00, 2, 0x62, 3, 7})
	// Periods 2⁶ and 5·2⁶ from one offset: every fifth run of the first
	// coincides with a run of the second, and events at 2⁶ and 2¹² ns
	// fall on both.
	f.Add([]byte{0xa3, 0x00, 0xab, 0x00, 0, 0x14, 0xa3, 0x14, 2, 0x31, 0, 0x31, 2, 0x91, 3, 7})
	// Timers stopped before their first run, one of them tied with an
	// event at its offset, and one stopped between two runs.
	f.Add([]byte{0x83, 0x14, 0, 0x14, 0x87, 0x00, 0xa3, 0x01, 0x8b, 0x21, 0x87, 0x02, 2, 0x14, 0x87, 0x01, 2, 0x31, 3, 7})
	// Timers at the end of virtual time: a run at MaxInt64 that cannot
	// re-arm, a second run that just fits at MaxInt64−15, a 1 ns timer
	// that steps onto the end, events saturated onto the same instant.
	f.Add([]byte{0x83, 0xf0, 0xf3, 0x00, 0x83, 0xf3, 0xfb, 0x00, 0, 0xf0, 2, 0xf0, 0x8b, 0x00, 0, 0xff, 3, 7, 2, 0xf0})
	// Push ranks wrapping around mid-tie: eight events at one instant,
	// then a 1 ns timer and more events at its runs.
	f.Add([]byte{0, 0x05, 0, 0x05, 0, 0x05, 0, 0x05, 0, 0x05, 0, 0x05, 0, 0x05, 0x83, 0x04, 0, 0x05, 0x8b, 0x03,
		0, 0x06, 1, 0x05, 2, 0x07, 0, 0x01, 3, 7})
	// A host asleep across a tie: host 0's 64 ns timer sleeps through its
	// runs at 0 and 64 ns, the second due with an event queued before it
	// was re-armed, which fires first.
	f.Add([]byte{0xa3, 0x00, 0, 0x14, 0x8f, 0x08, 0, 0x14, 2, 0x31, 3, 7})
	// A timer stopped while its host sleeps: two runs awake, then host 0
	// sleeps through three, the stop lands after the first of them, and the
	// timer is dropped, unrun, at its first run awake.
	f.Add([]byte{0xa3, 0x00, 2, 0x14, 0x8f, 0x0c, 2, 0x14, 0x87, 0x00, 2, 0x61, 3, 7})
	// More than two slab chunks pending at once: 150 events 256 ns to
	// 3.8 µs out — every third schedules a child when it fires — drained
	// by a horizon run and a bounded one.
	many := make([]byte, 0, 2*150+4)
	for i := 0; i < 150; i++ {
		many = append(many, 0, byte(0x21+i%15))
	}
	f.Add(append(many, 2, 0x31, 3, 7))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			return
		}
		ref := &refWorld{fns: map[uint64]func(){}}
		live := &fuzzLiveness{}
		ref.online = live.online
		want := queueTranscript(ref, live, ops)
		for _, rank := range []uint32{0, math.MaxUint32 - 7} {
			w := NewWorld(1)
			w.events.rank = rank
			live := &fuzzLiveness{}
			if err := NewNetwork(w, nil, nil, 0).Bind([]ids.NodeID{"h0", "h1", "h2", "h3"}, live.online); err != nil {
				t.Fatal(err)
			}
			if got := queueTranscript(w, live, ops); !reflect.DeepEqual(got, want) {
				t.Fatalf("queue transcript from rank %d diverged from the reference:\n got %v\nwant %v", rank, got, want)
			}
		}
	})
}

// BenchmarkSchedulerReschedule measures the periodic-driver hot cycle:
// pop the due event, push its successor one period out — the pattern
// every cohort tick and ping round executes. The whole cycle, refills
// included, should not allocate.
func BenchmarkSchedulerReschedule(b *testing.B) {
	w := NewWorld(1)
	const drivers = 1024
	period := time.Minute
	var tick func()
	tick = func() { w.After(period, tick) }
	for i := 0; i < drivers; i++ {
		w.At(time.Duration(i)*time.Second, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.events.due(math.MaxInt64)
		k := w.events.pop()
		w.now = k.at
		w.events.fire(k, w.nets)
	}
}
