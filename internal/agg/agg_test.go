package agg

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a minimal deterministic scheduler: After queues, Fire
// runs everything due at the next timestamp.
type fakeClock struct {
	now    time.Duration
	queue  []timer
	serial int
}

type timer struct {
	at     time.Duration
	serial int
	fn     func()
}

func (c *fakeClock) After(d time.Duration, fn func()) {
	c.serial++
	c.queue = append(c.queue, timer{at: c.now + d, serial: c.serial, fn: fn})
}

// advance runs all timers due within d, in (at, serial) order.
func (c *fakeClock) advance(d time.Duration) {
	end := c.now + d
	for {
		best := -1
		for i, t := range c.queue {
			if t.at > end {
				continue
			}
			if best < 0 || t.at < c.queue[best].at ||
				(t.at == c.queue[best].at && t.serial < c.queue[best].serial) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		t := c.queue[best]
		c.queue = append(c.queue[:best], c.queue[best+1:]...)
		c.now = t.at
		t.fn()
	}
	c.now = end
}

func TestPartialObserveAndValue(t *testing.T) {
	var p Partial
	for op, want := range map[Op]float64{Sum: 0, Count: 0} {
		if got := p.Value(op); got != want {
			t.Errorf("empty %v = %v, want %v", op, got, want)
		}
	}
	for _, op := range []Op{Min, Max, Avg} {
		if got := p.Value(op); !math.IsNaN(got) {
			t.Errorf("empty %v = %v, want NaN", op, got)
		}
	}
	p.Observe(0.5, 0)
	p.Observe(0.2, 1)
	p.Observe(0.8, 2)
	cases := map[Op]float64{Count: 3, Sum: 1.5, Min: 0.2, Max: 0.8, Avg: 0.5}
	for op, want := range cases {
		if got := p.Value(op); math.Abs(got-want) > 1e-12 {
			t.Errorf("%v = %v, want %v", op, got, want)
		}
	}
	if p.Depth != 2 {
		t.Errorf("Depth = %d, want 2", p.Depth)
	}
}

// TestPartialMergeOrderIndependent is the algebra contract: merging in
// any order yields the same combined partial, so tree shape cannot
// change the result.
func TestPartialMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parts := make([]Partial, 8)
	for i := range parts {
		for j := 0; j < rng.Intn(4); j++ {
			parts[i].Observe(rng.Float64(), rng.Intn(5))
		}
	}
	var ref Partial
	for _, q := range parts {
		ref.Merge(q)
	}
	for trial := 0; trial < 20; trial++ {
		var got Partial
		for _, i := range rng.Perm(len(parts)) {
			got.Merge(parts[i])
		}
		// Sum is order-independent only up to floating-point rounding;
		// the discrete moments must match exactly.
		if got.N != ref.N || got.Min != ref.Min || got.Max != ref.Max || got.Depth != ref.Depth {
			t.Fatalf("merge order changed the result: %+v vs %+v", got, ref)
		}
		if math.Abs(got.Sum-ref.Sum) > 1e-9 {
			t.Fatalf("merge order moved Sum beyond rounding: %v vs %v", got.Sum, ref.Sum)
		}
	}
}

func TestPartialMergeEmpty(t *testing.T) {
	var p, q Partial
	p.Observe(0.4, 1)
	before := p
	p.Merge(q) // empty right operand
	if p != before {
		t.Errorf("merging empty changed %+v to %+v", before, p)
	}
	q.Merge(before) // empty left operand
	if q != before {
		t.Errorf("merge into empty = %+v, want %+v", q, before)
	}
}

func TestOpValidateAndString(t *testing.T) {
	for _, op := range []Op{Count, Sum, Min, Max, Avg} {
		if err := op.Validate(); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
	if err := Op(0).Validate(); err == nil {
		t.Error("want error for zero op")
	}
	if Count.String() != "count" || Avg.String() != "avg" {
		t.Errorf("unexpected strings %q %q", Count, Avg)
	}
}

// newTestStation builds a station whose records hold a per-Open
// callback, which its conclusion calls.
func newTestStation(t *testing.T, clk *fakeClock) *Station[int, func(Partial)] {
	t.Helper()
	s, err := NewStation(clk.After, nil, func(_ int, finalize *func(Partial), p Partial) { (*finalize)(p) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStationConvergesOnAccounting: once every forwarded-to child is
// accounted for (partial or decline), the aggregation finalizes
// without waiting for the wave deadline.
func TestStationConvergesOnAccounting(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	var got *Partial
	if s.Open(1, 0, 0.5, true, func(p Partial) { got = &p }) == nil {
		t.Fatal("Open returned false for a fresh id")
	}
	s.Expect(1, 2)
	var child Partial
	child.Observe(0.7, 1)
	s.Absorb(1, child)
	if got != nil {
		t.Fatal("finalized before all children accounted")
	}
	s.Decline(1)
	if got == nil {
		t.Fatal("did not finalize once all children accounted")
	}
	if got.N != 2 || math.Abs(got.Sum-1.2) > 1e-12 {
		t.Errorf("combined = %+v, want N=2 Sum=1.2", *got)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after convergence", s.Pending())
	}
}

// TestStationLeafFinalizesImmediately: a node with no in-band
// neighbors reports its own value without any wave delay.
func TestStationLeafFinalizesImmediately(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	var got *Partial
	s.Open(7, 3, 0.9, true, func(p Partial) { got = &p })
	s.Expect(7, 0)
	if got == nil {
		t.Fatal("leaf did not finalize on Expect")
	}
	if got.N != 1 || got.Depth != 3 {
		t.Errorf("leaf partial = %+v", *got)
	}
}

// TestStationDeadlineBackstop: a child that never answers (crashed
// after delivery) cannot hold the aggregation open past the
// depth-staggered deadline.
func TestStationDeadlineBackstop(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	var got *Partial
	s.Open(1, 0, 0.5, true, func(p Partial) { got = &p })
	s.Expect(1, 1) // the child never responds
	// Depth 0 with MaxDepth 8 → deadline 9 waves.
	clk.advance(8 * time.Second)
	if got != nil {
		t.Fatal("finalized before the deadline")
	}
	clk.advance(time.Second)
	if got == nil {
		t.Fatal("deadline did not fire")
	}
	if got.N != 1 {
		t.Errorf("partial = %+v, want own value only", *got)
	}
	// A straggler partial after the deadline is dropped silently.
	var late Partial
	late.Observe(0.9, 1)
	s.Absorb(1, late)
	if got.N != 1 {
		t.Error("straggler mutated a finalized result")
	}
}

// TestStationDeeperNodesHaveShorterDeadlines pins the stagger: a
// deeper node's deadline fires before its parent's, so the partial
// still climbs the whole tree even when accounting never converges.
func TestStationDeeperNodesHaveShorterDeadlines(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	var order []int
	s.Open(1, 0, 0.1, true, func(Partial) { order = append(order, 0) })
	s.Expect(1, 1)
	s.Open(2, 3, 0.2, true, func(Partial) { order = append(order, 3) })
	s.Expect(2, 1)
	clk.advance(10 * time.Second)
	if len(order) != 2 || order[0] != 3 || order[1] != 0 {
		t.Fatalf("finalize order = %v, want deeper (3) before root (0)", order)
	}
}

// TestStationDuplicateSuppression: an id cannot be opened while its
// record is open. Once it concluded the station holds nothing of it, so
// it opens again: keeping a late copy out of a concluded tree is the
// router's seen set (ops.TestLateDuplicateJoinsNoTree).
func TestStationDuplicateSuppression(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	s.Open(1, 0, 0.5, true, func(Partial) {})
	if s.Open(1, 1, 0.6, true, func(Partial) {}) != nil {
		t.Error("reopened an in-flight id")
	}
	if _, ok := s.Lookup(1); !ok {
		t.Error("open id not found")
	}
	s.Expect(1, 0) // finalize
	if _, ok := s.Lookup(1); ok {
		t.Error("finished id still found")
	}
	if s.Open(1, 1, 0.6, true, func(Partial) {}) == nil {
		t.Error("a finished id did not open again")
	}
}

// TestStationNonContributingRoot: an out-of-band relay root combines
// children without adding its own value.
func TestStationNonContributingRoot(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	var got *Partial
	s.Open(1, 0, 0.95, false, func(p Partial) { got = &p })
	s.Expect(1, 1)
	var child Partial
	child.Observe(0.3, 1)
	s.Absorb(1, child)
	if got == nil {
		t.Fatal("did not finalize")
	}
	if got.N != 1 || got.Sum != 0.3 {
		t.Errorf("relay root contributed its own value: %+v", *got)
	}
}

// TestStationKeepsNoConcludedRecord: an aggregation leaves nothing in
// the station once it concluded, at convergence or at its deadline.
func TestStationKeepsNoConcludedRecord(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	for i := 0; i < 100; i++ {
		s.Open(i, 0, 0.5, true, func(Partial) {})
		s.Expect(i, i%2) // odd ids wait for a child that never answers
	}
	if len(s.recs) != 50 {
		t.Fatalf("%d records held, want the 50 still open", len(s.recs))
	}
	clk.advance(time.Minute)
	if len(s.recs) != 0 || s.Pending() != 0 {
		t.Errorf("%d records held, %d pending after every conclusion; want none", len(s.recs), s.Pending())
	}
}

func TestNewStationValidation(t *testing.T) {
	clk := &fakeClock{}
	conclude := func(int, *int, Partial) {}
	if _, err := NewStation(nil, nil, conclude); err == nil {
		t.Error("want error for nil scheduler")
	}
	if _, err := NewStation[int, int](clk.After, nil, nil); err == nil {
		t.Error("want error for nil conclude")
	}
}

// TestStationBeyondMaxDepthBackstop pins the depth clamp: a node that
// joins deeper than MaxDepth (a tree that outgrew the bound through
// relaying) still gets the one-wave minimum deadline instead of a zero
// or negative budget, so its partial always climbs out.
func TestStationBeyondMaxDepthBackstop(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	var got *Partial
	s.Open(1, 11, 0.5, true, func(p Partial) { got = &p })
	s.Expect(1, 1) // the child never responds
	clk.advance(999 * time.Millisecond)
	if got != nil {
		t.Fatal("finalized before the one-wave backstop")
	}
	clk.advance(time.Millisecond)
	if got == nil {
		t.Fatal("one-wave backstop did not fire at depth > MaxDepth")
	}
	if got.N != 1 || got.Depth != 11 {
		t.Errorf("partial = %+v, want own value at depth 11", *got)
	}
}

// TestStationOneTimerPerOpen pins the deadline's cost and timing: an Open
// arms exactly one timer, an unconverged aggregation concludes at exactly
// (MaxDepth−depth+1)×Wave, and after an early convergence the stale timer
// fires as a no-op.
func TestStationOneTimerPerOpen(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	for depth := 0; depth <= MaxDepth+1; depth++ {
		var at time.Duration = -1
		start := clk.now
		s.Open(depth, depth, 0.5, true, func(Partial) { at = clk.now - start })
		if len(clk.queue) != 1 {
			t.Fatalf("depth %d: Open armed %d timers, want 1", depth, len(clk.queue))
		}
		s.Expect(depth, 1) // the child never responds
		clk.advance(time.Minute)
		want := time.Duration(max(MaxDepth-depth, 0)+1) * Wave
		if at != want {
			t.Errorf("depth %d: concluded after %v, want %v", depth, at, want)
		}
	}
	fired := 0
	s.Open(99, 0, 0.5, true, func(Partial) { fired++ })
	s.Expect(99, 0) // converges at once
	if fired != 1 || len(clk.queue) != 1 {
		t.Fatalf("early convergence: finalize ran %d times, %d timers queued; want 1 and 1", fired, len(clk.queue))
	}
	clk.advance(time.Minute)
	if fired != 1 || len(clk.queue) != 0 || s.Pending() != 0 {
		t.Errorf("stale timer: finalize ran %d times, %d timers queued, %d pending; want 1, 0, 0", fired, len(clk.queue), s.Pending())
	}
}

// TestStationLateChildAfterConvergenceIgnored: a duplicate or late
// child reply after accounting already converged must neither refire
// finalize nor double-count — the id is retired, not pending.
func TestStationLateChildAfterConvergenceIgnored(t *testing.T) {
	clk := &fakeClock{}
	s := newTestStation(t, clk)
	fired := 0
	var got Partial
	s.Open(1, 0, 0.5, true, func(p Partial) { fired++; got = p })
	s.Expect(1, 2)
	var child Partial
	child.Observe(0.3, 1)
	s.Absorb(1, child)
	s.Decline(1)
	if fired != 1 {
		t.Fatalf("finalize fired %d times after convergence, want 1", fired)
	}
	if got.N != 2 {
		t.Fatalf("partial = %+v, want 2 contributions", got)
	}
	// The same child replaying its partial — and the stale deadline timer —
	// must leave the concluded result alone.
	s.Absorb(1, child)
	s.Decline(1)
	clk.advance(10 * time.Second)
	if fired != 1 {
		t.Errorf("finalize refired (%d) on late replies", fired)
	}
	if _, ok := s.Lookup(1); ok {
		t.Error("concluded id still found")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}
