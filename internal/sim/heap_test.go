package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHeapPopsInAtSeqOrder drives the key heap through random
// insert/pop interleavings and checks every pop returns exactly the
// (at, seq)-minimum of what a reference model says is pending — and
// that the slot the key names still holds that event's own payload.
func TestHeapPopsInAtSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var h eventHeap
		var model []eventKey // unordered reference of pending keys
		var fired uint64     // seq of the payload that ran last
		seq := uint64(0)
		for step := 0; step < 400; step++ {
			if len(model) == 0 || rng.Intn(3) != 0 {
				// Duplicate deadlines are common (same-tick events), so
				// draw from a small range to force seq tie-breaks.
				seq++
				s := seq
				at := time.Duration(rng.Intn(20))
				h.push(at, s, &payload{kind: evFunc, fn: func() { fired = s }})
				model = append(model, eventKey{at: at, seq: s})
				continue
			}
			sort.Slice(model, func(i, j int) bool { return model[i].before(&model[j]) })
			want := model[0]
			model = model[1:]
			k := h.pop()
			if k.at != want.at || k.seq != want.seq {
				t.Fatalf("trial %d step %d: popped %v/%d, want %v/%d", trial, step, k.at, k.seq, want.at, want.seq)
			}
			h.fire(k.slot, nil)
			if fired != want.seq {
				t.Fatalf("trial %d step %d: slot %d ran the payload of seq %d, want %d", trial, step, k.slot, fired, want.seq)
			}
			if len(h.keys) != len(model) {
				t.Fatalf("trial %d step %d: heap len %d, model len %d", trial, step, len(h.keys), len(model))
			}
			if len(h.slab) != len(h.keys)+len(h.free) {
				t.Fatalf("trial %d step %d: slab %d != pending %d + free %d", trial, step, len(h.slab), len(h.keys), len(h.free))
			}
		}
		// Drain: remaining events must come out fully sorted.
		var last eventKey
		for i := 0; len(h.keys) > 0; i++ {
			cur := h.pop()
			if i > 0 && cur.before(&last) {
				t.Fatalf("trial %d: drain out of order: %v/%d after %v/%d", trial, cur.at, cur.seq, last.at, last.seq)
			}
			last = cur
		}
	}
}

// TestHeapSeqTieBreakExhaustive pushes many events at one identical
// deadline and checks strict FIFO pops.
func TestHeapSeqTieBreakExhaustive(t *testing.T) {
	w := NewWorld(1)
	const n = 257 // spans several 4-ary levels
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		w.At(time.Millisecond, func() { got = append(got, i) })
	}
	w.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-deadline pop order broken at %d: got %d", i, v)
		}
	}
}

// TestSlabReusesAndZeroesSlots pins the payload slab's two promises: a
// fired event's slot is the next one handed out (the slab grows only
// with the number of events pending at once), and it holds nothing the
// collector could still reach.
func TestSlabReusesAndZeroesSlots(t *testing.T) {
	var h eventHeap
	for i := 0; i < 3; i++ {
		h.push(time.Duration(i), uint64(i+1), &payload{kind: evAttempt, net1: 1, to1: 2, from1: 3,
			from: "a", to: "b", msg: i, fn: func() {}, onResult: func(bool) {}, out: 1, back: 2, ok: true})
	}
	k := h.pop()
	if k.seq != 1 {
		t.Fatalf("popped seq %d, want 1", k.seq)
	}
	// Consume the slot without running the attempt.
	h.release(k.slot)
	p := &h.slab[k.slot]
	if p.kind != evFunc || p.ok || p.net1 != 0 || p.to1 != 0 || p.from1 != 0 || p.from != "" || p.to != "" || p.msg != nil ||
		p.fn != nil || p.onResult != nil || p.out != 0 || p.back != 0 {
		t.Fatalf("released slot not zeroed: %+v", *p)
	}
	ran := false
	h.push(9, 4, &payload{kind: evFunc, fn: func() { ran = true }})
	if len(h.slab) != 3 || len(h.free) != 0 {
		t.Fatalf("slab %d / free %d after reuse, want 3 / 0", len(h.slab), len(h.free))
	}
	if got := h.keys[len(h.keys)-1].slot; got != k.slot {
		t.Fatalf("new event took slot %d, want the released slot %d", got, k.slot)
	}
	h.fire(k.slot, nil)
	if !ran {
		t.Fatal("reused slot did not run the new payload")
	}
}

// TestFireSurvivesSlabGrowth fires an event whose callback pushes enough
// to move the slab: fire must have finished with the slot before the
// callback runs.
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
	if got := len(w.events.slab); got != 1000 {
		t.Fatalf("slab grew to %d slots for 1000 concurrent events", got)
	}
}

// BenchmarkSchedulerReschedule measures the periodic-driver hot cycle:
// pop the due event, push its successor one period out — the pattern
// every cohort tick and ping round executes. The pushed deadline is the
// queue's latest, so the push fast path (one parent comparison, no
// moves) should dominate and the whole cycle should not allocate.
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
		k := w.events.pop()
		w.now = k.at
		w.events.fire(k.slot, w.nets)
	}
}
