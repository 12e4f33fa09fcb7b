package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	w := NewWorld(1)
	var order []int
	w.At(30*time.Millisecond, func() { order = append(order, 3) })
	w.At(10*time.Millisecond, func() { order = append(order, 1) })
	w.At(20*time.Millisecond, func() { order = append(order, 2) })
	if n := w.Run(time.Second); n != 3 {
		t.Fatalf("Run processed %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	w := NewWorld(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		w.At(time.Millisecond, func() { order = append(order, i) })
	}
	w.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	w := NewWorld(1)
	var seen time.Duration
	w.At(42*time.Millisecond, func() { seen = w.Now() })
	w.Run(100 * time.Millisecond)
	if seen != 42*time.Millisecond {
		t.Errorf("Now inside event = %v, want 42ms", seen)
	}
	if w.Now() != 100*time.Millisecond {
		t.Errorf("Now after Run = %v, want 100ms", w.Now())
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	w := NewWorld(1)
	fired := false
	w.At(2*time.Second, func() { fired = true })
	w.Run(time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if w.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", w.Pending())
	}
	w.Run(3 * time.Second)
	if !fired {
		t.Error("event never fired")
	}
}

func TestPastEventRunsNow(t *testing.T) {
	w := NewWorld(1)
	w.Run(time.Second)
	fired := false
	w.At(0, func() { fired = true })
	w.Run(time.Second) // horizon equals now
	if !fired {
		t.Error("past-scheduled event did not run")
	}
	if w.Now() != time.Second {
		t.Errorf("clock moved backwards: %v", w.Now())
	}
}

func TestNilEventIgnored(t *testing.T) {
	w := NewWorld(1)
	w.At(time.Millisecond, nil)
	if w.Pending() != 0 {
		t.Error("nil event queued")
	}
}

func TestAfter(t *testing.T) {
	w := NewWorld(1)
	var at time.Duration
	w.At(time.Second, func() {
		w.After(500*time.Millisecond, func() { at = w.Now() })
	})
	w.Run(10 * time.Second)
	if at != 1500*time.Millisecond {
		t.Errorf("After fired at %v, want 1.5s", at)
	}
}

func TestEvery(t *testing.T) {
	w := NewWorld(1)
	var ticks []time.Duration
	stop := func() bool { return len(ticks) >= 3 }
	if err := w.Every(100*time.Millisecond, time.Second, stop, func() {
		ticks = append(ticks, w.Now())
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	want := []time.Duration{100 * time.Millisecond, 1100 * time.Millisecond, 2100 * time.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestEveryValidation(t *testing.T) {
	w := NewWorld(1)
	if err := w.Every(0, 0, nil, func() {}); err == nil {
		t.Error("want error for zero period")
	}
	if err := w.Every(0, time.Second, nil, nil); err == nil {
		t.Error("want error for nil fn")
	}
}

// TestAfterSaturates: a delay past the end of virtual time schedules the
// event at the end, not at a wrapped-around negative time that schedule
// would clamp to now.
func TestAfterSaturates(t *testing.T) {
	w := NewWorld(1)
	w.Run(time.Hour)
	var at time.Duration
	w.After(math.MaxInt64, func() { at = w.Now() })
	if n := w.Run(2 * time.Hour); n != 0 {
		t.Fatalf("After(MaxInt64) at 1h fired within the next hour (%d events)", n)
	}
	if n := w.RunAll(0); n != 1 || at != math.MaxInt64 {
		t.Fatalf("RunAll fired %d events, the last at %v; want 1 at %v", n, at, time.Duration(math.MaxInt64))
	}
}

// TestEveryHugePeriodTerminates: a period that carries the next run past
// the end of virtual time ends the schedule instead of re-firing at the
// same instant forever.
func TestEveryHugePeriodTerminates(t *testing.T) {
	w := NewWorld(1)
	w.Run(time.Hour)
	var ticks []time.Duration
	if err := w.Every(0, math.MaxInt64-10, nil, func() { ticks = append(ticks, w.Now()) }); err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Hour)
	if n := w.RunAll(1000); n != 0 || len(ticks) != 1 || ticks[0] != time.Hour {
		t.Fatalf("ticks %v, then RunAll fired %d more; want one tick at 1h", ticks, n)
	}
	// From time zero the second run still fits, at MaxInt64−10; the third
	// would not.
	w = NewWorld(1)
	ticks = nil
	if err := w.Every(0, math.MaxInt64-10, nil, func() { ticks = append(ticks, w.Now()) }); err != nil {
		t.Fatal(err)
	}
	if n := w.RunAll(1000); n != 2 || len(ticks) != 2 || ticks[1] != math.MaxInt64-10 {
		t.Fatalf("RunAll fired %d, ticks %v; want 2 ticks, the last at MaxInt64−10", n, ticks)
	}
}

func TestRunAllBound(t *testing.T) {
	w := NewWorld(1)
	// Self-perpetuating event chain.
	var tick func()
	n := 0
	tick = func() { n++; w.After(time.Millisecond, tick) }
	w.After(0, tick)
	processed := w.RunAll(50)
	if processed != 50 || n != 50 {
		t.Errorf("RunAll processed %d (%d ticks), want 50", processed, n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		w := NewWorld(99)
		lat := PaperLatency()
		var out []time.Duration
		for i := 0; i < 100; i++ {
			out = append(out, lat.Sample(w.Rand()))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	w := NewWorld(5)
	u := UniformLatency{Min: 20 * time.Millisecond, Max: 80 * time.Millisecond}
	seenLow, seenHigh := false, false
	for i := 0; i < 10000; i++ {
		l := u.Sample(w.Rand())
		if l < u.Min || l > u.Max {
			t.Fatalf("latency %v out of [%v,%v]", l, u.Min, u.Max)
		}
		if l < 30*time.Millisecond {
			seenLow = true
		}
		if l > 70*time.Millisecond {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Error("uniform latency not spanning its range")
	}
}

func TestUniformLatencyDegenerate(t *testing.T) {
	w := NewWorld(1)
	u := UniformLatency{Min: 50 * time.Millisecond, Max: 50 * time.Millisecond}
	if got := u.Sample(w.Rand()); got != 50*time.Millisecond {
		t.Errorf("degenerate uniform = %v", got)
	}
	inverted := UniformLatency{Min: 80 * time.Millisecond, Max: 20 * time.Millisecond}
	if got := inverted.Sample(w.Rand()); got != 80*time.Millisecond {
		t.Errorf("inverted uniform = %v, want Min", got)
	}
}

func TestFixedLatency(t *testing.T) {
	if got := FixedLatency(time.Second).Sample(nil); got != time.Second {
		t.Errorf("FixedLatency = %v", got)
	}
}

// TestHostTimerSleepsWhileOffline: a host-bound timer's runs while its
// host is offline call neither stop nor fn, yet keep the timer's period
// and its place among the events due with it, and count as fired timers
// and in sim_timer_runs_asleep_total. A host-less timer never sleeps.
func TestHostTimerSleepsWhileOffline(t *testing.T) {
	w := NewWorld(1)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	up := []bool{true, true}
	if err := NewNetwork(w, nil, nil, 0).Bind([]ids.NodeID{"a", "b"}, func(i int) bool { return up[i] }); err != nil {
		t.Fatal(err)
	}
	var log []string
	stops := 0
	mark := func(name string) func() { return func() { log = append(log, fmt.Sprintf("%s@%v", name, w.Now())) } }
	if err := w.EveryHost(1, 0, time.Second, stopFunc(func() bool { stops++; return false }), mark("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.EveryHost(-1, 0, time.Second, nil, mark("none")); err != nil {
		t.Fatal(err)
	}
	w.At(1500*time.Millisecond, func() { up[1] = false })
	w.At(3*time.Second, mark("event")) // queued before b's run at 3 s re-armed: fires first
	w.At(3*time.Second, func() { up[1] = true })
	w.Run(4 * time.Second)
	want := []string{"b@0s", "none@0s", "b@1s", "none@1s", "none@2s", "event@3s", "b@3s", "none@3s", "b@4s", "none@4s"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("runs %v\nwant %v", log, want)
	}
	if stops != 4 {
		t.Errorf("stop was asked %d times, want 4 (never while b slept)", stops)
	}
	if got := reg.Counter("sim_timer_runs_asleep_total").Value(); got != 1 {
		t.Errorf("sim_timer_runs_asleep_total = %d, want 1", got)
	}
	if got := reg.Counter(`sim_events_fired_total{kind="timer"}`).Value(); got != 8 {
		t.Errorf("%d timer runs counted, want 8 (the skipped one among them)", got)
	}
}

// TestHostTimerStoppedAsleepDropsOnWake: a timer whose stop turned true
// while its host slept is dropped, unrun, at its first run after the
// host is back — the run that asks stop again.
func TestHostTimerStoppedAsleepDropsOnWake(t *testing.T) {
	w := NewWorld(1)
	up := true
	if err := NewNetwork(w, nil, nil, 0).Bind([]ids.NodeID{"a"}, func(int) bool { return up }); err != nil {
		t.Fatal(err)
	}
	runs, stopped := 0, false
	if err := w.EveryHost(0, 0, time.Second, stopFunc(func() bool { return stopped }), func() { runs++ }); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Second) // runs at 0 and 1 s
	up = false
	w.Run(2 * time.Second)
	stopped = true
	w.Run(3 * time.Second) // asleep at 2 and 3 s: still armed
	if runs != 2 || w.Pending() != 1 {
		t.Fatalf("%d runs, %d pending after sleeping through the stop; want 2 and 1", runs, w.Pending())
	}
	up = true
	w.Run(10 * time.Second)
	if runs != 2 || w.Pending() != 0 {
		t.Fatalf("%d runs, %d pending once the host woke; want 2 and 0", runs, w.Pending())
	}
}

// TestEveryHostStartDoesNotAllocate: a timer's first run is queued as an
// event carrying the timer, its owner's stop check included, so starting
// one allocates nothing beyond the queue's own growth.
func TestEveryHostStartDoesNotAllocate(t *testing.T) {
	w := NewWorld(1)
	runs := 0
	fn := func() { runs++ }
	var owner stopFunc = func() bool { return false }
	start := func() {
		if err := w.EveryHost(0, time.Second, time.Minute, owner, fn); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		start() // past the first-use growth of the event queue
	}
	if avg := testing.AllocsPerRun(1000, start); avg != 0 {
		t.Errorf("starting a timer allocates %.2f times, want 0", avg)
	}
	w.Run(time.Second)
	if runs != 1065 {
		t.Fatalf("%d first runs, want 1065", runs)
	}
}

// TestHostTimerWithoutNetworkRuns: on a world no network was bound on,
// every host is online.
func TestHostTimerWithoutNetworkRuns(t *testing.T) {
	w := NewWorld(1)
	runs := 0
	if err := w.EveryHost(3, 0, time.Second, nil, func() { runs++ }); err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Second)
	if runs != 3 {
		t.Fatalf("%d runs, want 3", runs)
	}
}
