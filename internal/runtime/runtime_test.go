package runtime

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/sim"
	"avmem/internal/transport"
)

// peerA and peerB are the two memo-less addresses the tests talk between.
var peerA, peerB = ids.NodeID("a").Addr(), ids.NodeID("b").Addr()

// newVirtualPair binds a and b on one instantaneous simulated network.
func newVirtualPair(t *testing.T) (*sim.World, *Virtual, *Virtual) {
	t.Helper()
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, sim.FixedLatency(0), nil, 0)
	if err := net.Bind([]ids.NodeID{peerA.ID(), peerB.ID()}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	mk := func(self ids.Addr) *Virtual {
		env, err := NewVirtual(VirtualConfig{Self: self, Scheduler: w, Fabric: NetFabric(net), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	return w, mk(peerA), mk(peerB)
}

func TestVirtualEnvMessaging(t *testing.T) {
	w, a, b := newVirtualPair(t)
	var got []any
	if err := b.Register(func(from ids.Addr, msg any) {
		if from != a.cfg.Self {
			t.Errorf("from = %v", from)
		}
		got = append(got, msg)
	}); err != nil {
		t.Fatal(err)
	}
	a.Send(peerB, "hello")
	acked := false
	a.SendCall(peerB, "call", func(ok bool) { acked = ok })
	w.RunAll(0)
	if len(got) != 2 || !acked {
		t.Fatalf("messages=%d acked=%v", len(got), acked)
	}
	b.Unregister()
	nacked := false
	a.SendCall(peerB, "call2", func(ok bool) { nacked = !ok })
	w.RunAll(0)
	if !nacked {
		t.Error("unregistered peer acknowledged")
	}
}

func TestVirtualEnvTimers(t *testing.T) {
	w, a, _ := newVirtualPair(t)
	var ticks []time.Duration
	stop := a.Every(10*time.Millisecond, 20*time.Millisecond, func() {
		ticks = append(ticks, a.Now())
		if len(ticks) == 3 {
			// Stopping from inside a tick must halt the chain.
			a.stopSelfForTest()
		}
	})
	defer stop()
	fired := false
	a.After(5*time.Millisecond, func() { fired = true })
	w.Run(200 * time.Millisecond)
	if !fired {
		t.Error("After never fired")
	}
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

// TestVirtualEveryStopsAtEndOfTime is sim.TestEveryHugePeriodTerminates
// for a node's timer: a tick whose next run would fall past the end of
// virtual time ends the timer, as World.Every does, instead of re-firing
// at math.MaxInt64 until RunAll's bound.
func TestVirtualEveryStopsAtEndOfTime(t *testing.T) {
	w, a, _ := newVirtualPair(t)
	w.Run(time.Hour)
	var ticks []time.Duration
	defer a.Every(0, math.MaxInt64-10, func() { ticks = append(ticks, a.Now()) })()
	w.Run(2 * time.Hour)
	if n := w.RunAll(1000); n != 0 || len(ticks) != 1 || ticks[0] != time.Hour {
		t.Fatalf("%d ticks, the last at %v, then RunAll fired %d more; want one tick at 1h", len(ticks), ticks[len(ticks)-1], n)
	}
	// From time zero the second run still fits, at MaxInt64−10; the third
	// would not.
	w, a, _ = newVirtualPair(t)
	ticks = nil
	defer a.Every(0, math.MaxInt64-10, func() { ticks = append(ticks, a.Now()) })()
	if n := w.RunAll(1000); n != 2 || len(ticks) != 2 || ticks[1] != math.MaxInt64-10 {
		t.Fatalf("RunAll fired %d, %d ticks; want 2 ticks, the last at MaxInt64−10", n, len(ticks))
	}
}

// stopSelfForTest exercises Stop from inside a callback.
func (e *Virtual) stopSelfForTest() { e.Stop() }

func TestVirtualEveryStopFunc(t *testing.T) {
	w, a, _ := newVirtualPair(t)
	count := 0
	stop := a.Every(0, 10*time.Millisecond, func() { count++ })
	w.Run(25 * time.Millisecond)
	stop()
	w.Run(200 * time.Millisecond)
	if count != 3 {
		t.Errorf("ticks after stop: count = %d, want 3", count)
	}
}

func TestGatedSerializesCallbacks(t *testing.T) {
	w, a, b := newVirtualPair(t)
	var mu sync.Mutex
	inGate := 0
	gate := func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		inGate++
		fn()
	}
	g := Gated(a, gate)
	if err := b.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	results := 0
	g.After(time.Millisecond, func() { results++ })
	g.SendCall(peerB, "x", func(ok bool) {
		if ok {
			results++
		}
	})
	stop := g.Every(0, time.Millisecond, func() { results++ })
	w.Run(2 * time.Millisecond)
	stop()
	if inGate < 3 {
		t.Errorf("gate saw %d callbacks, want >= 3", inGate)
	}
	if results < 3 {
		t.Errorf("callbacks ran %d times, want >= 3", results)
	}
	if Gated(a, nil) != Env(a) {
		t.Error("nil gate must return the env unchanged")
	}
}

func TestLiveEnvLifecycle(t *testing.T) {
	tr := transport.NewMemnet(transport.MemnetConfig{Seed: 1})
	defer tr.Close()
	mkLive := func(self ids.NodeID) *Live {
		env, err := NewLive(LiveConfig{Self: self, Transport: tr, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	a, b := mkLive("a"), mkLive("b")
	got := make(chan any, 4)
	if err := b.Register(func(from ids.Addr, msg any) { got <- msg }); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	if a.Now() < 0 {
		t.Error("clock went backwards")
	}
	a.Send(peerB, "hi")
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("live delivery lost")
	}
	acks := make(chan bool, 1)
	a.SendCall(peerB, "call", func(ok bool) { acks <- ok })
	if ok := <-acks; !ok {
		t.Fatal("live ack lost")
	}

	fired := make(chan struct{}, 8)
	stop := a.Every(time.Millisecond, time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("live periodic timer never fired")
	}
	stop()

	// After Stop, timers and ack callbacks are suppressed.
	a.Stop()
	a.After(time.Millisecond, func() { t.Error("timer fired after Stop") })
	a.SendCall(peerB, "late", func(bool) { t.Error("ack fired after Stop") })
	if a.Online() {
		t.Error("stopped env reports online")
	}
	time.Sleep(50 * time.Millisecond)
	b.Stop()
}

func TestNewValidation(t *testing.T) {
	w := sim.NewWorld(1)
	fabric := NetFabric(sim.NewNetwork(w, nil, nil, 0))
	if _, err := NewVirtual(VirtualConfig{Scheduler: w, Fabric: fabric}); err == nil {
		t.Error("want error for missing identity")
	}
	if _, err := NewVirtual(VirtualConfig{Self: peerA, Fabric: fabric}); err == nil {
		t.Error("want error for missing scheduler")
	}
	if _, err := NewVirtual(VirtualConfig{Self: peerA, Scheduler: w}); err == nil {
		t.Error("want error for missing fabric")
	}
	if _, err := NewLive(LiveConfig{Transport: transport.NewMemnet(transport.MemnetConfig{})}); err == nil {
		t.Error("want error for missing identity")
	}
	if _, err := NewLive(LiveConfig{Self: "a"}); err == nil {
		t.Error("want error for missing transport")
	}
}

func TestNetFabricAdapter(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, sim.FixedLatency(time.Millisecond), nil, 0)
	if err := net.Bind([]ids.NodeID{peerA.ID(), peerB.ID()}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	f := NetFabric(net)
	env, err := NewVirtual(VirtualConfig{Self: peerA, Scheduler: w, Fabric: f, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := f.Register(peerB, func(from ids.Addr, msg any) { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(ids.NodeID("c").Addr(), func(ids.Addr, any) {}); err == nil {
		t.Error("a host outside the network's universe was registered")
	}
	env.Send(peerB, "x")
	okCh := false
	env.SendCall(peerB, "y", func(ok bool) { okCh = ok })
	w.RunAll(0)
	if got != 2 || !okCh {
		t.Fatalf("deliveries=%d ack=%v", got, okCh)
	}
	f.Unregister(peerB)
	env.Send(peerB, "z")
	w.RunAll(0)
	if got != 2 {
		t.Error("unregistered sim handler still receiving")
	}
}

// TestSendNackReportsFailureOnly drives SendNack through every Env and
// Fabric binding: a delivered message reports nothing, an unreachable
// one calls onNack exactly once.
func TestSendNackReportsFailureOnly(t *testing.T) {
	check := func(name string, env Env, run func(), unregister func()) {
		t.Helper()
		nacks := 0
		env.SendNack(peerB, "delivered", func() { nacks++ })
		run()
		if nacks != 0 {
			t.Errorf("%s: delivered SendNack nacked %d times", name, nacks)
		}
		unregister()
		env.SendNack(peerB, "lost", func() { nacks++ })
		run()
		if nacks != 1 {
			t.Errorf("%s: unreachable SendNack nacked %d times, want 1", name, nacks)
		}
	}

	w, a, b := newVirtualPair(t)
	if err := b.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	check("Virtual", a, func() { w.RunAll(0) }, b.Unregister)

	w, a, b = newVirtualPair(t)
	if err := b.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	gateRuns := 0
	g := Gated(a, func(fn func()) { gateRuns++; fn() })
	check("Gated", g, func() { w.RunAll(0) }, b.Unregister)
	if gateRuns != 1 {
		t.Errorf("Gated: the gate ran %d callbacks, want 1 (the nack)", gateRuns)
	}

	tr := transport.NewMemnet(transport.MemnetConfig{Seed: 1, AckTimeout: 20 * time.Millisecond})
	defer tr.Close()
	la, err := NewLive(LiveConfig{Self: "a", Transport: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLive(LiveConfig{Self: "b", Transport: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan struct{}, 1)
	if err := lb.Register(func(ids.Addr, any) { delivered <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	nacked := make(chan string, 2)
	la.SendNack(peerB, "delivered", func() { nacked <- "delivered" })
	<-delivered
	lb.Unregister()
	la.SendNack(peerB, "lost", func() { nacked <- "lost" })
	select {
	case got := <-nacked:
		if got != "lost" {
			t.Errorf("Live: the delivered SendNack nacked")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Live: unreachable SendNack never nacked")
	}
}

// TestVirtualEverySteadyStateDoesNotAllocate pins the periodic driver's
// cost: one tick closure is built per Every, and each firing reschedules
// that same closure — no per-tick wrapper, so a steady-state tick
// allocates nothing (2000 nodes × two drivers tick all run long).
func TestVirtualEverySteadyStateDoesNotAllocate(t *testing.T) {
	w, a, _ := newVirtualPair(t)
	const period = 10 * time.Millisecond
	count := 0
	stop := a.Every(0, period, func() { count++ })
	defer stop()
	w.Run(10 * period) // past any first-use growth of the event queue
	before := count
	if avg := testing.AllocsPerRun(200, func() { w.Run(w.Now() + period) }); avg != 0 {
		t.Errorf("a steady-state Every tick allocates %.2f times, want 0", avg)
	}
	if count-before < 200 {
		t.Fatalf("only %d ticks fired during the measurement", count-before)
	}
}

// TestVirtualEveryStartAllocatesOnlyItsTimer pins what starting a node
// timer costs: the everyTimer the Scheduler asks whether it stopped, and
// the stop function Every returns. There is no stop-check closure, and
// the Scheduler's queued first run carries the timer instead of a
// closure around it.
func TestVirtualEveryStartAllocatesOnlyItsTimer(t *testing.T) {
	w, a, _ := newVirtualPair(t)
	runs := 0
	fn := func() { runs++ }
	start := func() { a.Every(time.Millisecond, time.Hour, fn) }
	for range 64 {
		start() // past the first-use growth of the event queue
	}
	if avg := testing.AllocsPerRun(1000, start); avg > 2 {
		t.Errorf("starting an Every timer allocates %.2f times, want at most 2", avg)
	}
	w.Run(time.Millisecond)
	if runs != 1065 {
		t.Fatalf("%d first runs, want 1065", runs)
	}
}

// TestVirtualAfterSteadyStateDoesNotAllocate pins a one-shot timer's
// cost: the stopped-Env check rides in the queued event, so a warm After
// allocates nothing of its own.
func TestVirtualAfterSteadyStateDoesNotAllocate(t *testing.T) {
	w, a, _ := newVirtualPair(t)
	count := 0
	fn := func() { count++ }
	step := func() {
		a.After(time.Millisecond, fn)
		w.Run(w.Now() + time.Millisecond)
	}
	for range 10 {
		step() // past any first-use growth of the event queue
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("a steady-state After allocates %.2f times, want 0", avg)
	}
	if count != 211 {
		t.Fatalf("%d callbacks ran, want 211", count)
	}
}

// TestVirtualAfterSuppressedByStop: a callback scheduled before Stop
// does not run after it. Its event still fires, as the no-op it became,
// so a stop moves no event counts.
func TestVirtualAfterSuppressedByStop(t *testing.T) {
	w, a, b := newVirtualPair(t)
	ran := map[string]bool{}
	a.After(time.Second, func() { ran["a"] = true })
	b.After(time.Second, func() { ran["b"] = true })
	w.Run(500 * time.Millisecond)
	a.Stop()
	if n := w.RunAll(0); n != 2 || ran["a"] || !ran["b"] {
		t.Fatalf("%d events fired, ran %v; want 2 events, only b's callback", n, ran)
	}
}

// TestVirtualEveryRunsOnlyWhileOnline pins Every's contract on the
// virtual engine: fn runs only while the Env is online, and the timer
// keeps its period through an outage. An Env whose Self carries a host
// index sleeps by the network's liveness probe, which the Scheduler asks
// without touching the Env; one without checks its own Online.
func TestVirtualEveryRunsOnlyWhileOnline(t *testing.T) {
	for _, memo := range []bool{true, false} {
		w := sim.NewWorld(1)
		up := true
		net := sim.NewNetwork(w, sim.FixedLatency(0), nil, 0)
		if err := net.Bind([]ids.NodeID{"a"}, func(int) bool { return up }); err != nil {
			t.Fatal(err)
		}
		self := ids.NodeID("a").Addr()
		if memo {
			self = ids.AddrAt("a", 0)
		}
		asked := 0
		env, err := NewVirtual(VirtualConfig{Self: self, Scheduler: w, Fabric: NetFabric(net), Online: func() bool { asked++; return up }, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var ticks []time.Duration
		defer env.Every(0, 10*time.Millisecond, func() {
			if !up {
				t.Errorf("memo=%v: tick at %v while offline", memo, w.Now())
			}
			ticks = append(ticks, w.Now())
		})()
		w.At(15*time.Millisecond, func() { up = false })
		w.At(35*time.Millisecond, func() { up = true })
		fired := w.Run(50 * time.Millisecond)
		want := []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond}
		if !slices.Equal(ticks, want) {
			t.Errorf("memo=%v: ticks at %v, want %v", memo, ticks, want)
		}
		if fired != 8 {
			t.Errorf("memo=%v: %d events fired, want 8 (6 runs, 2 toggles)", memo, fired)
		}
		if want := map[bool]int{true: 0, false: 6}[memo]; asked != want {
			t.Errorf("memo=%v: the timer asked the Env's Online %d times, want %d", memo, asked, want)
		}
	}
}

// TestLiveEverySkipsWhileOffline: a Live Env keeps the same contract —
// a tick while its Online reports false skips fn, and the timer goes on.
func TestLiveEverySkipsWhileOffline(t *testing.T) {
	tr := transport.NewMemnet(transport.MemnetConfig{Seed: 1})
	defer tr.Close()
	var up atomic.Bool
	env, err := NewLive(LiveConfig{Self: "a", Transport: tr, Seed: 1, Online: up.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Stop()
	fired := make(chan struct{}, 64)
	defer env.Every(0, time.Millisecond, func() { fired <- struct{}{} })()
	time.Sleep(20 * time.Millisecond)
	if n := len(fired); n != 0 {
		t.Fatalf("%d ticks ran while offline", n)
	}
	up.Store(true)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("the timer never ticked once the Env was back online")
	}
}

// nodeGate is a gate like a node's: a lock, and callbacks dropped once
// the owner stopped running.
type nodeGate struct {
	mu      sync.Mutex
	running bool
	runs    int
}

func (g *nodeGate) gate(fn func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running {
		g.runs++
		fn()
	}
}

// TestGatedBoundCallbacksAllocateNothing: a callback bound once through
// a node's gated Env (ops.Binder) and handed to the Env beneath the gate
// costs nothing per call — a warm SendCall, SendNack and After allocate
// no wrapper — and still runs inside the gate.
func TestGatedBoundCallbacksAllocateNothing(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, sim.FixedLatency(time.Millisecond), nil, 0)
	if err := net.Bind([]ids.NodeID{"a", "b", "c"}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	a, err := NewVirtual(VirtualConfig{Self: ids.AddrAt("a", 0), Scheduler: w, Fabric: NetFabric(net), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVirtual(VirtualConfig{Self: ids.AddrAt("b", 1), Scheduler: w, Fabric: NetFabric(net), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	g := &nodeGate{running: true}
	binder := Gated(a, g.gate).(ops.Binder)
	oks, nacks, timers := 0, 0, 0
	onResult := binder.BindResult(func(ok bool) {
		if ok {
			oks++
		}
	})
	onNack := binder.Bind(func() { nacks++ })
	onTimer := binder.Bind(func() { timers++ })
	under := binder.Unwrapped()
	var msg any = "x"
	step := func() {
		under.SendCall(ids.AddrAt("b", 1), msg, onResult)
		under.SendNack(ids.AddrAt("c", 2), msg, onNack) // c never registered
		under.After(time.Millisecond, onTimer)
		w.Run(w.Now() + time.Second)
	}
	for range 10 {
		step() // past any first-use growth of the event queue
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("a warm bound SendCall, SendNack and After allocate %.2f times, want 0", avg)
	}
	if oks != 111 || nacks != 111 || timers != 111 || g.runs != 333 {
		t.Fatalf("%d acks, %d nacks, %d timers, %d gate runs; want 111 each, 333 in the gate", oks, nacks, timers, g.runs)
	}
	g.running = false
	step()
	if oks != 111 || nacks != 111 || timers != 111 {
		t.Fatal("a bound callback ran past its gate")
	}
}
