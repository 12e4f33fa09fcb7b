package runtime

import (
	"sync"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/sim"
	"avmem/internal/transport"
)

// peerA and peerB are the two memo-less addresses the tests talk between.
var peerA, peerB = ids.NodeID("a").Addr(), ids.NodeID("b").Addr()

func newVirtualPair(t *testing.T) (*sim.World, *transport.Memnet, *Virtual, *Virtual) {
	t.Helper()
	w := sim.NewWorld(1)
	net := transport.NewMemnet(transport.MemnetConfig{After: w.After, Seed: 1})
	mk := func(self ids.NodeID) *Virtual {
		env, err := NewVirtual(VirtualConfig{Self: self.Addr(), Scheduler: w, Fabric: TransportFabric(net), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	return w, net, mk("a"), mk("b")
}

func TestVirtualEnvMessaging(t *testing.T) {
	w, _, a, b := newVirtualPair(t)
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
	w, _, a, _ := newVirtualPair(t)
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

// stopSelfForTest exercises Stop from inside a callback.
func (e *Virtual) stopSelfForTest() { e.Stop() }

func TestVirtualEveryStopFunc(t *testing.T) {
	w, _, a, _ := newVirtualPair(t)
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
	w, _, a, b := newVirtualPair(t)
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
	net := transport.NewMemnet(transport.MemnetConfig{After: w.After})
	if _, err := NewVirtual(VirtualConfig{Scheduler: w, Fabric: TransportFabric(net)}); err == nil {
		t.Error("want error for missing identity")
	}
	if _, err := NewVirtual(VirtualConfig{Self: peerA, Fabric: TransportFabric(net)}); err == nil {
		t.Error("want error for missing scheduler")
	}
	if _, err := NewVirtual(VirtualConfig{Self: peerA, Scheduler: w}); err == nil {
		t.Error("want error for missing fabric")
	}
	if _, err := NewLive(LiveConfig{Transport: net}); err == nil {
		t.Error("want error for missing identity")
	}
	if _, err := NewLive(LiveConfig{Self: "a"}); err == nil {
		t.Error("want error for missing transport")
	}
}

func TestNetFabricAdapter(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, sim.FixedLatency(time.Millisecond), nil, 0)
	f := NetFabric(net)
	env, err := NewVirtual(VirtualConfig{Self: peerA, Scheduler: w, Fabric: f, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := f.Register(peerB, func(from ids.Addr, msg any) { got++ }); err != nil {
		t.Fatal(err)
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

	w, _, a, b := newVirtualPair(t)
	if err := b.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	check("Virtual over TransportFabric", a, func() { w.RunAll(0) }, b.Unregister)

	w, _, a, b = newVirtualPair(t)
	if err := b.Register(func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	gateRuns := 0
	g := Gated(a, func(fn func()) { gateRuns++; fn() })
	check("Gated", g, func() { w.RunAll(0) }, b.Unregister)
	if gateRuns != 1 {
		t.Errorf("Gated: the gate ran %d callbacks, want 1 (the nack)", gateRuns)
	}

	sw := sim.NewWorld(1)
	net := sim.NewNetwork(sw, sim.FixedLatency(time.Millisecond), nil, 0)
	f := NetFabric(net)
	env, err := NewVirtual(VirtualConfig{Self: peerA, Scheduler: sw, Fabric: f, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Register(peerB, func(ids.Addr, any) {}); err != nil {
		t.Fatal(err)
	}
	check("Virtual over NetFabric", env, func() { sw.RunAll(0) }, func() { f.Unregister(peerB) })

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
	w, _, a, _ := newVirtualPair(t)
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
