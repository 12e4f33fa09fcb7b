package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avmem/internal/ids"
)

// Satellite coverage for transport failure semantics: a SendCall to a
// dead or unregistered peer must invoke onResult(false) exactly once on
// every transport, and Unregister racing in-flight traffic must be
// safe.

// expectExactlyOnceFailure sends one SendCall to a dead peer and
// asserts onResult fires exactly once, with false.
func expectExactlyOnceFailure(t *testing.T, tr Transport, from, to ids.NodeID) {
	t.Helper()
	var calls atomic.Int32
	var sawOK atomic.Bool
	done := make(chan struct{}, 1)
	tr.SendCall(from, to, sampleAnycast(), func(ok bool) {
		if ok {
			sawOK.Store(true)
		}
		if calls.Add(1) == 1 {
			done <- struct{}{}
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("onResult never fired for dead peer")
	}
	// Give a double invocation time to surface before counting.
	time.Sleep(50 * time.Millisecond)
	if got := calls.Load(); got != 1 {
		t.Fatalf("onResult fired %d times, want exactly 1", got)
	}
	if sawOK.Load() {
		t.Fatal("dead peer acknowledged: want onResult(false)")
	}
}

// testDeadPeerExactlyOnce: a call to an address nothing listens on.
func testDeadPeerExactlyOnce(t *testing.T, f fabric) {
	tr := f.open()
	defer tr.Close()
	expectExactlyOnceFailure(t, tr, f.addr(), f.addr())
}

func TestMemnetSendCallDeadPeerExactlyOnce(t *testing.T) { testDeadPeerExactlyOnce(t, memory) }
func TestTCPSendCallDeadPeerExactlyOnce(t *testing.T)    { testDeadPeerExactlyOnce(t, tcp) }

// TestMemnetUnregisterMidFlight hammers a wall-clock memnet with SendCall
// traffic while the target registers and unregisters concurrently: no
// panic, and every call reports exactly once. Run under -race in CI.
func TestMemnetUnregisterMidFlight(t *testing.T) {
	const senders, perSender = 8, 50
	const self = ids.NodeID("flappy")
	tr := NewMemnet(MemnetConfig{AckTimeout: 5 * time.Millisecond})
	defer tr.Close()
	var results atomic.Int32
	handler := func(ids.NodeID, any) {}
	if err := tr.Register(self, handler); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				tr.SendCall("sender", self, sampleAnycast(), func(bool) {
					results.Add(1)
				})
			}
		}()
	}
	// Flap the registration while traffic is in flight.
	for i := 0; i < 20; i++ {
		tr.Unregister(self)
		time.Sleep(time.Millisecond)
		if err := tr.Register(self, handler); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	want := int32(senders * perSender)
	deadline := time.After(10 * time.Second)
	for results.Load() < want {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d SendCall results arrived", results.Load(), want)
		case <-time.After(5 * time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := results.Load(); got != want {
		t.Fatalf("%d results for %d calls: callbacks must fire exactly once", got, want)
	}
}

// TestMemnetCloseRacesSenders closes a wall-clock memnet while eight
// goroutines send and call on it — a node's own ticker goroutine racing
// its fabric's shutdown. Close starts the moment the first send is being
// planned, so that send's timer is the one a WaitGroup counts from zero.
// Once Close has returned no handler runs, and every SendCall issued
// before, during or after it reports exactly once. Under -race this
// fails when a send is admitted outside m.mu: an Add at counter zero
// concurrent with Close's Wait.
func TestMemnetCloseRacesSenders(t *testing.T) {
	const senders = 8
	for iter := 0; iter < 200; iter++ {
		planning := make(chan struct{})
		var first sync.Once
		m := NewMemnet(MemnetConfig{
			AckTimeout: time.Millisecond,
			Latency: func(*rand.Rand) time.Duration {
				first.Do(func() { close(planning) })
				return time.Millisecond
			},
		})
		var closed atomic.Bool
		var late, results atomic.Int32
		if err := m.Register("peer", func(ids.NodeID, any) {
			if closed.Load() {
				late.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				if s%2 == 0 {
					m.Send("sender", "peer", s)
					return
				}
				m.SendCall("sender", "peer", s, func(bool) { results.Add(1) })
			}()
		}
		<-planning
		m.Close()
		closed.Store(true)
		wg.Wait()
		deadline := time.After(5 * time.Second)
		for results.Load() < senders/2 {
			select {
			case <-deadline:
				t.Fatalf("iteration %d: %d of %d SendCall results arrived", iter, results.Load(), senders/2)
			case <-time.After(100 * time.Microsecond):
			}
		}
		st := m.Stats()
		if late.Load() != 0 || results.Load() != senders/2 || st.Sent != senders || st.Delivered+st.Dropped != senders {
			t.Fatalf("iteration %d: %d handler runs after Close returned, %d results for %d calls, stats %+v",
				iter, late.Load(), results.Load(), senders/2, st)
		}
	}
}

// TestTCPCloseRacesSenders is TestMemnetCloseRacesSenders on loopback
// sockets: eight goroutines send and call while the transport closes.
// Once Close has returned no handler runs, and every SendCall issued
// before, during or after it reports exactly once. Under -race this fails
// when a send is admitted outside t.mu: an Add at counter zero concurrent
// with Close's Wait.
func TestTCPCloseRacesSenders(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const senders = 8
	for iter := 0; iter < 50; iter++ {
		tr := NewTCP(200*time.Millisecond, time.Second)
		peer := tcp.addr()
		var closed atomic.Bool
		var late, results atomic.Int32
		if err := tr.Register(peer, func(ids.NodeID, any) {
			if closed.Load() {
				late.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if s%2 == 0 {
					tr.Send("127.0.0.1:1", peer, sampleAnycast())
					return
				}
				tr.SendCall("127.0.0.1:1", peer, sampleAnycast(), func(bool) { results.Add(1) })
			}()
		}
		close(start)
		tr.Close()
		closed.Store(true)
		wg.Wait()
		deadline := time.After(5 * time.Second)
		for results.Load() < senders/2 {
			select {
			case <-deadline:
				t.Fatalf("iteration %d: %d of %d SendCall results arrived", iter, results.Load(), senders/2)
			case <-time.After(100 * time.Microsecond):
			}
		}
		time.Sleep(time.Millisecond) // let a double report surface
		if late.Load() != 0 || results.Load() != senders/2 {
			t.Fatalf("iteration %d: %d handler runs after Close returned, %d results for %d calls",
				iter, late.Load(), results.Load(), senders/2)
		}
	}
}

func TestMemnetFaultInjectionRaces(t *testing.T) {
	// Kill/Restart, partitions, and link faults flapping while traffic
	// flows: the memnet must stay consistent (callbacks exactly once).
	m := NewMemnet(MemnetConfig{AckTimeout: 5 * time.Millisecond})
	defer m.Close()
	if err := m.Register("peer", func(ids.NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	var results atomic.Int32
	var wg sync.WaitGroup
	const calls = 200
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < calls; i++ {
			m.SendCall("sender", "peer", sampleAnycast(), func(bool) { results.Add(1) })
		}
	}()
	for i := 0; i < 20; i++ {
		m.Kill("peer")
		m.Partition([]ids.NodeID{"peer"}, []ids.NodeID{"sender"})
		m.SetLinkDrop("sender", "peer", 0.5)
		time.Sleep(time.Millisecond)
		m.Restart("peer")
		m.Heal()
		m.SetLinkDrop("sender", "peer", -1)
	}
	wg.Wait()
	deadline := time.After(10 * time.Second)
	for results.Load() < calls {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d results arrived", results.Load(), calls)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestTCPUnregisterMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	tr := NewTCP(200*time.Millisecond, time.Second)
	defer tr.Close()
	self := tcp.addr()
	handler := func(ids.NodeID, any) {}
	if err := tr.Register(self, handler); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				done := make(chan struct{})
				tr.SendCall("127.0.0.1:39413", self, sampleAnycast(), func(bool) { close(done) })
				<-done
			}
		}()
	}
	// Flap the listener while calls are in flight; rebinding the port
	// can transiently fail while the old listener drains, so retry.
	for i := 0; i < 10; i++ {
		tr.Unregister(self)
		time.Sleep(2 * time.Millisecond)
		for try := 0; try < 50; try++ {
			if err := tr.Register(self, handler); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wg.Wait()
}
