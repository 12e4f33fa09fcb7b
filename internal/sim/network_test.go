package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"avmem/internal/ids"
)

// boundNet returns a network on w bound to hosts, host i online iff
// up(i) (nil: always).
func boundNet(t *testing.T, w *World, lat LatencyModel, ackTimeout time.Duration, hosts []ids.NodeID, up func(int) bool) *Network {
	t.Helper()
	n := NewNetwork(w, lat, nil, ackTimeout)
	if up == nil {
		up = func(int) bool { return true }
	}
	if err := n.Bind(hosts, up); err != nil {
		t.Fatal(err)
	}
	return n
}

// ab is the two-host universe most tests here send across.
var ab = []ids.NodeID{"a", "b"}

func TestSendDelivers(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(50*time.Millisecond), 0, ab, nil)
	var got any
	var gotFrom ids.NodeID
	var at time.Duration
	n.Register("b", func(from ids.NodeID, msg any) {
		got, gotFrom, at = msg, from, w.Now()
	})
	n.Send("a", "b", "hello")
	w.Run(time.Second)
	if got != "hello" || gotFrom != "a" {
		t.Errorf("delivery = (%v, %v)", got, gotFrom)
	}
	if at != 50*time.Millisecond {
		t.Errorf("delivered at %v, want 50ms", at)
	}
	if s := n.Stats(); s.Sent != 1 || s.Delivered != 1 || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSendToOfflineDrops(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(time.Millisecond), 0, ab, func(i int) bool { return i == 0 })
	delivered := false
	n.Register("b", func(ids.NodeID, any) { delivered = true })
	n.Send("a", "b", "x")
	w.Run(time.Second)
	if delivered {
		t.Error("message delivered to offline node")
	}
	if s := n.Stats(); s.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 drop", s)
	}
}

func TestSendToUnregisteredDrops(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(time.Millisecond), 0, ab, nil)
	n.Send("a", "b", "x")
	w.Run(time.Second)
	if s := n.Stats(); s.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 drop", s)
	}
}

// TestSendOutsideTheUniverseDrops: a target outside the bound universe —
// by bare identifier or under a memo that names a host's slot — reaches
// nobody: a send drops and a call nacks, each counted, and no handler can
// be registered for it.
func TestSendOutsideTheUniverseDrops(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(time.Millisecond), 0, ab, nil)
	delivered := 0
	n.Register("b", func(ids.NodeID, any) { delivered++ })
	if err := n.RegisterAddr(ids.NodeID("ghost").Addr(), func(ids.Addr, any) { delivered++ }); err == nil {
		t.Error("a handler outside the universe was registered")
	}
	nacks := 0
	for _, to := range []ids.Addr{ids.NodeID("ghost").Addr(), ids.AddrAt("ghost", 1)} {
		n.SendAddr(ids.AddrAt("a", 0), to, "send")
		n.SendCallAddr(ids.AddrAt("a", 0), to, "call", func(ok bool) {
			if !ok {
				nacks++
			}
		})
		n.SendNackAddr(ids.AddrAt("a", 0), to, "nack-only", func() { nacks++ })
	}
	w.Run(time.Second)
	if delivered != 0 || nacks != 4 {
		t.Errorf("%d deliveries and %d nacks, want 0 and 4", delivered, nacks)
	}
	if s := n.Stats(); s != (NetworkStats{Sent: 6, Dropped: 6}) {
		t.Errorf("stats = %+v, want 6 sent and dropped", s)
	}
}

// TestSecondBindIsRefused: the universe is fixed — a second Bind, and a
// Bind without hosts or liveness, are refused and change nothing.
func TestSecondBindIsRefused(t *testing.T) {
	w := NewWorld(1)
	n := NewNetwork(w, FixedLatency(time.Millisecond), nil, 0)
	if n.Bind(nil, func(int) bool { return true }) == nil || n.Bind(ab, nil) == nil {
		t.Error("a Bind without hosts or liveness was admitted")
	}
	if err := n.Bind(ab, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind([]ids.NodeID{"c"}, func(int) bool { return true }); err == nil {
		t.Error("a second Bind was admitted")
	}
	got := false
	n.Register("b", func(ids.NodeID, any) { got = true })
	n.Send("a", "b", "x")
	w.Run(time.Second)
	if !got {
		t.Error("a refused Bind replaced the universe")
	}
}

// TestRetiredOnlinePanics: NewNetwork's online argument is retired; a
// non-nil one panics rather than being silently ignored.
func TestRetiredOnlinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewNetwork accepted a non-nil online argument")
		}
	}()
	NewNetwork(NewWorld(1), nil, func(ids.NodeID) bool { return true }, 0)
}

func TestOnlineAtDeliveryTimeMatters(t *testing.T) {
	w := NewWorld(1)
	up := true
	n := boundNet(t, w, FixedLatency(100*time.Millisecond), 0, ab, func(int) bool { return up })
	delivered := false
	n.Register("b", func(ids.NodeID, any) { delivered = true })
	n.Send("a", "b", "x") // in flight for 100ms
	w.At(50*time.Millisecond, func() { up = false })
	w.Run(time.Second)
	if delivered {
		t.Error("message delivered despite target going offline mid-flight")
	}
}

func TestSendCallAck(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(30*time.Millisecond), 0, ab, nil)
	n.Register("b", func(ids.NodeID, any) {})
	var result *bool
	var at time.Duration
	n.SendCall("a", "b", "x", func(ok bool) { result = &ok; at = w.Now() })
	w.Run(time.Second)
	if result == nil || !*result {
		t.Fatal("want ack true")
	}
	if at != 60*time.Millisecond { // out + back
		t.Errorf("ack at %v, want 60ms", at)
	}
}

func TestSendCallFailureAfterTimeout(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(30*time.Millisecond), 200*time.Millisecond, ab, nil)
	// "b" never registered → unreachable.
	var result *bool
	var at time.Duration
	n.SendCall("a", "b", "x", func(ok bool) { result = &ok; at = w.Now() })
	w.Run(time.Second)
	if result == nil || *result {
		t.Fatal("want nack")
	}
	if at != 200*time.Millisecond {
		t.Errorf("nack at %v, want ackTimeout 200ms", at)
	}
}

func TestSendCallNilCallback(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(time.Millisecond), 0, ab, nil)
	n.Register("b", func(ids.NodeID, any) {})
	n.SendCall("a", "b", "x", nil) // must not panic
	n.SendCall("a", "ghost", "x", nil)
	w.Run(time.Second)
}

func TestRegisterNilUnregisters(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, FixedLatency(time.Millisecond), 0, ab, nil)
	delivered := 0
	n.Register("b", func(ids.NodeID, any) { delivered++ })
	n.Send("a", "b", "1")
	w.Run(time.Second)
	n.Register("b", nil)
	n.Send("a", "b", "2")
	w.Run(2 * time.Second)
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
}

// TestNetworkDefaults: with no latency model a hop takes the paper's
// U[20,80] ms, and with no ackTimeout a nack fires 160 ms after the send.
func TestNetworkDefaults(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, nil, 0, ab, nil)
	var got, nacked time.Duration = -1, -1
	n.Register("b", func(ids.NodeID, any) { got = w.Now() })
	n.Send("a", "b", "x")
	n.SendCall("b", "a", "y", func(ok bool) {
		if !ok {
			nacked = w.Now()
		}
	})
	w.Run(time.Second)
	if got < 20*time.Millisecond || got > 80*time.Millisecond {
		t.Errorf("default latency model delivered at %v, want within [20ms, 80ms]", got)
	}
	if nacked != 160*time.Millisecond {
		t.Errorf("default ack timeout nacked at %v, want 160ms", nacked)
	}
}

// TestZeroLatencySameInstantOrder: zero-latency sends deliver at the send
// instant, in send (seq) order, whichever hosts they run between.
func TestZeroLatencySameInstantOrder(t *testing.T) {
	w := NewWorld(1)
	hosts := []ids.NodeID{"a", "b", "c", "d", "e"}
	net := boundNet(t, w, FixedLatency(0), 0, hosts, nil)
	var got []string
	for i, id := range hosts {
		i := i
		net.Register(id, func(from ids.NodeID, msg any) {
			got = append(got, fmt.Sprintf("%d<-%v@%v", i, msg, w.Now()))
		})
	}
	w.At(5*time.Millisecond, func() {
		net.Send(hosts[0], hosts[1], "x")
		net.Send(hosts[1], hosts[2], "y")
		net.Send(hosts[3], hosts[4], "z")
	})
	w.Run(time.Second)
	want := []string{"1<-x@5ms", "2<-y@5ms", "4<-z@5ms"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestDeliveryReadsTargetAtFiring: a queued delivery carries its target's
// address, but what the address is used for — handler and liveness — is
// read when the delivery fires. A handler unregistered, a handler
// replaced and a host gone offline or returned between Send and delivery
// decide the message's fate; a target outside the bound universe is
// dropped whether addressed by bare identifier or under a forged memo.
func TestDeliveryReadsTargetAtFiring(t *testing.T) {
	for _, memo := range []bool{false, true} {
		w := NewWorld(5)
		hosts := make([]ids.NodeID, 16)
		for i := range hosts {
			hosts[i] = ids.NodeID(fmt.Sprintf("h%02d", i))
		}
		up := make([]bool, len(hosts))
		for i := range up {
			up[i] = true
		}
		net := boundNet(t, w, FixedLatency(10*time.Millisecond), 0, hosts, func(i int) bool { return up[i] })
		var got []string
		handler := func(tag string) Handler {
			return func(from ids.NodeID, msg any) { got = append(got, fmt.Sprintf("%s<-%v@%v", tag, msg, w.Now())) }
		}
		for _, id := range hosts {
			net.Register(id, handler(string(id)))
		}
		// to addresses host i honestly; outside names an identifier no
		// slot holds, under host 9's index when memos are in play.
		to := func(i int) ids.Addr { return hosts[i].Addr() }
		outside := func(id ids.NodeID) ids.Addr { return id.Addr() }
		if memo {
			to = func(i int) ids.Addr { return ids.AddrAt(hosts[i], int32(i)) }
			outside = func(id ids.NodeID) ids.Addr { return ids.AddrAt(id, 9) }
		}

		net.SendAddr(to(0), to(9), "to-unregistered")
		net.SendAddr(to(0), to(10), "to-offline")
		net.SendAddr(to(0), to(11), "to-replaced")
		net.SendAddr(to(0), to(12), "to-returned")
		net.SendAddr(to(0), outside("unbound"), "to-unbound")
		net.SendAddr(to(0), outside("nobody"), "to-nobody")
		up[12] = false
		w.At(5*time.Millisecond, func() {
			net.Register(hosts[9], nil)
			up[10] = false
			net.Register(hosts[11], handler("h11'"))
			up[12] = true
		})
		w.Run(time.Second)
		want := []string{"h11'<-to-replaced@10ms", "h12<-to-returned@10ms"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("memo=%v: delivered %v, want %v", memo, got, want)
		}
		if stats := net.Stats(); stats != (NetworkStats{Sent: 6, Delivered: 2, Dropped: 4}) {
			t.Errorf("memo=%v: stats %+v", memo, stats)
		}
	}
}

// pooled is a message that owns pooled buffers (Recycler), counting its
// recycles.
type pooled struct{ recycled int }

func (m *pooled) Recycle() { m.recycled++ }

// TestDroppedRecyclerIsRecycledOnce: a message that owns pooled buffers
// and cannot be delivered — its target offline, unregistered or outside
// the universe, on any send path — goes back to its pool exactly once,
// and never reaches a handler afterwards, even once the target is up. A
// delivered one is left to the handler that consumes it.
func TestDroppedRecyclerIsRecycledOnce(t *testing.T) {
	w := NewWorld(1)
	up := false
	n := boundNet(t, w, FixedLatency(10*time.Millisecond), 0, []ids.NodeID{"a", "b", "c"}, func(i int) bool { return i != 1 || up })
	handled := 0
	n.Register("b", func(ids.NodeID, any) { handled++ })
	a, b, c, gone := ids.NodeID("a").Addr(), ids.NodeID("b").Addr(), ids.NodeID("c").Addr(), ids.NodeID("gone").Addr()
	var msgs []*pooled
	send := func(send func(msg any)) {
		m := &pooled{}
		msgs = append(msgs, m)
		send(m)
	}
	send(func(m any) { n.SendAddr(a, b, m) })                    // offline
	send(func(m any) { n.SendAddr(a, c, m) })                    // unregistered
	send(func(m any) { n.SendAddr(a, gone, m) })                 // outside the universe
	send(func(m any) { n.SendCallAddr(a, b, m, func(bool) {}) }) // offline, acknowledged
	send(func(m any) { n.SendNackAddr(a, c, m, func() {}) })     // unregistered, nack-only
	send(func(m any) { n.SendCallAddr(a, gone, m, nil) })        // outside, no callback
	w.Run(time.Second)
	up = true
	w.Run(2 * time.Second)
	for i, m := range msgs {
		if m.recycled != 1 {
			t.Errorf("dropped message %d recycled %d times, want 1", i, m.recycled)
		}
	}
	if handled != 0 {
		t.Fatalf("%d recycled messages reached a handler", handled)
	}
	delivered := &pooled{}
	n.SendAddr(a, b, delivered)
	w.Run(3 * time.Second)
	if handled != 1 || delivered.recycled != 0 {
		t.Fatalf("delivered message: handled %d times, recycled %d; want 1 and 0", handled, delivered.recycled)
	}
	if s := n.Stats(); s.Dropped != len(msgs) || s.Delivered != 1 {
		t.Fatalf("stats %+v, want %d dropped and 1 delivered", s, len(msgs))
	}
}
