package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"avmem/internal/ids"
)

func TestSendDelivers(t *testing.T) {
	w := NewWorld(1)
	n := NewNetwork(w, FixedLatency(50*time.Millisecond), nil, 0)
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
	online := map[ids.NodeID]bool{"a": true}
	n := NewNetwork(w, FixedLatency(time.Millisecond), func(id ids.NodeID) bool { return online[id] }, 0)
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
	n := NewNetwork(w, FixedLatency(time.Millisecond), nil, 0)
	n.Send("a", "ghost", "x")
	w.Run(time.Second)
	if s := n.Stats(); s.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 drop", s)
	}
}

func TestOnlineAtDeliveryTimeMatters(t *testing.T) {
	w := NewWorld(1)
	up := true
	n := NewNetwork(w, FixedLatency(100*time.Millisecond), func(ids.NodeID) bool { return up }, 0)
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
	n := NewNetwork(w, FixedLatency(30*time.Millisecond), nil, 0)
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
	n := NewNetwork(w, FixedLatency(30*time.Millisecond), nil, 200*time.Millisecond)
	// "b" never registered → offline.
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
	n := NewNetwork(w, FixedLatency(time.Millisecond), nil, 0)
	n.Register("b", func(ids.NodeID, any) {})
	n.SendCall("a", "b", "x", nil) // must not panic
	n.SendCall("a", "ghost", "x", nil)
	w.Run(time.Second)
}

func TestRegisterNilUnregisters(t *testing.T) {
	w := NewWorld(1)
	n := NewNetwork(w, FixedLatency(time.Millisecond), nil, 0)
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

func TestResetStats(t *testing.T) {
	w := NewWorld(1)
	n := NewNetwork(w, FixedLatency(time.Millisecond), nil, 0)
	n.Register("b", func(ids.NodeID, any) {})
	n.Send("a", "b", "x")
	w.Run(time.Second)
	n.ResetStats()
	if s := n.Stats(); s != (NetworkStats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestNetworkDefaults(t *testing.T) {
	w := NewWorld(1)
	n := NewNetwork(w, nil, nil, 0)
	if !n.Online("anyone") {
		t.Error("default online func should return true")
	}
	got := false
	n.Register("b", func(ids.NodeID, any) { got = true })
	n.Send("a", "b", "x")
	w.Run(time.Second)
	if !got {
		t.Error("default latency model failed to deliver")
	}
}

// TestZeroLatencySameInstantOrder: zero-latency sends deliver at the send
// instant, in send (seq) order, whichever hosts they run between.
func TestZeroLatencySameInstantOrder(t *testing.T) {
	w := NewWorld(1)
	hosts := []ids.NodeID{"a", "b", "c", "d", "e"}
	net := NewNetwork(w, FixedLatency(0), nil, 0)
	net.Bind(hosts, func(int) bool { return true })
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
// decide the message's fate, and so does a target outside the bound
// universe — addressed by bare identifier, by a memo that verifies, or by
// a forged one.
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
		net := NewNetwork(w, FixedLatency(10*time.Millisecond), nil, 0)
		net.Bind(hosts, func(i int) bool { return up[i] })
		var got []string
		handler := func(tag string) Handler {
			return func(from ids.NodeID, msg any) { got = append(got, fmt.Sprintf("%s<-%v@%v", tag, msg, w.Now())) }
		}
		for _, id := range hosts {
			net.Register(id, handler(string(id)))
		}
		net.Register("unbound", handler("unbound"))
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
		want := []string{"h11'<-to-replaced@10ms", "h12<-to-returned@10ms", "unbound<-to-unbound@10ms"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("memo=%v: delivered %v, want %v", memo, got, want)
		}
		if stats := net.Stats(); stats != (NetworkStats{Sent: 6, Delivered: 3, Dropped: 3}) {
			t.Errorf("memo=%v: stats %+v", memo, stats)
		}
	}
}
