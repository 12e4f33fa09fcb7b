package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"avmem/internal/ids"
	"avmem/internal/obs"
)

// fireLog runs a deterministic pseudo-random schedule — timers and
// network sends, with deliberate same-timestamp collisions — on a world
// with the given shard count and returns the observed fire order.
func fireLog(t *testing.T, shards int) []string {
	t.Helper()
	log, _ := fireLogObs(t, shards, nil)
	return log
}

// fireLogObs is fireLog on a world instrumented into reg (nil: not
// instrumented); it also returns Run's event count.
func fireLogObs(t *testing.T, shards int, reg *obs.Registry) ([]string, int) {
	t.Helper()
	w := NewWorld(42)
	if err := w.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	w.Instrument(reg)
	hosts := make([]ids.NodeID, 16)
	for i := range hosts {
		hosts[i] = ids.NodeID(fmt.Sprintf("h%02d", i))
	}
	net := NewNetwork(w, UniformLatency{Min: 0, Max: 10 * time.Millisecond}, nil, 0)
	net.Bind(hosts, func(int) bool { return true })
	var log []string
	for i, id := range hosts {
		i, id := i, id
		net.Register(id, func(from ids.NodeID, msg any) {
			log = append(log, fmt.Sprintf("deliver h%02d<-%s %v @%v", i, from, msg, w.Now()))
		})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		i := i
		// Coarse timestamps force plenty of (at) ties; order among them
		// must follow scheduling order (seq) regardless of shard count.
		at := time.Duration(rng.Intn(20)) * time.Millisecond
		switch i % 3 {
		case 0:
			w.At(at, func() { log = append(log, fmt.Sprintf("timer %d @%v", i, w.Now())) })
		case 1:
			from, to := hosts[rng.Intn(16)], hosts[rng.Intn(16)]
			w.At(at, func() { net.Send(from, to, i) })
		case 2:
			from, to := hosts[rng.Intn(16)], hosts[rng.Intn(16)]
			w.At(at, func() {
				net.SendCall(from, to, i, func(ok bool) {
					log = append(log, fmt.Sprintf("result %d %v @%v", i, ok, w.Now()))
				})
			})
		}
	}
	n := w.Run(time.Second)
	return log, n
}

// TestShardedOrderIdentical pins the tentpole determinism claim: the
// merged (at, seq) schedule is bit-identical for every shard count,
// including the unsharded engine.
func TestShardedOrderIdentical(t *testing.T) {
	want := fireLog(t, 1)
	if len(want) == 0 {
		t.Fatal("empty fire log")
	}
	for _, n := range []int{2, 3, 8, 64} {
		got := fireLog(t, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverged from unsharded order (len %d vs %d)", n, len(got), len(want))
		}
	}
}

// TestShardedZeroLatencyCrossShard exercises the edge the shard barrier
// must get right: zero-latency sends between hosts owned by different
// shards still deliver at the send instant, in send (seq) order.
func TestShardedZeroLatencyCrossShard(t *testing.T) {
	w := NewWorld(1)
	if err := w.SetShards(4); err != nil {
		t.Fatal(err)
	}
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
		// hosts 0..4 map to shards 0..3,0 under shards=4: every send
		// below crosses a shard boundary except the last.
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

// TestSetShardsMigration re-layouts a half-run world that holds all four
// event shapes and checks the schedule survives: switching 1 → 8 → 3 → 1
// shards mid-stream never reorders queued events, and each arrives with
// its own payload.
func TestSetShardsMigration(t *testing.T) {
	run := func(migrate bool) []string {
		w := NewWorld(3)
		net := NewNetwork(w, UniformLatency{Min: time.Millisecond, Max: 9 * time.Millisecond}, nil, 0)
		var log []string
		note := func(what string, v any) {
			log = append(log, fmt.Sprintf("%s %v @%v", what, v, w.Now()))
		}
		net.Register("b", func(from ids.NodeID, msg any) { note("deliver<-"+string(from), msg) })
		for i := 0; i < 40; i++ {
			tag := string(rune('A' + i))
			switch i % 4 {
			case 0:
				w.At(time.Duration(i%5)*time.Millisecond, func() { note("timer", tag) })
			case 1:
				net.Send("a", "b", tag)
			case 2:
				net.SendCall("a", "b", tag, func(ok bool) { note("ack", tag) })
			case 3:
				net.SendCall("a", "ghost", tag, func(ok bool) { note("nack", tag) })
			}
		}
		if migrate {
			if err := w.SetShards(8); err != nil {
				t.Fatal(err)
			}
		}
		w.Run(5 * time.Millisecond) // some attempts fired, their verdicts now queued
		if migrate {
			if err := w.SetShards(3); err != nil {
				t.Fatal(err)
			}
			w.Run(20 * time.Millisecond)
			if err := w.SetShards(1); err != nil {
				t.Fatal(err)
			}
			if w.Shards() != 1 {
				t.Fatalf("Shards() = %d after reset", w.Shards())
			}
		}
		w.Run(time.Second)
		if w.Pending() != 0 {
			t.Fatalf("%d events left", w.Pending())
		}
		return log
	}
	want, got := run(false), run(true)
	if len(want) != 50 { // 10 timers + 10 deliveries + 10×(delivery+ack) + 10 nacks
		t.Fatalf("reference log has %d lines, want 50", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("migration changed the schedule:\n got %v\nwant %v", got, want)
	}
}

// TestSetShardsBounds rejects absurd widths.
func TestSetShardsBounds(t *testing.T) {
	w := NewWorld(1)
	if err := w.SetShards(maxShards + 1); err == nil {
		t.Fatal("want error for oversized shard count")
	}
	if err := w.SetShards(0); err != nil || w.Shards() != 1 {
		t.Fatalf("SetShards(0): err=%v shards=%d", err, w.Shards())
	}
}

// TestShardedDeliveryReadsTargetAtFiring: a sharded Send resolves its
// target's host index once and the delivery carries it, but what the
// index is used for — handler and liveness — is still read when the
// delivery fires. A handler unregistered, a handler replaced and a host
// gone offline between Send and delivery behave as on the one-heap
// engine, and so does a target outside the bound universe.
func TestShardedDeliveryReadsTargetAtFiring(t *testing.T) {
	run := func(shards int) ([]string, NetworkStats) {
		w := NewWorld(5)
		if err := w.SetShards(shards); err != nil {
			t.Fatal(err)
		}
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

		net.Send(hosts[0], hosts[9], "to-unregistered")
		net.Send(hosts[0], hosts[10], "to-offline")
		net.Send(hosts[0], hosts[11], "to-replaced")
		net.Send(hosts[0], hosts[12], "to-returned")
		net.Send(hosts[0], "unbound", "to-unbound")
		net.Send(hosts[0], "nobody", "to-nobody")
		up[12] = false
		w.At(5*time.Millisecond, func() {
			net.Register(hosts[9], nil)
			up[10] = false
			net.Register(hosts[11], handler("h11'"))
			up[12] = true
		})
		w.Run(time.Second)
		return got, net.Stats()
	}
	want := []string{"h11'<-to-replaced@10ms", "h12<-to-returned@10ms", "unbound<-to-unbound@10ms"}
	for _, shards := range []int{1, 8} {
		got, stats := run(shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: delivered %v, want %v", shards, got, want)
		}
		if stats != (NetworkStats{Sent: 6, Delivered: 3, Dropped: 3}) {
			t.Errorf("shards=%d: stats %+v", shards, stats)
		}
	}
}

// TestPayloadSize: the resolved host index rides in what was padding, so
// a slab slot is no larger than before it was carried.
func TestPayloadSize(t *testing.T) {
	if got := unsafe.Sizeof(payload{}); got != 96 {
		t.Errorf("payload is %d bytes, want 96", got)
	}
}
