package transport

import (
	"math/rand"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/sim"
)

// virtualMemnet builds a memnet on a fresh virtual clock.
func virtualMemnet(seed int64, cfg MemnetConfig) (*sim.World, *Memnet) {
	w := sim.NewWorld(seed)
	cfg.After = w.After
	cfg.Seed = seed
	return w, NewMemnet(cfg)
}

func TestMemnetVirtualDelivery(t *testing.T) {
	w, m := virtualMemnet(1, MemnetConfig{
		Latency: UniformLatencyFn(20*time.Millisecond, 80*time.Millisecond),
	})
	var gotAt time.Duration
	if err := m.Register("b", func(from ids.NodeID, msg any) {
		gotAt = w.Now()
	}); err != nil {
		t.Fatal(err)
	}
	m.Send("a", "b", sampleAnycast())
	w.RunAll(0)
	if gotAt < 20*time.Millisecond || gotAt > 80*time.Millisecond {
		t.Errorf("delivered at %v, want within [20ms, 80ms]", gotAt)
	}
	st := m.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMemnetDeterministicPerSeed(t *testing.T) {
	record := func(seed int64) []time.Duration {
		w, m := virtualMemnet(seed, MemnetConfig{
			Latency: UniformLatencyFn(20*time.Millisecond, 80*time.Millisecond),
		})
		var times []time.Duration
		if err := m.Register("b", func(ids.NodeID, any) {
			times = append(times, w.Now())
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			m.Send("a", "b", sampleAnycast())
		}
		w.RunAll(0)
		return times
	}
	a, b := record(7), record(7)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("deliveries lost: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: same seed must replay identically", i, a[i], b[i])
		}
	}
	c := record(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical latency sequences")
	}
}

// scriptedLatency returns the given latencies in draw order, then
// zero.
func scriptedLatency(draws ...time.Duration) LatencyFn {
	return func(*rand.Rand) time.Duration {
		if len(draws) == 0 {
			return 0
		}
		d := draws[0]
		draws = draws[1:]
		return d
	}
}

// TestMemnetAckRidesReverseLink: a delivered call is acknowledged one
// round trip after sending — the outbound draw, then the return draw,
// both taken at send time in that order.
func TestMemnetAckRidesReverseLink(t *testing.T) {
	w, m := virtualMemnet(1, MemnetConfig{Latency: scriptedLatency(30*time.Millisecond, 70*time.Millisecond)})
	var deliveredAt time.Duration
	if err := m.Register("b", func(ids.NodeID, any) { deliveredAt = w.Now() }); err != nil {
		t.Fatal(err)
	}
	acks := 0
	var ackAt time.Duration
	m.SendCall("a", "b", sampleAnycast(), func(ok bool) {
		if !ok {
			t.Error("delivered call nacked")
		}
		acks++
		ackAt = w.Now()
	})
	w.RunAll(0)
	if deliveredAt != 30*time.Millisecond {
		t.Errorf("delivered at %v, want the 30ms outbound draw", deliveredAt)
	}
	if acks != 1 || ackAt != 100*time.Millisecond {
		t.Errorf("%d acks, the last at %v; want one at 100ms (outbound plus return draw)", acks, ackAt)
	}
}

// TestMemnetOfflineTargetNacks: a call to an unregistered target reports
// failure exactly once, at the later of AckTimeout and the outbound
// latency — sim.Network's failure detection.
func TestMemnetOfflineTargetNacks(t *testing.T) {
	for _, c := range []struct{ out, want time.Duration }{
		{30 * time.Millisecond, 160 * time.Millisecond},
		{200 * time.Millisecond, 200 * time.Millisecond},
	} {
		w, m := virtualMemnet(1, MemnetConfig{
			AckTimeout: 160 * time.Millisecond,
			Latency:    scriptedLatency(c.out, 70*time.Millisecond),
		})
		if err := m.Register("b", func(ids.NodeID, any) {}); err != nil {
			t.Fatal(err)
		}
		m.Unregister("b")
		nacks := 0
		var failedAt time.Duration
		m.SendCall("a", "b", sampleAnycast(), func(ok bool) {
			if ok {
				t.Error("unregistered target acknowledged")
			}
			nacks++
			failedAt = w.Now()
		})
		w.RunAll(0)
		if nacks != 1 || failedAt != c.want {
			t.Errorf("outbound %v: %d nacks, the last at %v; want one at %v", c.out, nacks, failedAt, c.want)
		}
		if st := m.Stats(); st.Sent != 1 || st.Dropped != 1 || st.Delivered != 0 {
			t.Errorf("outbound %v: stats = %+v", c.out, st)
		}
	}
}
