package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/obs"
)

// TestInstrumentSerialCounts pins the serial loop's event accounting:
// the events counter equals the Run return value, the virtual-time
// gauge tracks the clock, and the queue-depth and chunk gauges read the
// queue at each flush.
func TestInstrumentSerialCounts(t *testing.T) {
	w := NewWorld(1)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	fired := 0
	for i := 0; i < 10; i++ {
		w.At(time.Duration(i)*time.Second, func() { fired++ })
	}
	gauges := func() [2]float64 {
		return [2]float64{reg.Gauge("sim_queue_depth").Value(), reg.Gauge("sim_queue_depth_peak").Value()}
	}
	n := w.Run(3 * time.Second)
	if got := gauges(); n != 4 || got != [2]float64{6, 6} {
		t.Fatalf("after 4 of 10 events: n=%d, queue depth and peak %v, want 6 and 6", n, got)
	}
	n += w.Run(time.Minute)
	if n != 10 || fired != 10 {
		t.Fatalf("n=%d fired=%d", n, fired)
	}
	if got := gauges(); got != [2]float64{0, 6} {
		t.Fatalf("drained: queue depth and peak %v, want 0 and 6", got)
	}
	if got := reg.Counter("sim_events_total").Value(); got != 10 {
		t.Fatalf("sim_events_total=%d, want 10", got)
	}
	if got := reg.Gauge("sim_virtual_time_seconds").Value(); got != 60 {
		t.Fatalf("sim_virtual_time_seconds=%v, want 60", got)
	}
	if got := reg.Counter("sim_queue_key_moves_total").Value(); got == 0 || uint64(got) != w.events.moves {
		t.Fatalf("sim_queue_key_moves_total=%d, the queue moved %d keys", got, w.events.moves)
	}
	if got := reg.Gauge("sim_queue_chunks").Value(); got == 0 || got != float64(len(w.events.chunks)) {
		t.Fatalf("sim_queue_chunks=%v, the queue allocated %d chunks", got, len(w.events.chunks))
	}
}

// fireLog runs a deterministic pseudo-random schedule — timers and
// network sends, with deliberate same-timestamp collisions — on a world
// instrumented into reg (nil: not instrumented) and returns the observed
// fire order and Run's event count.
func fireLog(reg *obs.Registry) ([]string, int) {
	w := NewWorld(42)
	w.Instrument(reg)
	hosts := make([]ids.NodeID, 16)
	for i := range hosts {
		hosts[i] = ids.NodeID(fmt.Sprintf("h%02d", i))
	}
	net := NewNetwork(w, UniformLatency{Min: 0, Max: 10 * time.Millisecond}, nil, 0)
	net.Bind(hosts, func(int) bool { return true })
	var log []string
	for i, id := range hosts {
		i := i
		net.Register(id, func(from ids.NodeID, msg any) {
			log = append(log, fmt.Sprintf("deliver h%02d<-%s %v @%v", i, from, msg, w.Now()))
		})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		i := i
		// Coarse timestamps force plenty of (at) ties; order among them
		// follows scheduling order (seq).
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

// TestInstrumentNeutralTranscript is the engine-level determinism
// guarantee: an instrumented world fires exactly the schedule of an
// uninstrumented one and counts every event Run reports.
func TestInstrumentNeutralTranscript(t *testing.T) {
	want, _ := fireLog(nil)
	if len(want) == 0 {
		t.Fatal("empty fire log")
	}
	reg := obs.NewRegistry()
	got, n := fireLog(reg)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("instrumentation changed the fire order")
	}
	if c := reg.Counter("sim_events_total").Value(); c != int64(n) {
		t.Fatalf("sim_events_total=%d, Run returned %d", c, n)
	}
	if sum := firedByKind(reg); sum != int64(n) {
		t.Fatalf("sim_events_fired_total sums to %d, Run returned %d", sum, n)
	}
}

// firedByKind sums sim_events_fired_total over its kinds.
func firedByKind(reg *obs.Registry) int64 {
	var sum int64
	for _, kind := range classNames {
		sum += reg.Counter(`sim_events_fired_total{kind="` + kind + `"}`).Value()
	}
	return sum
}

// TestInstrumentCountsEventKinds: each fired event is counted under its
// kind, a verdict under its outcome, and a nack-only send to an online
// target is its attempt alone.
func TestInstrumentCountsEventKinds(t *testing.T) {
	w := NewWorld(1)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	net := boundNet(t, w, nil, 0, []ids.NodeID{"a", "b"}, nil)
	net.Register("b", func(ids.NodeID, any) {})
	a, b, gone := ids.NodeID("a").Addr(), ids.NodeID("b").Addr(), ids.NodeID("gone").Addr()
	w.After(time.Millisecond, func() {})
	net.SendAddr(a, b, "send")
	net.SendCallAddr(a, b, "ack", func(bool) {})
	net.SendCallAddr(a, gone, "nack", func(bool) {})
	net.SendNackAddr(a, b, "delivered", func() {})
	n := w.RunAll(0)
	want := map[string]int64{"func": 1, "deliver": 1, "attempt": 3, "result-ok": 1, "result-nack": 1}
	for kind, c := range want {
		if got := reg.Counter(`sim_events_fired_total{kind="` + kind + `"}`).Value(); got != c {
			t.Errorf("kind %s: %d events, want %d", kind, got, c)
		}
	}
	if total := reg.Counter("sim_events_total").Value(); n != 7 || total != 7 || firedByKind(reg) != 7 {
		t.Errorf("Run fired %d, sim_events_total %d, kinds sum to %d; want 7", n, total, firedByKind(reg))
	}
}
