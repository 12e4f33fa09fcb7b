package sim

import (
	"reflect"
	"testing"
	"time"

	"avmem/internal/obs"
)

// TestInstrumentSerialCounts pins the serial loop's event accounting:
// the events counter equals the Run return value and the virtual-time
// gauge tracks the clock.
func TestInstrumentSerialCounts(t *testing.T) {
	w := NewWorld(1)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	fired := 0
	for i := 0; i < 10; i++ {
		w.At(time.Duration(i)*time.Second, func() { fired++ })
	}
	n := w.Run(time.Minute)
	if n != 10 || fired != 10 {
		t.Fatalf("n=%d fired=%d", n, fired)
	}
	if got := reg.Counter("sim_events_total").Value(); got != 10 {
		t.Fatalf("sim_events_total=%d, want 10", got)
	}
	if got := reg.Gauge("sim_virtual_time_seconds").Value(); got != 60 {
		t.Fatalf("sim_virtual_time_seconds=%v, want 60", got)
	}
}

// TestInstrumentNeutralTranscript is the engine-level determinism
// guarantee: an instrumented world, single heap or sharded, fires
// exactly the schedule of an uninstrumented one and counts every event
// Run reports.
func TestInstrumentNeutralTranscript(t *testing.T) {
	for _, shards := range []int{1, 8} {
		want := fireLog(t, shards)
		reg := obs.NewRegistry()
		got, n := fireLogObs(t, shards, reg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: instrumentation changed the fire order", shards)
		}
		if c := reg.Counter("sim_events_total").Value(); c != int64(n) {
			t.Fatalf("shards=%d: sim_events_total=%d, Run returned %d", shards, c, n)
		}
	}
}
