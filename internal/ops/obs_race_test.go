package ops

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/obs"
)

// TestCollectorConcurrentAccess hammers one instrumented Collector from
// writer goroutines (the shape of live nodes delivering ops
// concurrently) while reader goroutines read records through the per-id
// getters and scrape the registry mid-flight. Run under -race (the CI
// race job covers this package) it pins that instrumented bump sites and
// record reads never observe torn state.
func TestCollectorConcurrentAccess(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector()
	c.Instrument(reg)

	const writers, opsPer = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: per-id record reads plus a full Prometheus scrape, in a
	// loop until the writers finish — the mid-run read pattern.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				origin := ids.NodeID(fmt.Sprintf("10.0.0.%d:400%d", (r+i)%writers, (r+i)%writers))
				if rec, ok := c.Anycast(MsgID{Origin: origin, Seq: uint64(i % opsPer)}); ok {
					_ = rec.Outcome
				}
				if rec, ok := c.Multicast(MsgID{Origin: origin, Seq: uint64(opsPer + i%opsPer)}); ok {
					_ = len(rec.Delivered)
				}
				c.AggCounters()
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}(r)
	}

	// Writers: the full anycast + multicast lifecycle, one origin per
	// goroutine so MsgIDs never collide.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			origin := ids.NodeID(fmt.Sprintf("10.0.0.%d:400%d", w, w))
			for i := 0; i < opsPer; i++ {
				id := MsgID{Origin: origin, Seq: uint64(i)}
				c.StartAnycast(id, Target{Lo: 0.5, Hi: 1})
				switch i % 3 {
				case 0:
					c.anycastDelivered(id, i%7, time.Duration(i)*time.Millisecond)
				case 1:
					c.anycastFailed(id, OutcomeTTLExpired)
				default:
					c.anycastFailed(id, OutcomeRetryExpired)
				}
				mid := MsgID{Origin: origin, Seq: uint64(opsPer + i)}
				c.StartMulticast(mid, Target{Lo: 0.5, Hi: 1}, i%2 == 0, 4, 0)
				c.multicastDelivered(mid, string(origin), time.Duration(i), true, 1)
			}
		}(w)
	}

	// Wait for writers only, then release the readers.
	doneWriters := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneWriters)
	}()
	// The writer goroutines are a strict subset of wg; close stop once
	// every op is in so readers drain. Writers finish fast, so poll the
	// delivered counter instead of adding a second WaitGroup.
	want := int64(writers * opsPer / 3)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("ops_anycast_delivered_total").Value() < want {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-doneWriters

	delivered := reg.Counter("ops_anycast_delivered_total").Value()
	ttl := reg.Counter("ops_anycast_ttl_expired_total").Value()
	retry := reg.Counter("ops_anycast_retry_expired_total").Value()
	if delivered+ttl+retry != int64(writers*opsPer) {
		t.Fatalf("outcome counters %d+%d+%d don't sum to %d ops",
			delivered, ttl, retry, writers*opsPer)
	}
	mc, rc := reg.Counter("ops_multicast_delivered_total").Value(), reg.Counter("ops_rangecast_delivered_total").Value()
	if mc != int64(writers*opsPer/2) || rc != int64(writers*opsPer/2) {
		t.Fatalf("delivered counters: multicast %d, range-cast %d, want %d each", mc, rc, writers*opsPer/2)
	}
}
