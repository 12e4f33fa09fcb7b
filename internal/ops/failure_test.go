package ops

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"avmem/internal/core"
)

// TestGossipSkipsRoundsWhileOffline: a gossiping node that churns
// offline skips its sending rounds but keeps its schedule, resuming if
// it returns — and the world never deadlocks.
func TestGossipSkipsRoundsWhileOffline(t *testing.T) {
	avails := []float64{0.9, 0.88, 0.86, 0.87}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	opts := MulticastOptions{
		Anycast: DefaultAnycastOptions(),
		MulticastSpec: MulticastSpec{
			Mode:   Gossip,
			Flavor: core.HSVS,
			Fanout: 1, // slow dissemination so churn matters
			Rounds: 4,
			Period: time.Second,
		},
		Eligible: 4,
	}
	id, err := c.routers[c.nodes[0]].Multicast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Initiator goes offline after its first round, then returns.
	c.world.At(c.world.Now()+1500*time.Millisecond, func() { c.online[c.nodes[0]] = false })
	c.world.At(c.world.Now()+2500*time.Millisecond, func() { c.online[c.nodes[0]] = true })
	c.world.Run(c.world.Now() + time.Minute)
	if c.world.Pending() != 0 {
		t.Errorf("%d events still pending; gossip schedule leaked", c.world.Pending())
	}
	rec, _ := c.col.Multicast(id)
	if len(rec.Delivered) == 0 {
		t.Error("nothing delivered at all")
	}
}

// TestMidFlightChurnDuringRetriedAnycast: candidates flip offline while
// the message is being retried; the operation still terminates with a
// definite outcome.
func TestMidFlightChurnDuringRetriedAnycast(t *testing.T) {
	avails := []float64{0.5, 0.9, 0.91, 0.92, 0.93}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	// All in-range candidates start online but churn off rapidly.
	for step, id := range c.nodes[1:] {
		id := id
		c.world.At(time.Duration(step*50)*time.Millisecond, func() { c.online[id] = false })
	}
	opts := AnycastOptions{Policy: RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 16}
	id, err := c.routers[c.nodes[0]].Anycast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.world.Run(c.world.Now() + time.Minute)
	rec, _ := c.col.Anycast(id)
	if rec.Outcome == OutcomePending {
		t.Errorf("operation never terminated: %+v", rec)
	}
}

// TestAnnealIndexInBoundsProperty: the annealing choice always indexes
// a real candidate regardless of TTL or target geometry.
func TestAnnealIndexInBoundsProperty(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.2, 0.9, 0.7, 0.4}, false)
	r := c.routers[c.nodes[0]]
	prop := func(rawLo, rawHi float64, ttl uint8) bool {
		lo := clampUnit(rawLo)
		hi := clampUnit(rawHi)
		if hi < lo {
			lo, hi = hi, lo
		}
		m := AnycastMsg{
			Target:         Target{Lo: lo, Hi: hi},
			AnycastOptions: AnycastOptions{Policy: Annealing, TTL: int(ttl % 7)},
		}
		candidates := r.candidates(nil, "", core.HSVS, m.Target)
		if len(candidates) == 0 {
			return true
		}
		idx := r.annealIndex(candidates, m)
		return idx >= 0 && idx < len(candidates)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCandidatesSortedByGreedyMetricProperty: the candidate list is
// always sorted by availability distance to the target.
func TestCandidatesSortedByGreedyMetricProperty(t *testing.T) {
	avails := []float64{0.5, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9}
	c := newCluster(t, fullPredicate(t), avails, false)
	r := c.routers[c.nodes[0]]
	prop := func(rawLo, rawHi float64) bool {
		lo := clampUnit(rawLo)
		hi := clampUnit(rawHi)
		if hi < lo {
			lo, hi = hi, lo
		}
		tgt := Target{Lo: lo, Hi: hi}
		candidates := r.candidates(nil, "", core.HSVS, tgt)
		for i := 1; i < len(candidates); i++ {
			if tgt.Distance(candidates[i-1].Availability) > tgt.Distance(candidates[i].Availability)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDuplicateSuppressionBounded: the seen-set reset keeps memory
// bounded even under a deluge of distinct multicast IDs.
func TestDuplicateSuppressionBounded(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.9, 0.88}, false)
	tgt, _ := Range(0.85, 0.95)
	r := c.routers[c.nodes[1]]
	for i := 0; i < maxSeen+100; i++ {
		r.HandleMessage(c.nodes[0].Addr(), MulticastMsg{
			ID:     MsgID{Origin: c.nodes[0], Seq: uint64(i)},
			Target: tgt,
			Spec:   MulticastSpec{Mode: Flood, Flavor: core.HSVS},
		})
	}
	if len(r.seen) > maxSeen {
		t.Errorf("seen set grew to %d, bound is %d", len(r.seen), maxSeen)
	}
}

func clampUnit(v float64) float64 {
	v = math.Abs(math.Mod(v, 1))
	if math.IsNaN(v) {
		return 0
	}
	return v
}
