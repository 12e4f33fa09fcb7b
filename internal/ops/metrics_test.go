package ops

import (
	"testing"
	"time"

	"avmem/internal/agg"
)

func TestCollectorAnycastLifecycle(t *testing.T) {
	c := NewCollector()
	id := MsgID{Origin: "a", Seq: 1}
	tgt, _ := Range(0.8, 0.9)
	c.StartAnycast(id, tgt)
	r, ok := c.Anycast(id)
	if !ok || r.Outcome != OutcomePending {
		t.Fatalf("record = %+v ok=%v", r, ok)
	}
	c.anycastDelivered(id, 3, 150*time.Millisecond)
	if r, _ = c.Anycast(id); r.Outcome != OutcomeDelivered || r.Hops != 3 || r.Latency != 150*time.Millisecond {
		t.Errorf("after delivery = %+v", r)
	}
	// Terminal states are sticky.
	c.anycastFailed(id, OutcomeTTLExpired)
	if r, _ = c.Anycast(id); r.Outcome != OutcomeDelivered {
		t.Error("failure overwrote delivery")
	}
	c.anycastDelivered(id, 9, time.Second)
	if r, _ = c.Anycast(id); r.Hops != 3 {
		t.Error("second delivery overwrote the first")
	}
}

func TestCollectorAnycastFailure(t *testing.T) {
	c := NewCollector()
	id := MsgID{Origin: "a", Seq: 1}
	tgt, _ := Range(0.8, 0.9)
	c.StartAnycast(id, tgt)
	c.anycastFailed(id, OutcomeRetryExpired)
	r, _ := c.Anycast(id)
	if r.Outcome != OutcomeRetryExpired {
		t.Errorf("outcome = %v", r.Outcome)
	}
	// Late delivery cannot resurrect a failed operation.
	c.anycastDelivered(id, 1, time.Millisecond)
	if r, _ = c.Anycast(id); r.Outcome != OutcomeRetryExpired {
		t.Error("delivery overwrote failure")
	}
}

func TestCollectorUnknownIDsIgnored(t *testing.T) {
	c := NewCollector()
	id := MsgID{Origin: "ghost", Seq: 1}
	c.anycastDelivered(id, 1, time.Millisecond) // must not panic
	c.anycastFailed(id, OutcomeTTLExpired)
	c.multicastEntered(id)
	c.multicastDelivered(id, "n", time.Millisecond, true, 0)
	if _, ok := c.Anycast(id); ok {
		t.Error("unregistered anycast materialized")
	}
	if _, ok := c.Multicast(id); ok {
		t.Error("unregistered multicast materialized")
	}
}

func TestMulticastRecordMetrics(t *testing.T) {
	c := NewCollector()
	id := MsgID{Origin: "a", Seq: 1}
	tgt, _ := Range(0.8, 0.9)
	c.StartMulticast(id, tgt, false, 4, 100*time.Millisecond)
	c.multicastEntered(id)
	c.multicastDelivered(id, "n1", 150*time.Millisecond, true, 0)
	c.multicastDelivered(id, "n2", 300*time.Millisecond, true, 2)
	c.multicastDelivered(id, "n1", 999*time.Millisecond, true, 5) // duplicate
	c.multicastDelivered(id, "out", 200*time.Millisecond, false, 7)

	r, ok := c.Multicast(id)
	if !ok {
		t.Fatal("record missing")
	}
	if !r.EnteredRange {
		t.Error("EnteredRange = false")
	}
	if got := r.Reliability(); got != 0.5 {
		t.Errorf("Reliability = %v, want 0.5 (2/4)", got)
	}
	if got := r.SpamRatio(); got != 0.25 {
		t.Errorf("SpamRatio = %v, want 0.25 (1/4)", got)
	}
	if got := r.WorstLatency(); got != 200*time.Millisecond {
		t.Errorf("WorstLatency = %v, want 200ms (300-100)", got)
	}
	if r.Delivered["n1"] != 150*time.Millisecond {
		t.Error("duplicate overwrote first delivery time")
	}
	if r.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2 (duplicates and spam do not count)", r.MaxDepth)
	}
}

func TestMulticastRecordZeroEligible(t *testing.T) {
	r := &MulticastRecord{}
	if r.Reliability() != 0 || r.SpamRatio() != 0 || r.WorstLatency() != 0 {
		t.Error("zero-eligible record not all-zero")
	}
}

// TestRecordGettersReturnDetachedCopies: a record read from the
// collector shares nothing with the one the routers keep writing.
func TestRecordGettersReturnDetachedCopies(t *testing.T) {
	c := NewCollector()
	tgt, _ := Range(0, 1)
	mid, aid := MsgID{Origin: "m", Seq: 1}, MsgID{Origin: "a", Seq: 2}
	c.StartMulticast(mid, tgt, true, 2, 0)
	c.multicastDelivered(mid, "n1", 1, true, 1)
	c.StartAggregate(aid, agg.Count, Band{Lo: 0, Hi: 1}, 2, 2, 0)
	c.addAggInstance(aid, aid, 7)
	m, _ := c.Multicast(mid)
	a, _ := c.Aggregate(aid)
	m.Delivered["forged"] = 9
	a.Instances[0].Token = 8
	c.multicastDelivered(mid, "n2", 2, true, 1)
	if m2, _ := c.Multicast(mid); len(m2.Delivered) != 2 || len(m.Delivered) != 2 || !m2.HalfOpen {
		t.Errorf("collector map %v, the copy's %v: they share storage", m2.Delivered, m.Delivered)
	}
	if a2, _ := c.Aggregate(aid); a2.Instances[0].Token != 7 {
		t.Errorf("a write to the copy's Instances reached the collector: token %d", a2.Instances[0].Token)
	}
}

// TestCoverageCapsAtOne: Eligible is an initiation-time snapshot while
// Delivered integrates over the dissemination, so churn can push the
// raw ratio past 1 — the metrics must cap there (found by the scenario
// fuzzer: scenarios/fuzz-corpus/fuzz-seed14.json).
func TestCoverageCapsAtOne(t *testing.T) {
	mc := &MulticastRecord{
		Eligible: 2,
		Delivered: map[string]time.Duration{
			"n1": 1, "n2": 2, "n3": 3, // n3 drifted into the target mid-flight
		},
	}
	if got := mc.Reliability(); got != 1 {
		t.Errorf("multicast Reliability = %v, want capped 1", got)
	}
	ag := &AggregateRecord{Eligible: 2}
	ag.Result.N = 3
	if got := ag.Coverage(); got != 1 {
		t.Errorf("aggregate Coverage = %v, want capped 1", got)
	}
	// The uncapped regime is untouched.
	mc.Eligible = 6
	if got := mc.Reliability(); got != 0.5 {
		t.Errorf("multicast Reliability = %v, want 0.5", got)
	}
}
