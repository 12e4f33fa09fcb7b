package ops

import (
	"math"
	"testing"
	"time"

	"avmem/internal/agg"
)

func TestBandSemantics(t *testing.T) {
	cases := []struct {
		band Band
		av   float64
		want bool
	}{
		{Band{0.2, 0.6}, 0.2, true},   // closed at Lo
		{Band{0.2, 0.6}, 0.6, false},  // open at Hi
		{Band{0.2, 0.6}, 0.59, true},  //
		{Band{0.2, 0.6}, 0.19, false}, //
		{Band{0.2, 1}, 1.0, true},     // Hi of 1 closes the top end
		{Band{0, 1}, 0, true},         // full range, bottom
		{Band{0, 1}, 1, true},         // full range, top
		{Band{0.5, 0.5}, 0.5, false},  // empty band contains nothing
		{Band{1, 1}, 1, true},         // degenerate top band = {1}
	}
	for _, tc := range cases {
		if got := tc.band.Contains(tc.av); got != tc.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", tc.band, tc.av, got, tc.want)
		}
	}
	if !(Band{0.5, 0.5}).Empty() {
		t.Error("[0.5,0.5) should be empty")
	}
	if (Band{1, 1}).Empty() {
		t.Error("[1,1) closes the top end and contains av=1")
	}
	if (Band{0, 1}).Empty() {
		t.Error("full band is not empty")
	}
	for _, bad := range []Band{{-0.1, 0.5}, {0.5, 1.1}, {0.6, 0.5}, {math.NaN(), 1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("band %v validated", bad)
		}
	}
}

// runLong drives the test cluster far enough for aggregation waves
// (seconds, not the anycast's milliseconds) to play out.
func (c *cluster) runLong() { c.world.Run(c.world.Now() + 2*time.Minute) }

// rangecastOptions returns the default multicast options turned into a
// range-cast of payload to eligible band members.
func rangecastOptions(payload string, eligible int) MulticastOptions {
	opts := DefaultMulticastOptions()
	opts.HalfOpen, opts.Payload, opts.Eligible = true, payload, eligible
	return opts
}

// TestRangecastFullBandCoverage: a full-range rangecast from any node
// reaches every online node exactly once, spam-free.
func TestRangecastFullBandCoverage(t *testing.T) {
	avails := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	c := newCluster(t, fullPredicate(t), avails, false)
	id, err := c.routers[c.nodes[0]].Multicast(Target{Lo: 0, Hi: 1}, rangecastOptions("config-v1", len(avails)))
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	rec, ok := c.col.Multicast(id)
	if !ok {
		t.Fatal("no record")
	}
	if !rec.EnteredRange {
		t.Error("full-band rangecast did not enter")
	}
	if got := rec.Reliability(); got != 1 {
		t.Errorf("coverage = %v, want 1 (delivered %d/%d)", got, len(rec.Delivered), rec.Eligible)
	}
	if rec.Spam != 0 {
		t.Errorf("spam = %d, want 0", rec.Spam)
	}
}

// TestRangecastBandFiltering: only nodes inside [lo, hi) receive the
// payload; the boundary node at exactly hi stays clean.
func TestRangecastBandFiltering(t *testing.T) {
	avails := []float64{0.2, 0.4, 0.6, 0.8} // band [0.4, 0.8): nodes 1, 2
	c := newCluster(t, fullPredicate(t), avails, false)
	id, err := c.routers[c.nodes[0]].Multicast(Target{Lo: 0.4, Hi: 0.8}, rangecastOptions("mid", 2))
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	rec, _ := c.col.Multicast(id)
	if len(rec.Delivered) != 2 {
		t.Fatalf("delivered to %v, want the two in-band nodes", rec.Delivered)
	}
	for _, in := range []int{1, 2} {
		if _, ok := rec.Delivered[string(c.nodes[in])]; !ok {
			t.Errorf("in-band node %d missing from %v", in, rec.Delivered)
		}
	}
	if rec.Reliability() != 1 {
		t.Errorf("coverage = %v", rec.Reliability())
	}
}

// TestRangecastEmptyBand: lo == hi addresses nobody; the operation
// completes vacuously without entering the overlay.
func TestRangecastEmptyBand(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.3, 0.5, 0.7}, false)
	before := c.net.Stats().Sent
	id, err := c.routers[c.nodes[0]].Multicast(Target{Lo: 0.5, Hi: 0.5}, rangecastOptions("noop", 0))
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	rec, ok := c.col.Multicast(id)
	if !ok {
		t.Fatal("no record")
	}
	if len(rec.Delivered) != 0 || rec.Spam != 0 || rec.EnteredRange {
		t.Errorf("empty band produced activity: %+v", rec)
	}
	if got := c.net.Stats().Sent; got != before {
		t.Errorf("empty band put %d messages on the wire", got-before)
	}
}

// TestHullBoundaryNode pins what a node sitting exactly on a target's
// upper edge receives. The overlay is a path-like HS graph
// 0.8 – 0.6 – {0.5, 0.42}: the initiator at 0.8 can only enter through
// the node at 0.6. A multicast to the closed [0.4, 0.6] delivers to it;
// a range-cast to the half-open [0.4, 0.6) counts it as spam, yet, as
// the entry node, it still relays the payload into the band.
func TestHullBoundaryNode(t *testing.T) {
	avails := []float64{0.8, 0.6, 0.5, 0.42}
	c := newCluster(t, chainPredicate(t, 0.21), avails, false)
	edge := string(c.nodes[1])

	tgt, _ := Range(0.4, 0.6)
	mopts := DefaultMulticastOptions()
	mopts.Eligible = 3
	mid, err := c.routers[c.nodes[0]].Multicast(tgt, mopts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	m, _ := c.col.Multicast(mid)
	if _, ok := m.Delivered[edge]; !ok || len(m.Delivered) != 3 || m.Spam != 0 {
		t.Errorf("multicast to %v: delivered %v, spam %d; want all three incl. the node at 0.6, no spam", tgt, m.Delivered, m.Spam)
	}

	rid, err := c.routers[c.nodes[0]].Multicast(tgt, rangecastOptions("edge", 2))
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Multicast(rid)
	if !r.EnteredRange {
		t.Fatal("range-cast never entered the band")
	}
	if _, ok := r.Delivered[edge]; ok || r.Spam != 1 {
		t.Errorf("range-cast to [0.4,0.6): delivered %v, spam %d; want the node at 0.6 counted as spam", r.Delivered, r.Spam)
	}
	for _, in := range []int{2, 3} {
		if _, ok := r.Delivered[string(c.nodes[in])]; !ok {
			t.Errorf("entry at the hull did not relay to in-band node %d: %v", in, r.Delivered)
		}
	}
	if r.MaxDepth != 1 {
		t.Errorf("max depth = %d, want 1 (one relay past the entry)", r.MaxDepth)
	}
}

func TestRangecastValidation(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	r := c.routers[c.nodes[0]]
	if _, err := r.Multicast(Target{Lo: 0.9, Hi: 0.5}, rangecastOptions("x", 0)); err == nil {
		t.Error("want error for inverted band")
	}
	bad := rangecastOptions("x", 0)
	bad.Anycast.TTL = 0
	if _, err := r.Multicast(Target{Lo: 0.2, Hi: 0.8}, bad); err == nil {
		t.Error("want error for bad anycast options")
	}
}

// TestAggregateCountAndAvg: an end-to-end census over a band computes
// the exact count and average of the in-band values.
func TestAggregateCountAndAvg(t *testing.T) {
	avails := []float64{0.1, 0.3, 0.5, 0.7, 0.9} // band [0.4,1): 0.5, 0.7, 0.9
	c := newCluster(t, fullPredicate(t), avails, false)
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 3, 3
	id, err := c.routers[c.nodes[0]].Aggregate(agg.Count, 0.4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, ok := c.col.Aggregate(id)
	if !ok || !rec.Done {
		t.Fatalf("count did not complete: %+v", rec)
	}
	if got := rec.Value(); got != 3 {
		t.Errorf("count = %v, want 3", got)
	}
	if got := rec.Accuracy(); got != 1 {
		t.Errorf("count accuracy = %v, want 1", got)
	}

	opts.Truth = (0.5 + 0.7 + 0.9) / 3
	id, err = c.routers[c.nodes[1]].Aggregate(agg.Avg, 0.4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, _ = c.col.Aggregate(id)
	if !rec.Done {
		t.Fatal("avg did not complete")
	}
	if got := rec.Value(); math.Abs(got-opts.Truth) > 1e-12 {
		t.Errorf("avg = %v, want %v", got, opts.Truth)
	}
}

// TestAggregateMinMax: the order statistics survive the tree.
func TestAggregateMinMax(t *testing.T) {
	avails := []float64{0.15, 0.35, 0.55, 0.75, 0.95}
	c := newCluster(t, fullPredicate(t), avails, false)
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 4, 0.35
	id, err := c.routers[c.nodes[0]].Aggregate(agg.Min, 0.2, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, _ := c.col.Aggregate(id)
	if !rec.Done || rec.Value() != 0.35 {
		t.Fatalf("min = %+v, want 0.35", rec)
	}
	opts.Truth = 0.95
	id, err = c.routers[c.nodes[2]].Aggregate(agg.Max, 0.2, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, _ = c.col.Aggregate(id)
	if !rec.Done || rec.Value() != 0.95 {
		t.Fatalf("max = %+v, want 0.95", rec)
	}
}

// TestAggregateEmptyBand: lo == hi completes instantly with the empty
// aggregate, scoring exact accuracy against an empty ground truth.
func TestAggregateEmptyBand(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.3, 0.7}, false)
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 0, 0
	id, err := c.routers[c.nodes[0]].Aggregate(agg.Count, 0.5, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := c.col.Aggregate(id)
	if !ok || !rec.Done {
		t.Fatalf("empty-band aggregate should complete at initiation: %+v", rec)
	}
	if rec.Value() != 0 || rec.Accuracy() != 1 {
		t.Errorf("empty census = %v (accuracy %v), want 0 (1)", rec.Value(), rec.Accuracy())
	}
}

// TestAggregateOutOfBandInitiator: the initiator sits outside the
// band; the entry anycast finds a root and the result travels back.
func TestAggregateOutOfBandInitiator(t *testing.T) {
	avails := []float64{0.1, 0.8, 0.85, 0.9}
	c := newCluster(t, fullPredicate(t), avails, false)
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 3, 3
	id, err := c.routers[c.nodes[0]].Aggregate(agg.Count, 0.75, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, _ := c.col.Aggregate(id)
	if !rec.Done {
		t.Fatal("result never reached the out-of-band origin")
	}
	if !rec.EnteredRange {
		t.Error("entry not flagged")
	}
	if rec.Value() != 3 {
		t.Errorf("count = %v, want 3", rec.Value())
	}
	if rec.TreeDepth() < 1 {
		t.Errorf("tree depth = %d, want >= 1", rec.TreeDepth())
	}
}

// TestAggregateSurvivesOfflineChild: a child going dark mid-operation
// costs its value, not the whole aggregation — the transport nack and
// the deadline backstop keep the tree converging.
func TestAggregateSurvivesOfflineChild(t *testing.T) {
	avails := []float64{0.5, 0.6, 0.7}
	c := newCluster(t, fullPredicate(t), avails, false)
	c.online[c.nodes[2]] = false
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 3, 3
	id, err := c.routers[c.nodes[0]].Aggregate(agg.Count, 0.4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, _ := c.col.Aggregate(id)
	if !rec.Done {
		t.Fatal("aggregation hung on an offline child")
	}
	if rec.Value() != 2 {
		t.Errorf("count = %v, want 2 (the online members)", rec.Value())
	}
}

// TestAggregateValidation covers the option surface.
func TestAggregateValidation(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	r := c.routers[c.nodes[0]]
	if _, err := r.Aggregate(agg.Op(0), 0.2, 0.8, DefaultAggregateOptions()); err == nil {
		t.Error("want error for invalid op")
	}
	if _, err := r.Aggregate(agg.Count, 0.8, 0.2, DefaultAggregateOptions()); err == nil {
		t.Error("want error for inverted band")
	}
	bad := DefaultAggregateOptions()
	bad.Anycast.Policy = Policy(0)
	if _, err := r.Aggregate(agg.Count, 0.2, 0.8, bad); err == nil {
		t.Error("want error for bad anycast options")
	}
}

// TestAggregateRecordAccuracy pins the accuracy scale.
func TestAggregateRecordAccuracy(t *testing.T) {
	mk := func(op agg.Op, truth float64, done bool, obs ...float64) *AggregateRecord {
		r := &AggregateRecord{Op: op, Truth: truth, Done: done}
		for _, v := range obs {
			r.Result.Observe(v, 0)
		}
		return r
	}
	if got := mk(agg.Count, 10, true, 1, 1, 1, 1, 1, 1, 1, 1, 1).Accuracy(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("count 9/10 accuracy = %v, want 0.9", got)
	}
	if got := mk(agg.Count, 0, true).Accuracy(); got != 1 {
		t.Errorf("empty-vs-empty count accuracy = %v, want 1", got)
	}
	if got := mk(agg.Avg, 0.5, true, 0.4).Accuracy(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("avg accuracy = %v, want 0.9", got)
	}
	if got := mk(agg.Avg, math.NaN(), true).Accuracy(); got != 1 {
		t.Errorf("empty avg vs empty truth = %v, want 1", got)
	}
	if got := mk(agg.Avg, 0.5, true).Accuracy(); got != 0 {
		t.Errorf("empty result vs real truth = %v, want 0", got)
	}
	if got := mk(agg.Count, 5, false, 1, 1).Accuracy(); got != 0 {
		t.Errorf("pending accuracy = %v, want 0", got)
	}
}
