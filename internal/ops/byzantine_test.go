package ops

import (
	"math"
	"testing"
	"time"

	"avmem/internal/agg"
	"avmem/internal/ids"
)

// plausiblePartial builds an in-hull forgery — values a statistical
// check cannot fault, so only result binding stands between it and the
// origin's collector.
func plausiblePartial() agg.Partial {
	return agg.Partial{N: 3, Sum: 2.1, Min: 0.6, Max: 0.8, Depth: 2}
}

// TestAggResultBindingRejectsForgery pins the satellite fix: even at
// redundancy 1, an AggResultMsg that does not echo the origin-minted
// token is rejected and counted — the old first-wins race (forge a
// result the instant a tree is observed, beat the root) is closed.
func TestAggResultBindingRejectsForgery(t *testing.T) {
	avails := []float64{0.1, 0.5, 0.6, 0.7, 0.9}
	c := newCluster(t, fullPredicate(t), avails, false)
	origin := c.nodes[0]
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 3, 3
	id, err := c.routers[origin].Aggregate(agg.Count, 0.4, 0.8, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The forger races the genuine root: its fabricated result reaches
	// the origin before any tree message has even propagated. It never
	// saw the entry anycast's token, so it sends zero.
	c.routers[origin].HandleMessage(c.nodes[4].Addr(), AggResultMsg{
		ID: id, Result: plausiblePartial(), Token: 0,
	})
	rec, _ := c.col.Aggregate(id)
	if rec.Done {
		t.Fatal("forged result accepted before the tree reported")
	}
	c.runLong()
	rec, _ = c.col.Aggregate(id)
	if !rec.Done {
		t.Fatal("aggregation did not complete")
	}
	if got := rec.Value(); got != 3 {
		t.Errorf("count = %v, want the honest 3", got)
	}
	rej, forgRej, forgAcc := c.col.AggCounters()
	if forgRej < 1 {
		t.Errorf("forgery rejections = %d, want >= 1", forgRej)
	}
	if forgAcc != 0 || rej != 0 {
		t.Errorf("counters = (%d rejected, %d forgery accepted), want 0/0", rej, forgAcc)
	}
}

// TestAggResultBindingRejectsWrongSender: a result echoing the right
// token from the wrong transport-level sender (a replay through a
// different node) is refused — acceptance binds to the recorded root.
func TestAggResultBindingRejectsWrongSender(t *testing.T) {
	col := NewCollector()
	id := MsgID{Origin: "origin", Seq: 1}
	col.StartAggregate(id, agg.Count, Band{Lo: 0.4, Hi: 1}, 3, 3, 0)
	col.addAggInstance(id, id, 5)
	col.aggregateEntered(id, "root")
	honest := plausiblePartial()
	col.aggregateResult(id, "evil", 5, honest, 0)
	_, forgRej, forgAcc := col.AggCounters()
	if forgRej != 1 {
		t.Errorf("wrong-sender result not rejected (forgery rejections = %d)", forgRej)
	}
	if forgAcc != 0 {
		t.Errorf("forgery accepted = %d, want 0", forgAcc)
	}
	rec, _ := col.Aggregate(id)
	if rec.Done || rec.Instances[0].Done {
		t.Fatal("replayed result filled the instance slot")
	}
	// The genuine root's result with the same token is accepted.
	col.aggregateResult(id, "root", 5, honest, 0)
	rec, _ = col.Aggregate(id)
	if !rec.Done {
		t.Fatal("genuine result not accepted after rejected replay")
	}
}

// TestAggRedundantTreesAgree: redundancy k grows k instances that all
// return, agree, and resolve with zero divergence on an honest fleet —
// and the combined result still matches the exact census.
func TestAggRedundantTreesAgree(t *testing.T) {
	avails := []float64{0.1, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
	c := newCluster(t, fullPredicate(t), avails, false)
	opts := DefaultAggregateOptions()
	opts.Redundancy = 3
	opts.Eligible, opts.Truth = 6, 6
	id, err := c.routers[c.nodes[0]].Aggregate(agg.Count, 0.4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.runLong()
	rec, ok := c.col.Aggregate(id)
	if !ok || !rec.Done {
		t.Fatalf("redundant aggregation did not complete: %+v", rec)
	}
	if len(rec.Instances) != 3 {
		t.Fatalf("instances = %d, want 3", len(rec.Instances))
	}
	for i, inst := range rec.Instances {
		if !inst.Done {
			t.Errorf("instance %d never returned", i)
		}
		if inst.Token == 0 {
			t.Errorf("instance %d minted a zero token", i)
		}
	}
	if rec.Divergence != 0 {
		t.Errorf("divergence = %v on an honest fleet, want 0", rec.Divergence)
	}
	if got := rec.Value(); got != 6 {
		t.Errorf("count = %v, want 6", got)
	}
}

// TestAggRedundancyMedianOutvotesPoisonedTree: with k=3 and one tree
// root Byzantine — its result token-correct and sender-correct but
// wildly wrong — the origin's median acceptance resolves to the honest
// value and reports the outlier as divergence.
func TestAggRedundancyMedianOutvotesPoisonedTree(t *testing.T) {
	col := NewCollector()
	primary := MsgID{Origin: "origin", Seq: 1}
	second := MsgID{Origin: "origin", Seq: 2}
	third := MsgID{Origin: "origin", Seq: 3}
	col.StartAggregate(primary, agg.Count, Band{Lo: 0.4, Hi: 1}, 6, 6, 0)
	for i, inst := range []MsgID{primary, second, third} {
		col.addAggInstance(primary, inst, uint64(10+i))
		col.aggregateEntered(inst, ids.Synthetic(i))
	}
	honest := agg.Partial{N: 6, Sum: 4.2, Min: 0.45, Max: 0.95, Depth: 2}
	poisoned := agg.Partial{N: 60, Sum: 30, Min: 0.4, Max: 0.99, Depth: 1}
	col.aggregateResult(primary, ids.Synthetic(0), 10, honest, 0)
	col.aggregateResult(second, ids.Synthetic(1), 11, poisoned, 0)
	col.aggregateResult(third, ids.Synthetic(2), 12, honest, 0)
	rec, _ := col.Aggregate(primary)
	if !rec.Done {
		t.Fatal("aggregation did not resolve with all instances returned")
	}
	if got := rec.Value(); got != 6 {
		t.Errorf("accepted count = %v, want the honest median 6", got)
	}
	if math.Abs(rec.Divergence-1.0/3) > 1e-12 {
		t.Errorf("divergence = %v, want 1/3 with one poisoned tree", rec.Divergence)
	}
}

// TestPartialSuspectBounds pins the PDF sanity rules: count bounded by
// the band's expected census, order statistics and mean inside the
// band hull with tolerance, empty partials exempt.
func TestPartialSuspectBounds(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	r := c.routers[c.nodes[0]]
	r.bandCensus = func(lo, hi float64) float64 { return 10 * (hi - lo) }
	band := Band{Lo: 0.5, Hi: 1}
	cases := []struct {
		name string
		p    agg.Partial
		want string
	}{
		{"honest", agg.Partial{N: 4, Sum: 2.8, Min: 0.6, Max: 0.8}, ""},
		{"empty", agg.Partial{}, ""},
		{"count blowout", agg.Partial{N: 500, Sum: 350, Min: 0.6, Max: 0.8}, "agg-count-bounds"},
		{"value above hull", agg.Partial{N: 2, Sum: 101, Min: 0.7, Max: 100}, "agg-hull-bounds"},
		{"value below hull", agg.Partial{N: 2, Sum: 0.8, Min: 0.1, Max: 0.7}, "agg-hull-bounds"},
		{"avg out of hull", agg.Partial{N: 10, Sum: 3, Min: 0.55, Max: 0.95}, "agg-avg-bounds"},
	}
	for _, tc := range cases {
		if got := r.partialSuspect(band, tc.p); got != tc.want {
			t.Errorf("%s: suspect = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestOriginRejectsOutOfHullResult: the sanity checks guard the
// origin's own doorstep too — a root whose claimed result leaves the
// band hull is dropped and counted as a rejected partial, leaving the
// instance pending for the redundancy deadline.
func TestOriginRejectsOutOfHullResult(t *testing.T) {
	avails := []float64{0.1, 0.5, 0.6, 0.7, 0.9}
	c := newCluster(t, fullPredicate(t), avails, false)
	origin := c.nodes[0]
	r := c.routers[origin]
	r.bandCensus = func(lo, hi float64) float64 { return 5 * (hi - lo) }
	opts := DefaultAggregateOptions()
	opts.Eligible, opts.Truth = 3, 3
	id, err := r.Aggregate(agg.Count, 0.4, 0.95, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Run until the root is on record, well short of the origin's
	// resolution deadline.
	c.world.Run(c.world.Now() + time.Second)
	rec, _ := c.col.Aggregate(id)
	inst := rec.Instances[0]
	if inst.EnteredBy.IsNil() {
		t.Fatal("root never recorded")
	}
	// The root itself lies: token and sender check out, the value does
	// not — availability 100 is outside any band hull.
	r.HandleMessage(inst.EnteredBy.Addr(), AggResultMsg{
		ID: id, Token: inst.Token,
		Result: agg.Partial{N: 3, Sum: 300, Min: 100, Max: 100, Depth: 1},
	})
	rej, _, forgAcc := c.col.AggCounters()
	if rej < 1 {
		t.Errorf("out-of-hull root result not counted as rejected partial (%d)", rej)
	}
	if forgAcc != 0 {
		t.Errorf("forgery accepted = %d, want 0", forgAcc)
	}
	rec, _ = c.col.Aggregate(id)
	if rec.Instances[0].Done && rec.Instances[0].Result.Min == 100 {
		t.Error("poisoned result filled the instance slot")
	}
}

// TestOriginVetsResultAfterJoiningItsOwnTree: an origin inside its own
// band joins its second tree as a member and concludes there before that
// tree's root reports. Concluding as a member must not end the origin's
// own vetting: the root's out-of-hull result is still rejected and
// counted, and leaves the instance slot empty.
func TestOriginVetsResultAfterJoiningItsOwnTree(t *testing.T) {
	// Node 0 (the origin) roots instance 0 in the band's lower slice;
	// instance 1 enters the upper slice at 0.85 or 0.9, whose tree the
	// origin joins.
	c := newCluster(t, fullPredicate(t), []float64{0.45, 0.1, 0.85, 0.9}, false)
	origin := c.nodes[0]
	r := c.routers[origin]
	r.bandCensus = func(lo, hi float64) float64 { return 5 * (hi - lo) }
	lied := false
	if err := c.net.RegisterAddr(origin.Addr(), func(from ids.Addr, msg any) {
		if m, ok := msg.(AggResultMsg); ok && m.ID.Seq == 2 {
			if _, joined := r.seen[m.ID]; !joined {
				t.Error("the origin never joined its second tree")
			}
			// The root lies in its own result: token and sender check
			// out, availability 100 lies outside any band hull.
			m.Result = agg.Partial{N: 3, Sum: 300, Min: 100, Max: 100, Depth: 1}
			msg, lied = m, true
		}
		r.HandleMessage(from, msg)
	}); err != nil {
		t.Fatal(err)
	}
	opts := DefaultAggregateOptions()
	opts.Redundancy = 2
	opts.Eligible, opts.Truth = 3, 3
	id, err := r.Aggregate(agg.Count, 0.4, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.world.Run(c.world.Now() + time.Second)
	if !lied {
		t.Fatal("the second tree's root never reported")
	}
	if rej, _, _ := c.col.AggCounters(); rej != 1 {
		t.Errorf("rejected partials = %d, want the root's lie only", rej)
	}
	rec, _ := c.col.Aggregate(id)
	if len(rec.Instances) != 2 || rec.Instances[1].Done {
		t.Errorf("the lying root filled its instance slot: %+v", rec.Instances)
	}
}

// TestSubTargetPartitionsHull: the k entry slices tile the hull
// exactly — no gap, no overlap, exact top end.
func TestSubTargetPartitionsHull(t *testing.T) {
	hull := Target{Lo: 0.2, Hi: 0.9}
	const k = 4
	prev := hull.Lo
	for j := 0; j < k; j++ {
		s := subTarget(hull, j, k)
		if math.Abs(s.Lo-prev) > 1e-12 {
			t.Errorf("slice %d starts at %v, want %v", j, s.Lo, prev)
		}
		if s.Hi <= s.Lo {
			t.Errorf("slice %d is empty: %+v", j, s)
		}
		prev = s.Hi
	}
	if prev != hull.Hi {
		t.Errorf("slices end at %v, want the exact hull top %v", prev, hull.Hi)
	}
	if got := subTarget(hull, 0, 1); got != hull {
		t.Errorf("k=1 slice = %+v, want the whole hull", got)
	}
}

// TestSaltKeyPreservesLegacyOrder: salt 0 is the identity (single-tree
// aggregations, multicast, and rangecast orderings are untouched);
// distinct salts permute scratch order while staying in [0,1).
func TestSaltKeyPreservesLegacyOrder(t *testing.T) {
	keys := []float64{0, 0.25, 0.5, 0.75, 0.999}
	for _, k := range keys {
		if got := saltKey(k, 0); got != k {
			t.Errorf("saltKey(%v, 0) = %v, want identity", k, got)
		}
		s1, s2 := saltKey(k, aggSalt(1)), saltKey(k, aggSalt(2))
		if s1 < 0 || s1 >= 1 || s2 < 0 || s2 >= 1 {
			t.Errorf("salted keys out of [0,1): %v, %v", s1, s2)
		}
		if s1 == s2 {
			t.Errorf("salts 1 and 2 collide on key %v", k)
		}
	}
}
