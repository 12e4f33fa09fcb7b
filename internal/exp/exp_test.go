package exp

import (
	"math"
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/ops"
	"avmem/internal/stats"
	"avmem/internal/trace"
)

// smallWorld builds a scaled-down deployment that keeps tests fast:
// 220 hosts over ~2 days, 2-minute protocol period, 6-hour warmup.
func smallWorld(t testing.TB, seed int64) *Deployment {
	t.Helper()
	return worldOf(t, seed, 220, 6*time.Hour)
}

// mediumWorld (600 hosts, 10-hour warmup) is big enough for the
// log(N*)/N* threshold regime that Figures 3 and 5 depend on;
// predicates saturate in tiny worlds and hide those shapes.
func mediumWorld(t testing.TB, seed int64) *Deployment {
	t.Helper()
	return worldOf(t, seed, 600, 10*time.Hour)
}

func worldOf(t testing.TB, seed int64, hosts int, warmup time.Duration) *Deployment {
	t.Helper()
	gen := trace.DefaultGenConfig(seed)
	gen.Hosts = hosts
	gen.Epochs = 150
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewDeployment(BackendSim, WorldConfig{
		Seed:           seed,
		Trace:          tr,
		ProtocolPeriod: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.RunFor(warmup)
	return w
}

func TestNewWorldDefaults(t *testing.T) {
	w := smallWorld(t, 1)
	if w.Cfg.Epsilon != 0.1 || w.Cfg.C1 != 3 || w.Cfg.C2 != 3 {
		t.Errorf("defaults wrong: %+v", w.Cfg)
	}
	if w.Cfg.ViewSize != int(math.Round(math.Sqrt(220))) {
		t.Errorf("view size = %d, want √220", w.Cfg.ViewSize)
	}
	if w.NStar <= 0 || w.NStar > 220 {
		t.Errorf("NStar = %v", w.NStar)
	}
}

func TestWarmupBuildsSlivers(t *testing.T) {
	w := smallWorld(t, 1)
	online := w.OnlineHosts()
	if len(online) < 20 {
		t.Fatalf("only %d nodes online after warmup", len(online))
	}
	withNeighbors, totalHS, totalVS := 0, 0, 0
	for _, id := range online {
		m := w.Membership(id)
		if m.Size() > 0 {
			withNeighbors++
		}
		totalHS += m.SliverSize(core.SliverHorizontal)
		totalVS += m.SliverSize(core.SliverVertical)
	}
	if frac := float64(withNeighbors) / float64(len(online)); frac < 0.9 {
		t.Errorf("only %.0f%% of online nodes have neighbors", frac*100)
	}
	if totalHS == 0 || totalVS == 0 {
		t.Errorf("slivers empty: HS=%d VS=%d", totalHS, totalVS)
	}
	// Scalability: mean degree should be modest (O(log N) + band size),
	// not O(N).
	mean := w.MeanDegree()
	if mean <= 1 || mean > 120 {
		t.Errorf("mean degree = %v, implausible", mean)
	}
}

func TestSnapshotOverlayShape(t *testing.T) {
	w := smallWorld(t, 2)
	snap := SnapshotOverlay(w)
	if snap.OnlineCount == 0 {
		t.Fatal("no online nodes in snapshot")
	}
	if len(snap.AvailHistogram) != 20 || len(snap.HSMedian) != 10 || len(snap.VSMedian) != 10 {
		t.Fatalf("series dimensions wrong")
	}
	total := 0
	for _, c := range snap.AvailHistogram {
		total += c
	}
	if total != snap.OnlineCount {
		t.Errorf("histogram total %d != online %d", total, snap.OnlineCount)
	}
	if len(snap.HS) != snap.OnlineCount || len(snap.VS) != snap.OnlineCount {
		t.Errorf("scatter sizes wrong: %d/%d vs %d", len(snap.HS), len(snap.VS), snap.OnlineCount)
	}
}

// TestVSUniformityFig4 checks Figure 4's claim on the small world: the
// vertical-sliver in-degree per availability bucket is roughly uniform
// and uncorrelated with the (skewed) population.
func TestVSUniformityFig4(t *testing.T) {
	w := smallWorld(t, 3)
	deg := ScanVSInDegree(w)
	// Compare non-empty buckets: max/min ratio of incoming VS links
	// should be far smaller than the population skew ratio.
	var minLinks, maxLinks float64 = math.Inf(1), 0
	for b := 1; b < 9; b++ { // interior buckets; edges are noisy
		if deg.Population[b] < 3 {
			continue
		}
		perNode := deg.PerBucket[b] / float64(deg.Population[b])
		if perNode < minLinks {
			minLinks = perNode
		}
		if perNode > maxLinks {
			maxLinks = perNode
		}
	}
	if math.IsInf(minLinks, 1) || minLinks <= 0 {
		t.Skip("not enough populated buckets for uniformity check")
	}
	// Per-node incoming VS references should not vary wildly. Uniform
	// coverage (Theorem 1) predicts equal *totals* per range; per-node
	// values in sparse buckets are noisy, so allow a generous factor.
	if ratio := maxLinks / minLinks; ratio > 25 {
		t.Errorf("VS in-degree ratio across buckets = %v, want small", ratio)
	}
	// And the *total* per bucket must not simply track population.
	if deg.PerBucket[0] == 0 && deg.PerBucket[9] == 0 {
		t.Error("no VS links at either end of the availability space")
	}
}

func TestHorizontalScalingFig3(t *testing.T) {
	w := mediumWorld(t, 4)
	hs := ScanHorizontalScaling(w)
	if len(hs.Points) == 0 {
		t.Fatal("no scaling points")
	}
	ratio := hs.SublinearityRatio()
	if ratio == 0 {
		t.Skip("degenerate quartiles")
	}
	if ratio >= 1.0 {
		t.Errorf("HS growth not sublinear: quartile ratio = %v", ratio)
	}
}

func TestFloodingAttackFig5(t *testing.T) {
	// Predicate thresholds scale as log(N*)/N*, so the paper's <10%
	// acceptance is an N*≈442 property; the 220-host test world (N*≈75)
	// legitimately sits a few times higher. The full-scale number is
	// verified by the harness (EXPERIMENTS.md). Here we check the
	// structural claims: the cushion can only widen acceptance, the
	// level tracks the analytic expectation, and resilience is uniform
	// across the selfish node's availability.
	w := mediumWorld(t, 5)
	res0 := FloodingAttack(w, 0)
	res1 := FloodingAttack(w, 0.1)
	if res0.Overall > res1.Overall {
		t.Errorf("cushion narrowed acceptance: %v (cushion 0) > %v (cushion 0.1)", res0.Overall, res1.Overall)
	}
	if res0.Overall > 0.20 {
		t.Errorf("flooding acceptance without cushion = %v, implausibly high", res0.Overall)
	}
	// The cushion adds at most 0.1 to every threshold, so the overall
	// acceptance can grow by at most ~0.1.
	if res1.Overall-res0.Overall > 0.12 {
		t.Errorf("cushion inflated acceptance by %v, more than the cushion itself",
			res1.Overall-res0.Overall)
	}
	// Uniform attack resilience: no availability bucket of the selfish
	// sender should be wildly more permissive than another.
	var min, max float64 = math.Inf(1), 0
	for _, v := range res0.PerBucket {
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if !math.IsInf(min, 1) && max-min > 0.35 {
		t.Errorf("attack acceptance varies too much across sender availability: [%v, %v]", min, max)
	}
}

func TestLegitimateRejectionFig6(t *testing.T) {
	// Noise and staleness in the monitor drive legitimate rejections;
	// the cushion absorbs them.
	gen := trace.DefaultGenConfig(6)
	gen.Hosts = 220
	gen.Epochs = 150
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewDeployment(BackendSim, WorldConfig{
		Seed:             6,
		Trace:            tr,
		ProtocolPeriod:   2 * time.Minute,
		MonitorErr:       0.05,
		MonitorStaleness: 20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.RunFor(6 * time.Hour)
	res0 := LegitimateRejection(w, 0)
	res1 := LegitimateRejection(w, 0.1)
	if res1.Overall > res0.Overall {
		t.Errorf("cushion increased rejections: %v -> %v", res0.Overall, res1.Overall)
	}
	if res0.Overall > 0.5 {
		t.Errorf("rejection rate without cushion = %v, implausibly high", res0.Overall)
	}
}

// anycasts initiates n anycasts on d, each from a random online node
// whose true availability lies in [lo, hi), one every gap, lets them
// settle for 30 s, and returns the records of those initiated.
func anycasts(t testing.TB, d *Deployment, lo, hi float64, target ops.Target, opts ops.AnycastOptions, n int, gap time.Duration) []*ops.AnycastRecord {
	t.Helper()
	var sent []ops.MsgID
	for i := 0; i < n; i++ {
		from, ok := d.PickInitiator(lo, hi)
		if !ok {
			continue
		}
		id, err := d.Anycast(from, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, id)
		d.RunFor(gap)
	}
	d.RunFor(30 * time.Second)
	var recs []*ops.AnycastRecord
	for _, id := range sent {
		if rec, ok := d.Collector.Anycast(id); ok {
			recs = append(recs, &rec)
		}
	}
	return recs
}

// delivered counts the recs that delivered.
func delivered(recs []*ops.AnycastRecord) int {
	n := 0
	for _, rec := range recs {
		if rec.Outcome == ops.OutcomeDelivered {
			n++
		}
	}
	return n
}

// deliveredFraction returns the share of recs that delivered (0 for
// none).
func deliveredFraction(recs []*ops.AnycastRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	return float64(delivered(recs)) / float64(len(recs))
}

// multicasts is anycasts for multicasts: one every 5 s from [lo, hi),
// each told the target's eligible population at its initiation.
func multicasts(t testing.TB, d *Deployment, lo, hi float64, target ops.Target, opts ops.MulticastOptions, n int) []*ops.MulticastRecord {
	t.Helper()
	var sent []ops.MsgID
	for i := 0; i < n; i++ {
		from, ok := d.PickInitiator(lo, hi)
		if !ok {
			continue
		}
		opts.Eligible = d.EligibleFor(target)
		id, err := d.Multicast(from, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, id)
		d.RunFor(5 * time.Second)
	}
	d.RunFor(30 * time.Second)
	var recs []*ops.MulticastRecord
	for _, id := range sent {
		if rec, ok := d.Collector.Multicast(id); ok {
			recs = append(recs, &rec)
		}
	}
	return recs
}

// meanOf averages f over recs (0 for none).
func meanOf(recs []*ops.MulticastRecord, f func(*ops.MulticastRecord) float64) float64 {
	vals := make([]float64, len(recs))
	for i, rec := range recs {
		vals[i] = f(rec)
	}
	return stats.Mean(vals)
}

func TestRunAnycastsDelivers(t *testing.T) {
	w := smallWorld(t, 7)
	target := ops.Target{Lo: 0.85, Hi: 0.95}
	// Make sure the target is populated in this small world.
	if w.EligibleFor(target) == 0 {
		target = ops.Target{Lo: 0.7, Hi: 1.0}
	}
	recs := anycasts(t, w, 1.0/3.0, 2.0/3.0, target,
		ops.AnycastOptions{Policy: ops.Greedy, Flavor: core.HSVS, TTL: 6}, 20, 2*time.Second)
	if len(recs) == 0 {
		t.Skip("no initiators in band")
	}
	if f := deliveredFraction(recs); f < 0.6 {
		t.Errorf("delivered %v of %d anycasts, want most", f, len(recs))
	}
	// Every delivery travels at most the TTL's hops, and deliveries take
	// time.
	var latency time.Duration
	for _, rec := range recs {
		if rec.Outcome != ops.OutcomeDelivered {
			continue
		}
		if rec.Hops < 0 || rec.Hops > 6 {
			t.Errorf("delivery after %d hops, want 0..6", rec.Hops)
		}
		latency += rec.Latency
	}
	if latency <= 0 {
		t.Error("delivery latency not recorded")
	}
}

func TestRunAnycastsRetriedGreedyHarsh(t *testing.T) {
	w := smallWorld(t, 8)
	recs := anycasts(t, w, 2.0/3.0, 1.01, ops.Target{Lo: 0.15, Hi: 0.25},
		ops.AnycastOptions{Policy: ops.RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 8}, 15, 4*time.Second)
	if len(recs) == 0 {
		t.Skip("no HIGH initiators online")
	}
	// Every message must have a terminal verdict with retried greedy
	// (acknowledgments make losses detectable).
	for _, rec := range recs {
		switch rec.Outcome {
		case ops.OutcomeDelivered, ops.OutcomeTTLExpired, ops.OutcomeRetryExpired:
		default:
			t.Errorf("retried greedy left %v without a verdict (%v)", rec.ID, rec.Outcome)
		}
	}
}

func TestRunMulticastsFloodAndGossip(t *testing.T) {
	w := smallWorld(t, 9)
	target := ops.Target{Lo: 0.6, Hi: 1.0}
	if w.EligibleFor(target) < 5 {
		t.Skip("target band too sparse in small world")
	}
	opts := ops.MulticastOptions{Anycast: ops.DefaultAnycastOptions(), MulticastSpec: ops.MulticastSpec{Mode: ops.Flood, Flavor: core.HSVS}}
	flood := multicasts(t, w, 0, 1.01, target, opts, 10)
	if len(flood) == 0 {
		t.Skip("no initiators")
	}
	reliability := func(r *ops.MulticastRecord) float64 { return r.Reliability() }
	if r := meanOf(flood, reliability); r < 0.5 {
		t.Errorf("flood reliability = %v, want high", r)
	}
	opts.Mode, opts.Fanout, opts.Rounds, opts.Period = ops.Gossip, 5, 2, time.Second
	gossip := multicasts(t, w, 0, 1.01, target, opts, 10)
	if len(gossip) == 0 {
		t.Skip("no initiators")
	}
	// Gossip trades reliability for bandwidth; it should still reach a
	// decent fraction but typically no more than flooding.
	if r := meanOf(gossip, reliability); r < 0.2 {
		t.Errorf("gossip reliability = %v, too low", r)
	}
	if spam := meanOf(flood, func(r *ops.MulticastRecord) float64 { return r.SpamRatio() }); spam > 0.5 {
		t.Errorf("flood spam ratio = %v, too high", spam)
	}
}

func TestDistributedMonitorWorld(t *testing.T) {
	// End-to-end with the AVMON-style distributed monitor instead of
	// the oracle: estimates are ping-derived, so slivers form a little
	// later but operations still work.
	gen := trace.DefaultGenConfig(14)
	gen.Hosts = 220
	gen.Epochs = 150
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewDeployment(BackendSim, WorldConfig{
		Seed:               14,
		Trace:              tr,
		ProtocolPeriod:     2 * time.Minute,
		DistributedMonitor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.RunFor(8 * time.Hour)

	// The distributed estimates should track ground truth reasonably.
	var totalErr float64
	checked := 0
	for _, id := range w.OnlineHosts() {
		est, ok := w.Monitor.Availability(id)
		if !ok {
			continue
		}
		truth := w.TrueAvailability(id)
		totalErr += math.Abs(est - truth)
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d online nodes have estimates", checked)
	}
	if meanErr := totalErr / float64(checked); meanErr > 0.12 {
		t.Errorf("mean estimate error = %v, want small", meanErr)
	}

	// Slivers form and anycasts deliver on ping-derived estimates.
	if w.MeanDegree() < 2 {
		t.Errorf("mean degree = %v; overlay failed to form on distributed estimates", w.MeanDegree())
	}
	target := ops.Target{Lo: 0.6, Hi: 1.0}
	if w.EligibleFor(target) == 0 {
		t.Skip("target empty")
	}
	recs := anycasts(t, w, 0, 1.01, target, ops.AnycastOptions{Policy: ops.Greedy, Flavor: core.HSVS, TTL: 6}, 15, 2*time.Second)
	if f := deliveredFraction(recs); len(recs) > 0 && f < 0.5 {
		t.Errorf("delivered %v on distributed monitor, want most", f)
	}
}

func TestMulticastMessageAccounting(t *testing.T) {
	// Gossip must put fewer messages on the wire than flooding for the
	// same workload — the bandwidth half of the paper's trade-off.
	w := smallWorld(t, 15)
	target := ops.Target{Lo: 0.5, Hi: 1.0}
	if w.EligibleFor(target) < 5 {
		t.Skip("target too sparse")
	}
	// wire counts the messages a series of ten multicasts in mode puts on
	// the network.
	wire := func(mode ops.Mode) int {
		before := w.Net.Stats().Sent
		multicasts(t, w, 0, 1.01, target, ops.MulticastOptions{Anycast: ops.DefaultAnycastOptions(),
			MulticastSpec: ops.MulticastSpec{Mode: mode, Flavor: core.HSVS, Fanout: 3, Rounds: 2, Period: time.Second}}, 10)
		return w.Net.Stats().Sent - before
	}
	flood, gossip := wire(ops.Flood), wire(ops.Gossip)
	if flood == 0 || gossip == 0 {
		t.Fatalf("message accounting empty: flood=%d gossip=%d", flood, gossip)
	}
	if gossip >= flood {
		t.Errorf("gossip used %d messages, flood %d — gossip should be cheaper", gossip, flood)
	}
}

// TestFig2cCorrelationBounded quantifies Figure 2(c)'s claim with a
// Pearson coefficient. A short-warmup world shows a mild positive
// correlation between VS size and availability — the discovery-rate
// effect documented in EXPERIMENTS.md (nodes discover in proportion to
// their own uptime) — but it must stay far from proportionality, and
// the predicate itself (Fig 4's uniform in-degree) must not amplify it.
func TestFig2cCorrelationBounded(t *testing.T) {
	w := mediumWorld(t, 16)
	snap := SnapshotOverlay(w)
	mid := make([]stats.ScatterPoint, 0, len(snap.VS))
	for _, p := range snap.VS {
		if p.X >= 0.3 && p.X <= 0.9 {
			mid = append(mid, p)
		}
	}
	if len(mid) < 30 {
		t.Skip("too few mid-range nodes")
	}
	if r := stats.Correlation(mid); r > 0.8 || r < -0.3 {
		t.Errorf("VS size vs availability correlation out of expected band: r = %v", r)
	}
}
