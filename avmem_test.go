package avmem_test

import (
	"testing"
	"time"

	"avmem"
	"avmem/internal/exp"
	"avmem/internal/trace"
)

func TestTargetHelpers(t *testing.T) {
	if _, err := avmem.NewRange(0.5, 0.2); err == nil {
		t.Error("want error for inverted range")
	}
	if _, err := avmem.NewThreshold(1.5); err == nil {
		t.Error("want error for threshold out of range")
	}
	tgt, err := avmem.NewThreshold(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !tgt.Contains(0.95) || !tgt.Contains(0.9) || tgt.Contains(0.85) {
		t.Error("threshold target misbehaves")
	}
}

func TestPredicateHelpers(t *testing.T) {
	pdf := avmem.OvernetPDF()
	pred, err := avmem.NewPaperPredicate(0.1, 3, 3, 442, pdf)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Epsilon != 0.1 {
		t.Errorf("epsilon = %v", pred.Epsilon)
	}
	if _, err := avmem.NewPaperPredicate(0.1, 3, 3, 442, nil); err == nil {
		t.Error("want error for nil PDF")
	}
	rnd, err := avmem.NewRandomPredicate(0.1, 12, 442)
	if err != nil {
		t.Fatal(err)
	}
	if got := rnd.Threshold(0.1, 0.9); got <= 0 {
		t.Errorf("random predicate threshold = %v", got)
	}
	if _, err := avmem.PDFFromSamples([]float64{0.2, 0.5, 0.9}); err != nil {
		t.Errorf("PDFFromSamples: %v", err)
	}
	if _, err := avmem.PDFFromSamples(nil); err == nil {
		t.Error("want error for no samples")
	}
	if avmem.UniformPDF().Density(0.5) <= 0 {
		t.Error("uniform PDF density zero")
	}
}

func TestLiveFacade(t *testing.T) {
	tr := avmem.NewMemoryTransport(0, 0)
	defer tr.Close()
	monitor := avmem.StaticMonitor{
		"a": 0.5,
		"b": 0.9,
	}
	pdf := avmem.UniformPDF()
	pred, err := avmem.NewPaperPredicate(0.1, 5, 5, 2, pdf)
	if err != nil {
		t.Fatal(err)
	}
	peers := avmem.PeerFunc(func(self avmem.NodeID) []avmem.NodeID {
		if self == "a" {
			return []avmem.NodeID{"b"}
		}
		return []avmem.NodeID{"a"}
	})
	var nodes []*avmem.Node
	for _, id := range []avmem.NodeID{"a", "b"} {
		n, err := avmem.NewNode(avmem.NodeConfig{
			Self:           id,
			Predicate:      pred,
			Monitor:        monitor,
			Peers:          peers,
			Transport:      tr,
			ProtocolPeriod: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	deadline := time.After(3 * time.Second)
	for {
		if _, vs := nodes[0].SliverSizes(); vs >= 1 {
			return // node a discovered node b as a vertical neighbor
		}
		select {
		case <-deadline:
			hs, vs := nodes[0].SliverSizes()
			t.Fatalf("live discovery failed: hs=%d vs=%d", hs, vs)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// newSmallSim builds a 220-host, two-day simulated deployment and warms
// it up for six hours. The TestSim* tests drive it with the root
// package's own targets and options: the live Node API and the
// simulator take the same values, so these check that what a caller
// builds with avmem.NewRange or avmem.DefaultAnycastOptions routes and
// disseminates in a simulated overlay.
func newSmallSim(t testing.TB) *exp.Deployment {
	t.Helper()
	gen := trace.DefaultGenConfig(1)
	gen.Hosts = 220
	gen.Epochs = 2 * 24 * 3
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	d, err := exp.NewDeployment(exp.BackendSim, exp.WorldConfig{
		Seed:           1,
		Trace:          tr,
		ProtocolPeriod: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	d.RunFor(6 * time.Hour)
	return d
}

// anyInitiator returns a random online node.
func anyInitiator(t testing.TB, d *exp.Deployment) avmem.NodeID {
	t.Helper()
	id, ok := d.PickInitiator(0, 1.01)
	if !ok {
		t.Fatal("no online nodes to initiate from")
	}
	return id
}

// anycastToEnd initiates an anycast and advances virtual time, at most
// two minutes (enough for every retry budget in the paper), until it
// leaves the pending state.
func anycastToEnd(t testing.TB, d *exp.Deployment, from avmem.NodeID, target avmem.Target, opts avmem.AnycastOptions) avmem.AnycastRecord {
	t.Helper()
	id, err := d.Anycast(from, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := d.Now() + 2*time.Minute; d.Now() < deadline; {
		d.RunFor(time.Second)
		if rec, ok := d.Collector.Anycast(id); ok && rec.Outcome != avmem.OutcomePending {
			return rec
		}
	}
	rec, _ := d.Collector.Anycast(id)
	return rec
}

// multicastSettled initiates a multicast against the current eligible
// count, lets dissemination settle and returns its record.
func multicastSettled(t testing.TB, d *exp.Deployment, target avmem.Target, opts avmem.MulticastOptions) avmem.MulticastRecord {
	t.Helper()
	opts.Eligible = d.EligibleFor(target)
	id, err := d.Multicast(anyInitiator(t, d), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	settle := 30 * time.Second
	if opts.Mode == avmem.Gossip {
		settle += time.Duration(opts.Rounds+4) * opts.Period
	}
	d.RunFor(settle)
	rec, ok := d.Collector.Multicast(id)
	if !ok {
		t.Fatal("multicast record vanished")
	}
	return rec
}

func TestSimAnycastAuto(t *testing.T) {
	d := newSmallSim(t)
	target, err := avmem.NewRange(0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.EligibleFor(target) == 0 {
		t.Skip("no eligible nodes in small sim")
	}
	rec := anycastToEnd(t, d, anyInitiator(t, d), target, avmem.DefaultAnycastOptions())
	if rec.Outcome != avmem.OutcomeDelivered {
		t.Errorf("outcome = %v, want delivered", rec.Outcome)
	}
	if rec.Latency < 0 {
		t.Errorf("negative latency %v", rec.Latency)
	}
}

func TestSimAnycastExplicitInitiator(t *testing.T) {
	d := newSmallSim(t)
	from, ok := d.PickInitiator(0, 0.5)
	if !ok {
		t.Skip("no low-availability node online")
	}
	target, _ := avmem.NewThreshold(0.6)
	if d.EligibleFor(target) == 0 {
		t.Skip("no eligible nodes")
	}
	rec := anycastToEnd(t, d, from, target, avmem.AnycastOptions{
		Policy: avmem.RetriedGreedy,
		Flavor: avmem.HSVS,
		TTL:    6,
		Retry:  8,
	})
	if rec.Outcome == avmem.OutcomePending {
		t.Error("retried-greedy anycast ended pending")
	}
}

func TestSimMulticastFlood(t *testing.T) {
	d := newSmallSim(t)
	target, _ := avmem.NewThreshold(0.5)
	if d.EligibleFor(target) < 3 {
		t.Skip("target too sparse")
	}
	rec := multicastSettled(t, d, target, avmem.DefaultMulticastOptions())
	if !rec.EnteredRange {
		t.Error("multicast never entered range")
	}
	if rec.Reliability() < 0.5 {
		t.Errorf("flood reliability = %v, want high", rec.Reliability())
	}
}

func TestSimMulticastGossip(t *testing.T) {
	d := newSmallSim(t)
	target, _ := avmem.NewThreshold(0.5)
	if d.EligibleFor(target) < 3 {
		t.Skip("target too sparse")
	}
	rec := multicastSettled(t, d, target, avmem.MulticastOptions{
		Anycast: avmem.DefaultAnycastOptions(),
		MulticastSpec: avmem.MulticastSpec{
			Mode:   avmem.Gossip,
			Flavor: avmem.HSVS,
			Fanout: 5,
			Rounds: 2,
			Period: time.Second,
		},
	})
	if len(rec.Delivered) == 0 {
		t.Error("gossip delivered nothing")
	}
}
