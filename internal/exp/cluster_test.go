package exp

import (
	"slices"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/trace"
)

// testClusterTrace generates a small churn trace shared by the cluster
// tests.
func testClusterTrace(t *testing.T, seed int64, hosts int) *trace.Trace {
	t.Helper()
	gen := trace.DefaultGenConfig(seed)
	gen.Hosts = hosts
	gen.Epochs = 72 // one day
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newTestCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(WorldConfig{
		Seed:           seed,
		Trace:          testClusterTrace(t, seed, 80),
		ProtocolPeriod: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestClusterConvergesAndDelivers(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Warmup(2 * time.Hour)
	online := c.OnlineHosts()
	if len(online) == 0 {
		t.Fatal("no online nodes after warmup")
	}
	total := 0
	for _, id := range online {
		total += c.Membership(id).Size()
	}
	if mean := float64(total) / float64(len(online)); mean < 2 {
		t.Fatalf("overlay never formed: mean membership size %.1f", mean)
	}
	recs := anycasts(t, c, 0, 1.01, ops.Target{Lo: 0.5, Hi: 1}, ops.DefaultAnycastOptions(), 20, 2*time.Second)
	if f := deliveredFraction(recs); f < 0.5 {
		t.Fatalf("cluster anycast broken: %d sent, %.2f delivered", len(recs), f)
	}
}

func TestClusterDeterministicPerSeed(t *testing.T) {
	run := func() (sizes []int, hits int) {
		c := newTestCluster(t, 3)
		c.Warmup(90 * time.Minute)
		for _, id := range c.Hosts() {
			sizes = append(sizes, c.Membership(id).Size())
		}
		recs := anycasts(t, c, 0, 1.01, ops.Target{Lo: 0.4, Hi: 1}, ops.DefaultAnycastOptions(), 10, 2*time.Second)
		return sizes, delivered(recs)
	}
	sizesA, delA := run()
	sizesB, delB := run()
	if delA != delB {
		t.Errorf("delivered %d vs %d across identical runs", delA, delB)
	}
	for i := range sizesA {
		if sizesA[i] != sizesB[i] {
			t.Fatalf("host %d membership size %d vs %d: cluster must replay identically",
				i, sizesA[i], sizesB[i])
		}
	}
}

func TestClusterForceOffline(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Warmup(time.Hour)
	online := c.OnlineHosts()
	if len(online) == 0 {
		t.Fatal("no online nodes")
	}
	victim := online[0]
	until := c.Now() + 30*time.Minute
	c.ForceOffline(victim, until)
	if c.Online(victim) {
		t.Fatal("forced-offline node still online")
	}
	// While down, the network drops traffic to the victim, however it is
	// addressed.
	h := int32(c.Trace.HostIndex(victim))
	for _, to := range []ids.Addr{victim.Addr(), ids.AddrAt(victim, h)} {
		ok := true
		c.Net.SendCallAddr(ids.NodeID("probe").Addr(), to, struct{}{}, func(r bool) { ok = r })
		c.RunFor(time.Second)
		if ok {
			t.Errorf("network acknowledged delivery to a forced-offline node addressed %v", to)
		}
	}
	// The outage lifts on schedule; the trace resumes control.
	c.RunFor(35 * time.Minute)
	if c.forcedDownUntil[c.Trace.HostIndex(victim)] != 0 {
		t.Error("outage slot never swept")
	}
}

func TestClusterMonitorNoiseSwap(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Warmup(time.Hour)
	id := c.Hosts()[0]
	clean, ok := c.MonitorService().Availability(id)
	if !ok {
		t.Fatal("monitor does not know the host")
	}
	if err := c.SetMonitorNoise(0.2, time.Hour); err != nil {
		t.Fatal(err)
	}
	noisy, ok := c.MonitorService().Availability(id)
	if !ok || noisy < 0 || noisy > 1 {
		t.Fatalf("noisy answer %v ok=%v", noisy, ok)
	}
	if err := c.SetMonitorNoise(0, 0); err != nil {
		t.Fatal(err)
	}
	restored, _ := c.MonitorService().Availability(id)
	if restored != clean {
		t.Errorf("restored availability %v, want clean %v", restored, clean)
	}
}

// TestClusterGroundTruthQueriesMatchTheirDefinition: OnlineInBand,
// EligibleFor and MeanDegree loop by host index; each must still be what
// its name says over OnlineHosts/TrueAvailability/Membership, in host
// order (PickInitiator draws an index into that order), during a forced
// outage as well.
func TestClusterGroundTruthQueriesMatchTheirDefinition(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Warmup(2 * time.Hour)
	c.ForceOffline(c.OnlineHosts()[3], c.Now()+time.Hour)
	target := ops.Target{Lo: 0.3, Hi: 0.8}
	var band []ids.NodeID
	eligible, degree := 0, 0
	online := c.OnlineHosts()
	for _, id := range online {
		av := c.TrueAvailability(id)
		if av >= 0.3 && av < 0.8 {
			band = append(band, id)
		}
		if target.Contains(av) {
			eligible++
		}
		degree += c.Membership(id).Size()
	}
	if got := c.OnlineInBand(0.3, 0.8); len(band) == 0 || !slices.Equal(got, band) {
		t.Errorf("OnlineInBand = %v, want %v", got, band)
	}
	if n := c.EligibleFor(target); n != eligible {
		t.Errorf("EligibleFor = %d, want %d", n, eligible)
	}
	if want := float64(degree) / float64(len(online)); c.MeanDegree() != want {
		t.Errorf("MeanDegree = %v, want %v", c.MeanDegree(), want)
	}
}
