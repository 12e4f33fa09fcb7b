package exp

import (
	"strings"
	"testing"
	"time"

	"avmem/internal/ops"
	"avmem/internal/trace"
)

// testClusterTrace generates a small churn trace shared by the
// per-backend tests.
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

// newTestDeployment builds an 80-host, one-day deployment on backend and
// runs it for warmup.
func newTestDeployment(t *testing.T, backend string, seed int64, warmup time.Duration) *Deployment {
	t.Helper()
	d, err := NewDeployment(backend, WorldConfig{
		Seed:           seed,
		Trace:          testClusterTrace(t, seed, 80),
		ProtocolPeriod: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	d.RunFor(warmup)
	return d
}

// forEachBackend runs f as one subtest per engine.
func forEachBackend(t *testing.T, f func(t *testing.T, backend string)) {
	for _, backend := range []string{BackendSim, BackendMemnet} {
		t.Run(backend, func(t *testing.T) { f(t, backend) })
	}
}

func TestNewDeploymentRejectsUnknownBackend(t *testing.T) {
	_, err := NewDeployment("carrier-pigeon", WorldConfig{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), `unknown backend "carrier-pigeon"`) {
		t.Fatalf("unknown backend: err = %v", err)
	}
}

func TestDeploymentRejectsUnknownInitiator(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 1, 0)
		target := ops.Target{Lo: 0.5, Hi: 1}
		if _, err := d.Anycast("ghost", target, ops.DefaultAnycastOptions()); err == nil {
			t.Error("anycast from an unknown node accepted")
		}
		if _, err := d.Multicast("ghost", target, ops.DefaultMulticastOptions()); err == nil {
			t.Error("multicast from an unknown node accepted")
		}
	})
}

func TestClusterConvergesAndDelivers(t *testing.T) {
	c := newTestDeployment(t, BackendMemnet, 1, 2*time.Hour)
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
		c := newTestDeployment(t, BackendMemnet, 3, 90*time.Minute)
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
