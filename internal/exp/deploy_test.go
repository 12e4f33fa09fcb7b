package exp

import (
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/ops"
)

// TestForceOfflineOverridesTrace: a forced outage makes a node offline
// for exactly its window, regardless of the churn trace, and the trace
// resumes control afterwards.
func TestForceOfflineOverridesTrace(t *testing.T) {
	w := smallWorld(t, 1)
	online := w.OnlineHosts()
	if len(online) == 0 {
		t.Fatal("no online hosts after warmup")
	}
	id := online[0]
	until := w.Sim.Now() + 30*time.Minute
	w.ForceOffline(id, until)
	if w.Online(id) {
		t.Fatal("forced-down node still online")
	}
	for _, h := range w.OnlineHosts() {
		if h == id {
			t.Fatal("forced-down node listed in OnlineHosts")
		}
	}
	w.RunFor(31 * time.Minute)
	// After the window the trace decides again; the node must at least
	// be *allowed* online (check the raw trace agrees with Online).
	hIdx := w.Trace.HostIndex(id)
	if got, want := w.Online(id), w.Trace.UpAt(hIdx, w.Sim.Now()); got != want {
		t.Errorf("after outage window Online=%v, trace says %v", got, want)
	}
}

// TestForceOfflineExpiredIsNoop: an outage ending in the past does not
// take effect.
func TestForceOfflineExpiredIsNoop(t *testing.T) {
	w := smallWorld(t, 2)
	online := w.OnlineHosts()
	if len(online) == 0 {
		t.Fatal("no online hosts after warmup")
	}
	id := online[0]
	w.ForceOffline(id, w.Sim.Now())
	if !w.Online(id) {
		t.Error("expired outage took the node down")
	}
}

// TestForceOfflineSweepClearsSlot: the outage slot is cleared by the
// scheduled sweep (not by liveness reads — they must stay pure), and a
// superseding longer outage is not clobbered by the earlier sweep.
func TestForceOfflineSweepClearsSlot(t *testing.T) {
	w := smallWorld(t, 5)
	online := w.OnlineHosts()
	if len(online) == 0 {
		t.Fatal("no online hosts after warmup")
	}
	id := online[0]
	h := w.Trace.HostIndex(id)
	w.ForceOffline(id, w.Sim.Now()+10*time.Minute)
	w.ForceOffline(id, w.Sim.Now()+40*time.Minute)
	w.RunFor(11 * time.Minute)
	// The first outage's sweep fired; the longer outage must survive it.
	if w.forcedDownUntil[h] == 0 {
		t.Fatal("superseding outage cleared by the earlier sweep")
	}
	if w.Online(id) {
		t.Fatal("node online inside the superseding outage")
	}
	w.RunFor(30 * time.Minute)
	if w.forcedDownUntil[h] != 0 {
		t.Errorf("outage slot not swept after lift: %v", w.forcedDownUntil[h])
	}
}

// TestRandomSeedsDistinctAndBounded: bootstrap seeds never repeat a
// host, never include self, and tiny populations terminate (the seed
// bug: sampling with replacement could return the same host twice and
// spin when n exceeded the distinct-host count).
func TestRandomSeedsDistinctAndBounded(t *testing.T) {
	w := smallWorld(t, 6)
	self := w.Hosts()[0]
	for trial := 0; trial < 50; trial++ {
		seeds := w.randomSeeds(self, 4)
		if len(seeds) != 4 {
			t.Fatalf("got %d seeds, want 4", len(seeds))
		}
		seen := map[string]bool{}
		for _, s := range seeds {
			if s == self {
				t.Fatal("self returned as a bootstrap seed")
			}
			if seen[string(s)] {
				t.Fatalf("duplicate seed %v in %v", s, seeds)
			}
			seen[string(s)] = true
		}
	}
	// n greater than the distinct-host count must cap, not spin.
	if got := w.randomSeeds(self, len(w.Hosts())+10); len(got) != len(w.Hosts())-1 {
		t.Errorf("oversized request returned %d seeds, want %d", len(got), len(w.Hosts())-1)
	}
}

// TestSetMonitorNoisePerturbsAndRestores: injected noise changes what
// the deployment-wide monitor reports, and resetting to zero restores
// the base service exactly.
func TestSetMonitorNoisePerturbsAndRestores(t *testing.T) {
	w := smallWorld(t, 3)
	online := w.OnlineHosts()
	if len(online) == 0 {
		t.Fatal("no online hosts after warmup")
	}
	id := online[0]
	clean, ok := w.Monitor.Availability(id)
	if !ok {
		t.Fatal("monitor does not know an online host")
	}
	if err := w.SetMonitorNoise(0.2, 0); err != nil {
		t.Fatal(err)
	}
	perturbed := false
	for _, h := range online {
		cv, _ := w.Monitor.Availability(h)
		if err := w.SetMonitorNoise(0, 0); err != nil {
			t.Fatal(err)
		}
		bv, _ := w.Monitor.Availability(h)
		if err := w.SetMonitorNoise(0.2, 0); err != nil {
			t.Fatal(err)
		}
		if cv != bv {
			perturbed = true
			break
		}
	}
	if !perturbed {
		t.Error("±0.2 noise never changed any report")
	}
	if err := w.SetMonitorNoise(0, 0); err != nil {
		t.Fatal(err)
	}
	restored, ok := w.Monitor.Availability(id)
	if !ok || restored != clean {
		t.Errorf("restored report %v (ok=%v), want clean %v", restored, ok, clean)
	}
}

// TestChurnBurstRecovery: after a mass forced outage the overlay keeps
// functioning — the remaining online nodes still route anycasts.
func TestChurnBurstRecovery(t *testing.T) {
	w := smallWorld(t, 4)
	online := w.OnlineHosts()
	until := w.Sim.Now() + 40*time.Minute
	for i, id := range online {
		if i%2 == 0 {
			w.ForceOffline(id, until)
		}
	}
	w.RunFor(5 * time.Minute)
	recs := anycasts(t, w, 0, 1.01, ops.Target{Lo: 0.85, Hi: 0.95},
		ops.AnycastOptions{Policy: ops.Greedy, Flavor: core.HSVS, TTL: 6}, 10, 2*time.Second)
	if len(recs) == 0 {
		t.Fatal("no anycasts initiated during the storm")
	}
	if f := deliveredFraction(recs); f < 0.5 {
		t.Errorf("delivery during 50%% outage = %.2f, want >= 0.5", f)
	}
}
