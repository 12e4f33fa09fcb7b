package exp

import (
	"slices"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/ops"
)

// The query contracts hold on both engines: each test runs once per
// backend.

// TestForceOfflineOverridesTrace: a forced outage makes a node offline
// for exactly its window, regardless of the churn trace — the network
// drops traffic to it however it is addressed — and when the sweep has
// cleared the slot the trace resumes control.
func TestForceOfflineOverridesTrace(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 1, time.Hour)
		online := d.OnlineHosts()
		if len(online) == 0 {
			t.Fatal("no online hosts after warmup")
		}
		id := online[0]
		h := d.Trace.HostIndex(id)
		d.ForceOffline(id, d.Now()+30*time.Minute)
		if d.Online(id) {
			t.Fatal("forced-down node still online")
		}
		if slices.Contains(d.OnlineHosts(), id) {
			t.Fatal("forced-down node listed in OnlineHosts")
		}
		for _, to := range []ids.Addr{id.Addr(), ids.AddrAt(id, int32(h))} {
			ok := true
			d.Net.SendCallAddr(ids.NodeID("probe").Addr(), to, struct{}{}, func(r bool) { ok = r })
			d.RunFor(time.Second)
			if ok {
				t.Errorf("network acknowledged delivery to a forced-offline node addressed %v", to)
			}
		}
		d.RunFor(30 * time.Minute)
		if d.forcedDownUntil[h] != 0 {
			t.Error("outage slot never swept")
		}
		if got, want := d.Online(id), d.Trace.UpAt(h, d.Now()); got != want {
			t.Errorf("after outage window Online=%v, trace says %v", got, want)
		}
	})
}

// TestForceOfflineExpiredIsNoop: an outage ending in the past does not
// take effect.
func TestForceOfflineExpiredIsNoop(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 2, time.Hour)
		online := d.OnlineHosts()
		if len(online) == 0 {
			t.Fatal("no online hosts after warmup")
		}
		id := online[0]
		d.ForceOffline(id, d.Now())
		if !d.Online(id) {
			t.Error("expired outage took the node down")
		}
	})
}

// TestForceOfflineSweepClearsSlot: the outage slot is cleared by the
// scheduled sweep, never by a liveness read (a read may only refresh the
// online bitset), and a superseding longer outage is not clobbered by
// the earlier sweep.
func TestForceOfflineSweepClearsSlot(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 5, time.Hour)
		online := d.OnlineHosts()
		if len(online) == 0 {
			t.Fatal("no online hosts after warmup")
		}
		id := online[0]
		h := d.Trace.HostIndex(id)
		d.ForceOffline(id, d.Now()+10*time.Minute)
		d.ForceOffline(id, d.Now()+40*time.Minute)
		d.RunFor(11 * time.Minute)
		// The first outage's sweep fired; the longer outage must survive it.
		if d.forcedDownUntil[h] == 0 {
			t.Fatal("superseding outage cleared by the earlier sweep")
		}
		if d.Online(id) {
			t.Fatal("node online inside the superseding outage")
		}
		d.RunFor(30 * time.Minute)
		if d.forcedDownUntil[h] != 0 {
			t.Errorf("outage slot not swept after lift: %v", d.forcedDownUntil[h])
		}
	})
}

// TestOnlineAtMatchesItsDefinition: the online bitset is a lazily
// rebuilt cache of the trace and the outage slots. At probe instants
// across epoch boundaries, around a superseding outage, and at outages
// that lift exactly at an epoch start, every host's bit must equal its
// definition: no forced outage covers now, and the trace has the host
// up.
func TestOnlineAtMatchesItsDefinition(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 4, 70*time.Minute)
		check := func(when string) {
			t.Helper()
			now := d.Now()
			for h := range d.Hosts() {
				want := d.forcedDownUntil[h] <= now && d.Trace.UpAtIndex(h, now)
				if got := d.onlineAt(h); got != want {
					t.Fatalf("%s (t=%v): host %d online=%v, definition says %v", when, now, h, got, want)
				}
			}
		}
		online := d.OnlineHosts()
		if len(online) < 3 {
			t.Fatalf("only %d hosts online", len(online))
		}
		epoch := d.Trace.EpochLength()
		next := (d.Now()/epoch + 1) * epoch
		check("warm")
		d.ForceOffline(online[0], next) // lifts exactly at an epoch start
		d.ForceOffline(online[1], d.Now()+time.Minute)
		check("outages injected")
		d.ForceOffline(online[1], next+epoch/2) // supersedes the first outage
		d.ForceOffline(online[2], next+epoch)
		check("outage superseded")
		probes := []time.Duration{d.Now() + time.Minute, next - 1, next, next + 1,
			next + epoch/2, next + epoch - 1, next + epoch, next + epoch + time.Minute}
		for _, at := range probes {
			d.Sim.Run(at)
			check("probe")
		}
	})
}

// TestSetMonitorNoisePerturbsAndRestores: injected noise changes what
// the deployment-wide monitor reports, and resetting to zero restores
// the base service exactly.
func TestSetMonitorNoisePerturbsAndRestores(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 3, time.Hour)
		online := d.OnlineHosts()
		if len(online) == 0 {
			t.Fatal("no online hosts after warmup")
		}
		id := online[0]
		clean, ok := d.Monitor.Availability(id)
		if !ok {
			t.Fatal("monitor does not know an online host")
		}
		if err := d.SetMonitorNoise(0.2, time.Hour); err != nil {
			t.Fatal(err)
		}
		if noisy, ok := d.Monitor.Availability(id); !ok || noisy < 0 || noisy > 1 {
			t.Fatalf("noisy answer %v ok=%v", noisy, ok)
		}
		perturbed := false
		for _, h := range online {
			if err := d.SetMonitorNoise(0.2, 0); err != nil {
				t.Fatal(err)
			}
			cv, _ := d.Monitor.Availability(h)
			if err := d.SetMonitorNoise(0, 0); err != nil {
				t.Fatal(err)
			}
			if bv, _ := d.Monitor.Availability(h); cv != bv {
				perturbed = true
				break
			}
		}
		if !perturbed {
			t.Error("±0.2 noise never changed any report")
		}
		if err := d.SetMonitorNoise(0, 0); err != nil {
			t.Fatal(err)
		}
		if restored, ok := d.Monitor.Availability(id); !ok || restored != clean {
			t.Errorf("restored report %v (ok=%v), want clean %v", restored, ok, clean)
		}
	})
}

// TestGroundTruthQueriesMatchTheirDefinition: InBand, EligibleFor
// and MeanDegree loop by host index; each must still be what its name
// says over OnlineHosts/TrueAvailability/Membership, in host order
// (PickInitiator draws an index into that order), during a forced outage
// as well.
func TestGroundTruthQueriesMatchTheirDefinition(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		d := newTestDeployment(t, backend, 2, 2*time.Hour)
		d.ForceOffline(d.OnlineHosts()[3], d.Now()+time.Hour)
		target := ops.Target{Lo: 0.3, Hi: 0.8}
		var band []ids.NodeID
		eligible, degree := 0, 0
		online := d.OnlineHosts()
		for _, id := range online {
			av := d.TrueAvailability(id)
			if av >= 0.3 && av < 0.8 {
				band = append(band, id)
			}
			if target.Contains(av) {
				eligible++
			}
			degree += d.Membership(id).Size()
		}
		var got []ids.NodeID
		for _, h := range d.InBand(0.3, 0.8) {
			got = append(got, d.Hosts()[h])
		}
		if len(band) == 0 || !slices.Equal(got, band) {
			t.Errorf("InBand = %v, want %v", got, band)
		}
		if n := d.EligibleFor(target); n != eligible {
			t.Errorf("EligibleFor = %d, want %d", n, eligible)
		}
		if want := float64(degree) / float64(len(online)); d.MeanDegree() != want {
			t.Errorf("MeanDegree = %v, want %v", d.MeanDegree(), want)
		}
	})
}

// TestPickInitiatorDoesNotAllocate: a pick draws from the deployment's
// reused host-index buffer, so a warm pick allocates nothing.
func TestPickInitiatorDoesNotAllocate(t *testing.T) {
	d := newTestDeployment(t, BackendSim, 2, 2*time.Hour)
	if _, ok := d.PickInitiator(0.3, 0.8); !ok {
		t.Fatal("no online node in [0.3, 0.8)")
	}
	if avg := testing.AllocsPerRun(20, func() { d.PickInitiator(0.3, 0.8) }); avg != 0 {
		t.Errorf("a warm PickInitiator allocates %.1f times, want 0", avg)
	}
}
