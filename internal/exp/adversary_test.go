package exp

import (
	"reflect"
	"testing"
	"time"

	"avmem/internal/adversary"
	"avmem/internal/audit"
	"avmem/internal/trace"
)

func advTestConfig(t *testing.T) WorldConfig {
	t.Helper()
	tr, err := trace.Generate(func() trace.GenConfig {
		g := trace.DefaultGenConfig(9)
		g.Hosts, g.Epochs = 120, 72
		return g
	}())
	if err != nil {
		t.Fatal(err)
	}
	return WorldConfig{
		Seed:           9,
		Trace:          tr,
		ProtocolPeriod: 2 * time.Minute,
		Audit:          &audit.Params{},
		Adversary: &AdversaryConfig{
			Fraction: 0.25,
			BandLo:   0.3,
			BandHi:   0.7,
			Profile:  adversary.Profile{InflateTo: 0.98},
			// Select by what the monitor reports when the attack runs
			// (the tests arm the cohort after a 4h warmup).
			SelectAt: 4 * time.Hour,
		},
	}
}

// TestCohortSelectionDeterministicAcrossEngines: both engines must pick
// the identical cohort for one (trace, seed, config), or cross-backend
// scenario comparisons would be meaningless.
func TestCohortSelectionDeterministicAcrossEngines(t *testing.T) {
	cfg := advTestConfig(t)
	w, err := NewDeployment(BackendSim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewDeployment(BackendMemnet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if len(w.Adversaries()) == 0 {
		t.Fatal("no cohort selected")
	}
	if !reflect.DeepEqual(w.Adversaries(), c.Adversaries()) {
		t.Fatalf("engines picked different cohorts:\n sim:    %v\n memnet: %v",
			w.Adversaries(), c.Adversaries())
	}
	// The cohort respects the availability band at the selection epoch.
	epoch := cfg.Trace.EpochAt(4 * time.Hour)
	for _, id := range w.Adversaries() {
		h := cfg.Trace.HostIndex(id)
		if av := cfg.Trace.SmoothedAvailability(h, epoch); av < 0.3 || av >= 0.7 {
			t.Errorf("cohort member %s has availability %v outside [0.3,0.7)", id, av)
		}
	}
}

// TestAdversariesDetectedAndEvicted drives the simulator engine with an
// armed inflation cohort and checks the full loop: engagement, trail
// evictions by honest observers, and probe outputs.
func TestAdversariesDetectedAndEvicted(t *testing.T) {
	cfg := advTestConfig(t)
	w, err := NewDeployment(BackendSim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.RunFor(4 * time.Hour)
	if got := len(w.EngagedAdversaries()); got != 0 {
		t.Fatalf("%d adversaries engaged while disarmed", got)
	}
	w.SetAdversariesActive(true)
	onset := w.Now()
	w.RunFor(3 * time.Hour)

	if got := len(w.EngagedAdversaries()); got == 0 {
		t.Fatal("no adversary engaged while armed")
	}
	stats := EvictionReport(w, onset)
	if stats.Adversaries != len(w.Adversaries()) {
		t.Errorf("stats.Adversaries = %d, want %d", stats.Adversaries, len(w.Adversaries()))
	}
	if stats.Honest != len(w.Hosts())-len(w.Adversaries()) {
		t.Errorf("stats.Honest = %d, want %d", stats.Honest, len(w.Hosts())-len(w.Adversaries()))
	}
	if stats.Detected == 0 {
		t.Fatal("no adversary detected after 3h of armed inflation")
	}
	if stats.DetectionRate() <= 0.5 {
		t.Errorf("detection rate %v suspiciously low", stats.DetectionRate())
	}
	if stats.FalsePositiveRate() > 0.01 {
		t.Errorf("false-positive rate %v above 1%%", stats.FalsePositiveRate())
	}
	if stats.Detected > 0 && stats.MeanDetection <= 0 {
		t.Errorf("mean detection latency %v not positive", stats.MeanDetection)
	}

	bias := OverlayBias(w)
	if bias.PopulationShare <= 0 {
		t.Errorf("population share %v", bias.PopulationShare)
	}
	if bias.CoarseShare < 0 || bias.CoarseShare > 1 || bias.MembershipShare < 0 || bias.MembershipShare > 1 {
		t.Errorf("probe shares out of range: %+v", bias)
	}
}

// TestHonestDeploymentProbes: probes on an honest deployment are
// well-defined zeros, and the adversary surface is inert.
func TestHonestDeploymentProbes(t *testing.T) {
	cfg := advTestConfig(t)
	cfg.Audit = nil
	cfg.Adversary = nil
	w, err := NewDeployment(BackendSim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Adversaries() != nil || w.EngagedAdversaries() != nil || w.AuditTrail() != nil {
		t.Fatal("honest deployment exposes adversary state")
	}
	w.SetAdversariesActive(true) // must be a no-op, not a panic
	bias := OverlayBias(w)
	if bias.Bias != 0 || bias.PopulationShare != 0 {
		t.Errorf("honest bias probe = %+v, want zeros", bias)
	}
	stats := EvictionReport(w, 0)
	if stats.Adversaries != 0 || stats.Detected != 0 || stats.DetectionRate() != 0 {
		t.Errorf("honest eviction report = %+v, want zeros", stats)
	}
}

// TestAdversaryConfigValidation pins the config contract.
func TestAdversaryConfigValidation(t *testing.T) {
	tr, err := trace.Generate(func() trace.GenConfig {
		g := trace.DefaultGenConfig(1)
		g.Hosts, g.Epochs = 40, 24
		return g
	}())
	if err != nil {
		t.Fatal(err)
	}
	bad := []AdversaryConfig{
		{Fraction: 0, Profile: adversary.Profile{Eclipse: true}},
		{Fraction: 0.9, Profile: adversary.Profile{Eclipse: true}},
		{Fraction: 0.2, BandLo: 2, Profile: adversary.Profile{Eclipse: true}},
		{Fraction: 0.2, BandLo: 0.5, BandHi: 0.4, Profile: adversary.Profile{Eclipse: true}},
		{Fraction: 0.2}, // empty profile
	}
	for i := range bad {
		if _, err := buildAdversaries(&bad[i], tr, 1); err == nil {
			t.Errorf("case %d: invalid adversary config accepted: %+v", i, bad[i])
		}
	}
	// A band selecting nobody errors out rather than silently running
	// an honest deployment.
	empty := &AdversaryConfig{Fraction: 0.2, BandLo: 0.999, BandHi: 1.0,
		Profile: adversary.Profile{Eclipse: true}}
	if _, err := buildAdversaries(empty, tr, 1); err == nil {
		t.Error("empty-band cohort accepted")
	}
}
