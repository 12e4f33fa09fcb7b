package avmon

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/trace"
)

func buildTrace(t *testing.T) *trace.Trace {
	t.Helper()
	hosts := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1), ids.Synthetic(2)}
	tr, err := trace.New(hosts, 10, trace.DefaultEpoch)
	if err != nil {
		t.Fatal(err)
	}
	// Host 0: up half the time; host 1: always up; host 2: never up.
	for e := 0; e < 10; e++ {
		tr.SetUp(0, e, e%2 == 0)
		tr.SetUp(1, e, true)
	}
	return tr
}

func TestOracleValidation(t *testing.T) {
	tr := buildTrace(t)
	if _, err := NewOracle(nil, func() time.Duration { return 0 }); err == nil {
		t.Error("want error for nil trace")
	}
	if _, err := NewOracle(tr, nil); err == nil {
		t.Error("want error for nil clock")
	}
}

func TestOracleSmoothedEstimates(t *testing.T) {
	tr := buildTrace(t)
	now := 9 * trace.DefaultEpoch // epoch 9: all 10 epochs counted
	o, err := NewOracle(tr, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	// Add-one estimator: (up+1)/(n+2).
	if v, ok := o.Availability(ids.Synthetic(0)); !ok || v != 6.0/12.0 {
		t.Errorf("host0 availability = (%v,%v), want (0.5,true)", v, ok)
	}
	if v, ok := o.Availability(ids.Synthetic(1)); !ok || v != 11.0/12.0 {
		t.Errorf("host1 availability = (%v,%v), want 11/12", v, ok)
	}
	if v, ok := o.Availability(ids.Synthetic(2)); !ok || v != 1.0/12.0 {
		t.Errorf("host2 availability = (%v,%v), want 1/12", v, ok)
	}
	// Always-on hosts never report exactly 1.0, and always-off never 0.
	if v, _ := o.Availability(ids.Synthetic(1)); v >= 1.0 {
		t.Errorf("always-on host reported %v, want < 1", v)
	}
	if v, _ := o.Availability(ids.Synthetic(2)); v <= 0 {
		t.Errorf("always-off host reported %v, want > 0", v)
	}
	if _, ok := o.Availability("stranger"); ok {
		t.Error("unknown host reported as known")
	}
}

func TestOracleTracksClock(t *testing.T) {
	tr := buildTrace(t)
	now := time.Duration(0)
	o, err := NewOracle(tr, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	// At epoch 0, host 0 has been up 1/1 epochs: smoothed 2/3.
	if v, _ := o.Availability(ids.Synthetic(0)); v != 2.0/3.0 {
		t.Errorf("epoch0 availability = %v, want 2/3", v)
	}
	now = 3 * trace.DefaultEpoch // epoch 3: up 2/4 → smoothed 3/6
	if v, _ := o.Availability(ids.Synthetic(0)); v != 0.5 {
		t.Errorf("epoch3 availability = %v, want 0.5", v)
	}
}

func TestOracleMemoWithinEpoch(t *testing.T) {
	tr := buildTrace(t)
	calls := 0
	now := func() time.Duration { calls++; return 0 }
	o, err := NewOracle(tr, now)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := o.Availability(ids.Synthetic(1))
	a2, _ := o.Availability(ids.Synthetic(1))
	if a1 != a2 {
		t.Errorf("memoized answers differ: %v %v", a1, a2)
	}
}

func TestNoisyValidation(t *testing.T) {
	tr := buildTrace(t)
	o, _ := NewOracle(tr, func() time.Duration { return 0 })
	rng := rand.New(rand.NewSource(1))
	clock := func() time.Duration { return 0 }
	if _, err := NewNoisy(nil, 0.1, time.Minute, clock, rng); err == nil {
		t.Error("want error for nil inner")
	}
	if _, err := NewNoisy(o, -0.1, time.Minute, clock, rng); err == nil {
		t.Error("want error for negative maxErr")
	}
	if _, err := NewNoisy(o, 1.5, time.Minute, clock, rng); err == nil {
		t.Error("want error for maxErr > 1")
	}
	if _, err := NewNoisy(o, 0.1, -time.Minute, clock, rng); err == nil {
		t.Error("want error for negative staleness")
	}
	if _, err := NewNoisy(o, 0.1, time.Minute, nil, rng); err == nil {
		t.Error("want error for nil clock")
	}
	if _, err := NewNoisy(o, 0.1, time.Minute, clock, nil); err == nil {
		t.Error("want error for nil rng")
	}
}

func TestNoisyBoundedError(t *testing.T) {
	inner := Static{ids.Synthetic(0): 0.5}
	rng := rand.New(rand.NewSource(2))
	n, err := NewNoisy(inner, 0.1, 0, func() time.Duration { return 0 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, ok := n.Availability(ids.Synthetic(0))
		if !ok {
			t.Fatal("target unknown")
		}
		if math.Abs(v-0.5) > 0.1+1e-12 {
			t.Fatalf("error exceeds bound: %v", v)
		}
	}
}

func TestNoisyStaleness(t *testing.T) {
	now := time.Duration(0)
	truth := Static{ids.Synthetic(0): 0.2}
	rng := rand.New(rand.NewSource(3))
	n, err := NewNoisy(truth, 0, 20*time.Minute, func() time.Duration { return now }, rng)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := n.Availability(ids.Synthetic(0))
	truth[ids.Synthetic(0)] = 0.9 // world changed
	v2, _ := n.Availability(ids.Synthetic(0))
	if v2 != v1 {
		t.Errorf("stale snapshot not served: %v != %v", v2, v1)
	}
	now = 21 * time.Minute // snapshot expired
	v3, _ := n.Availability(ids.Synthetic(0))
	if v3 != 0.9 {
		t.Errorf("expired snapshot not refreshed: %v", v3)
	}
}

func TestNoisyUnknownTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, err := NewNoisy(Static{}, 0.1, time.Minute, func() time.Duration { return 0 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Availability("ghost"); ok {
		t.Error("unknown target reported as known")
	}
}

func TestNoisyClamps(t *testing.T) {
	inner := Static{ids.Synthetic(0): 0.99, ids.Synthetic(1): 0.01}
	rng := rand.New(rand.NewSource(4))
	n, err := NewNoisy(inner, 0.3, 0, func() time.Duration { return 0 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, _ := n.Availability(ids.Synthetic(0)); v < 0 || v > 1 {
			t.Fatalf("unclamped value %v", v)
		}
		if v, _ := n.Availability(ids.Synthetic(1)); v < 0 || v > 1 {
			t.Fatalf("unclamped value %v", v)
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := NewDistributed(nil, 4, nil, 0); err == nil {
		t.Error("want error for no hosts")
	}
	if _, err := NewDistributed([]ids.NodeID{"a"}, 0, nil, 0); err == nil {
		t.Error("want error for zero monitors")
	}
}

func TestDistributedMonitorRelationConsistent(t *testing.T) {
	hosts := make([]ids.NodeID, 100)
	for i := range hosts {
		hosts[i] = ids.Synthetic(i)
	}
	d1, err := NewDistributed(hosts, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDistributed(hosts, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		m1, m2 := d1.Monitors(h), d2.Monitors(h)
		if len(m1) != len(m2) {
			t.Fatalf("monitor sets differ for %v", h)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("monitor sets differ for %v", h)
			}
		}
	}
	// Mean monitor count should be near the requested expectation.
	total := 0
	for _, h := range hosts {
		total += len(d1.Monitors(h))
	}
	mean := float64(total) / float64(len(hosts))
	if mean < 4 || mean > 13 {
		t.Errorf("mean monitors per target = %v, want ≈8", mean)
	}
}

func TestDistributedEstimatesConverge(t *testing.T) {
	hosts := make([]ids.NodeID, 60)
	for i := range hosts {
		hosts[i] = ids.Synthetic(i)
	}
	// Host i is online on tick t iff (t+i)%4 != 0 → availability 0.75,
	// except host 0 which is always online.
	tick := 0
	onlineAt := func(i int) bool { return i == 0 || (tick+i)%4 != 0 }
	d, err := NewDistributed(hosts, 10, onlineAt, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tick = 1; tick <= 60; tick++ {
		d.TickAll()
	}
	v, ok := d.Availability(hosts[0])
	if !ok {
		t.Fatal("no estimate for always-on host")
	}
	if v != 1.0 {
		t.Errorf("always-on estimate = %v, want 1", v)
	}
	// A churned host should estimate near 0.75 (monitors are also
	// churning, so tolerance is loose).
	v5, ok := d.Availability(hosts[5])
	if !ok {
		t.Fatal("no estimate for host 5")
	}
	if math.Abs(v5-0.75) > 0.2 {
		t.Errorf("churned estimate = %v, want ≈0.75", v5)
	}
}

func TestDistributedUnknownAndCold(t *testing.T) {
	hosts := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)}
	d, err := NewDistributed(hosts, 1, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Availability("ghost"); ok {
		t.Error("unknown target known")
	}
	// Before any pings there must be no estimate.
	if _, ok := d.Availability(hosts[0]); ok {
		t.Error("cold service returned an estimate")
	}
}

func TestStatic(t *testing.T) {
	s := Static{"a": 0.4}
	if v, ok := s.Availability("a"); !ok || v != 0.4 {
		t.Errorf("Static = (%v,%v)", v, ok)
	}
	if _, ok := s.Availability("b"); ok {
		t.Error("missing key reported present")
	}
}
