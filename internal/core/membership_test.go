package core

import (
	"testing"
	"time"
	"unsafe"

	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/ids"
)

// testWorld bundles the pieces a membership test needs: a static
// monitor, a mutable clock, and a permissive predicate.
type testWorld struct {
	monitor avmon.Static
	now     time.Duration
}

func (w *testWorld) clock() time.Duration { return w.now }

func newTestMembership(t *testing.T, self ids.NodeID, pred *Predicate, cushion float64) (*Membership, *testWorld) {
	t.Helper()
	w := &testWorld{monitor: avmon.Static{}}
	w.monitor[self] = 0.5
	m, err := NewMembership(self, Config{
		Predicate:     pred,
		Monitor:       w.monitor,
		Clock:         w.clock,
		VerifyCushion: cushion,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

func acceptAll(t *testing.T) *Predicate {
	t.Helper()
	p, err := NewPredicate(0.1, ConstantHorizontal{Fraction: 1}, UniformRandom{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rejectAll(t *testing.T) *Predicate {
	t.Helper()
	p, err := NewPredicate(0.1, ConstantHorizontal{Fraction: 0}, UniformRandom{P: 0})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewMembershipValidation(t *testing.T) {
	pred := acceptAll(t)
	mon := avmon.Static{}
	clock := func() time.Duration { return 0 }
	cases := []struct {
		name string
		self ids.NodeID
		cfg  Config
	}{
		{"nil self", ids.Nil, Config{Predicate: pred, Monitor: mon, Clock: clock}},
		{"nil predicate", "a", Config{Monitor: mon, Clock: clock}},
		{"nil monitor", "a", Config{Predicate: pred, Clock: clock}},
		{"nil clock", "a", Config{Predicate: pred, Monitor: mon}},
		{"bad cushion", "a", Config{Predicate: pred, Monitor: mon, Clock: clock, VerifyCushion: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMembership(tc.self, tc.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestDiscoverAdmitsBySliver(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, acceptAll(t), 0)
	// Self availability 0.5. One horizontal candidate, one vertical.
	h := ids.Synthetic(1)
	v := ids.Synthetic(2)
	w.monitor[h] = 0.55
	w.monitor[v] = 0.9
	added := m.Discover([]ids.NodeID{h, v})
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	nb, ok := m.Lookup(h)
	if !ok || nb.Sliver != SliverHorizontal || nb.Availability != 0.55 {
		t.Errorf("horizontal neighbor = %+v, ok=%v", nb, ok)
	}
	nb, ok = m.Lookup(v)
	if !ok || nb.Sliver != SliverVertical || nb.Availability != 0.9 {
		t.Errorf("vertical neighbor = %+v, ok=%v", nb, ok)
	}
	if m.Size() != 2 || m.SliverSize(SliverHorizontal) != 1 || m.SliverSize(SliverVertical) != 1 {
		t.Errorf("sizes: total=%d hs=%d vs=%d", m.Size(), m.SliverSize(SliverHorizontal), m.SliverSize(SliverVertical))
	}
}

func TestDiscoverSkipsSelfNilUnknownAndExisting(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, acceptAll(t), 0)
	y := ids.Synthetic(1)
	w.monitor[y] = 0.5
	if added := m.Discover([]ids.NodeID{self, ids.Nil, "stranger", y}); added != 1 {
		t.Errorf("added = %d, want 1 (only y)", added)
	}
	if added := m.Discover([]ids.NodeID{y}); added != 0 {
		t.Errorf("re-discovery added = %d, want 0", added)
	}
}

func TestDiscoverRespectsPredicate(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, rejectAll(t), 0)
	y := ids.Synthetic(1)
	w.monitor[y] = 0.5
	if added := m.Discover([]ids.NodeID{y}); added != 0 {
		t.Errorf("reject-all predicate admitted %d", added)
	}
}

func TestRefreshEvictsOnPredicateFailure(t *testing.T) {
	self := ids.Synthetic(0)
	// Horizontal-only predicate: accepts while |Δav| < ε, rejects after
	// availabilities drift apart (vertical rejects everything).
	p, err := NewPredicate(0.1, ConstantHorizontal{Fraction: 1}, UniformRandom{P: 0})
	if err != nil {
		t.Fatal(err)
	}
	m, w := newTestMembership(t, self, p, 0)
	y := ids.Synthetic(1)
	w.monitor[y] = 0.52
	if added := m.Discover([]ids.NodeID{y}); added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	// y's availability drifts out of the ε-band; the pair becomes a
	// vertical candidate, and the vertical sub-predicate rejects it.
	w.monitor[y] = 0.9
	if evicted := m.Refresh(); evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
	if m.Contains(y) {
		t.Error("neighbor survived predicate failure")
	}
}

func TestRefreshReclassifiesSliver(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, acceptAll(t), 0)
	y := ids.Synthetic(1)
	w.monitor[y] = 0.52 // horizontal
	m.Discover([]ids.NodeID{y})
	w.monitor[y] = 0.95 // now vertical; accept-all keeps it
	if evicted := m.Refresh(); evicted != 0 {
		t.Fatalf("evicted = %d, want 0", evicted)
	}
	nb, _ := m.Lookup(y)
	if nb.Sliver != SliverVertical {
		t.Errorf("sliver = %v, want VS after drift", nb.Sliver)
	}
	if nb.Availability != 0.95 {
		t.Errorf("cached availability = %v, want refreshed 0.95", nb.Availability)
	}
}

func TestRefreshEvictsUnknownNodes(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, acceptAll(t), 0)
	y := ids.Synthetic(1)
	w.monitor[y] = 0.5
	m.Discover([]ids.NodeID{y})
	delete(w.monitor, y) // monitoring service lost the node
	if evicted := m.Refresh(); evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
}

func TestRefreshSelfTracksMonitor(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, acceptAll(t), 0)
	if m.SelfInfo().Availability != 0.5 {
		t.Fatalf("initial self availability = %v", m.SelfInfo().Availability)
	}
	w.monitor[self] = 0.8
	if got := m.RefreshSelf(); got != 0.8 {
		t.Errorf("RefreshSelf = %v, want 0.8", got)
	}
	// Monitor losing self keeps the last cached value.
	delete(w.monitor, self)
	if got := m.RefreshSelf(); got != 0.8 {
		t.Errorf("RefreshSelf after loss = %v, want cached 0.8", got)
	}
}

func TestNeighborsFlavors(t *testing.T) {
	self := ids.Synthetic(0)
	m, w := newTestMembership(t, self, acceptAll(t), 0)
	h1, h2, v1 := ids.Synthetic(1), ids.Synthetic(2), ids.Synthetic(3)
	w.monitor[h1] = 0.5
	w.monitor[h2] = 0.58
	w.monitor[v1] = 0.05
	m.Discover([]ids.NodeID{h1, h2, v1})
	// One list holds both slivers: Neighbors hands it out for any valid
	// flavor, CopyNeighbors keeps the flavor's own entries.
	for _, c := range []struct {
		f           Flavor
		own, listed int
	}{{HSOnly, 2, 3}, {VSOnly, 1, 3}, {HSVS, 3, 3}, {Flavor(0), 0, 0}} {
		if got := len(m.CopyNeighbors(c.f)); got != c.own {
			t.Errorf("%v = %d, want %d", c.f, got, c.own)
		}
		if got := len(m.Neighbors(c.f)); got != c.listed {
			t.Errorf("%v list holds %d, want %d", c.f, got, c.listed)
		}
	}
	// Sorted by ID for determinism.
	all := m.Neighbors(HSVS)
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("neighbors not sorted: %v", all)
		}
	}
}

func TestVerifyInbound(t *testing.T) {
	pdf := avdist.Overnet(100)
	pred, err := PaperPredicate(0.1, 1, 1, 442, pdf)
	if err != nil {
		t.Fatal(err)
	}
	selfID := ids.Synthetic(0)
	receiver, w := newTestMembership(t, selfID, pred, 0)
	w.monitor[selfID] = 0.5
	receiver.RefreshSelf()

	// Find a sender that IS a legitimate in-neighbor (M(sender, self))
	// and one that is not, under identical availabilities.
	var legit, illegit ids.NodeID
	for i := 1; i < 5000 && (legit.IsNil() || illegit.IsNil()); i++ {
		cand := ids.Synthetic(i)
		w.monitor[cand] = 0.9
		ok, _ := pred.EvalNodes(
			NodeInfo{ID: cand, Availability: 0.9},
			NodeInfo{ID: selfID, Availability: 0.5}, 0, nil)
		if ok && legit.IsNil() {
			legit = cand
		}
		if !ok && illegit.IsNil() {
			illegit = cand
		}
	}
	if legit.IsNil() || illegit.IsNil() {
		t.Fatal("could not find both a legitimate and an illegitimate sender")
	}
	if !receiver.VerifyInbound(legit) {
		t.Error("legitimate in-neighbor rejected")
	}
	if receiver.VerifyInbound(illegit) {
		t.Error("illegitimate sender accepted")
	}
	if receiver.VerifyInbound(selfID) {
		t.Error("self accepted as sender")
	}
	if receiver.VerifyInbound(ids.Nil) {
		t.Error("nil sender accepted")
	}
	if receiver.VerifyInbound("unknown-to-monitor") {
		t.Error("unverifiable sender accepted")
	}
}

func TestVerifyInboundCushionToleratesStaleness(t *testing.T) {
	pdf := avdist.Overnet(100)
	pred, err := PaperPredicate(0.1, 1, 1, 442, pdf)
	if err != nil {
		t.Fatal(err)
	}
	selfID := ids.Synthetic(0)

	// Find a boundary pair: accepted at the true availability but
	// rejected when the receiver believes a slightly different value.
	for i := 1; i < 20000; i++ {
		sender := ids.Synthetic(i)
		trueAv, staleAv := 0.90, 0.70
		okTrue, _ := pred.EvalNodes(
			NodeInfo{ID: sender, Availability: trueAv},
			NodeInfo{ID: selfID, Availability: 0.5}, 0, nil)
		okStale, _ := pred.EvalNodes(
			NodeInfo{ID: sender, Availability: staleAv},
			NodeInfo{ID: selfID, Availability: 0.5}, 0, nil)
		okStaleCushion, _ := pred.EvalNodes(
			NodeInfo{ID: sender, Availability: staleAv},
			NodeInfo{ID: selfID, Availability: 0.5}, 0.1, nil)
		if okTrue && !okStale && okStaleCushion {
			// The cushion rescues this legitimate relationship.
			mNoCushion, w1 := newTestMembership(t, selfID, pred, 0)
			w1.monitor[sender] = staleAv
			mCushion, w2 := newTestMembership(t, selfID, pred, 0.1)
			w2.monitor[sender] = staleAv
			if mNoCushion.VerifyInbound(sender) {
				t.Error("expected rejection without cushion")
			}
			if !mCushion.VerifyInbound(sender) {
				t.Error("expected acceptance with cushion")
			}
			return
		}
	}
	t.Skip("no boundary pair found; predicate landscape too coarse")
}

func TestSelfAccessors(t *testing.T) {
	self := ids.Synthetic(0)
	m, _ := newTestMembership(t, self, acceptAll(t), 0)
	if m.Self() != self {
		t.Errorf("Self = %v", m.Self())
	}
	if m.Predicate() == nil {
		t.Error("Predicate = nil")
	}
	info := m.SelfInfo()
	if info.ID != self || info.Availability != 0.5 {
		t.Errorf("SelfInfo = %+v", info)
	}
}

// TestNeighborSize: a neighbor entry is 40 bytes — identifier, cached
// availability, pair hash, and the host index sharing a word with the
// sliver. Every membership list holds O(√N + log N) of them, so a field
// no decision reads costs every host of a large world its bytes.
func TestNeighborSize(t *testing.T) {
	if got := unsafe.Sizeof(Neighbor{}); got != 40 {
		t.Errorf("Neighbor is %d bytes, want 40", got)
	}
}
