package audit

import (
	"math/rand"
	"testing"
	"time"

	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/shuffle"
)

// fixture builds an auditor over a static monitor and a permissive
// predicate, with a controllable clock past the claim warmup.
type fixture struct {
	auditor *Auditor
	monitor avmon.Static
	now     time.Duration
	trail   *Trail
}

// addr is id as it arrives off a transport: no memo.
func addr(id ids.NodeID) ids.Addr { return id.Addr() }

func newFixture(t *testing.T, params Params) *fixture {
	t.Helper()
	f := &fixture{
		monitor: avmon.Static{
			"self":  0.9,
			"peer":  0.5,
			"other": 0.7,
		},
		now:   10 * time.Hour,
		trail: NewTrail(),
	}
	pred, err := core.NewPredicate(0.1,
		core.UniformRandom{P: 1}, core.UniformRandom{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Self:      "self",
		Params:    params,
		Predicate: pred,
		Monitor:   f.monitor,
		SelfInfo:  func() core.NodeInfo { return core.NodeInfo{ID: "self", Availability: 0.9} },
		Clock:     func() time.Duration { return f.now },
		Trail:     f.trail,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.auditor = a
	return f
}

func TestClaimInflationEvictsAtOnce(t *testing.T) {
	f := newFixture(t, Params{})
	// An honest claim equals the monitor estimate: no suspicion.
	if !f.auditor.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.5}) {
		t.Fatal("honest message dropped")
	}
	if s := f.auditor.Suspicion("peer"); s != 0 {
		t.Fatalf("honest claim raised suspicion %v", s)
	}
	// Inflating beyond the tolerance is provable lying: one message
	// evicts.
	f.auditor.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.97})
	if !f.auditor.Blocked(addr("peer")) {
		t.Fatal("inflated claim did not evict")
	}
	if at, ok := f.trail.FirstEviction("peer"); !ok || at != f.now {
		t.Fatalf("trail missing eviction: %v %v", at, ok)
	}
	// Blocked senders stay dropped.
	if f.auditor.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.5}) {
		t.Fatal("blocked sender accepted")
	}
}

func TestUnderstatementIsNotEvidence(t *testing.T) {
	f := newFixture(t, Params{})
	f.auditor.ObserveInbound(addr("other"), ops.AnycastMsg{SenderAvail: 0.1})
	if f.auditor.Blocked(addr("other")) || f.auditor.Suspicion("other") != 0 {
		t.Fatal("understating availability was treated as a lie")
	}
}

func TestClaimWarmupSuppressesEarlyEvidence(t *testing.T) {
	f := newFixture(t, Params{})
	f.now = 30 * time.Minute // before the 1h default warmup
	f.auditor.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.97})
	if f.auditor.Blocked(addr("peer")) {
		t.Fatal("claim evidence accepted before warmup")
	}
	f.now = 2 * time.Hour
	f.auditor.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.97})
	if !f.auditor.Blocked(addr("peer")) {
		t.Fatal("claim evidence ignored after warmup")
	}
}

func TestSelfAdvertisingReplyEvicts(t *testing.T) {
	f := newFixture(t, Params{})
	// Replies naming other nodes are fine.
	f.auditor.ObserveInbound(addr("peer"), &shuffle.Reply{
		SenderAvail: 0.5,
		Entries:     []shuffle.Entry{{ID: "other"}},
	})
	if f.auditor.Blocked(addr("peer")) {
		t.Fatal("clean reply evicted the sender")
	}
	// A reply naming its own sender is standalone proof of poisoning.
	f.auditor.ObserveInbound(addr("peer"), &shuffle.Reply{
		SenderAvail: 0.5,
		Entries:     []shuffle.Entry{{ID: "other"}, {ID: "peer"}},
	})
	if !f.auditor.Blocked(addr("peer")) {
		t.Fatal("self-advertising reply not evicted")
	}
	// Requests legitimately contain the sender (the CYCLON self-entry).
	f2 := newFixture(t, Params{})
	f2.auditor.ObserveInbound(addr("peer"), &shuffle.Request{
		SenderAvail: 0.5,
		Entries:     []shuffle.Entry{{ID: "peer"}},
	})
	if f2.auditor.Blocked(addr("peer")) {
		t.Fatal("self-entry in a request treated as a violation")
	}
}

// rejectingFixture builds an auditor whose predicate rejects everything
// (every recheck fails) over a noisy monitor — the hysteresis regime.
func TestSuspicionHysteresisUnderMonitorNoise(t *testing.T) {
	now := 10 * time.Hour
	base := avmon.Static{"self": 0.9, "peer": 0.5}
	rng := rand.New(rand.NewSource(42))
	noisy, err := avmon.NewNoisy(base, 0.05, 0, func() time.Duration { return now }, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A predicate that accepts a pair only when the pair hash is below
	// the threshold f=0.5: with real hashes some rechecks fail, which
	// combined with monitor noise gives intermittent soft hits.
	pred, err := core.NewPredicate(0.1,
		core.UniformRandom{P: 0.5}, core.UniformRandom{P: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	params := Params{SoftWeight: 0.2, Decay: 0.1, EvictThreshold: 3}
	a, err := New(Config{
		Self:      "self",
		Params:    params,
		Predicate: pred,
		Monitor:   noisy,
		SelfInfo:  func() core.NodeInfo { return core.NodeInfo{ID: "self", Availability: 0.9} },
		Clock:     func() time.Duration { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The recheck outcome for a fixed pair is hash-determined; find out
	// which way this pair falls and assert the hysteresis accordingly.
	failing := ids.PairHash("peer", "self") > 0.5+params.RecheckCushion
	for i := 0; i < 10; i++ {
		a.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.5})
	}
	s := a.Suspicion("peer")
	if failing {
		// Ten soft hits at 0.2 = 2.0: suspicion grows but stays below
		// the eviction threshold — a persistently disagreeing honest
		// pair is not evicted by soft evidence alone this quickly.
		if s == 0 {
			t.Fatal("failing rechecks raised no suspicion")
		}
		if a.Blocked(addr("peer")) {
			t.Fatal("soft evidence evicted before threshold")
		}
		// Clean observations decay the score back down (hysteresis): a
		// well-formed shuffle request has no recheck, so it is clean.
		before := a.Suspicion("peer")
		a.ObserveInbound(addr("peer"), &shuffle.Request{SenderAvail: 0.5})
		if got := a.Suspicion("peer"); got >= before {
			t.Fatalf("clean observation did not decay suspicion: %v -> %v", before, got)
		}
	} else {
		if s != 0 {
			t.Fatalf("passing rechecks raised suspicion %v", s)
		}
	}
}

func TestSoftEvidenceEventuallyEvicts(t *testing.T) {
	f := newFixture(t, Params{SoftWeight: 1, EvictThreshold: 3, Decay: 0.1})
	// Force rechecks to fail by making the predicate reject everything.
	pred, err := core.NewPredicate(0.1,
		core.UniformRandom{P: 0}, core.UniformRandom{P: 0})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Self:      "self",
		Params:    Params{SoftWeight: 1, EvictThreshold: 3, Decay: 0.1, RecheckCushion: 0.001},
		Predicate: pred,
		Monitor:   f.monitor,
		SelfInfo:  func() core.NodeInfo { return core.NodeInfo{ID: "self", Availability: 0.9} },
		Clock:     func() time.Duration { return 10 * time.Hour },
		Trail:     f.trail,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if a.Blocked(addr("peer")) {
			t.Fatalf("evicted after %d soft hits, want 3", i)
		}
		a.ObserveInbound(addr("peer"), ops.AnycastMsg{SenderAvail: 0.5})
	}
	if !a.Blocked(addr("peer")) {
		t.Fatal("persistent soft evidence never evicted")
	}
	if a.Evictions() != 1 {
		t.Fatalf("Evictions() = %d, want 1", a.Evictions())
	}
}

func TestTrailAggregation(t *testing.T) {
	tr := NewTrail()
	tr.record(Eviction{Observer: "a", Suspect: "x", At: 5 * time.Minute})
	tr.record(Eviction{Observer: "b", Suspect: "x", At: 2 * time.Minute})
	tr.record(Eviction{Observer: "a", Suspect: "y", At: 7 * time.Minute})
	if got := len(tr.Evictions()); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	if at, ok := tr.FirstEviction("x"); !ok || at != 5*time.Minute {
		// first is observation-ordered, not time-ordered
		t.Fatalf("first eviction of x = %v, %v", at, ok)
	}
	if got := tr.Suspects(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("suspects = %v", got)
	}
}

func TestUnverifiableClaimIsNotEvidence(t *testing.T) {
	f := newFixture(t, Params{})
	// The monitor does not know "stranger": its claim cannot be
	// cross-checked, and the predicate recheck also fails (unknown
	// availability) — a soft hit, not an eviction.
	f.auditor.ObserveInbound(addr("stranger"), ops.AnycastMsg{SenderAvail: 0.99})
	if f.auditor.Blocked(addr("stranger")) {
		t.Fatal("unverifiable sender evicted on one message")
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{ClaimTolerance: 2},
		{EvictThreshold: -1},
		{Decay: -0.1},
		{RecheckCushion: 1.5},
	}
	pred, _ := core.NewPredicate(0.1, core.UniformRandom{P: 1}, core.UniformRandom{P: 1})
	for i, p := range bad {
		_, err := New(Config{
			Self:      "self",
			Params:    p,
			Predicate: pred,
			Monitor:   avmon.Static{},
			SelfInfo:  func() core.NodeInfo { return core.NodeInfo{} },
			Clock:     func() time.Duration { return 0 },
		})
		if err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

// TestBlockedAnswersAcrossFirstEviction walks one auditor from a clean
// slate through soft hits, its first eviction and later traffic: while
// nobody is evicted Blocked answers without consulting the peer table,
// and that shortcut must never change an answer — scores gathered before
// the first eviction still count after it, and peers the auditor has
// never heard of stay unblocked throughout.
func TestBlockedAnswersAcrossFirstEviction(t *testing.T) {
	f := newFixture(t, Params{EvictThreshold: 1, SoftWeight: 0.4, HardWeight: 1})
	a := f.auditor
	honest := ops.AggMsg{SenderAvail: 0.5}
	lie := ops.AggMsg{SenderAvail: 0.97} // "peer" is monitored at 0.5
	steps := []struct {
		name    string
		act     func() bool // an ObserveInbound verdict, or true for no message
		accept  bool
		blocked map[ids.NodeID]bool
		evicted int
	}{
		{"clean slate", func() bool { return true }, true, nil, 0},
		{"honest traffic", func() bool { return a.ObserveInbound(addr("peer"), honest) }, true, nil, 0},
		{"soft hit on other", func() bool { a.SuspectAggPartial(addr("other"), "agg-count-bounds"); return true }, true, nil, 0},
		{"second soft hit stays under the threshold", func() bool { a.SuspectAggPartial(addr("other"), "agg-count-bounds"); return true }, true, nil, 0},
		{"other still heard", func() bool { return a.ObserveInbound(addr("other"), ops.AggMsg{}) }, true, nil, 0},
		{"lie evicts peer: the first eviction", func() bool { return a.ObserveInbound(addr("peer"), lie) }, false, map[ids.NodeID]bool{"peer": true}, 1},
		{"peer now dropped even when honest", func() bool { return a.ObserveInbound(addr("peer"), honest) }, false, map[ids.NodeID]bool{"peer": true}, 1},
		{"other unaffected", func() bool { return a.ObserveInbound(addr("other"), ops.AggMsg{}) }, true, map[ids.NodeID]bool{"peer": true}, 1},
		{"third soft hit lands on the earlier score", func() bool { a.SuspectAggPartial(addr("other"), "agg-count-bounds"); return true }, true, map[ids.NodeID]bool{"peer": true, "other": true}, 2},
		{"other now dropped", func() bool { return a.ObserveInbound(addr("other"), ops.AggMsg{}) }, false, map[ids.NodeID]bool{"peer": true, "other": true}, 2},
	}
	for _, s := range steps {
		if got := s.act(); got != s.accept {
			t.Fatalf("%s: ObserveInbound = %v, want %v", s.name, got, s.accept)
		}
		for _, id := range []ids.NodeID{"peer", "other", "stranger", "self"} {
			if got := a.Blocked(addr(id)); got != s.blocked[id] {
				t.Fatalf("%s: Blocked(%s) = %v, want %v", s.name, id, got, s.blocked[id])
			}
		}
		if a.Evictions() != s.evicted {
			t.Fatalf("%s: %d evictions, want %d", s.name, a.Evictions(), s.evicted)
		}
	}
}

// TestOutOfHullPartialsAmidCleanShufflesNeverEvict pins how the
// suspicion model treats aggregation evidence today: a parent that
// declines a child's out-of-hull partial k times, while the same child's
// shuffle exchanges arrive clean between them, never evicts it. Each
// partial is a soft hit (0.2) and each clean exchange decays the score
// (0.05), so four clean exchanges erase one partial, although thirty
// partials alone would evict ten times over. This is the audit that
// detects and never acts (ROADMAP item 21); making aggregation evidence
// add up flips this test.
func TestOutOfHullPartialsAmidCleanShufflesNeverEvict(t *testing.T) {
	const k = 30
	f := newFixture(t, Params{})
	for i := 0; i < k; i++ {
		f.auditor.SuspectAggPartial(addr("peer"), "agg-hull-bounds")
		for j := 0; j < 4; j++ {
			if !f.auditor.ObserveInbound(addr("peer"), &shuffle.Request{
				SenderAvail: 0.5,
				Entries:     []shuffle.Entry{{ID: "other"}, {ID: "peer"}},
			}) {
				t.Fatalf("partial %d: the child's clean shuffle was dropped", i)
			}
		}
		if s := f.auditor.Suspicion("peer"); s >= 0.2 {
			t.Fatalf("partial %d: suspicion %v survived four clean exchanges", i, s)
		}
	}
	if f.auditor.Blocked(addr("peer")) || f.auditor.Evictions() != 0 {
		t.Fatalf("%d out-of-hull partials amid clean shuffles evicted the child", k)
	}

	alone := newFixture(t, Params{})
	for i := 0; i < k; i++ {
		alone.auditor.SuspectAggPartial(addr("peer"), "agg-hull-bounds")
	}
	if !alone.auditor.Blocked(addr("peer")) {
		t.Fatalf("%d out-of-hull partials with nothing between them did not evict", k)
	}
}
