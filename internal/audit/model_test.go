package audit

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/shuffle"
)

// refAuditor is the auditor the index-keyed table replaced, kept as the
// reference model: per-peer state in a map keyed by identifier, the
// monitor asked by identifier, the recheck hash computed from the two
// identifiers. It sees only the identifier of every address.
type refAuditor struct {
	cfg       Config
	peers     map[ids.NodeID]suspect
	evictions int
}

func (a *refAuditor) Blocked(id ids.NodeID) bool {
	if a.evictions == 0 {
		return false
	}
	s, ok := a.peers[id]
	return ok && s.evicted
}

func (a *refAuditor) Suspicion(id ids.NodeID) float64 { return a.peers[id].score }

func (a *refAuditor) ObserveInbound(from ids.NodeID, msg any) bool {
	if from.IsNil() || from == a.cfg.Self {
		return true
	}
	if a.Blocked(from) {
		return false
	}
	switch m := msg.(type) {
	case ops.AnycastMsg:
		a.observeOp(from, m.SenderAvail)
	case ops.MulticastMsg:
		if m.Spec.HalfOpen {
			a.observeClaim(from, m.SenderAvail)
		} else {
			a.observeOp(from, m.SenderAvail)
		}
	case ops.AggMsg:
		a.observeClaim(from, m.SenderAvail)
	case ops.AggReplyMsg:
		a.observeClaim(from, m.SenderAvail)
	case *shuffle.Request:
		a.observeShuffle(from, m.SenderAvail, m.Entries, false)
	case *shuffle.Reply:
		a.observeShuffle(from, m.SenderAvail, m.Entries, true)
	}
	return !a.Blocked(from)
}

func (a *refAuditor) observeOp(from ids.NodeID, claim float64) {
	est, known := a.cfg.Monitor.Availability(from)
	if !known {
		return
	}
	if a.claimLie(claim, est) {
		a.hit(from, a.cfg.Params.HardWeight, "availability-claim")
		return
	}
	match, _ := a.cfg.Predicate.EvalNodes(core.NodeInfo{ID: from, Availability: est},
		a.cfg.SelfInfo(), a.cfg.Params.RecheckCushion, nil)
	if !match {
		a.hit(from, a.cfg.Params.SoftWeight, "predicate-recheck")
		return
	}
	a.clean(from)
}

func (a *refAuditor) observeClaim(from ids.NodeID, claim float64) {
	est, known := a.cfg.Monitor.Availability(from)
	if !known {
		return
	}
	if a.claimLie(claim, est) {
		a.hit(from, a.cfg.Params.HardWeight, "availability-claim")
		return
	}
	a.clean(from)
}

func (a *refAuditor) observeShuffle(from ids.NodeID, claim float64, entries []shuffle.Entry, reply bool) {
	if reply {
		for i := range entries {
			if entries[i].ID == from {
				a.hit(from, a.cfg.Params.HardWeight, "self-advertising-reply")
				return
			}
		}
	}
	a.observeClaim(from, claim)
}

func (a *refAuditor) SuspectAggPartial(from ids.NodeID, reason string) {
	if from.IsNil() || from == a.cfg.Self || a.Blocked(from) {
		return
	}
	a.hit(from, a.cfg.Params.SoftWeight, reason)
}

func (a *refAuditor) claimLie(claim, est float64) bool {
	if claim <= 0 || a.cfg.Clock() < a.cfg.Params.ClaimWarmup {
		return false
	}
	return claim-est > a.cfg.Params.ClaimTolerance
}

func (a *refAuditor) hit(from ids.NodeID, weight float64, reason string) {
	s := a.peers[from]
	if s.evicted {
		return
	}
	s.score += weight
	a.peers[from] = s
	if s.score < a.cfg.Params.EvictThreshold {
		return
	}
	s.evicted = true
	a.peers[from] = s
	a.evictions++
	a.cfg.Trail.record(Eviction{Observer: a.cfg.Self, Suspect: from, At: a.cfg.Clock(), Reason: reason})
}

func (a *refAuditor) clean(from ids.NodeID) {
	s, ok := a.peers[from]
	if !ok || s.evicted || s.score == 0 {
		return
	}
	s.score -= a.cfg.Params.Decay
	if s.score < 0 {
		s.score = 0
	}
	a.peers[from] = s
}

// auditMonitor is an indexed monitor over the schedule's host table plus
// the outsiders; the schedule edits its answers (a negative value = no
// answer).
type auditMonitor struct {
	index map[ids.NodeID]int
	avail []float64
}

func (m *auditMonitor) Availability(id ids.NodeID) (float64, bool) {
	i, ok := m.index[id]
	if !ok {
		return 0, false
	}
	return m.AvailabilityIdx(i)
}

func (m *auditMonitor) AvailabilityIdx(i int) (float64, bool) { return m.avail[i], m.avail[i] >= 0 }

const (
	auditHosts     = 12 // the universe; host 0 is the observer
	auditOutsiders = 3  // known to the monitor, outside the universe
)

// runAuditSchedule replays one byte-coded schedule against the reference
// model and two auditors — one over the host universe (memos verified,
// index-keyed monitor and hash cache), one with no universe at all (every
// peer interned) — and fails on the first step after which the three
// disagree on any verdict, score, blocked bit, eviction count or Trail
// entry. Senders arrive memo'd, memo-less, with another host's memo, and
// with a memo past the end of the universe; some are outside the universe.
func runAuditSchedule(t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	all := make([]ids.NodeID, 0, auditHosts+auditOutsiders)
	mon := &auditMonitor{index: map[ids.NodeID]int{}}
	for i := 0; i < auditHosts+auditOutsiders; i++ {
		id := ids.Synthetic(i)
		if i >= auditHosts {
			id = ids.NodeID(fmt.Sprintf("outsider-%d", i-auditHosts))
		}
		all = append(all, id)
		mon.index[id] = i
		mon.avail = append(mon.avail, float64(10+5*i%80)/100)
	}
	universe := all[:auditHosts]
	pairs, err := ids.NewPairIndexCache(universe, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half of all pairs fail the recheck for good, the other half pass it.
	pred, err := core.NewPredicate(0.1, core.UniformRandom{P: 0.5}, core.UniformRandom{P: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	now := 30 * time.Minute // inside ClaimWarmup: the schedule steps out of it
	base := Config{
		Self:      all[0],
		Params:    Params{EvictThreshold: 1, SoftWeight: 0.3, Decay: 0.1},
		Predicate: pred,
		Monitor:   mon,
		SelfInfo:  func() core.NodeInfo { return core.NodeInfo{ID: all[0], Availability: 0.6} },
		Clock:     func() time.Duration { return now },
	}
	base.Params.applyDefaults()
	model := &refAuditor{cfg: base, peers: map[ids.NodeID]suspect{}}
	model.cfg.Trail = NewTrail()
	build := func(cfg Config) *Auditor {
		cfg.Trail = NewTrail()
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	indexed := base
	indexed.PairIdx, indexed.SelfIdx, indexed.MonitorIdx = pairs, 0, mon
	indexed.IndexOf = func(id ids.NodeID) int {
		if i, ok := mon.index[id]; ok && i < auditHosts {
			return i
		}
		return -1
	}
	impls := map[string]*Auditor{"universe": build(indexed), "interned": build(base)}

	for step := 0; pos < len(data); step++ {
		op := next()
		who := next() % len(all)
		id := all[who]
		// The four ways an address can arrive.
		addr := id.Addr()
		switch form := next() % 4; {
		case form == 1 && who < auditHosts:
			addr = ids.AddrAt(id, int32(who))
		case form == 2:
			addr = ids.AddrAt(id, int32((who+1+next()%5)%auditHosts)) // another host's memo
		case form == 3:
			addr = ids.AddrAt(id, int32(auditHosts+next()))
		}
		est := mon.avail[who]
		claim := []float64{0, est, est + 0.1, 0.99}[next()%4]
		var want bool
		var got = map[string]bool{}
		switch op % 12 {
		case 0, 1:
			msg := ops.AnycastMsg{SenderAvail: claim}
			want = model.ObserveInbound(id, msg)
			for name, a := range impls {
				got[name] = a.ObserveInbound(addr, msg)
			}
		case 2:
			msg := ops.MulticastMsg{SenderAvail: claim}
			want = model.ObserveInbound(id, msg)
			for name, a := range impls {
				got[name] = a.ObserveInbound(addr, msg)
			}
		case 3, 4:
			var msg any = ops.AggReplyMsg{SenderAvail: claim}
			if op&16 != 0 {
				msg = ops.MulticastMsg{SenderAvail: claim, Spec: ops.MulticastSpec{HalfOpen: true}}
			}
			want = model.ObserveInbound(id, msg)
			for name, a := range impls {
				got[name] = a.ObserveInbound(addr, msg)
			}
		case 5, 6: // a tapped shuffle exchange, sometimes self-advertising
			entries := []shuffle.Entry{{ID: all[(who+1)%len(all)]}}
			if op&16 != 0 {
				entries = append(entries, shuffle.Entry{ID: id})
			}
			var msg any = &shuffle.Request{SenderAvail: claim, Entries: entries}
			if op&32 != 0 {
				msg = &shuffle.Reply{SenderAvail: claim, Entries: entries}
			}
			want = model.ObserveInbound(id, msg)
			for name, a := range impls {
				got[name] = a.ObserveInbound(addr, msg)
			}
		case 7, 8:
			reason := ops.AggRejectReasons[op/16%len(ops.AggRejectReasons)]
			model.SuspectAggPartial(id, reason)
			for _, a := range impls {
				a.SuspectAggPartial(addr, reason)
			}
		case 9: // the monitor changes its mind, or loses track of the peer
			if op&16 != 0 {
				mon.avail[who] = -1
			} else {
				mon.avail[who] = float64(next()%100) / 100
			}
		case 10:
			now += time.Duration(1+next()%40) * time.Minute
		case 11: // a message of no known type, from the observer itself, from nobody
			want = model.ObserveInbound(id, "junk") && model.ObserveInbound(all[0], ops.AnycastMsg{}) && model.ObserveInbound(ids.Nil, ops.AnycastMsg{})
			for name, a := range impls {
				got[name] = a.ObserveInbound(addr, "junk") && a.ObserveInbound(ids.AddrAt(all[0], 0), ops.AnycastMsg{}) &&
					a.ObserveInbound(ids.Addr{}, ops.AnycastMsg{})
			}
		}
		for name, a := range impls {
			if v, ok := got[name]; ok && v != want {
				t.Fatalf("step %d (%s): verdict on %s (memo %d) = %v, the model says %v", step, name, id, addr.Index(), v, want)
			}
			if a.Evictions() != model.evictions {
				t.Fatalf("step %d (%s): %d evictions, the model has %d", step, name, a.Evictions(), model.evictions)
			}
			for i, peer := range all {
				// Ask the way the router and the membership do: with the
				// memo a neighbor entry carries, when there is one.
				ask := peer.Addr()
				if i < auditHosts && (step+i)%2 == 0 {
					ask = ids.AddrAt(peer, int32(i))
				}
				if a.Blocked(ask) != model.Blocked(peer) || a.Suspicion(peer) != model.Suspicion(peer) {
					t.Fatalf("step %d (%s): %s blocked %v score %v, the model says %v / %v", step, name, peer,
						a.Blocked(ask), a.Suspicion(peer), model.Blocked(peer), model.Suspicion(peer))
				}
			}
			if !reflect.DeepEqual(a.cfg.Trail.Evictions(), model.cfg.Trail.Evictions()) {
				t.Fatalf("step %d (%s): trail %v, the model's %v", step, name, a.cfg.Trail.Evictions(), model.cfg.Trail.Evictions())
			}
		}
	}
	// One record per peer whatever path reported it: the universe auditor
	// interned at most the outsiders, the other one everybody it heard.
	if n := len(impls["universe"].interned); n > auditOutsiders {
		t.Fatalf("the universe auditor interned %d peers, there are %d outsiders", n, auditOutsiders)
	}
}

// TestAuditorMatchesStringKeyedModel replays random schedules.
func TestAuditorMatchesStringKeyedModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		runAuditSchedule(t, data)
	}
}

// FuzzAuditSchedule searches for a schedule on which the index-keyed
// auditor and the string-keyed model part ways.
func FuzzAuditSchedule(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		runAuditSchedule(t, data)
	})
}
