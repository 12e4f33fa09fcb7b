package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmem/internal/avdist"
	"avmem/internal/ids"
)

// TestIdxSetMatchesMapOracle drives the neighbor index set through
// random adds, re-adds and owner-side rebuilds (reset, then re-add the
// survivors — what Refresh does after an eviction) against a plain map:
// membership is exact at all times, the table stays under half load and
// grows from its 128-slot floor only when the neighbors need it.
func TestIdxSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s idxSet
	oracle := map[int32]bool{}
	const universe = 3000
	rebuilds, grown := 0, 0
	for step := 0; step < 200000; step++ {
		k := int32(rng.Intn(universe))
		switch op := rng.Intn(10); {
		case op < 3:
			slots := len(s.slots)
			s.add(k)
			oracle[k] = true
			if len(s.slots) != slots && slots != 0 {
				grown++
			}
		case op == 3 && rng.Intn(50) == 0:
			// Refresh evicted some neighbors: rebuild from the survivors.
			s.reset()
			for have := range oracle {
				if rng.Intn(3) == 0 {
					delete(oracle, have)
				} else {
					s.add(have)
				}
			}
			rebuilds++
		}
		if got := s.has(k); got != oracle[k] {
			t.Fatalf("step %d: has(%d) = %v, oracle says %v", step, k, got, oracle[k])
		}
		if s.n != len(oracle) {
			t.Fatalf("step %d: set counts %d keys, oracle %d", step, s.n, len(oracle))
		}
		if s.n*2 > len(s.slots) {
			t.Fatalf("step %d: load %d/%d passed 1/2", step, s.n, len(s.slots))
		}
	}
	for k := int32(0); k < universe; k++ {
		if got := s.has(k); got != oracle[k] {
			t.Fatalf("final sweep: has(%d) = %v, oracle says %v", k, got, oracle[k])
		}
	}
	if rebuilds == 0 || grown == 0 {
		t.Fatalf("schedule too tame: %d rebuilds, %d growths, %d slots", rebuilds, grown, len(s.slots))
	}
	var small idxSet
	for k := int32(0); k < idxMinSlots/2; k++ {
		small.add(k * 37)
	}
	if len(small.slots) != idxMinSlots {
		t.Fatalf("%d keys took %d slots, want the %d-slot floor", small.n, len(small.slots), idxMinSlots)
	}
}

// indexedPair is one node seen through two memberships over the same
// monitor and predicate: one wired like exp.Deployment's sim engine
// (index universe, indexed monitor, epoch-stable slot memos), one
// identifier-only.
type indexedPair struct {
	hosts       []ids.NodeID
	avail       []float64
	known       []bool
	blocked     map[ids.NodeID]bool
	epoch       int
	stable      bool
	now         time.Duration
	byIdx, byID *Membership
}

func (p *indexedPair) Availability(id ids.NodeID) (float64, bool) {
	for i, h := range p.hosts {
		if h == id {
			return p.AvailabilityIdx(i)
		}
	}
	return 0, false
}

func (p *indexedPair) AvailabilityIdx(h int) (float64, bool) {
	if h < 0 || h >= len(p.hosts) || !p.known[h] {
		return 0, false
	}
	return p.avail[h], true
}

// audit runs a full-universe discovery round on both memberships and
// then holds the indexed one to the predicate's own definition: its
// neighbors are exactly the known, unblocked hosts y with M(self, y) = 1
// under Predicate.Eval at the current self claim, classified as Eval
// classifies them. (It runs right after Refresh, so every cached
// availability is current.)
func (p *indexedPair) audit(t *testing.T, step int) (admitted int) {
	t.Helper()
	admitted = p.byIdx.DiscoverView(p.allIdx(), make([]uint64, len(p.hosts)), nil)
	p.byID.Discover(p.hosts)
	m := p.byIdx
	pred, selfAv := m.Predicate(), m.SelfInfo().Availability
	for h, y := range p.hosts[1:] {
		nb, isNb := m.Lookup(y)
		match, kind := false, SliverNone
		if av, ok := p.AvailabilityIdx(h + 1); ok && !p.blocked[y] {
			match, kind = pred.Eval(ids.PairHash(m.Self(), y), selfAv, av, 0)
		}
		if match != isNb || (isNb && nb.Sliver != kind) {
			t.Fatalf("step %d: %s neighbor=%v (%v), Predicate.Eval says %v (%v)", step, y, isNb, nb.Sliver, match, kind)
		}
	}
	return admitted
}

// allIdx returns every host index, parallel to hosts: the whole universe
// as one view.
func (p *indexedPair) allIdx() []int32 {
	idxs := make([]int32, len(p.hosts))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs
}

func newIndexedPair(t testing.TB, n int, pred *Predicate, rng *rand.Rand) *indexedPair {
	t.Helper()
	p := &indexedPair{blocked: map[ids.NodeID]bool{}, stable: true}
	for i := 0; i < n; i++ {
		p.hosts = append(p.hosts, ids.Synthetic(i))
		p.avail = append(p.avail, rng.Float64())
		p.known = append(p.known, true)
	}
	pairs, err := ids.NewPairIndexCache(p.hosts, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Predicate: pred,
		Monitor:   p,
		Clock:     func() time.Duration { return p.now },
		Blocked:   func(a ids.Addr) bool { return p.blocked[a.ID()] },
	}
	if p.byID, err = NewMembership(p.hosts[0], cfg); err != nil {
		t.Fatal(err)
	}
	cfg.PairIdx, cfg.SelfIdx, cfg.MonitorIdx = pairs, 0, p
	cfg.MonitorEpoch = func() (int, bool) { return p.epoch, p.stable }
	if p.byIdx, err = NewMembership(p.hosts[0], cfg); err != nil {
		t.Fatal(err)
	}
	return p
}

// paperLike is the deployment's predicate shape: II.B behind its memo
// (which arms the per-membership horizontal threshold memo) plus I.B,
// at a stable size where both thresholds sit well inside (0,1) and the
// horizontal one moves with av(x).
func paperLike(t testing.TB, nStar float64) *Predicate {
	t.Helper()
	pdf := avdist.Overnet(0)
	hs, err := NewCachedByX(LogConstantHorizontal{C2: 3, NStar: nStar, Epsilon: 0.1, PDF: pdf})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredicate(0.1, hs, LogVertical{C1: 3, NStar: nStar, PDF: pdf})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// TestDiscoverIdxMatchesDiscover: the indexed path — index set, slot
// memos and delta passes, memoized self threshold, stored pair hashes —
// must admit, keep, reclassify and evict exactly what the identifier
// path does, through availability drift, epoch rolls, monitor
// instability, unknown and blocked peers, and slots whose occupant
// arrives without an index. The indexed side keeps one coarse view whose
// slots turn over a few at a time, as a shuffle's do, and discovers over
// it in place; the identifier side is handed the same view's
// identifiers.
func TestDiscoverIdxMatchesDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, slots = 400, 20
	p := newIndexedPair(t, n, paperLike(t, 500), rng)
	var (
		codes  []int32
		memo   []uint64
		cands  []ids.NodeID // parallel to codes: what the identifier side sees
		strays []ids.NodeID
	)
	fresh := func() (int32, ids.NodeID) {
		h := rng.Intn(n)
		code, id := int32(h), p.hosts[h]
		switch rng.Intn(12) {
		case 0: // arrives unresolved
			code = ^int32(len(strays))
			strays = append(strays, id)
		case 1: // outside the universe
			id = ids.Synthetic(9000 + h)
			code = ^int32(len(strays))
			strays = append(strays, id)
		case 2:
			id = ids.Nil
			code = ^int32(len(strays))
			strays = append(strays, id)
		}
		return code, id
	}
	admitted, evicted := 0, 0
	for step := 0; step < 6000; step++ {
		p.now += time.Minute
		switch op := rng.Intn(40); {
		case op == 0: // epoch roll: availabilities drift, self included
			p.epoch++
			for i := range p.avail {
				if rng.Intn(3) == 0 {
					p.avail[i] = min(1, max(0, p.avail[i]+(rng.Float64()-0.5)*0.2))
				}
			}
		case op == 1:
			p.stable = !p.stable
		case op == 2:
			h := 1 + rng.Intn(n-1)
			p.known[h] = !p.known[h]
		case op == 3:
			id := p.hosts[1+rng.Intn(n-1)]
			p.blocked[id] = !p.blocked[id]
		case op < 8:
			a, b := p.byIdx.Refresh(), p.byID.Refresh()
			if a != b {
				t.Fatalf("step %d: Refresh evicted %d indexed, %d by identifier", step, a, b)
			}
			evicted += a
			admitted += p.audit(t, step)
		default:
			for turn := 6; turn > 0; turn-- { // a third of the view turns over
				code, id := fresh()
				if len(codes) < slots {
					codes, memo, cands = append(codes, code), append(memo, 0), append(cands, id)
				} else {
					k := rng.Intn(slots)
					codes[k], memo[k], cands[k] = code, 0, id
				}
			}
			a, b := p.byIdx.DiscoverView(codes, memo, strays), p.byID.Discover(cands)
			if a != b {
				t.Fatalf("step %d: admitted %d indexed, %d by identifier", step, a, b)
			}
			admitted += a
		}
		// The outbound availability claim asks the monitor about self by
		// index on one side, by identifier on the other.
		if a, b := p.byIdx.SelfClaim(), p.byID.SelfClaim(); a != b {
			t.Fatalf("step %d: self claim %v indexed, %v by identifier", step, a, b)
		}
		same := func(a, b Neighbor) bool {
			return a.ID == b.ID && a.Availability == b.Availability && a.Sliver == b.Sliver
		}
		for _, f := range []Flavor{HSOnly, VSOnly, HSVS} {
			if !slices.EqualFunc(p.byIdx.CopyNeighbors(f), p.byID.CopyNeighbors(f), same) {
				t.Fatalf("step %d: %v lists diverge\n indexed:    %v\n identifier: %v",
					step, f, p.byIdx.CopyNeighbors(f), p.byID.CopyNeighbors(f))
			}
		}
	}
	s := p.byIdx.DiscoveryStats()
	if admitted < 100 || evicted < 20 || s.Skipped < 1000 || s.Hashes >= s.Evaluated ||
		p.byIdx.SliverSize(SliverHorizontal) == 0 || p.byIdx.SliverSize(SliverVertical) == 0 {
		t.Fatalf("schedule too tame: %d admitted, %d evicted, HS=%d VS=%d, %+v", admitted, evicted,
			p.byIdx.SliverSize(SliverHorizontal), p.byIdx.SliverSize(SliverVertical), s)
	}
}

// TestDiscoverIdxSteadyStateDoesNotAllocate: a discovery pass over a
// view allocates nothing once its neighbors are in — not the delta pass
// that skips every judged slot, and not the full pass after an epoch
// roll, which re-judges them all from the hashes their words hold.
func TestDiscoverIdxSteadyStateDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := newIndexedPair(t, 300, paperLike(t, 500), rng)
	codes := make([]int32, 45)
	memo := make([]uint64, len(codes))
	for i, h := range rng.Perm(299)[:len(codes)] {
		codes[i] = int32(h + 1)
	}
	p.byIdx.DiscoverView(codes, memo, nil)
	before := p.byIdx.DiscoveryStats()
	if avg := testing.AllocsPerRun(500, func() { p.byIdx.DiscoverView(codes, memo, nil) }); avg != 0 {
		t.Errorf("steady-state delta pass allocates %.2f objects per round, want 0", avg)
	}
	if s := p.byIdx.DiscoveryStats(); s.FullPasses != before.FullPasses || s.Hashes != before.Hashes {
		t.Errorf("steady-state passes were not delta passes: %+v after %+v", s, before)
	}
	if avg := testing.AllocsPerRun(500, func() { p.epoch++; p.byIdx.DiscoverView(codes, memo, nil) }); avg != 0 {
		t.Errorf("full pass over judged slots allocates %.2f objects per round, want 0", avg)
	}
	if s := p.byIdx.DiscoveryStats(); s.FullPasses < before.FullPasses+500 || s.Hashes != before.Hashes {
		t.Errorf("epoch rolls did not force hash-free full passes: %+v after %+v", s, before)
	}
}

// TestConfigStatsIsShared: memberships handed one Config.Stats count into
// it and nowhere else — what lets a deployment publish discovery totals
// by reading one struct — and a membership handed none keeps its own.
func TestConfigStatsIsShared(t *testing.T) {
	p := newIndexedPair(t, 100, paperLike(t, 500), rand.New(rand.NewSource(5)))
	var shared DiscoveryStats
	cfg := p.byIdx.cfg
	cfg.Stats = &shared
	var sharing [2]*Membership
	for h := range sharing {
		cfg.SelfIdx = int32(h)
		m, err := NewMembership(p.hosts[h], cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.DiscoverView(p.allIdx(), make([]uint64, len(p.hosts)), nil)
		sharing[h] = m
	}
	p.byIdx.DiscoverView(p.allIdx(), make([]uint64, len(p.hosts)), nil)
	own := p.byIdx.DiscoveryStats()
	if own.Passes != 1 || shared.Passes != 2 || shared.Offered != 2*own.Offered || shared.Hashes <= own.Hashes ||
		sharing[0].DiscoveryStats() != shared || sharing[1].DiscoveryStats() != shared {
		t.Fatalf("two sharing memberships counted %+v, a third on its own %+v", shared, own)
	}
}

// TestNeighborHashMatchesPairHash: dissemination orders sliver lists by
// Neighbor.PairHash, so every admit path must store H(self, y) — the
// identifier path, the indexed path, and re-admission after Refresh
// evicted a neighbor — and Refresh must carry it through.
func TestNeighborHashMatchesPairHash(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 300
	p := newIndexedPair(t, n, paperLike(t, 400), rng)
	idxs := p.allIdx()
	check := func(stage string, m *Membership) {
		t.Helper()
		seen := 0
		for _, f := range []Flavor{HSOnly, VSOnly, HSVS} {
			for _, nb := range m.CopyNeighbors(f) {
				seen++
				if got, want := nb.PairHash(), ids.PairHash(m.Self(), nb.ID); got != want {
					t.Fatalf("%s: %v neighbor %s carries hash %v, want H(self, y) = %v", stage, f, nb.ID, got, want)
				}
			}
		}
		if seen == 0 {
			t.Fatalf("%s: no neighbors to check", stage)
		}
	}
	p.byID.Discover(p.hosts)
	check("Discover", p.byID)
	p.byIdx.DiscoverIdx(p.hosts, idxs)
	check("DiscoverIdx", p.byIdx)

	// Evict a third of the neighbors (unknown to the monitor), refresh,
	// then let them come back through discovery.
	before := p.byIdx.Size()
	for i, nb := range p.byIdx.CopyNeighbors(HSVS) {
		if i%3 == 0 {
			p.known[slices.Index(p.hosts, nb.ID)] = false
		}
	}
	p.epoch++
	if a, b := p.byIdx.Refresh(), p.byID.Refresh(); a == 0 || a != b {
		t.Fatalf("Refresh evicted %d indexed, %d by identifier; want the same, nonzero", a, b)
	}
	check("Refresh (indexed)", p.byIdx)
	check("Refresh (identifier)", p.byID)
	for i := range p.known {
		p.known[i] = true
	}
	p.epoch++
	if back := p.byIdx.DiscoverIdx(p.hosts, idxs); back == 0 || p.byIdx.Size() != before {
		t.Fatalf("re-admitted %d, size %d, want back at %d", back, p.byIdx.Size(), before)
	}
	p.byID.Discover(p.hosts)
	check("re-admit (indexed)", p.byIdx)
	check("re-admit (identifier)", p.byID)
}
