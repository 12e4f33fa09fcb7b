package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmem/internal/avdist"
	"avmem/internal/ids"
)

// TestIdxSetMatchesMapOracle drives the index set through random puts,
// retags, deletes and owner-side rebuilds against a plain map. Neighbor
// tags are exact at all times; rejection tags are advisory — a rebuild
// may forget them, but the set must never invent one.
func TestIdxSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s idxSet
	oracle := map[int32]uint32{}
	neighbors := func() (n int) {
		for _, tag := range oracle {
			if tag == idxNeighbor {
				n++
			}
		}
		return n
	}
	// rebuild is what Membership does on a full table or a regime change:
	// reset, then re-put exactly the neighbors.
	rebuild := func() {
		s.reset(neighbors())
		for k, tag := range oracle {
			if tag == idxNeighbor {
				if !s.put(k, idxNeighbor) {
					t.Fatal("put failed right after reset")
				}
			} else {
				delete(oracle, k)
			}
		}
	}
	const universe = 3000
	rebuilds, tombReuse := 0, 0
	for step := 0; step < 200000; step++ {
		k := int32(rng.Intn(universe))
		switch op := rng.Intn(10); {
		case op < 5:
			tag := idxRejected
			if rng.Intn(4) == 0 {
				tag = idxNeighbor
			}
			used := s.used
			if !s.put(k, tag) {
				rebuild()
				rebuilds++
				if !s.put(k, tag) {
					t.Fatalf("step %d: put(%d) failed after a rebuild", step, k)
				}
			} else if _, had := oracle[k]; !had && s.used == used && len(oracle) > 0 {
				tombReuse++
			}
			oracle[k] = tag
		case op < 8:
			s.del(k)
			delete(oracle, k)
		case op == 8 && rng.Intn(200) == 0:
			rebuild() // regime change
		}
		got, want := s.find(k), idxAbsent
		if tag, ok := oracle[k]; ok {
			want = tag
		}
		if got != want {
			t.Fatalf("step %d: find(%d) = %d, oracle says %d", step, k, got, want)
		}
		if s.neighbors != neighbors() {
			t.Fatalf("step %d: set counts %d neighbors, oracle %d", step, s.neighbors, neighbors())
		}
		if s.used*4 >= len(s.slots)*3 && len(s.slots) > 0 {
			t.Fatalf("step %d: load %d/%d reached 3/4", step, s.used, len(s.slots))
		}
	}
	for k := int32(0); k < universe; k++ {
		want := idxAbsent
		if tag, ok := oracle[k]; ok {
			want = tag
		}
		if got := s.find(k); got != want {
			t.Fatalf("final sweep: find(%d) = %d, oracle says %d", k, got, want)
		}
	}
	if rebuilds == 0 || tombReuse == 0 || len(s.slots) <= idxMinSlots {
		t.Fatalf("schedule too tame: %d rebuilds, %d tombstone reuses, %d slots", rebuilds, tombReuse, len(s.slots))
	}
}

// indexedPair is one node seen through two memberships over the same
// monitor and predicate: one wired like exp.World (index universe,
// indexed monitor, epoch-stable rejection cache), one identifier-only.
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
	idxs := make([]int32, len(p.hosts))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	admitted = p.byIdx.DiscoverIdx(p.hosts, idxs)
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
		Blocked:   func(id ids.NodeID) bool { return p.blocked[id] },
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

// TestDiscoverIdxMatchesDiscover: the indexed path — index set, carried
// rejections, memoized self threshold, stored pair hashes — must admit,
// keep, reclassify and evict exactly what the identifier path does,
// through availability drift, epoch rolls, monitor instability, unknown
// and blocked peers, and candidates that arrive without an index.
func TestDiscoverIdxMatchesDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 400
	p := newIndexedPair(t, n, paperLike(t, 500), rng)
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
			cands := make([]ids.NodeID, 20)
			idxs := make([]int32, len(cands))
			for i := range cands {
				h := rng.Intn(n)
				cands[i], idxs[i] = p.hosts[h], int32(h)
				switch rng.Intn(12) {
				case 0:
					idxs[i] = -1 // arrives unresolved
				case 1:
					cands[i], idxs[i] = ids.Synthetic(9000+h), -1 // outside the universe
				case 2:
					cands[i] = ids.Nil
				}
			}
			a, b := p.byIdx.DiscoverIdx(cands, idxs), p.byID.Discover(cands)
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
			return a.ID == b.ID && a.Availability == b.Availability && a.Sliver == b.Sliver && a.FetchedAt == b.FetchedAt
		}
		for _, f := range []Flavor{HSOnly, VSOnly, HSVS} {
			if !slices.EqualFunc(p.byIdx.Neighbors(f), p.byID.Neighbors(f), same) {
				t.Fatalf("step %d: %v lists diverge\n indexed:    %v\n identifier: %v",
					step, f, p.byIdx.Neighbors(f), p.byID.Neighbors(f))
			}
		}
	}
	if admitted < 100 || evicted < 20 || p.byIdx.SliverSize(SliverHorizontal) == 0 || p.byIdx.SliverSize(SliverVertical) == 0 {
		t.Fatalf("schedule too tame: %d admitted, %d evicted, HS=%d VS=%d", admitted, evicted,
			p.byIdx.SliverSize(SliverHorizontal), p.byIdx.SliverSize(SliverVertical))
	}
}

// TestDiscoverIdxSteadyStateDoesNotAllocate: once every candidate is a
// neighbor or rejected for the epoch, a discovery round is index-set
// probes only.
func TestDiscoverIdxSteadyStateDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := newIndexedPair(t, 300, paperLike(t, 500), rng)
	cands := make([]ids.NodeID, 45)
	idxs := make([]int32, len(cands))
	for i, h := range rng.Perm(299)[:len(cands)] {
		cands[i], idxs[i] = p.hosts[h+1], int32(h+1)
	}
	p.byIdx.DiscoverIdx(cands, idxs)
	if avg := testing.AllocsPerRun(500, func() { p.byIdx.DiscoverIdx(cands, idxs) }); avg != 0 {
		t.Errorf("steady-state DiscoverIdx allocates %.2f objects per round, want 0", avg)
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
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	check := func(stage string, m *Membership) {
		t.Helper()
		seen := 0
		for _, f := range []Flavor{HSOnly, VSOnly, HSVS} {
			for _, nb := range m.Neighbors(f) {
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
