package shuffle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avmem/internal/ids"
)

// diffHarness drives an index-resolved Cyclon and an identifier-only
// Cyclon through the same schedule from the same seeds. Everything the
// index changes — view lookup, liveness, merge's duplicate and
// registration checks — is an addressing choice, so the two must expose
// identical views after every step.
type diffHarness struct {
	t *testing.T
	// universe is what indexOf resolves; outside holds identifiers it
	// answers -1 for (they may still Join). The last few universe ids
	// never join: they are the in-universe strays.
	universe, outside []ids.NodeID
	index             map[ids.NodeID]int
	up                []bool // shared liveness, by universe index
	idx, byID         *Cyclon
	joined            map[ids.NodeID]bool
}

const (
	diffUniverse = 36
	diffJoiners  = 30 // universe[diffJoiners:] never join
	diffOutside  = 4
)

func newDiffHarness(t *testing.T, seed int64, useIndexFirst bool) *diffHarness {
	t.Helper()
	h := &diffHarness{t: t, index: map[ids.NodeID]int{}, joined: map[ids.NodeID]bool{}}
	for i := 0; i < diffUniverse; i++ {
		id := ids.Synthetic(i)
		h.universe = append(h.universe, id)
		h.index[id] = i
		h.up = append(h.up, true)
	}
	for i := 0; i < diffOutside; i++ {
		h.outside = append(h.outside, ids.Synthetic(5000+i))
	}
	indexOf := func(id ids.NodeID) int {
		if i, ok := h.index[id]; ok {
			return i
		}
		return -1
	}
	// The index treats unknown identifiers as offline; the identifier
	// side must say the same for the comparison to be fair.
	online := func(id ids.NodeID) bool { i := indexOf(id); return i >= 0 && h.up[i] }
	mk := func() *Cyclon {
		c, err := NewCyclon(7, 4, online, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	h.idx, h.byID = mk(), mk()
	use := func() { h.idx.UseIndex(indexOf, func(i int) bool { return h.up[i] }) }
	if useIndexFirst {
		use()
	}
	for i := 0; i < diffJoiners/2; i++ {
		h.join(h.universe[i], []ids.NodeID{h.universe[(i+1)%diffJoiners], h.universe[(i+7)%diffJoiners]})
	}
	if !useIndexFirst {
		use() // views and their entries predate the index: lazily resolved
	}
	h.idx.SetTap(diffTap(seed, h))
	h.byID.SetTap(diffTap(seed, h))
	return h
}

// diffTap builds an exchange interceptor that rewrites, drops and
// refuses deterministically from its own stream; each Cyclon gets its
// own copy, and identical exchanges draw identically from both.
func diffTap(seed int64, h *diffHarness) *Tap {
	rng := rand.New(rand.NewSource(seed ^ 0x7a9))
	return &Tap{
		Outbound: func(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
			switch rng.Intn(8) {
			case 0:
				return nil, 0, true
			case 1, 2:
				// Fresh entries only: a rewritten offer carries no index memo.
				out := make([]Entry, 0, len(entries)+5)
				for _, e := range entries {
					out = append(out, Entry{ID: e.ID, Age: e.Age})
				}
				out = append(out,
					Entry{ID: h.universe[diffJoiners+rng.Intn(diffUniverse-diffJoiners)]}, // never-joined stray
					Entry{ID: ids.Nil, Age: 3},
					Entry{ID: h.outside[rng.Intn(diffOutside)], Age: rng.Intn(4)},
					Entry{ID: h.universe[rng.Intn(diffJoiners)], Age: rng.Intn(9) - 2},
					Entry{ID: owner},
				)
				if len(entries) > 0 {
					out = append(out, entries[0]) // a duplicate, memo and all
				}
				return out, 0.5, false
			}
			return entries, 0, false
		},
		Inbound: func(receiver, sender ids.NodeID, reply bool, entries []Entry, claim float64) bool {
			return rng.Intn(10) != 0
		},
		Refuse: func(owner ids.NodeID) bool { return rng.Intn(12) == 0 },
	}
}

func (h *diffHarness) join(id ids.NodeID, seeds []ids.NodeID) {
	h.idx.Join(id, seeds)
	h.byID.Join(id, seeds)
	h.joined[id] = true
}

// anyID draws from everything a schedule may name: joiners, strays,
// identifiers outside the universe, and the nil identifier.
func (h *diffHarness) anyID(rng *rand.Rand) ids.NodeID {
	switch n := rng.Intn(diffUniverse + diffOutside + 1); {
	case n < diffUniverse:
		return h.universe[n]
	case n < diffUniverse+diffOutside:
		return h.outside[n-diffUniverse]
	}
	return ids.Nil
}

// step applies one random operation to both services.
func (h *diffHarness) step(rng *rand.Rand) {
	switch op := rng.Intn(20); {
	case op == 0: // join or re-seed, possibly an identifier outside the universe
		id := h.universe[rng.Intn(diffJoiners)]
		if rng.Intn(6) == 0 {
			id = h.outside[rng.Intn(diffOutside)]
		}
		seeds := make([]ids.NodeID, rng.Intn(5))
		for i := range seeds {
			seeds[i] = h.anyID(rng)
		}
		h.join(id, seeds)
	case op == 1: // permanent departure
		id := h.universe[rng.Intn(diffJoiners)]
		h.idx.Leave(id)
		h.byID.Leave(id)
		delete(h.joined, id)
	case op == 2: // churn
		i := rng.Intn(diffUniverse)
		h.up[i] = !h.up[i]
	default:
		id := h.anyID(rng)
		if i, ok := h.index[id]; ok && rng.Intn(2) == 0 {
			h.idx.TickIdx(i)
		} else {
			h.idx.Tick(id)
		}
		h.byID.Tick(id)
	}
}

// check compares every view, registered or not.
func (h *diffHarness) check(step int) {
	h.t.Helper()
	for _, id := range append(append([]ids.NodeID(nil), h.universe...), h.outside...) {
		a, b := h.idx.View(id), h.byID.View(id)
		if !slices.Equal(a, b) {
			h.t.Fatalf("step %d: views of %s diverge\n indexed:    %v\n identifier: %v", step, id, a, b)
		}
	}
	if a, b := h.idx.Nodes(), h.byID.Nodes(); !slices.Equal(a, b) {
		h.t.Fatalf("step %d: registered sets diverge: %v vs %v", step, a, b)
	}
}

// TestIndexedCyclonMatchesIdentifierCyclon is the differential test of
// the index-dense maintenance path.
func TestIndexedCyclonMatchesIdentifierCyclon(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		h := newDiffHarness(t, seed, seed%2 == 0)
		h.check(-1)
		rng := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 3000; step++ {
			h.step(rng)
			h.check(step)
		}
		if len(h.joined) == 0 {
			t.Fatalf("seed %d: schedule left nobody registered", seed)
		}
	}
}

// refMerge is the specification merge is checked against: the plain
// quadratic fold — identifier scan for duplicates, oldestIndex over the
// entries for the victim (first position among the greatest ages).
func refMerge(self ids.NodeID, capacity int, entries, received []Entry, registered func(ids.NodeID) bool, seeding bool) []Entry {
	for _, e := range received {
		if e.ID.IsNil() || e.ID == self || slices.ContainsFunc(entries, func(have Entry) bool { return have.ID == e.ID }) {
			continue
		}
		if !seeding && !registered(e.ID) {
			continue
		}
		if len(entries) < capacity {
			entries = append(entries, e)
		} else if o := oldestIndex(entries); seeding || entries[o].Age >= e.Age {
			entries[o] = e
		}
	}
	return entries
}

// TestMergeMatchesReference: same survivors, same victims, same
// tie-break as the reference fold, on views dense with equal ages, for
// exchange merges and Join seeding, with and without the index.
func TestMergeMatchesReference(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		h := newDiffHarness(t, 4, true)
		c := h.byID
		if indexed {
			c = h.idx
		}
		c.SetTap(nil)
		rng := rand.New(rand.NewSource(17))
		registered := func(id ids.NodeID) bool { return c.views[id] != nil }
		for trial := 0; trial < 4000; trial++ {
			v := c.views[h.universe[rng.Intn(diffJoiners/2)]]
			v.entries = v.entries[:0]
			for _, p := range rng.Perm(diffUniverse)[:rng.Intn(v.cap+1)] {
				if h.universe[p] != v.self {
					v.entries = append(v.entries, Entry{ID: h.universe[p], Age: rng.Intn(4) - 1})
				}
			}
			received := make([]Entry, rng.Intn(9))
			for i := range received {
				received[i] = Entry{ID: h.anyID(rng), Age: rng.Intn(5) - 1}
			}
			seeding := rng.Intn(4) == 0
			want := refMerge(v.self, v.cap, slices.Clone(v.entries), received, registered, seeding)
			c.merge(v, received, seeding)
			same := slices.EqualFunc(v.entries, want, func(a, b Entry) bool { return a.ID == b.ID && a.Age == b.Age })
			if !same {
				t.Fatalf("indexed=%v trial %d (seeding=%v): merge left %v, reference %v", indexed, trial, seeding, v.entries, want)
			}
		}
	}
}

// TestStampGenerationWrap: when the merge generation overflows, stale
// stamps must not read as current. Each round poisons the table with the
// first post-wrap generation and parks the counter on the brink, so a
// wrap that skipped the clear would take every received entry of the
// next merge for a duplicate and the two services would part ways.
func TestStampGenerationWrap(t *testing.T) {
	h := newDiffHarness(t, 9, true)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 200; step++ { // size the stamp table
		h.step(rng)
	}
	wraps := 0
	for round := 0; round < 200; round++ {
		for i := range h.idx.stamp {
			h.idx.stamp[i] = 1
		}
		h.idx.gen = math.MaxUint32
		for step := 0; step < 10; step++ {
			h.step(rng)
			h.check(round*10 + step)
		}
		if h.idx.gen < math.MaxUint32 {
			wraps++
		}
	}
	if wraps < 100 {
		t.Fatalf("only %d of 200 rounds wrapped the generation", wraps)
	}
}

// TestTickIdxDoesNotAllocate pins the steady-state tick at zero
// allocations: stamp table, age mirror and exchange buffers are all
// reused scratch.
func TestTickIdxDoesNotAllocate(t *testing.T) {
	const n = 300
	c, err := NewCyclon(17, 4, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]ids.NodeID, n)
	index := make(map[ids.NodeID]int, n)
	for i := range nodes {
		nodes[i] = ids.Synthetic(i)
		index[nodes[i]] = i
	}
	c.UseIndex(func(id ids.NodeID) int {
		if i, ok := index[id]; ok {
			return i
		}
		return -1
	}, func(i int) bool { return i%5 != 0 })
	for i, id := range nodes {
		c.Join(id, []ids.NodeID{nodes[(i+1)%n], nodes[(i+2)%n], nodes[(i+3)%n]})
	}
	for round := 0; round < 40; round++ {
		for i := range nodes {
			c.TickIdx(i)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() { c.TickIdx(i % n); i++ }); avg != 0 {
		t.Errorf("TickIdx allocates %.2f objects per call in steady state, want 0", avg)
	}
}
