package shuffle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avmem/internal/ids"
)

// cyclon is what the differential schedule drives: the packed Cyclon and
// the reference model share it.
type cyclon interface {
	UseIndex(indexOf func(ids.NodeID) int, onlineAt func(i int) bool)
	SetTap(*Tap)
	Join(x ids.NodeID, seeds []ids.NodeID)
	Leave(x ids.NodeID)
	Tick(x ids.NodeID)
	TickIdx(i int)
	View(x ids.NodeID) []ids.NodeID
	Nodes() []ids.NodeID
}

// diffHarness drives three services through the same schedule from the
// same seeds: a packed Cyclon on a host index, a packed Cyclon that only
// ever sees identifiers (every code a stray), and the reference model
// (cyclon_ref_test.go) on the same index. The index is an addressing
// choice and the packed layout a storage choice, so all three must
// expose identical views and registered sets, and be about to draw the
// same random number, after every step.
//
// The harness also plays the view owner's discovery on both packed
// services: after every step it writes fresh serial numbers into a few
// memo words, remembering which occupant each was written for, and checks
// that every non-zero word still sits beside that occupant — the shuffle
// must zero a word when its slot changes hands and move it when the
// occupant moves, through re-seeding, wash-out, tapped and refused
// exchanges, and UseIndex re-coding.
type diffHarness struct {
	t testing.TB
	// universe is what indexOf resolves; outside holds identifiers it
	// answers -1 for (they may still Join). The last few universe ids
	// never join: they are the in-universe strays.
	universe, outside []ids.NodeID
	index             map[ids.NodeID]int
	up                []bool // shared liveness, by universe index
	idx, byID         *Cyclon
	ref               *refCyclon
	all               [3]cyclon     // idx, byID, ref
	rngs              [3]*rand.Rand // the services' own streams, in that order
	joined            map[ids.NodeID]bool
	// words maps every serial written into a memo word to the occupant it
	// was written for; memoRng picks the slots (its own stream, so the
	// writes do not consume schedule choices).
	words   map[uint64]ids.NodeID
	memoRng *rand.Rand
}

const (
	diffUniverse = 36
	diffJoiners  = 30 // universe[diffJoiners:] never join
	diffOutside  = 4
)

func newDiffHarness(t testing.TB, seed int64, useIndexFirst bool) *diffHarness {
	t.Helper()
	h := &diffHarness{t: t, index: map[ids.NodeID]int{}, joined: map[ids.NodeID]bool{},
		words: map[uint64]ids.NodeID{}, memoRng: rand.New(rand.NewSource(seed ^ 0x3e30))}
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
	for i := range h.rngs {
		h.rngs[i] = rand.New(rand.NewSource(seed))
	}
	var err error
	if h.idx, err = NewCyclon(7, 4, online, h.rngs[0]); err != nil {
		t.Fatal(err)
	}
	if h.byID, err = NewCyclon(7, 4, online, h.rngs[1]); err != nil {
		t.Fatal(err)
	}
	if h.ref, err = newRefCyclon(7, 4, online, h.rngs[2]); err != nil {
		t.Fatal(err)
	}
	h.all = [3]cyclon{h.idx, h.byID, h.ref}
	use := func() {
		onlineAt := func(i int) bool { return h.up[i] }
		h.idx.UseIndex(indexOf, onlineAt)
		h.ref.UseIndex(indexOf, onlineAt)
	}
	if useIndexFirst {
		use()
	}
	for i := 0; i < diffJoiners/2; i++ {
		h.join(h.universe[i], []ids.NodeID{h.universe[(i+1)%diffJoiners], h.universe[(i+7)%diffJoiners]})
	}
	if !useIndexFirst {
		h.checkMemo(-2) // words written before the index must survive it
		use()           // views and their entries predate the index: re-coded here
	}
	for _, c := range h.all {
		c.SetTap(diffTap(seed, h))
	}
	return h
}

// diffTap builds an exchange interceptor that rewrites, drops and
// refuses deterministically from its own stream; each service gets its
// own copy, and identical exchanges draw identically from all of them.
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
	for _, c := range h.all {
		c.Join(id, seeds)
	}
	h.joined[id] = true
}

// anyID draws from everything a schedule may name: joiners, strays,
// identifiers outside the universe, and the nil identifier.
func (h *diffHarness) anyID(pick func(n int) int) ids.NodeID {
	switch n := pick(diffUniverse + diffOutside + 1); {
	case n < diffUniverse:
		return h.universe[n]
	case n < diffUniverse+diffOutside:
		return h.outside[n-diffUniverse]
	}
	return ids.Nil
}

// step applies one operation to all three services; pick(n) chooses in
// [0, n) — a seeded stream in the tests, the input bytes under fuzzing.
func (h *diffHarness) step(pick func(n int) int) {
	switch op := pick(20); {
	case op == 0: // join or re-seed, possibly an identifier outside the universe
		id := h.universe[pick(diffJoiners)]
		if pick(6) == 0 {
			id = h.outside[pick(diffOutside)]
		}
		seeds := make([]ids.NodeID, pick(5))
		for i := range seeds {
			seeds[i] = h.anyID(pick)
		}
		h.join(id, seeds)
	case op == 1: // permanent departure
		id := h.universe[pick(diffJoiners)]
		for _, c := range h.all {
			c.Leave(id)
		}
		delete(h.joined, id)
	case op == 2: // churn
		i := pick(diffUniverse)
		h.up[i] = !h.up[i]
	default:
		id := h.anyID(pick)
		if i, ok := h.index[id]; ok && pick(2) == 0 {
			h.idx.TickIdx(i)
			h.ref.TickIdx(i)
		} else {
			h.idx.Tick(id)
			h.ref.Tick(id)
		}
		h.byID.Tick(id)
	}
}

// check compares every view, registered or not, the registered sets, and
// the services' next RNG draw (consumed from all three alike).
func (h *diffHarness) check(step int) {
	h.t.Helper()
	names := [3]string{"indexed", "identifier", "reference"}
	for _, id := range append(append([]ids.NodeID(nil), h.universe...), h.outside...) {
		want := h.ref.View(id)
		for k, c := range h.all[:2] {
			if got := c.View(id); !slices.Equal(got, want) {
				h.t.Fatalf("step %d: views of %s diverge\n %s: %v\n reference: %v", step, id, names[k], got, want)
			}
		}
	}
	want := h.ref.Nodes()
	for k, c := range h.all[:2] {
		if got := c.Nodes(); !slices.Equal(got, want) {
			h.t.Fatalf("step %d: registered sets diverge: %s %v, reference %v", step, names[k], got, want)
		}
	}
	draw := h.rngs[2].Int63()
	for k, rng := range h.rngs[:2] {
		if rng.Int63() != draw {
			h.t.Fatalf("step %d: the %s service has drawn differently from the reference", step, names[k])
		}
	}
	h.checkMemo(step)
}

// checkMemo holds both packed services to the memo-word contract, then
// writes a few more words for the next step to carry.
func (h *diffHarness) checkMemo(step int) {
	h.t.Helper()
	for which, c := range []*Cyclon{h.idx, h.byID} {
		seen := map[uint64]bool{}
		var views []*view
		for _, t := range [2]*codeTable{&c.hosts, &c.strays} {
			for _, v := range t.views {
				if v != nil {
					views = append(views, v)
				}
			}
		}
		for _, v := range views {
			if len(v.memo) != len(v.codes) || len(v.ages) != len(v.codes) {
				h.t.Fatalf("step %d: service %d, view of %s: %d codes, %d ages, %d words",
					step, which, v.self, len(v.codes), len(v.ages), len(v.memo))
			}
			for k, w := range v.memo {
				if w == 0 {
					continue
				}
				if got, want := c.idOf(v.codes[k]), h.words[w]; got != want || seen[w] {
					h.t.Fatalf("step %d: service %d, view of %s slot %d: word %d written for %s sits beside %s (seen before: %v)",
						step, which, v.self, k, w, want, got, seen[w])
				}
				seen[w] = true
			}
		}
		for n := 0; n < 3 && len(views) > 0; n++ {
			v := views[h.memoRng.Intn(len(views))]
			if len(v.codes) == 0 {
				continue
			}
			k := h.memoRng.Intn(len(v.codes))
			serial := uint64(len(h.words) + 1)
			h.words[serial] = c.idOf(v.codes[k])
			v.memo[k] = serial
		}
	}
}

// TestIndexedCyclonMatchesIdentifierCyclon is the differential test of
// the packed Cyclon — on a host index and on identifiers alone — against
// the reference model.
func TestIndexedCyclonMatchesIdentifierCyclon(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		h := newDiffHarness(t, seed, seed%2 == 0)
		h.check(-1)
		rng := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 3000; step++ {
			h.step(rng.Intn)
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

// unpack returns v's entries in wire form, without memos.
func (c *Cyclon) unpack(v *view) []Entry {
	out := make([]Entry, len(v.codes))
	for k, code := range v.codes {
		out[k] = Entry{ID: c.idOf(code), Age: int(v.ages[k])}
	}
	return out
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
		rng := rand.New(rand.NewSource(17))
		registered := func(id ids.NodeID) bool { return c.viewOf(id) != nil }
		for trial := 0; trial < 4000; trial++ {
			v := c.viewOf(h.universe[rng.Intn(diffJoiners/2)])
			v.codes, v.ages, v.memo = v.codes[:0], v.ages[:0], v.memo[:0]
			for _, p := range rng.Perm(diffUniverse)[:rng.Intn(c.viewSize+1)] {
				if h.universe[p] != v.self {
					v.codes = append(v.codes, c.intern(h.universe[p]))
					v.ages = append(v.ages, int32(rng.Intn(4)-1))
					v.memo = append(v.memo, 0)
				}
			}
			received := make([]Entry, rng.Intn(9))
			for i := range received {
				received[i] = Entry{ID: h.anyID(rng.Intn), Age: rng.Intn(5) - 1}
			}
			seeding := rng.Intn(4) == 0
			want := refMerge(v.self, c.viewSize, c.unpack(v), received, registered, seeding)
			in := &offer{}
			if seeding { // as Join packs its seeds, ages kept
				for _, e := range received {
					if !e.ID.IsNil() {
						in.add(c.intern(e.ID), int32(e.Age))
					}
				}
			} else {
				in = c.received(received)
			}
			c.merge(v, in, seeding)
			if got := c.unpack(v); !slices.Equal(got, want) {
				t.Fatalf("indexed=%v trial %d (seeding=%v): merge left %v, reference %v", indexed, trial, seeding, got, want)
			}
		}
	}
}

// TestStampGenerationWrap: when the merge generation overflows, stale
// stamps must not read as current. Each round poisons both stamp tables
// of both packed services with the first post-wrap generation and parks
// the counter on the brink, so a wrap that skipped the clear would take
// every received entry of the next merge for a duplicate and the service
// would part ways with the reference.
func TestStampGenerationWrap(t *testing.T) {
	h := newDiffHarness(t, 9, true)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 200; step++ { // size the code tables
		h.step(rng.Intn)
	}
	wraps := 0
	for round := 0; round < 200; round++ {
		for _, c := range []*Cyclon{h.idx, h.byID} {
			for _, stamp := range [][]uint32{c.hosts.stamp, c.strays.stamp} {
				for i := range stamp {
					stamp[i] = 1
				}
			}
			c.gen = math.MaxUint32
		}
		for step := 0; step < 10; step++ {
			h.step(rng.Intn)
			h.check(round*10 + step)
		}
		if h.idx.gen < math.MaxUint32 && h.byID.gen < math.MaxUint32 {
			wraps++
		}
	}
	if wraps < 100 {
		t.Fatalf("only %d of 200 rounds wrapped the generation", wraps)
	}
}

// TestTapMemoIsVerified: the index memo on an entry a Tap hands back is
// a hint from outside, never trusted blindly. One service's Tap forges
// every memo — another host's index, an index beyond the table, an index
// on an identifier outside the universe — while its twin's Tap returns
// the same entries without memos; the identifier must win, so the two
// hold the same views throughout.
func TestTapMemoIsVerified(t *testing.T) {
	const n = 24
	hosts := make([]ids.NodeID, n)
	index := make(map[ids.NodeID]int, n)
	for i := range hosts {
		hosts[i] = ids.Synthetic(i)
		index[hosts[i]] = i
	}
	outsider := ids.Synthetic(9000)
	indexOf := func(id ids.NodeID) int {
		if i, ok := index[id]; ok {
			return i
		}
		return -1
	}
	mk := func(forge bool) *Cyclon {
		c, err := NewCyclon(6, 3, nil, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		c.UseIndex(indexOf, func(int) bool { return true })
		for i, id := range hosts {
			c.Join(id, []ids.NodeID{hosts[(i+1)%n], hosts[(i+5)%n], outsider})
		}
		c.Join(outsider, hosts[:3])
		calls := 0
		c.SetTap(&Tap{Outbound: func(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
			out := append(make([]Entry, 0, len(entries)+1), entries...)
			out = append(out, Entry{ID: outsider, Age: 1})
			for k := range out {
				out[k].idx1 = 0
				if forge {
					calls++
					switch calls % 3 {
					case 0:
						out[k].idx1 = int32((indexOf(out[k].ID)+1+calls%(n-1))%n) + 1 // another host
					case 1:
						out[k].idx1 = 1 << 20 // beyond the host table
					case 2:
						out[k].idx1 = int32(calls%n) + 1 // any host, also on the outsider
					}
				}
			}
			return out, 0, false
		}})
		return c
	}
	forged, clean := mk(true), mk(false)
	for step := 0; step < 4000; step++ {
		forged.TickIdx(step % n)
		clean.TickIdx(step % n)
		for _, id := range append(hosts[:n:n], outsider) {
			if a, b := forged.View(id), clean.View(id); !slices.Equal(a, b) {
				t.Fatalf("step %d: a forged memo changed the view of %s: %v, without memos %v", step, id, a, b)
			}
		}
	}
}

// TestTickIdxDoesNotAllocate pins the steady-state tick at zero
// allocations, with and without a Tap: code tables, sampled offers and
// the entries built for the Tap's hooks are all reused scratch. The
// pass-through Tap sets all three hooks, so both halves of every
// exchange are unpacked into entries and packed back.
func TestTickIdxDoesNotAllocate(t *testing.T) {
	passThrough := &Tap{
		Outbound: func(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
			return entries, 0.5, false
		},
		Inbound: func(receiver, sender ids.NodeID, reply bool, entries []Entry, claim float64) bool { return true },
		Refuse:  func(owner ids.NodeID) bool { return false },
	}
	for _, tc := range []struct {
		name string
		tap  *Tap
	}{{"untapped", nil}, {"tapped", passThrough}} {
		t.Run(tc.name, func(t *testing.T) {
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
			c.SetTap(tc.tap)
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
		})
	}
}

// TestJoinAllocatesNoMemoPerView: a new node's Join costs what it did
// before views carried memo words — the view and its code/age buffer —
// because the words are cut from a slab shared by memoChunk views. One
// make per view would show here as a third object (and as setup time and
// ten thousand more heap objects on the 10 000-host workload).
func TestJoinAllocatesNoMemoPerView(t *testing.T) {
	const n = 3000
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
	c.UseIndex(func(id ids.NodeID) int { return index[id] }, func(int) bool { return true })
	c.Join(nodes[n-1], nodes[:3]) // sizes the host table once
	i := 0
	avg := testing.AllocsPerRun(n-memoChunk, func() {
		c.Join(nodes[i], []ids.NodeID{nodes[(i+1)%n], nodes[(i+2)%n], nodes[(i+3)%n]})
		i++
	})
	if avg > 2 {
		t.Errorf("Join of a new node allocates %.0f objects, want 2 (view + code/age buffer)", avg)
	}
	for _, id := range nodes[:i] {
		if c.ViewLen(id) == 0 {
			t.Fatalf("%s joined with an empty view", id)
		}
	}
}

// TestReceivedDropsAreCounted: an entry a Tap hands back under an
// identifier Cyclon was never told about is refused — it names no view
// and must not grow the stray table — and every such refusal is counted
// (shuffle_received_dropped_total), not dropped in silence.
func TestReceivedDropsAreCounted(t *testing.T) {
	c, err := NewCyclon(4, 2, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []ids.NodeID{"a", "b", "c", "d"}
	for i, id := range nodes {
		c.Join(id, []ids.NodeID{nodes[(i+1)%4], nodes[(i+2)%4]})
	}
	offers := 0
	c.SetTap(&Tap{Outbound: func(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
		offers++
		return append(append([]Entry(nil), entries...), Entry{ID: "ghost"}, Entry{ID: ids.Nil}), 0, false
	}})
	for round := 0; round < 10; round++ {
		for _, id := range nodes {
			c.Tick(id)
		}
	}
	if offers == 0 || c.ReceivedDropped() != offers {
		t.Fatalf("%d tapped offers each carried one unknown identifier, %d drops counted", offers, c.ReceivedDropped())
	}
	if _, known := c.strayOf["ghost"]; known {
		t.Fatal("an invented identifier was interned")
	}
}
