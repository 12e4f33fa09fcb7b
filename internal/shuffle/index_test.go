package shuffle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avmem/internal/ids"
)

// diffHarness drives two services through the same schedule from the
// same seeds: the packed Cyclon and the identifier-keyed reference model
// (cyclon_ref_test.go), both on the same host index. The packed layout
// is a storage choice, so both must expose identical views and
// registered sets, and be about to draw the same random number, after
// every step. A Join the packed Cyclon refuses — one naming an
// identifier outside the universe — must leave it unchanged; the model
// never sees it.
//
// The harness also plays the view owner's discovery: after every step it
// writes fresh serial numbers into a few memo words, remembering which
// occupant each was written for, and checks that every non-zero word
// still sits beside that occupant — the shuffle must zero a word when its
// slot changes hands and move it when the occupant moves, through
// re-seeding, wash-out, and tapped and refused exchanges.
type diffHarness struct {
	t testing.TB
	// universe is what indexOf resolves; outside holds identifiers it
	// answers -1 for. The last few universe ids never join: they are the
	// in-universe strays.
	universe, outside []ids.NodeID
	index             map[ids.NodeID]int
	up                []bool // shared liveness, by universe index
	idx               *Cyclon
	ref               *refCyclon
	rngs              [2]*rand.Rand // the services' own streams, in that order
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

// newDiffHarness binds both services to the universe, joins the first
// half of the joiners, and — when tapped — installs a rewriting Tap.
func newDiffHarness(t testing.TB, seed int64, tapped bool) *diffHarness {
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
	for i := range h.rngs {
		h.rngs[i] = rand.New(rand.NewSource(seed))
	}
	var err error
	if h.idx, err = NewCyclon(7, 4, nil, h.rngs[0]); err != nil {
		t.Fatal(err)
	}
	if h.ref, err = newRefCyclon(7, 4, nil, h.rngs[1]); err != nil {
		t.Fatal(err)
	}
	onlineAt := func(i int) bool { return h.up[i] }
	if err := h.idx.UseIndex(indexOf, onlineAt); err != nil {
		t.Fatal(err)
	}
	h.ref.UseIndex(indexOf, onlineAt)
	for i := 0; i < diffJoiners/2; i++ {
		h.join(h.universe[i], []ids.NodeID{h.universe[(i+1)%diffJoiners], h.universe[(i+7)%diffJoiners]})
	}
	if tapped {
		h.idx.SetTap(diffTap(seed, h))
		h.ref.SetTap(diffTap(seed, h))
	}
	return h
}

// diffTap builds an exchange interceptor that rewrites, drops and
// refuses deterministically from its own stream; each service gets its
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

// join applies a Join to both services; one naming an identifier outside
// the universe must be refused by the packed Cyclon, and is kept from the
// model.
func (h *diffHarness) join(id ids.NodeID, seeds []ids.NodeID) {
	h.t.Helper()
	_, inside := h.index[id]
	for _, s := range seeds {
		if _, ok := h.index[s]; !ok && !s.IsNil() {
			inside = false
		}
	}
	err := h.idx.Join(id, seeds)
	if !inside {
		if err == nil {
			h.t.Fatalf("Join(%s, %v) names an identifier outside the universe and was not refused", id, seeds)
		}
		return
	}
	if err != nil {
		h.t.Fatal(err)
	}
	h.ref.Join(id, seeds)
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

// step applies one operation to both services; pick(n) chooses in
// [0, n) — a seeded stream in the tests, the input bytes under fuzzing.
func (h *diffHarness) step(pick func(n int) int) {
	switch op := pick(20); {
	case op == 0: // join or re-seed, possibly naming an identifier outside the universe
		id := h.universe[pick(diffJoiners)]
		if pick(6) == 0 {
			id = h.outside[pick(diffOutside)]
		}
		seeds := make([]ids.NodeID, pick(5))
		for i := range seeds {
			seeds[i] = h.anyID(pick)
		}
		h.join(id, seeds)
	case op <= 2: // churn
		i := pick(diffUniverse)
		h.up[i] = !h.up[i]
	default: // a tick by any host index, including ones past every table
		i, ok := h.index[h.anyID(pick)]
		if !ok {
			i = diffUniverse + pick(diffOutside)
		}
		h.idx.TickIdx(i)
		h.ref.TickIdx(i)
	}
}

// check compares every view, registered or not, and the services' next
// RNG draw (consumed from both alike).
func (h *diffHarness) check(step int) {
	h.t.Helper()
	for _, id := range append(append([]ids.NodeID(nil), h.universe...), h.outside...) {
		got, want := h.idx.View(id), h.ref.View(id)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			h.t.Fatalf("step %d: views of %s diverge\n packed: %v\n reference: %v", step, id, got, want)
		}
	}
	if h.rngs[0].Int63() != h.rngs[1].Int63() {
		h.t.Fatalf("step %d: the packed service has drawn differently from the reference", step)
	}
	h.checkMemo(step)
}

// checkMemo holds the packed service to the memo-word contract, then
// writes a few more words for the next step to carry.
func (h *diffHarness) checkMemo(step int) {
	h.t.Helper()
	c := h.idx
	seen := map[uint64]bool{}
	var views []*view
	for _, v := range c.views {
		if v != nil {
			views = append(views, v)
		}
	}
	for _, v := range views {
		if len(v.memo) != len(v.codes) || len(v.ages) != len(v.codes) {
			h.t.Fatalf("step %d: view of %s: %d codes, %d ages, %d words",
				step, v.self, len(v.codes), len(v.ages), len(v.memo))
		}
		for k, w := range v.memo {
			if w == 0 {
				continue
			}
			if got, want := c.names[v.codes[k]], h.words[w]; got != want || seen[w] {
				h.t.Fatalf("step %d: view of %s slot %d: word %d written for %s sits beside %s (seen before: %v)",
					step, v.self, k, w, want, got, seen[w])
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
		h.words[serial] = c.names[v.codes[k]]
		v.memo[k] = serial
	}
}

// TestIndexedCyclonMatchesIdentifierCyclon is the differential test of
// the packed Cyclon on its host index against the identifier-keyed
// reference model, with and without a rewriting Tap.
func TestIndexedCyclonMatchesIdentifierCyclon(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		h := newDiffHarness(t, seed, seed%3 != 0)
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
		out[k] = Entry{ID: c.names[code], Age: int(v.ages[k])}
	}
	return out
}

// TestMergeMatchesReference: same survivors, same victims, same
// tie-break as the reference fold, on views dense with equal ages, for
// exchange merges and Join seeding. Seeds come from the universe, as a
// Join admits only those; exchange merges also see strays, identifiers
// outside the universe and nil ones.
func TestMergeMatchesReference(t *testing.T) {
	h := newDiffHarness(t, 4, true)
	c := h.idx
	rng := rand.New(rand.NewSource(17))
	registered := func(id ids.NodeID) bool { return c.View(id) != nil }
	for trial := 0; trial < 8000; trial++ {
		v := c.views[rng.Intn(diffJoiners/2)]
		v.codes, v.ages, v.memo = v.codes[:0], v.ages[:0], v.memo[:0]
		for _, p := range rng.Perm(diffUniverse)[:rng.Intn(c.viewSize+1)] {
			if h.universe[p] != v.self {
				code, _ := c.intern(h.universe[p])
				v.codes = append(v.codes, code)
				v.ages = append(v.ages, int32(rng.Intn(4)-1))
				v.memo = append(v.memo, 0)
			}
		}
		seeding := rng.Intn(4) == 0
		received := make([]Entry, rng.Intn(9))
		for i := range received {
			id := h.anyID(rng.Intn)
			if seeding && !id.IsNil() {
				id = h.universe[rng.Intn(diffUniverse)]
			}
			received[i] = Entry{ID: id, Age: rng.Intn(5) - 1}
		}
		want := refMerge(v.self, c.viewSize, c.unpack(v), received, registered, seeding)
		in := &offer{}
		if seeding { // as Join packs its seeds, ages kept
			for _, e := range received {
				if code, ok := c.intern(e.ID); ok {
					in.add(code, int32(e.Age))
				}
			}
		} else {
			in = c.received(received)
		}
		c.merge(v, in, seeding)
		if got := c.unpack(v); !slices.Equal(got, want) {
			t.Fatalf("trial %d (seeding=%v): merge left %v, reference %v", trial, seeding, got, want)
		}
	}
}

// TestStampGenerationWrap: when the merge generation overflows, stale
// stamps must not read as current. Each round poisons the packed
// service's stamp table with the first post-wrap generation and parks the
// counter on the brink, so a wrap that skipped the clear would take every
// received entry of the next merge for a duplicate and the service would
// part ways with the reference.
func TestStampGenerationWrap(t *testing.T) {
	h := newDiffHarness(t, 9, true)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 200; step++ { // size the code tables
		h.step(rng.Intn)
	}
	wraps := 0
	for round := 0; round < 200; round++ {
		for i := range h.idx.stamp {
			h.idx.stamp[i] = 1
		}
		h.idx.gen = math.MaxUint32
		for step := 0; step < 10; step++ {
			h.step(rng.Intn)
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

// TestTapMemoIsVerified: the index memo on an entry a Tap hands back is
// a hint from outside, never trusted blindly. One service's Tap forges
// every memo — another host's index, an index beyond the table, an index
// on an identifier outside the universe — while its twin's Tap returns
// the same entries without memos; the identifier must win, so the two
// hold the same views throughout.
func TestTapMemoIsVerified(t *testing.T) {
	const n = 24
	hosts := synthetic(n)
	outsider := ids.Synthetic(9000)
	mk := func(forge bool) *Cyclon {
		c := boundCyclon(t, 6, 3, 5, hosts, nil)
		for i, id := range hosts {
			mustJoin(t, c, id, hosts[(i+1)%n], hosts[(i+5)%n])
		}
		calls := 0
		c.SetTap(&Tap{Outbound: func(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
			out := append(make([]Entry, 0, len(entries)+1), entries...)
			out = append(out, Entry{ID: outsider, Age: 1})
			for k := range out {
				if !forge {
					out[k].idx1 = 0
				} else {
					calls++
					switch calls % 3 {
					case 0:
						out[k].idx1 = int32((int(out[k].idx1)+calls%(n-1))%n) + 1 // another host
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
			nodes := synthetic(n)
			c := boundCyclon(t, 17, 4, 3, nodes, func(i int) bool { return i%5 != 0 })
			c.SetTap(tc.tap)
			for i, id := range nodes {
				mustJoin(t, c, id, nodes[(i+1)%n], nodes[(i+2)%n], nodes[(i+3)%n])
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
	nodes := synthetic(n)
	c := boundCyclon(t, 17, 4, 3, nodes, nil)
	mustJoin(t, c, nodes[n-1], nodes[:3]...) // sizes the host table once
	i := 0
	avg := testing.AllocsPerRun(n-memoChunk, func() {
		c.Join(nodes[i], []ids.NodeID{nodes[(i+1)%n], nodes[(i+2)%n], nodes[(i+3)%n]})
		i++
	})
	if avg > 2 {
		t.Errorf("Join of a new node allocates %.0f objects, want 2 (view + code/age buffer)", avg)
	}
	for k, id := range nodes[:i] {
		if c.ViewLenIdx(k) == 0 {
			t.Fatalf("%s joined with an empty view", id)
		}
	}
}

// TestReceivedDropsAreCounted: an entry a Tap hands back under an
// identifier outside the universe is refused — it names no view and is
// never coded — and every such refusal is counted
// (shuffle_received_dropped_total), not dropped in silence.
func TestReceivedDropsAreCounted(t *testing.T) {
	nodes := []ids.NodeID{"a", "b", "c", "d"}
	c := boundCyclon(t, 4, 2, 1, nodes, nil)
	for i, id := range nodes {
		mustJoin(t, c, id, nodes[(i+1)%4], nodes[(i+2)%4])
	}
	offers := 0
	c.SetTap(&Tap{Outbound: func(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
		offers++
		return append(append([]Entry(nil), entries...), Entry{ID: "ghost"}, Entry{ID: ids.Nil}), 0, false
	}})
	for round := 0; round < 10; round++ {
		for i := range nodes {
			c.TickIdx(i)
		}
	}
	if offers == 0 || c.ReceivedDropped() != offers {
		t.Fatalf("%d tapped offers each carried one unknown identifier, %d drops counted", offers, c.ReceivedDropped())
	}
	if len(c.names) != len(nodes) || c.View("ghost") != nil {
		t.Fatalf("an identifier outside the universe was coded: %v", c.names)
	}
}
