package shuffle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avmem/internal/ids"
)

// naiveVictim is the definition victimCursor must reproduce: the first
// position among those holding the greatest age, by a full scan.
func naiveVictim(ages []int32) int {
	oldest := 0
	for j := 1; j < len(ages); j++ {
		if ages[j] > ages[oldest] {
			oldest = j
		}
	}
	return oldest
}

// insertAgrees folds random newcomers into a random view through the
// view's insertion and checks each one against the definition: appended
// while there is room; in a full view, put in place of the first among
// the greatest ages unless that one is younger, and otherwise refused
// with the view untouched. Ages come from a range of three or four
// values, so most views hold several entries at the top level and
// levels are exhausted mid-merge; newcomers land at, below and (to be
// refused) above the current level, and views that start short fill up
// on the way.
func insertAgrees(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for trial := 0; trial < 20000; trial++ {
		capacity := 1 + rng.Intn(12)
		spread := 1 + rng.Intn(4)
		v := newView(capacity, make([]int32, 2*capacity), make([]uint64, capacity))
		for n := rng.Intn(capacity + 1); n > 0; n-- {
			v.codes = append(v.codes, int32(len(v.codes)))
			v.ages = append(v.ages, int32(rng.Intn(spread)-1))
			v.memo = append(v.memo, 1)
		}
		var vc victimCursor
		for code := int32(capacity); code < int32(4*capacity); code++ {
			age := int32(rng.Intn(spread+2) - 2)
			codes, ages := slices.Clone(v.codes), slices.Clone(v.ages)
			k, evicted := v.insert(code, age, &vc)
			switch want := naiveVictim(ages); {
			case len(ages) < capacity:
				if k != len(ages) || evicted != vacant {
					t.Fatalf("trial %d: a view of %d/%d slots filed %d at slot %d, evicting %d; want an append",
						trial, len(ages), capacity, code, k, evicted)
				}
			case ages[want] < age:
				if k != -1 || !slices.Equal(v.codes, codes) || !slices.Equal(v.ages, ages) {
					t.Fatalf("trial %d: age %d was admitted over %v (slot %d)", trial, age, ages, k)
				}
				continue
			case k != want || evicted != codes[want]:
				t.Fatalf("trial %d: insertion names slot %d of %v, evicting %d; the first among the greatest is %d",
					trial, k, ages, evicted, want)
			}
			if v.codes[k] != code || v.ages[k] != age || v.memo[k] != 0 {
				t.Fatalf("trial %d: slot %d holds %d at age %d with word %d, want %d at %d with word 0",
					trial, k, v.codes[k], v.ages[k], v.memo[k], code, age)
			}
		}
	}
}

// TestVictimCursorMatchesFullScan is the property test of the view's
// merge insertion and its level cursor, which Cyclon and the Agent
// share.
func TestVictimCursorMatchesFullScan(t *testing.T) {
	insertAgrees(t, rand.New(rand.NewSource(11)))
	insertAgrees(t, rand.New(rand.NewSource(12)))
}

// scanOldest is the partner pick as a full scan: every entry's code is
// put to accept, and the first among the greatest accepted ages wins.
func scanOldest(v *view, accept func(code int) bool) int {
	partner := -1
	for k, code := range v.codes {
		if accept != nil && !accept(int(code)) {
			continue
		}
		if partner < 0 || v.ages[k] > v.ages[partner] {
			partner = k
		}
	}
	return partner
}

// TestOldestMatchesFullScan: the partner pick, which asks accept only
// about entries older than the best accepted so far, picks the slot the
// full scan picks — over random views (empty ones too) whose ages tie
// often, under random filters and none — and asks about no entry twice.
func TestOldestMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20000; trial++ {
		capacity := 1 + rng.Intn(16)
		v := newView(capacity, make([]int32, 2*capacity), make([]uint64, capacity))
		spread := 1 + rng.Intn(5)
		for n := rng.Intn(capacity + 1); n > 0; n-- {
			v.codes = append(v.codes, int32(len(v.codes)))
			v.ages = append(v.ages, int32(rng.Intn(spread)))
			v.memo = append(v.memo, 0)
		}
		var accept func(code int) bool
		if rng.Intn(4) > 0 {
			admitted := make([]bool, capacity)
			for k := range admitted {
				admitted[k] = rng.Intn(3) > 0
			}
			accept = func(code int) bool { return admitted[code] }
		}
		asked := map[int]int{}
		counted := accept
		if accept != nil {
			counted = func(code int) bool { asked[code]++; return accept(code) }
		}
		got, want := v.oldest(counted), scanOldest(&v, accept)
		if got != want {
			t.Fatalf("trial %d: ages %v (filter %v): partner %d, the full scan picks %d", trial, v.ages, accept != nil, got, want)
		}
		for code, n := range asked {
			if n > 1 {
				t.Fatalf("trial %d: accept asked %d times about code %d", trial, n, code)
			}
		}
	}
}

// TestAgeingSaturatesAtMaxAge: under either owner, a tick ages an entry
// at maxAge no further. Cyclon's views are parked one period short of
// the bound; an Agent gets two entries at the bound off the wire and
// partners with the first, so the second stays behind to be aged.
func TestAgeingSaturatesAtMaxAge(t *testing.T) {
	const n = 12
	nodes := synthetic(n)
	c := boundCyclon(t, 5, 2, 1, nodes, nil)
	for i, id := range nodes {
		mustJoin(t, c, id, nodes[(i+1)%n], nodes[(i+2)%n], nodes[(i+3)%n])
	}
	for _, v := range c.views {
		for k := range v.ages {
			v.ages[k] = maxAge - 1
		}
	}
	saturated := 0
	for round := 0; round < 3; round++ {
		for i := range nodes {
			c.TickIdx(i)
		}
		for _, v := range c.views {
			for _, age := range v.ages {
				if age > maxAge {
					t.Fatalf("round %d: Cyclon aged an entry to %d, past %d", round, age, maxAge)
				}
				if age == maxAge {
					saturated++
				}
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no Cyclon entry reached maxAge; the test parks none at the bound")
	}

	a, err := NewAgent("self", 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Seed([]ids.NodeID{"p0"})
	reply := NewReply()
	reply.Entries = append(reply.Entries, Entry{ID: "old0", Age: math.MaxInt}, Entry{ID: "old1", Age: maxAge})
	a.HandleReply("p0", reply)
	if peer, _, ok := a.Tick(); !ok || peer != "old0" {
		t.Fatalf("the agent partnered with %v (ok %v), want the first entry at the bound", peer, ok)
	}
	for _, e := range a.Snapshot() {
		if want := map[ids.NodeID]int{"p0": 1, "old1": maxAge}[e.ID]; e.Age != want {
			t.Fatalf("after a tick the agent holds %v at age %d, want %d", e.ID, e.Age, want)
		}
	}
}
