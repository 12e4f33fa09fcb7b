package ops

import (
	"cmp"
	"iter"
	"math"
	"slices"

	"avmem/internal/core"
)

// This file is the dissemination half of routing: the order in which a
// node walks its sliver when it floods, gossips, range-casts or grows an
// aggregation tree.
//
// The order is by the pair hash with this node — deterministic per node
// (the paper's "deterministic iteration through the list") but
// uncorrelated across nodes: a globally shared order (say, sorted
// identifiers) would starve the nodes that sort last, since every
// gossiper would spend its fanout on the same prefix. A nonzero salt
// remixes the keys so the redundant trees of one aggregation grow along
// different sliver orderings; salt 0 leaves them as they are. Equal keys
// fall back to the identifier, so the order is total and never depends on
// how the sort happened to visit its input.
//
// A relaying node sees the same few (flavor, salt) orders over and over —
// every copy of every flood asks for one — while its sliver changes only
// when discovery admits a neighbor or a refresh round runs. So the order
// is sorted once per membership generation and kept as a permutation of
// the flavor's entries of Neighbors(flavor); which of them a particular
// message may go to (unblocked, cached availability inside its band) is
// decided while walking it. Dropping elements from a totally ordered
// sequence leaves the rest in order, so filter-after-sort walks exactly
// the sequence filter-then-sort produced.

// orderSlots is how many (flavor, salt) orders a router keeps: three
// salted trees of one redundant aggregation plus the unsalted order of
// floods and range-casts.
const orderSlots = 4

// hashOrder is one memoized order: perm[k] is the position in
// Neighbors(flavor) of the flavor's k-th neighbor by (salted) pair hash.
// It stands while the membership's generation is gen.
type hashOrder struct {
	flavor core.Flavor // 0 = unused slot
	salt   uint64
	gen    uint64
	perm   []int32
}

// orderMemo is a router's set of memoized orders; next is the slot the
// next unseen (flavor, salt) replaces.
type orderMemo struct {
	slots [orderSlots]hashOrder
	next  int
}

// order returns Neighbors(flavor) and the (salted) hash order of the
// flavor's entries in it, sorting only when the memo holds none for the
// current generation.
func (r *Router) order(flavor core.Flavor, salt uint64) ([]core.Neighbor, []int32) {
	r.stats.OrderRequests++
	all := r.mem.Neighbors(flavor)
	gen := r.mem.Generation()
	if r.orders == nil {
		r.orders = new(orderMemo)
	}
	var e *hashOrder
	for i := range r.orders.slots {
		if s := &r.orders.slots[i]; s.flavor == flavor && s.salt == salt {
			e = s
			break
		}
	}
	if e == nil {
		e = &r.orders.slots[r.orders.next]
		r.orders.next = (r.orders.next + 1) % orderSlots
		e.flavor, e.salt = flavor, salt
	} else if e.gen == gen {
		return all, e.perm
	}
	r.stats.OrderSorts++
	e.gen = gen
	n := 0
	for i := range all {
		if flavor.Admits(all[i].Sliver) {
			n++
		}
	}
	if cap(e.perm) < n {
		// Exact size plus headroom for a sliver still filling up; no key
		// array beside it — the comparator reads the keys where they live.
		e.perm = make([]int32, 0, n+n/4)
	}
	e.perm = e.perm[:0]
	for i := range all {
		if flavor.Admits(all[i].Sliver) {
			e.perm = append(e.perm, int32(i))
		}
	}
	slices.SortFunc(e.perm, func(a, b int32) int {
		x, y := &all[a], &all[b]
		if c := cmp.Compare(saltKey(x.PairHash(), salt), saltKey(y.PairHash(), salt)); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return all, e.perm
}

// targets walks this node's unblocked neighbors (given flavor) whose
// cached availability passes contains, in (salted) hash order. Both
// dissemination paths — multicast (range-casts included) and the
// aggregation tree — share it.
// The neighbors are read in place: the walk is valid until the next
// Discover or Refresh, which is fine because dissemination consumes it
// synchronously. It is a one-line wrapper so that it inlines into the
// range statement and the loop body never becomes a heap closure.
func (r *Router) targets(flavor core.Flavor, salt uint64, contains func(float64) bool) iter.Seq[*core.Neighbor] {
	return func(yield func(*core.Neighbor) bool) { r.walk(flavor, salt, contains, yield) }
}

// walk is the body of targets.
func (r *Router) walk(flavor core.Flavor, salt uint64, contains func(float64) bool, yield func(*core.Neighbor) bool) {
	all, perm := r.order(flavor, salt)
	for _, i := range perm {
		nb := &all[i]
		if r.auditor != nil && r.auditor.Blocked(nb.Addr()) {
			continue
		}
		if contains(nb.Availability) && !yield(nb) {
			return
		}
	}
}

// saltKey remixes one ordering key with a per-tree salt (splitmix64
// finalizer over the xored bits, folded back to [0,1)). Salt 0 — every
// non-aggregation path — returns the key untouched.
func saltKey(key float64, salt uint64) float64 {
	if salt == 0 {
		return key
	}
	z := math.Float64bits(key) ^ salt
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
