package shuffle

import (
	"math"
	"math/rand"
)

// view is one node's bounded coarse view, the CYCLON core that Cyclon
// and Agent both run on: slot k holds the peer coded codes[k] at age
// ages[k], and memo[k] is the owner's memo word about it — 16 bytes a
// slot. codes and ages are cut from one backing array, and all three
// columns have the view bound as their capacity. The shuffle never reads
// a memo word: it belongs to the owner's discovery
// (core.Membership.DiscoverView), which records there what it learned
// about the slot's occupant. The view keeps each word beside the
// occupant it was written for: zeroed when a slot takes a new occupant,
// moved when the occupant moves.
//
// The view holds the only copy of the algorithms over the columns:
// ageing, the partner pick, ordered removal, the sample and the merge
// insertion. What a code means, and so a merge's self and duplicate
// checks, stays with the owner: Cyclon's codes are host indices checked
// against a universe-wide stamp set, an Agent's are host indices or
// stray-table slots checked by a 256-bit filter plus a scan (DESIGN.md
// §7 says why the two checks differ).
type view struct {
	codes []int32
	ages  []int32
	memo  []uint64
}

// newView returns an empty view of size slots whose code and age columns
// are cut from cols (2·size words) and memo words from memo.
func newView(size int, cols []int32, memo []uint64) view {
	return view{codes: cols[:0:size], ages: cols[size : size : 2*size], memo: memo[:0:size]}
}

// viewChunk is how many views one slab chunk holds.
const viewChunk = 512

// viewSlab cuts views from chunks: their headers, code/age columns and
// memo words cost one allocation each per viewChunk views, where a view
// made on its own costs three (an Agent's), each rounded up to its size
// class. A view cut from a slab lives as long as its chunk.
type viewSlab struct {
	heads []view
	cols  []int32
	memo  []uint64
}

// cut returns a new empty view of size slots, every view of one slab
// being of the same size.
func (s *viewSlab) cut(size int) *view {
	if len(s.heads) == 0 {
		s.heads = make([]view, viewChunk)
		s.cols = make([]int32, 2*size*viewChunk)
		s.memo = make([]uint64, size*viewChunk)
	}
	v := &s.heads[0]
	*v = newView(size, s.cols, s.memo)
	s.heads, s.cols, s.memo = s.heads[1:], s.cols[2*size:], s.memo[size:]
	return v
}

// age ages every entry by one protocol period, saturating at maxAge.
func (v *view) age() {
	for k, a := range v.ages {
		if a < maxAge {
			v.ages[k] = a + 1
		}
	}
}

// oldest returns the slot a tick partners with: the oldest entry, the
// first among equals, of those whose code accept admits (every entry
// when accept is nil); -1 when there is none. accept must be pure: it is
// asked only about entries older than the best accepted so far, since
// no other entry can become the partner.
func (v *view) oldest(accept func(code int) bool) int {
	partner := -1
	for k, code := range v.codes {
		if partner >= 0 && v.ages[k] <= v.ages[partner] {
			continue
		}
		if accept == nil || accept(int(code)) {
			partner = k
		}
	}
	return partner
}

// remove deletes slot k, keeping the order of the rest, and returns its
// code and memo word.
func (v *view) remove(k int) (code int32, word uint64) {
	code, word = v.codes[k], v.memo[k]
	v.codes = append(v.codes[:k], v.codes[k+1:]...)
	v.ages = append(v.ages[:k], v.ages[k+1:]...)
	v.memo = append(v.memo[:k], v.memo[k+1:]...)
	return code, word
}

// sampleStack is the largest view a sample permutes in the caller's
// stack buffer: v ≈ √N up to 16 384 hosts. A larger view allocates its
// permutation per sample.
const sampleStack = 128

// sample draws min(n, len(v.codes)) distinct slots and returns them in
// draw order: a partial Fisher–Yates, one rng.Intn per slot drawn, over
// a slot permutation in perm's backing array when it has room for the
// view. Callers pass a [sampleStack]int32 of their own stack.
func (v *view) sample(rng *rand.Rand, n int, perm []int32) []int32 {
	m := len(v.codes)
	n = min(n, m)
	if n <= 0 {
		return nil
	}
	if cap(perm) < m {
		perm = make([]int32, m)
	}
	perm = perm[:m]
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(m-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}

// vacant is the code insert reports evicted when the newcomer took a
// free slot. It is no peer's: Cyclon's codes are non-negative, and an
// Agent's stray table never nears 2³¹ slots.
const vacant int32 = math.MinInt32

// insert files one newcomer of a merge, which the owner has resolved to
// code and found to be neither self nor a duplicate. A view with room
// appends it; a full view puts it in place of the victim, the oldest
// entry (the first among equals, found by the merge's victim cursor),
// unless the victim is the younger of the two (the no-older rule). The
// slot starts with a zero memo word. insert returns the slot taken and
// the code evicted from it (vacant when the view had room), or k = -1
// when the no-older rule refused the newcomer.
func (v *view) insert(code, age int32, victims *victimCursor) (k int, evicted int32) {
	if k = len(v.codes); k < cap(v.codes) {
		v.codes = append(v.codes, code)
		v.ages = append(v.ages, age)
		v.memo = append(v.memo, 0)
		return k, vacant
	}
	if k = victims.next(v.ages); v.ages[k] < age {
		return -1, vacant
	}
	evicted = v.codes[k]
	v.codes[k], v.ages[k], v.memo[k] = code, age, 0
	return k, evicted
}

// victimCursor finds the successive eviction victims of one merge into a
// full view: each call to next returns the first position holding the
// greatest age, as a fresh scan would. The zero value starts a merge.
//
// Between two calls a merge writes at most one position, the one next
// last returned, and the newcomer it writes there is no older than the
// victim (insert's no-older rule). So the greatest age — the level —
// never rises, and the victims of one level lie left to right: the
// cursor resumes at the last victim instead of rescanning. Its
// invariant: every position left of pos holds an age strictly below
// level, and none holds one above it. A full rescan happens only when
// the level has no position left, so a merge of l entries into a view of
// v costs O(v + l) while a level lasts, against O(v·l) for a scan per
// eviction.
type victimCursor struct {
	level int32
	pos   int
	valid bool
}

// next returns the position of the current victim in ages, which must be
// non-empty.
func (vc *victimCursor) next(ages []int32) int {
	if vc.valid {
		level := vc.level
		for j := vc.pos; j < len(ages); j++ {
			if ages[j] >= level {
				vc.pos = j
				return j
			}
		}
	}
	oldest, level := 0, ages[0]
	for j, age := range ages {
		if age > level {
			oldest, level = j, age
		}
	}
	vc.level, vc.pos, vc.valid = level, oldest, true
	return oldest
}
