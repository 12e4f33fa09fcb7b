package ids

import (
	"fmt"
	"math/bits"
)

// PairIndexCache memoizes PairHash over a fixed host universe, keyed by
// dense host index instead of identifier strings. Discovery evaluates
// H(self, y) for the same pairs every protocol period; with string keys
// the memo lookup itself (hashing two identifiers per probe) dominates
// the round. The memo is a flat open-addressing table (linear probing,
// Fibonacci hashing) rather than a Go map: the packed integer key is
// already uniform enough that one multiply beats the generic map
// machinery, and a probe touches two adjacent slices instead of
// bucket metadata.
//
// Values are identical to PairHash(hosts[x], hosts[y]) — the cache only
// changes where the memo lives, never what H evaluates to.
//
// PairIndexCache is not safe for concurrent use; each world owns its
// own.
type PairIndexCache struct {
	hosts []NodeID
	// keys holds packed pair keys biased by +1 so 0 means "empty slot"
	// (both halves are int32 indexes, so the bias never overflows).
	keys  []uint64
	vals  []float64
	used  int
	max   int
	shift uint
}

const pairIdxInitSlots = 1 << 12

// fibMix is 2^64 / phi, the Fibonacci-hashing multiplier.
const fibMix = 0x9E3779B97F4A7C15

// NewPairIndexCache builds a cache over the host universe (index order
// must match the indexes later passed to Pair). max bounds the entry
// count (<= 0 means a default of 4M entries).
func NewPairIndexCache(hosts []NodeID, max int) (*PairIndexCache, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("ids: empty host universe")
	}
	if max <= 0 {
		max = 4 << 20
	}
	c := &PairIndexCache{hosts: hosts, max: max}
	c.reset(pairIdxInitSlots)
	return c, nil
}

// reset reinitializes the table with the given power-of-two slot count.
func (c *PairIndexCache) reset(slots int) {
	c.keys = make([]uint64, slots)
	c.vals = make([]float64, slots)
	c.used = 0
	c.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// Hosts returns the universe size.
func (c *PairIndexCache) Hosts() int { return len(c.hosts) }

// IDs returns the universe in index order (shared; read-only).
func (c *PairIndexCache) IDs() []NodeID { return c.hosts }

// ID returns the identifier at index i.
func (c *PairIndexCache) ID(i int32) NodeID { return c.hosts[i] }

// Pair returns H(hosts[x], hosts[y]), computing and memoizing it on
// first use. PairHash is ordered (H(x,y) and H(y,x) are independent),
// so the key preserves argument order.
func (c *PairIndexCache) Pair(x, y int32) float64 {
	k := (uint64(uint32(x))<<32 | uint64(uint32(y))) + 1
	mask := uint64(len(c.keys)) - 1
	i := (k * fibMix) >> c.shift
	for {
		switch c.keys[i] {
		case k:
			return c.vals[i]
		case 0:
			v := PairHash(c.hosts[x], c.hosts[y])
			c.store(k, v, i)
			return v
		}
		i = (i + 1) & mask
	}
}

// store writes a new entry at slot (known empty), growing — or, at the
// entry bound, fully resetting like HashCache — first when the table
// would exceed 3/4 load. The working set is periodic, so a reset costs
// one discovery round and keeps memory bounded.
func (c *PairIndexCache) store(k uint64, v float64, slot uint64) {
	if (c.used+1)*4 >= len(c.keys)*3 {
		if c.used >= c.max {
			c.reset(pairIdxInitSlots)
		} else {
			old, oldVals := c.keys, c.vals
			c.reset(len(c.keys) * 2)
			for j, kk := range old {
				if kk != 0 {
					c.place(kk, oldVals[j])
				}
			}
		}
		mask := uint64(len(c.keys)) - 1
		slot = (k * fibMix) >> c.shift
		for c.keys[slot] != 0 {
			slot = (slot + 1) & mask
		}
	}
	c.keys[slot] = k
	c.vals[slot] = v
	c.used++
}

// place inserts into the first free probe slot (rehash path; the key is
// known absent).
func (c *PairIndexCache) place(k uint64, v float64) {
	mask := uint64(len(c.keys)) - 1
	i := (k * fibMix) >> c.shift
	for c.keys[i] != 0 {
		i = (i + 1) & mask
	}
	c.keys[i] = k
	c.vals[i] = v
	c.used++
}

// Len reports the number of memoized pairs.
func (c *PairIndexCache) Len() int { return c.used }
