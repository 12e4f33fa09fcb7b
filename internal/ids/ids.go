// Package ids provides node identities and the consistent, normalized
// pair hash H(id(x), id(y)) ∈ [0,1) that underlies every AVMEM predicate
// (equation 1 of the paper).
//
// Consistency means that any party — the sender, the receiver, or a third
// node — evaluating H over the same pair of identifiers obtains the same
// value, with no dependence on system size, churn, or any other external
// state. We realize H as a SHA-256 digest of the ordered concatenation of
// the two identifiers, truncated to 64 bits and scaled into [0,1).
//
// Architecture: DESIGN.md §3 (predicate evaluation) and §4
// (hash-ordered dissemination).
package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// NodeID identifies a node by its network address (IP:port in the paper's
// model) or any other stable string. Two nodes are the same node if and
// only if their NodeIDs are equal.
type NodeID string

// Nil is the zero NodeID, used to signal "no node".
const Nil NodeID = ""

// IsNil reports whether the ID is the zero identifier.
func (id NodeID) IsNil() bool { return id == Nil }

// String returns the identifier verbatim.
func (id NodeID) String() string { return string(id) }

// Synthetic returns a deterministic NodeID for the i-th simulated node.
// Simulated identities are drawn from the 10.0.0.0/8 space so that they
// can never collide with real deployments yet still parse as host:port.
func Synthetic(i int) NodeID {
	// 10.a.b.c:4000+k spreads 16M+ ids; enough for any simulation here.
	a := (i >> 16) & 0xff
	b := (i >> 8) & 0xff
	c := i & 0xff
	return NodeID(fmt.Sprintf("10.%d.%d.%d:%d", a, b, c, 4000+(i%1000)))
}

// two63 is 2^63 as a float64; PairHash keeps 63 bits so the ratio is < 1.
const two63 = float64(1 << 63)

// PairHash computes the normalized consistent hash H(id(x), id(y)) ∈ [0,1).
//
// The concatenation is ordered and length-prefixed, so H(x,y) and H(y,x)
// are independent uniform draws and no two distinct pairs can collide by
// boundary ambiguity. The function is pure: it depends only on the two
// identifiers.
func PairHash(x, y NodeID) float64 {
	// Keep 63 bits: guarantees a value strictly below 1.0 after division.
	return float64(pairDigest64(x, y)>>1) / two63
}

// oneBlock is the longest message one padded SHA-256 block holds: 64
// bytes less the 0x80 terminator and the 8-byte bit length.
const oneBlock = 55

// pairDigest64 returns the first 8 bytes, big-endian, of
// SHA-256(len(x)‖x‖len(y)‖y) with 32-bit big-endian lengths. Every
// simulated identifier and every IPv4 host:port pair fits one block;
// on a CPU with SHA-NI such a pair is padded here and compressed by
// the assembly kernel, skipping the generic digest's buffering and
// padding. Everything else takes pairDigestSum. Both give the same bits.
func pairDigest64(x, y NodeID) uint64 {
	n := 8 + len(x) + len(y)
	if !useSHANI || n > oneBlock {
		return pairDigestSum(x, y)
	}
	var b [64]byte
	binary.BigEndian.PutUint32(b[:], uint32(len(x)))
	copy(b[4:], x)
	binary.BigEndian.PutUint32(b[4+len(x):], uint32(len(y)))
	copy(b[8+len(x):], y)
	b[n] = 0x80
	binary.BigEndian.PutUint64(b[56:], uint64(n)<<3)
	return pairBlockSHANI(&b)
}

// pairDigestSum is pairDigest64 through sha256.Sum256: the path for any
// length and any CPU, and the reference the kernel is tested against.
func pairDigestSum(x, y NodeID) uint64 {
	// One-shot digest over a stack buffer: identical byte stream (and
	// therefore identical hash values) to the streaming construction,
	// without the per-call digest and sum allocations. Simulated and
	// host:port identifiers fit the array; oversized ones fall back.
	var arr [128]byte
	var buf []byte
	if n := 8 + len(x) + len(y); n <= len(arr) {
		buf = arr[:0]
	} else {
		buf = make([]byte, 0, n)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(x)))
	buf = append(buf, x...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(y)))
	buf = append(buf, y...)
	sum := sha256.Sum256(buf)
	return binary.BigEndian.Uint64(sum[:8])
}

// SelfHash returns a normalized hash of a single identifier in [0,1).
// It is used where a node needs a consistent private coin, e.g. tie
// breaking that must not be influenced by peers.
func SelfHash(x NodeID) float64 {
	sum := sha256.Sum256([]byte(x))
	v := binary.BigEndian.Uint64(sum[:8]) >> 1
	return float64(v) / two63
}

// HashCache memoizes PairHash values. Predicate evaluation during
// discovery re-tests the same (x,y) pairs every protocol period, so a
// small map-backed cache removes nearly all SHA-256 work from the hot
// path. The zero value is ready to use. HashCache is not safe for
// concurrent use; each simulated world or live node owns its own.
type HashCache struct {
	m   map[pairKey]float64
	max int
}

type pairKey struct{ x, y NodeID }

// NewHashCache returns a cache bounded to at most max entries
// (max <= 0 means a default of 4M entries, enough for a 2000-node world).
func NewHashCache(max int) *HashCache {
	if max <= 0 {
		max = 4 << 20
	}
	return &HashCache{m: make(map[pairKey]float64, 1024), max: max}
}

// Pair returns H(x,y), computing and memoizing it on first use.
func (c *HashCache) Pair(x, y NodeID) float64 {
	if c.m == nil {
		c.m = make(map[pairKey]float64, 1024)
	}
	k := pairKey{x, y}
	if v, ok := c.m[k]; ok {
		return v
	}
	v := PairHash(x, y)
	if c.max > 0 && len(c.m) >= c.max {
		// Simple full reset: the working set is periodic, so a rebuild
		// costs one discovery round and keeps memory bounded.
		c.m = make(map[pairKey]float64, 1024)
	}
	c.m[k] = v
	return v
}

// Len reports the number of memoized pairs.
func (c *HashCache) Len() int { return len(c.m) }

// Clamp01 clamps v into [0,1]. Availabilities and predicate outputs live
// in the unit interval; every boundary computation funnels through here.
func Clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// Addr is a NodeID as it crosses the runtime.Env seam: the identifier
// plus an optional memo of the node's dense host index in a deployment's
// fixed universe (trace order). The memo is a hint, never an identity —
// whoever reads it checks it against the universe it indexes
// (hosts[i] == ID) and falls back to the identifier when it does not
// verify, so a wrong or forged memo costs a lookup and decides nothing.
// Peers learned off the wire carry no memo. The zero Addr is Nil with no
// memo.
type Addr struct {
	id NodeID
	// idx1 is the host index plus one; 0 = no memo.
	idx1 int32
}

// Addr returns id as a memo-less address.
func (id NodeID) Addr() Addr { return Addr{id: id} }

// AddrAt returns id with the memo "host index idx"; a negative idx means
// unknown and yields the memo-less form.
func AddrAt(id NodeID, idx int32) Addr {
	if idx < 0 {
		return Addr{id: id}
	}
	return Addr{id: id, idx1: idx + 1}
}

// ID returns the identifier — the only part of an Addr that names a node.
func (a Addr) ID() NodeID { return a.id }

// Index returns the memo'd host index, or -1 without a memo.
func (a Addr) Index() int32 { return a.idx1 - 1 }

// IsNil reports whether the address names no node.
func (a Addr) IsNil() bool { return a.id == Nil }
