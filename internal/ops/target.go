// Package ops implements the availability-based management operations
// on top of an AVMEM overlay: the paper's four (§1, §3.2) —
// threshold-anycast, range-anycast, threshold-multicast,
// range-multicast — plus the range-cast & in-overlay aggregation
// family (payload delivery to, and count/sum/min/max/avg over, every
// node in a half-open availability band).
//
// Anycast forwarding supports the three policies of §3.2.I — greedy,
// retried-greedy (with per-message retry budgets and next-hop
// acknowledgments), and simulated annealing — and multicast supports
// the two dissemination modes of §3.2.II — flooding and gossip. Every
// algorithm comes in the three sliver flavors (HS-only, VS-only,
// HS+VS), giving the paper's nine anycast and six multicast variants.
// A range-cast is a multicast whose target is half-open and which
// carries a payload (MulticastOptions.HalfOpen): one message, one
// record, one dissemination path. Aggregation reuses the anycast as its
// entry stage and grows its tree along band-filtered sliver lists.
//
// Architecture: DESIGN.md §4 (routing with reusable scratch) and §13
// (range-cast & aggregation).
package ops

import (
	"fmt"
	"math"
)

// Target is an availability interval [Lo, Hi] an operation addresses.
// Threshold operations use [b, 1]; range operations use [b, b+δ].
type Target struct {
	Lo float64
	Hi float64
}

// Threshold builds the target of a threshold operation: all nodes with
// availability at least b, the closed interval [b, 1] that Contains
// tests.
func Threshold(b float64) (Target, error) {
	if b < 0 || b >= 1 {
		return Target{}, fmt.Errorf("ops: threshold must be in [0,1), got %v", b)
	}
	return Target{Lo: b, Hi: 1}, nil
}

// Range builds the target of a range operation: availability in
// [lo, hi] ⊆ [0,1].
func Range(lo, hi float64) (Target, error) {
	if lo < 0 || hi > 1 || hi < lo {
		return Target{}, fmt.Errorf("ops: invalid range [%v,%v]", lo, hi)
	}
	return Target{Lo: lo, Hi: hi}, nil
}

// Contains reports whether availability av lies in the target.
func (t Target) Contains(av float64) bool { return av >= t.Lo && av <= t.Hi }

// Distance returns how far av lies from the target in availability
// space: 0 inside, otherwise the distance to the nearest edge. This is
// both the greedy forwarding metric and the Δ of simulated annealing.
func (t Target) Distance(av float64) float64 {
	switch {
	case av < t.Lo:
		return t.Lo - av
	case av > t.Hi:
		return av - t.Hi
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (t Target) String() string {
	if t.Hi >= 1 && t.Lo > 0 {
		return fmt.Sprintf("av>%.2f", t.Lo)
	}
	return fmt.Sprintf("[%.2f,%.2f]", t.Lo, t.Hi)
}

// Validate checks the interval is well formed.
func (t Target) Validate() error {
	if math.IsNaN(t.Lo) || math.IsNaN(t.Hi) || t.Lo < 0 || t.Hi > 1 || t.Hi < t.Lo {
		return fmt.Errorf("ops: invalid target %+v", t)
	}
	return nil
}

// Band is a half-open availability interval [Lo, Hi) — the addressing
// mode of the range-cast and aggregation family (DESIGN.md §13).
// Half-open bands tile: adjacent bands [a,b) and [b,c) partition [a,c)
// with no node addressed twice, which is what an availability census
// sweeping band by band needs. A Hi of 1 (or more) closes the top end
// to [Lo, 1], so full-range operations include perfectly available
// nodes. An empty band (Lo == Hi below 1) is valid and addresses no
// one — the operation completes with zero coverage.
type Band struct {
	Lo float64
	Hi float64
}

// Contains reports whether availability av lies in the band.
func (b Band) Contains(av float64) bool {
	if av < b.Lo {
		return false
	}
	if b.Hi >= 1 {
		return av <= 1
	}
	return av < b.Hi
}

// Empty reports whether the band addresses no availability at all.
func (b Band) Empty() bool { return b.Lo >= b.Hi && b.Hi < 1 }

// Target returns the closed interval the entry anycast routes toward:
// greedy forwarding needs a distance metric, and the closed hull of
// the band is the right attractor (a node exactly at Hi is a fine
// entry point even though it will not itself be addressed).
func (b Band) Target() Target { return Target{Lo: b.Lo, Hi: b.Hi} }

// String implements fmt.Stringer.
func (b Band) String() string { return fmt.Sprintf("[%.2f,%.2f)", b.Lo, b.Hi) }

// Validate checks the band is well formed.
func (b Band) Validate() error {
	if math.IsNaN(b.Lo) || math.IsNaN(b.Hi) || b.Lo < 0 || b.Lo > 1 || b.Hi < b.Lo || b.Hi > 1 {
		return fmt.Errorf("ops: invalid band %+v", b)
	}
	return nil
}
