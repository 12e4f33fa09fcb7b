// Package core implements AVMEM itself: the random-and-consistent
// membership predicate framework of equation (1),
//
//	M(x,y) = 1  iff  H(id(x), id(y)) <= f(av(x), av(y)),
//
// the family of horizontal- and vertical-sliver sub-predicates from
// paper §2.1, and the Discovery/Refresh membership-maintenance
// sub-protocols from §3.1 with cached availabilities and cushioned
// in-neighbor verification (§4.1).
//
// Architecture: DESIGN.md §3 (membership core: allocation-lean sliver
// indexes).
package core

import (
	"fmt"
	"math"

	"avmem/internal/avdist"
	"avmem/internal/ids"
)

// NodeInfo pairs a node identifier with its (believed) availability.
// Which party's belief it is depends on context: predicates are always
// evaluated against some party's cached view of availabilities.
type NodeInfo struct {
	ID           ids.NodeID
	Availability float64
}

// Sliver distinguishes the two AVMEM membership lists. One byte, so a
// Neighbor stays six words.
type Sliver uint8

// Sliver kinds. SliverNone classifies the self-pair (x,x), which is
// never a membership relation.
const (
	SliverNone Sliver = iota
	SliverHorizontal
	SliverVertical
)

// String implements fmt.Stringer.
func (s Sliver) String() string {
	switch s {
	case SliverHorizontal:
		return "HS"
	case SliverVertical:
		return "VS"
	default:
		return "none"
	}
}

// SubPredicate computes the probability threshold f for one sliver
// kind. Implementations must be pure functions of the two
// availabilities (plus construction-time parameters such as the PDF and
// N*): that purity is what makes the overall predicate consistent and
// third-party verifiable.
type SubPredicate interface {
	// Threshold returns f(avX, avY) in [0,1].
	Threshold(avX, avY float64) float64
	// Name identifies the sub-predicate in reports and logs.
	Name() string
}

// Predicate is a full AVMEM predicate: an ε-band that splits pairs into
// horizontal and vertical candidates, plus one sub-predicate for each.
type Predicate struct {
	// Epsilon is the horizontal-sliver half width; pairs with
	// |av(x) − av(y)| < Epsilon are horizontal candidates (paper: 0.1).
	Epsilon float64
	// Horizontal and Vertical are the sliver sub-predicates.
	Horizontal SubPredicate
	Vertical   SubPredicate
}

// NewPredicate validates and builds a Predicate.
func NewPredicate(epsilon float64, horizontal, vertical SubPredicate) (*Predicate, error) {
	if epsilon <= 0 || epsilon > 1 {
		return nil, fmt.Errorf("core: epsilon must be in (0,1], got %v", epsilon)
	}
	if horizontal == nil || vertical == nil {
		return nil, fmt.Errorf("core: both sub-predicates are required")
	}
	return &Predicate{Epsilon: epsilon, Horizontal: horizontal, Vertical: vertical}, nil
}

// Classify reports which sliver the pair (x,y) would belong to, based
// on availabilities alone.
func (p *Predicate) Classify(avX, avY float64) Sliver {
	if math.Abs(avX-avY) < p.Epsilon {
		return SliverHorizontal
	}
	return SliverVertical
}

// Threshold returns f(av(x), av(y)) — the right-hand side of eq. (1).
func (p *Predicate) Threshold(avX, avY float64) float64 {
	return p.thresholdOf(p.Classify(avX, avY), avX, avY)
}

// thresholdOf is Threshold for a pair already classified as kind.
func (p *Predicate) thresholdOf(kind Sliver, avX, avY float64) float64 {
	if kind == SliverHorizontal {
		return ids.Clamp01(p.Horizontal.Threshold(avX, avY))
	}
	return ids.Clamp01(p.Vertical.Threshold(avX, avY))
}

// Eval decides M(x,y) from the pair hash and both availabilities.
// cushion adds slack to f (paper §4.1): verification with a positive
// cushion tolerates modest disagreement about availabilities between
// the evaluating parties. Pass cushion 0 for the canonical predicate.
func (p *Predicate) Eval(hash, avX, avY, cushion float64) (bool, Sliver) {
	kind := p.Classify(avX, avY)
	thr := ids.Clamp01(p.thresholdOf(kind, avX, avY) + cushion)
	return hash <= thr, kind
}

// EvalNodes is Eval with the hash computed from the pair of node infos.
func (p *Predicate) EvalNodes(x, y NodeInfo, cushion float64, cache *ids.HashCache) (bool, Sliver) {
	if x.ID == y.ID {
		return false, SliverNone
	}
	var h float64
	if cache != nil {
		h = cache.Pair(x.ID, y.ID)
	} else {
		h = ids.PairHash(x.ID, y.ID)
	}
	return p.Eval(h, x.Availability, y.Availability, cushion)
}

// logFloor guards log() against degenerate counts: expected-node counts
// below 2 would give zero or negative logarithms.
func logFloor(n float64) float64 {
	if n < 2 {
		n = 2
	}
	return math.Log(n)
}

// ConstantVertical is sub-predicate I.A: an availability-independent
// vertical threshold sized to give D1 = c·log(N*) expected vertical
// neighbors, i.e. f = min(D1/N*, 1). Best suited to uniform
// availability PDFs (paper discussion).
type ConstantVertical struct {
	// D1 is the target expected vertical-sliver size, O(log N*).
	D1 float64
	// NStar is the stable system size.
	NStar float64
}

var _ SubPredicate = ConstantVertical{}

// Threshold implements SubPredicate.
func (c ConstantVertical) Threshold(_, _ float64) float64 {
	if c.NStar <= 0 {
		return 1
	}
	return ids.Clamp01(c.D1 / c.NStar)
}

// Name implements SubPredicate.
func (c ConstantVertical) Name() string { return "constant-vertical(I.A)" }

// LogVertical is sub-predicate I.B, the paper's canonical vertical
// sliver: f = min(c1·log(N*) / (N*·p(av(y))), 1). Theorem 1 proves it
// covers the availability space uniformly: the expected number of
// vertical neighbors in any fixed-width availability interval is
// independent of where the interval lies.
type LogVertical struct {
	C1    float64
	NStar float64
	PDF   *avdist.PDF
}

var _ SubPredicate = LogVertical{}

// Threshold implements SubPredicate.
func (l LogVertical) Threshold(_, avY float64) float64 {
	if l.NStar <= 0 || l.PDF == nil {
		return 1
	}
	density := l.PDF.Density(avY)
	if density <= 0 {
		// No population mass at av(y): accept such (rare) nodes freely;
		// they cannot inflate anyone's sliver because there are
		// essentially none of them.
		return 1
	}
	return ids.Clamp01(l.C1 * logFloor(l.NStar) / (l.NStar * density))
}

// Name implements SubPredicate.
func (l LogVertical) Name() string { return "logarithmic-vertical(I.B)" }

// LogDecreasingVertical is sub-predicate I.C: like I.B but the density
// of selected neighbors decays with availability distance,
// f = min(c1·log(N*) / (N*·p(av(y))·|av(y)−av(x)|), 1), yielding
// exponentially spaced long links akin to Pastry/Chord routing tables
// (Corollary 1.1).
type LogDecreasingVertical struct {
	C1    float64
	NStar float64
	PDF   *avdist.PDF
}

var _ SubPredicate = LogDecreasingVertical{}

// Threshold implements SubPredicate.
func (l LogDecreasingVertical) Threshold(avX, avY float64) float64 {
	if l.NStar <= 0 || l.PDF == nil {
		return 1
	}
	density := l.PDF.Density(avY)
	dist := math.Abs(avY - avX)
	if density <= 0 || dist <= 0 {
		return 1
	}
	return ids.Clamp01(l.C1 * logFloor(l.NStar) / (l.NStar * density * dist))
}

// Name implements SubPredicate.
func (l LogDecreasingVertical) Name() string { return "logarithmic-decreasing-vertical(I.C)" }

// ConstantHorizontal is sub-predicate II.A: every pair within the
// ε-band is accepted with the same fixed probability Fraction. Sized
// for the worst (sparsest) band, it wastes memory in dense bands —
// the motivation for II.B.
type ConstantHorizontal struct {
	// Fraction is the constant acceptance probability d2.
	Fraction float64
}

var _ SubPredicate = ConstantHorizontal{}

// Threshold implements SubPredicate.
func (c ConstantHorizontal) Threshold(_, _ float64) float64 {
	return ids.Clamp01(c.Fraction)
}

// Name implements SubPredicate.
func (c ConstantHorizontal) Name() string { return "constant-horizontal(II.A)" }

// LogConstantHorizontal is sub-predicate II.B, the paper's canonical
// horizontal sliver: f = min(c2·log(N*_av(x)) / N*min_av(x), 1), where
// N*_av(x) is the expected online population of x's ε-band and
// N*min_av(x) the minimum expected population over ε-windows inside the
// band. Theorems 2–3: the band's sub-overlay stays connected w.h.p.
// with only O(log) neighbors when the PDF is not too skewed.
type LogConstantHorizontal struct {
	C2      float64
	NStar   float64
	Epsilon float64
	PDF     *avdist.PDF
}

var _ SubPredicate = LogConstantHorizontal{}

// Threshold implements SubPredicate.
func (l LogConstantHorizontal) Threshold(avX, _ float64) float64 {
	if l.NStar <= 0 || l.PDF == nil || l.Epsilon <= 0 {
		return 1
	}
	nav := l.PDF.NStarAv(avX, l.Epsilon, l.NStar)
	nmin := l.PDF.NStarMin(avX, l.Epsilon, l.NStar)
	if nmin <= 0 {
		return 1
	}
	return ids.Clamp01(l.C2 * logFloor(nav) / nmin)
}

// Name implements SubPredicate.
func (l LogConstantHorizontal) Name() string { return "logarithmic-constant-horizontal(II.B)" }

// UniformRandom makes f a constant everywhere, which degenerates AVMEM
// into a consistent random overlay — the SCAMP/CYCLON-like baseline
// the paper compares against in Figure 10. Use the same value for both
// sliver positions.
type UniformRandom struct {
	// P is the constant acceptance probability.
	P float64
}

var _ SubPredicate = UniformRandom{}

// Threshold implements SubPredicate.
func (u UniformRandom) Threshold(_, _ float64) float64 { return ids.Clamp01(u.P) }

// Name implements SubPredicate.
func (u UniformRandom) Name() string { return "uniform-random(baseline)" }

// PaperPredicate builds the default predicate used throughout the
// paper's evaluation (§4): Logarithmic Vertical Sliver (I.B) +
// Logarithmic-Constant Horizontal Sliver (II.B) with the given
// constants over the supplied PDF and stable size.
func PaperPredicate(epsilon, c1, c2, nStar float64, pdf *avdist.PDF) (*Predicate, error) {
	if pdf == nil {
		return nil, fmt.Errorf("core: nil PDF")
	}
	if nStar <= 0 {
		return nil, fmt.Errorf("core: nStar must be positive, got %v", nStar)
	}
	if c1 <= 0 || c2 <= 0 {
		return nil, fmt.Errorf("core: c1 and c2 must be positive, got %v, %v", c1, c2)
	}
	return NewPredicate(epsilon,
		LogConstantHorizontal{C2: c2, NStar: nStar, Epsilon: epsilon, PDF: pdf},
		LogVertical{C1: c1, NStar: nStar, PDF: pdf},
	)
}

// RandomPredicate builds the Figure-10 baseline: a consistent random
// overlay whose expected degree matches degree (f = degree/N* on both
// slivers).
func RandomPredicate(epsilon, degree, nStar float64) (*Predicate, error) {
	if nStar <= 0 {
		return nil, fmt.Errorf("core: nStar must be positive, got %v", nStar)
	}
	p := ids.Clamp01(degree / nStar)
	return NewPredicate(epsilon, UniformRandom{P: p}, UniformRandom{P: p})
}

// CachedByX memoizes a sub-predicate whose threshold depends only on
// av(x) — true for II.A and II.B, whose f ignores av(y). The horizontal
// threshold of II.B performs an O(buckets) PDF scan; discovery evaluates
// it once per coarse-view candidate per protocol period, so memoizing by
// the (slowly changing) av(x) value removes almost all of that work.
//
// CachedByX must NOT wrap sub-predicates that read av(y); its
// constructor cannot check that, so misuse silently changes predicate
// semantics. It is not safe for concurrent use.
type CachedByX struct {
	inner SubPredicate
	memo  map[float64]float64
}

var _ SubPredicate = (*CachedByX)(nil)

// NewCachedByX wraps inner, which must ignore av(y).
func NewCachedByX(inner SubPredicate) (*CachedByX, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: nil inner sub-predicate")
	}
	return &CachedByX{inner: inner, memo: make(map[float64]float64, 1024)}, nil
}

// Threshold implements SubPredicate.
func (c *CachedByX) Threshold(avX, _ float64) float64 {
	if v, ok := c.memo[avX]; ok {
		return v
	}
	// Bound the memo: availabilities are epoch fractions, so the key
	// space is finite in simulation, but live deployments could feed
	// arbitrary floats.
	if len(c.memo) >= 1<<20 {
		c.memo = make(map[float64]float64, 1024)
	}
	v := c.inner.Threshold(avX, 0)
	c.memo[avX] = v
	return v
}

// Name implements SubPredicate.
func (c *CachedByX) Name() string { return c.inner.Name() + "+memo" }
