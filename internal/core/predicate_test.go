package core

import (
	"math"
	"testing"
	"testing/quick"

	"avmem/internal/avdist"
	"avmem/internal/ids"
)

func TestNewPredicateValidation(t *testing.T) {
	hs := ConstantHorizontal{Fraction: 0.5}
	vs := ConstantVertical{D1: 8, NStar: 100}
	if _, err := NewPredicate(0, hs, vs); err == nil {
		t.Error("want error for epsilon 0")
	}
	if _, err := NewPredicate(1.5, hs, vs); err == nil {
		t.Error("want error for epsilon > 1")
	}
	if _, err := NewPredicate(0.1, nil, vs); err == nil {
		t.Error("want error for nil horizontal")
	}
	if _, err := NewPredicate(0.1, hs, nil); err == nil {
		t.Error("want error for nil vertical")
	}
	if _, err := NewPredicate(0.1, hs, vs); err != nil {
		t.Errorf("valid predicate rejected: %v", err)
	}
}

func TestClassify(t *testing.T) {
	p, err := NewPredicate(0.1, ConstantHorizontal{0.5}, ConstantVertical{8, 100})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		avX, avY float64
		want     Sliver
	}{
		{0.5, 0.55, SliverHorizontal},
		{0.5, 0.45, SliverHorizontal},
		{0.5, 0.5, SliverHorizontal},
		{0.5, 0.61, SliverVertical},
		{0.5, 0.75, SliverVertical},
		{0.1, 0.9, SliverVertical},
	}
	for _, tc := range tests {
		if got := p.Classify(tc.avX, tc.avY); got != tc.want {
			t.Errorf("Classify(%v,%v) = %v, want %v", tc.avX, tc.avY, got, tc.want)
		}
	}
}

func TestClassifyStrictBoundary(t *testing.T) {
	// ε = 0.125 is exactly representable, so the strict-< boundary can
	// be probed without floating-point fuzz.
	p, err := NewPredicate(0.125, ConstantHorizontal{0.5}, ConstantVertical{8, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Classify(0.25, 0.375); got != SliverVertical {
		t.Errorf("exactly ε apart = %v, want VS (strict <)", got)
	}
	if got := p.Classify(0.25, 0.3749999); got != SliverHorizontal {
		t.Errorf("just inside ε = %v, want HS", got)
	}
}

func TestEvalConsistency(t *testing.T) {
	pdf := avdist.Overnet(100)
	p, err := PaperPredicate(0.1, 1, 1, 1000, pdf)
	if err != nil {
		t.Fatal(err)
	}
	x := NodeInfo{ID: ids.Synthetic(1), Availability: 0.4}
	y := NodeInfo{ID: ids.Synthetic(2), Availability: 0.8}
	first, kind := p.EvalNodes(x, y, 0, nil)
	for i := 0; i < 20; i++ {
		got, k := p.EvalNodes(x, y, 0, nil)
		if got != first || k != kind {
			t.Fatal("EvalNodes not consistent across evaluations")
		}
	}
	// Third-party evaluation (with a cache) gives the same answer.
	cache := ids.NewHashCache(0)
	got, k := p.EvalNodes(x, y, 0, cache)
	if got != first || k != kind {
		t.Error("cached evaluation disagrees with direct evaluation")
	}
}

// spySub counts Threshold calls on the sub-predicate it wraps.
type spySub struct {
	SubPredicate
	calls *int
}

func (s spySub) Threshold(avX, avY float64) float64 {
	*s.calls++
	return s.SubPredicate.Threshold(avX, avY)
}

// TestEvalThresholdEvalNodesAgree walks every horizontal × vertical
// sub-predicate pairing over a grid of availability pairs straddling the
// ε boundary and holds the three entry points to one definition: Eval
// accepts iff hash <= clamp(Threshold + cushion), reports Classify's
// sliver, consults exactly one sub-predicate once — the one for that
// sliver — and EvalNodes is Eval at the pair's hash.
func TestEvalThresholdEvalNodesAgree(t *testing.T) {
	pdf := avdist.Overnet(100)
	memo, err := NewCachedByX(LogConstantHorizontal{C2: 2, NStar: 800, Epsilon: 0.1, PDF: pdf})
	if err != nil {
		t.Fatal(err)
	}
	horizontals := []SubPredicate{
		ConstantHorizontal{Fraction: 0.3},
		LogConstantHorizontal{C2: 2, NStar: 800, Epsilon: 0.1, PDF: pdf},
		memo,
		UniformRandom{P: 0.2},
	}
	verticals := []SubPredicate{
		ConstantVertical{D1: 20, NStar: 800},
		LogVertical{C1: 2, NStar: 800, PDF: pdf},
		LogDecreasingVertical{C1: 2, NStar: 800, PDF: pdf},
		UniformRandom{P: 0.2},
	}
	avs := []float64{0, 0.05, 0.3, 0.35, 0.3999999, 0.4, 0.45, 0.5, 0.5000001, 0.9, 1}
	x, y := NodeInfo{ID: ids.Synthetic(1)}, NodeInfo{ID: ids.Synthetic(2)}
	pairHash := ids.PairHash(x.ID, y.ID)
	for _, hs := range horizontals {
		for _, vs := range verticals {
			var hCalls, vCalls int
			p, err := NewPredicate(0.1, spySub{hs, &hCalls}, spySub{vs, &vCalls})
			if err != nil {
				t.Fatal(err)
			}
			for _, avX := range avs {
				for _, avY := range avs {
					kind := p.Classify(avX, avY)
					thr := p.Threshold(avX, avY)
					want := ids.Clamp01(hs.Threshold(avX, avY))
					if kind == SliverVertical {
						want = ids.Clamp01(vs.Threshold(avX, avY))
					}
					if thr != want {
						t.Fatalf("%s × %s at (%v,%v): Threshold %v, %v sub-predicate says %v",
							hs.Name(), vs.Name(), avX, avY, thr, kind, want)
					}
					for _, cushion := range []float64{0, 0.1} {
						bar := ids.Clamp01(thr + cushion)
						for _, h := range []float64{0, bar, math.Nextafter(bar, 2), pairHash} {
							hCalls, vCalls = 0, 0
							ok, k := p.Eval(h, avX, avY, cushion)
							if ok != (h <= bar) || k != kind {
								t.Fatalf("%s × %s at (%v,%v) cushion %v: Eval(%v) = (%v,%v), want (%v,%v)",
									hs.Name(), vs.Name(), avX, avY, cushion, h, ok, k, h <= bar, kind)
							}
							if wantH := btoi(kind == SliverHorizontal); hCalls != wantH || vCalls != 1-wantH {
								t.Fatalf("%s × %s at (%v,%v): Eval consulted HS %d and VS %d times for a %v pair",
									hs.Name(), vs.Name(), avX, avY, hCalls, vCalls, kind)
							}
						}
						x.Availability, y.Availability = avX, avY
						ok, k := p.EvalNodes(x, y, cushion, nil)
						if ok != (pairHash <= bar) || k != kind {
							t.Fatalf("%s × %s at (%v,%v) cushion %v: EvalNodes = (%v,%v), Eval at the pair hash gives (%v,%v)",
								hs.Name(), vs.Name(), avX, avY, cushion, ok, k, pairHash <= bar, kind)
						}
					}
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestEvalSelfPair(t *testing.T) {
	p, _ := NewPredicate(0.1, ConstantHorizontal{1}, ConstantVertical{1000, 1})
	x := NodeInfo{ID: ids.Synthetic(1), Availability: 0.4}
	ok, kind := p.EvalNodes(x, x, 0, nil)
	if ok || kind != SliverNone {
		t.Errorf("self pair = (%v,%v), want (false,none)", ok, kind)
	}
}

func TestCushionWidensAcceptance(t *testing.T) {
	pdf := avdist.Overnet(100)
	p, err := PaperPredicate(0.1, 1, 1, 1000, pdf)
	if err != nil {
		t.Fatal(err)
	}
	// With cushion 1.0 everything passes; with cushion 0 only a subset.
	accepted0, accepted1 := 0, 0
	for i := 0; i < 500; i++ {
		x := NodeInfo{ID: ids.Synthetic(i), Availability: 0.3}
		y := NodeInfo{ID: ids.Synthetic(i + 1000), Availability: 0.7}
		if ok, _ := p.EvalNodes(x, y, 0, nil); ok {
			accepted0++
		}
		if ok, _ := p.EvalNodes(x, y, 1.0, nil); ok {
			accepted1++
		}
	}
	if accepted1 != 500 {
		t.Errorf("cushion=1 accepted %d/500, want all", accepted1)
	}
	if accepted0 >= accepted1 {
		t.Errorf("cushion had no effect: %d vs %d", accepted0, accepted1)
	}
}

func TestConstantVertical(t *testing.T) {
	c := ConstantVertical{D1: 10, NStar: 1000}
	if got := c.Threshold(0.1, 0.9); got != 0.01 {
		t.Errorf("Threshold = %v, want 0.01", got)
	}
	// Degenerate N*.
	if got := (ConstantVertical{D1: 10, NStar: 0}).Threshold(0, 0); got != 1 {
		t.Errorf("zero NStar threshold = %v, want 1", got)
	}
	// Saturates at 1.
	if got := (ConstantVertical{D1: 10, NStar: 5}).Threshold(0, 0); got != 1 {
		t.Errorf("saturated threshold = %v, want 1", got)
	}
}

// TestLogVerticalUniformCoverage is Theorem 1 in test form: under I.B
// the expected number of vertical neighbors per availability interval
// is independent of where the interval lies.
func TestLogVerticalUniformCoverage(t *testing.T) {
	pdf := avdist.Overnet(100)
	nStar := 1000.0
	l := LogVertical{C1: 1, NStar: nStar, PDF: pdf}
	// Expected neighbors in [b, b+0.1] = Σ over buckets of
	// threshold(av) × population(av). Compare two disjoint intervals.
	expected := func(lo float64) float64 {
		sum := 0.0
		const steps = 100
		w := 0.1 / steps
		for i := 0; i < steps; i++ {
			a := lo + (float64(i)+0.5)*w
			pop := nStar * pdf.Density(a) * w
			sum += l.Threshold(0.99, a) * pop
		}
		return sum
	}
	e1, e2 := expected(0.15), expected(0.55)
	if e1 <= 0 || e2 <= 0 {
		t.Fatalf("degenerate expectations: %v %v", e1, e2)
	}
	// Thresholds can clip at 1.0 in near-empty buckets; allow modest slack.
	if ratio := e1 / e2; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("coverage not uniform: E[0.15..0.25]=%v E[0.55..0.65]=%v", e1, e2)
	}
}

func TestLogVerticalDegenerate(t *testing.T) {
	if got := (LogVertical{C1: 1, NStar: 0, PDF: avdist.Uniform(10)}).Threshold(0, 0.5); got != 1 {
		t.Errorf("zero NStar = %v, want 1", got)
	}
	if got := (LogVertical{C1: 1, NStar: 100, PDF: nil}).Threshold(0, 0.5); got != 1 {
		t.Errorf("nil PDF = %v, want 1", got)
	}
	// Zero-density bucket: threshold 1 by design.
	pdf, err := avdist.FromWeights([]float64{1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := (LogVertical{C1: 1, NStar: 100, PDF: pdf}).Threshold(0, 0.3); got != 1 {
		t.Errorf("zero-density threshold = %v, want 1", got)
	}
}

// TestLogDecreasingVerticalDecays is Corollary 1.1 in test form: under
// a uniform PDF, the I.C threshold decreases with availability distance.
func TestLogDecreasingVerticalDecays(t *testing.T) {
	pdf := avdist.Uniform(100)
	l := LogDecreasingVertical{C1: 0.2, NStar: 10000, PDF: pdf}
	t1 := l.Threshold(0.1, 0.3)
	t2 := l.Threshold(0.1, 0.6)
	t3 := l.Threshold(0.1, 0.95)
	if !(t1 > t2 && t2 > t3) {
		t.Errorf("thresholds not decaying with distance: %v %v %v", t1, t2, t3)
	}
	// Scale check: halving distance doubles the threshold.
	if ratio := l.Threshold(0.1, 0.2) / l.Threshold(0.1, 0.3); math.Abs(ratio-2) > 0.01 {
		t.Errorf("inverse-distance scaling broken: ratio = %v", ratio)
	}
}

func TestLogDecreasingVerticalDegenerate(t *testing.T) {
	pdf := avdist.Uniform(10)
	l := LogDecreasingVertical{C1: 1, NStar: 100, PDF: pdf}
	if got := l.Threshold(0.5, 0.5); got != 1 {
		t.Errorf("zero distance = %v, want 1", got)
	}
	if got := (LogDecreasingVertical{C1: 1, NStar: 0, PDF: pdf}).Threshold(0, 1); got != 1 {
		t.Errorf("zero NStar = %v, want 1", got)
	}
}

func TestConstantHorizontal(t *testing.T) {
	if got := (ConstantHorizontal{Fraction: 0.3}).Threshold(0, 0); got != 0.3 {
		t.Errorf("Threshold = %v, want 0.3", got)
	}
	if got := (ConstantHorizontal{Fraction: 1.7}).Threshold(0, 0); got != 1 {
		t.Errorf("clamped = %v, want 1", got)
	}
}

func TestLogConstantHorizontalDependsOnlyOnX(t *testing.T) {
	pdf := avdist.Overnet(100)
	l := LogConstantHorizontal{C2: 1, NStar: 1000, Epsilon: 0.1, PDF: pdf}
	a, b := l.Threshold(0.5, 0.45), l.Threshold(0.5, 0.58)
	if a != b {
		t.Errorf("II.B threshold varies with av(y): %v != %v", a, b)
	}
}

// TestLogConstantHorizontalExpectedDegree is Theorem 2's core step: a
// node's expected horizontal-sliver size within its band is at least
// c2·log(N*_av) — enough for connectivity w.h.p.
func TestLogConstantHorizontalExpectedDegree(t *testing.T) {
	pdf := avdist.Overnet(100)
	nStar := 1000.0
	eps := 0.1
	l := LogConstantHorizontal{C2: 1, NStar: nStar, Epsilon: eps, PDF: pdf}
	for _, av := range []float64{0.2, 0.5, 0.8} {
		thr := l.Threshold(av, av)
		band := pdf.NStarAv(av, eps, nStar)
		expDegree := thr * band
		needed := math.Log(band)
		// With threshold possibly clipped at 1, the degree is
		// min(band, ...) — either way it must be ≥ log(band).
		if expDegree < needed-1e-9 && thr < 1 {
			t.Errorf("av=%v: expected degree %v < log band %v", av, expDegree, needed)
		}
	}
}

func TestLogConstantHorizontalDegenerate(t *testing.T) {
	pdf := avdist.Uniform(10)
	if got := (LogConstantHorizontal{C2: 1, NStar: 0, Epsilon: 0.1, PDF: pdf}).Threshold(0.5, 0.5); got != 1 {
		t.Errorf("zero NStar = %v, want 1", got)
	}
	if got := (LogConstantHorizontal{C2: 1, NStar: 100, Epsilon: 0, PDF: pdf}).Threshold(0.5, 0.5); got != 1 {
		t.Errorf("zero epsilon = %v, want 1", got)
	}
	if got := (LogConstantHorizontal{C2: 1, NStar: 100, Epsilon: 0.1, PDF: nil}).Threshold(0.5, 0.5); got != 1 {
		t.Errorf("nil PDF = %v, want 1", got)
	}
}

func TestUniformRandom(t *testing.T) {
	u := UniformRandom{P: 0.02}
	if got := u.Threshold(0.1, 0.9); got != 0.02 {
		t.Errorf("Threshold = %v", got)
	}
}

func TestPaperPredicateValidation(t *testing.T) {
	pdf := avdist.Overnet(100)
	if _, err := PaperPredicate(0.1, 1, 1, 1000, nil); err == nil {
		t.Error("want error for nil pdf")
	}
	if _, err := PaperPredicate(0.1, 1, 1, 0, pdf); err == nil {
		t.Error("want error for zero nStar")
	}
	if _, err := PaperPredicate(0.1, 0, 1, 1000, pdf); err == nil {
		t.Error("want error for zero c1")
	}
	if _, err := PaperPredicate(0.1, 1, -1, 1000, pdf); err == nil {
		t.Error("want error for negative c2")
	}
	p, err := PaperPredicate(0.1, 1, 1, 1000, pdf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Horizontal.Name() != (LogConstantHorizontal{}).Name() {
		t.Errorf("horizontal sub-predicate = %v", p.Horizontal.Name())
	}
	if p.Vertical.Name() != (LogVertical{}).Name() {
		t.Errorf("vertical sub-predicate = %v", p.Vertical.Name())
	}
}

func TestRandomPredicate(t *testing.T) {
	p, err := RandomPredicate(0.1, 20, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Threshold(0.1, 0.9); got != 0.02 {
		t.Errorf("vertical threshold = %v, want 0.02", got)
	}
	if got := p.Threshold(0.5, 0.52); got != 0.02 {
		t.Errorf("horizontal threshold = %v, want 0.02", got)
	}
	if _, err := RandomPredicate(0.1, 20, 0); err == nil {
		t.Error("want error for zero nStar")
	}
}

func TestThresholdAlwaysInUnitIntervalProperty(t *testing.T) {
	pdf := avdist.Overnet(100)
	p, err := PaperPredicate(0.1, 1.5, 2.0, 442, pdf)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawX, rawY float64) bool {
		avX := math.Abs(math.Mod(rawX, 1))
		avY := math.Abs(math.Mod(rawY, 1))
		thr := p.Threshold(avX, avY)
		return thr >= 0 && thr <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMonotoneInConstantsProperty(t *testing.T) {
	pdf := avdist.Overnet(100)
	small := LogVertical{C1: 0.5, NStar: 1000, PDF: pdf}
	large := LogVertical{C1: 2.0, NStar: 1000, PDF: pdf}
	prop := func(rawY float64) bool {
		avY := math.Abs(math.Mod(rawY, 1))
		return small.Threshold(0.5, avY) <= large.Threshold(0.5, avY)+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSliverString(t *testing.T) {
	if SliverHorizontal.String() != "HS" || SliverVertical.String() != "VS" || SliverNone.String() != "none" {
		t.Error("sliver strings wrong")
	}
}

func TestFlavorString(t *testing.T) {
	if HSOnly.String() != "HS-only" || VSOnly.String() != "VS-only" || HSVS.String() != "HS+VS" {
		t.Error("flavor strings wrong")
	}
	if Flavor(9).String() != "Flavor(9)" {
		t.Errorf("unknown flavor = %q", Flavor(9).String())
	}
}
