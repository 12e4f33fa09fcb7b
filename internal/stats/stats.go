// Package stats provides the small statistics toolkit the experiment
// harness uses to turn raw simulation measurements into exactly the
// series the paper's figures plot: empirical CDFs, availability-bucketed
// means, scatter series, histograms, and summary statistics — plus the
// splitmix64 source its reservoir samples with, which per-node streams
// (shuffle agents, runtime Envs) run on too (DESIGN.md §7).
//
// Architecture: DESIGN.md §9 (deployment engines and the scenario
// layer — reporting).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual scalar descriptors of a sample set.
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary over values. An empty input yields a
// zero Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(values)))
	s.Median = Percentile(values, 50)
	return s
}

// Percentile returns the p-th percentile (0..100) of values using linear
// interpolation between order statistics. It copies and sorts internally.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ScatterPoint is one (x, y) observation, e.g. (availability, sliver size).
type ScatterPoint struct {
	X float64
	Y float64
}

// Histogram counts values into equal-width buckets over [lo, hi]. Values
// outside the range are clamped into the edge buckets. It returns the
// per-bucket counts; bucket i covers [lo + i*w, lo + (i+1)*w).
func Histogram(values []float64, lo, hi float64, buckets int) []int {
	if buckets <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, buckets)
	w := (hi - lo) / float64(buckets)
	for _, v := range values {
		i := int((v - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	return counts
}

// BucketedMean groups scatter points by X into equal-width buckets over
// [0,1] and returns the mean Y per non-empty bucket. The paper's Figures
// 5 and 6 average across 0.1-wide availability ranges; width 0.1 and 10
// buckets reproduce that. Empty buckets yield NaN.
func BucketedMean(points []ScatterPoint, buckets int) []float64 {
	if buckets <= 0 {
		return nil
	}
	sums := make([]float64, buckets)
	counts := make([]int, buckets)
	for _, p := range points {
		i := int(p.X * float64(buckets))
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		sums[i] += p.Y
		counts[i]++
	}
	out := make([]float64, buckets)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// BucketedMedian is BucketedMean's robust sibling: the median Y per
// non-empty X bucket (the paper reads medians off Figures 2b/2c).
func BucketedMedian(points []ScatterPoint, buckets int) []float64 {
	if buckets <= 0 {
		return nil
	}
	groups := make([][]float64, buckets)
	for _, p := range points {
		i := int(p.X * float64(buckets))
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		groups[i] = append(groups[i], p.Y)
	}
	out := make([]float64, buckets)
	for i, g := range groups {
		if len(g) == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = Percentile(g, 50)
		}
	}
	return out
}

// Series is a named sequence of (x, y) pairs — one plotted line.
type Series struct {
	Name   string
	Points []ScatterPoint
}

// Table renders one or more series as an aligned text table with a
// header, the form the scenario probes print their per-decile rows in.
func Table(xLabel string, series ...Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	// Collect the union of x values in order.
	xsSeen := make(map[float64]bool)
	xs := make([]float64, 0, 16)
	for _, s := range series {
		for _, p := range s.Points {
			if !xsSeen[p.X] {
				xsSeen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range series {
			y, ok := lookupX(s.Points, x)
			if !ok || math.IsNaN(y) {
				fmt.Fprintf(&b, " %16s", "-")
			} else {
				fmt.Fprintf(&b, " %16.4g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookupX(points []ScatterPoint, x float64) (float64, bool) {
	for _, p := range points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// FractionBelow returns the fraction of values <= threshold.
func FractionBelow(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v <= threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// Correlation returns the Pearson correlation coefficient of the
// points' X and Y coordinates, or 0 when undefined (fewer than two
// points or zero variance). The harness uses it to quantify
// "uncorrelated" claims such as Figure 2(c)'s.
func Correlation(points []ScatterPoint) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for _, p := range points {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for _, p := range points {
		dx, dy := p.X-mx, p.Y-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
