package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Errorf("StdDev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.Median != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{100, 40},
		{50, 25},
		{25, 17.5},
		{-5, 10},
		{150, 40},
	}
	for _, tc := range tests {
		if got := Percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("Percentile mutated input: %v", vals)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0.05, 0.15, 0.15, 0.95, -1, 2}, 0, 1, 10)
	if counts[0] != 2 { // 0.05 and clamped -1
		t.Errorf("bucket 0 = %d, want 2", counts[0])
	}
	if counts[1] != 2 {
		t.Errorf("bucket 1 = %d, want 2", counts[1])
	}
	if counts[9] != 2 { // 0.95 and clamped 2
		t.Errorf("bucket 9 = %d, want 2", counts[9])
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if got := Histogram([]float64{1}, 0, 1, 0); got != nil {
		t.Errorf("Histogram with 0 buckets = %v, want nil", got)
	}
	if got := Histogram([]float64{1}, 1, 0, 10); got != nil {
		t.Errorf("Histogram with inverted range = %v, want nil", got)
	}
}

func TestBucketedMean(t *testing.T) {
	points := []ScatterPoint{
		{0.05, 10}, {0.07, 20}, // bucket 0 -> mean 15
		{0.55, 4}, // bucket 5 -> 4
		{1.0, 8},  // clamps into bucket 9
	}
	means := BucketedMean(points, 10)
	if means[0] != 15 {
		t.Errorf("bucket 0 mean = %v, want 15", means[0])
	}
	if means[5] != 4 {
		t.Errorf("bucket 5 mean = %v, want 4", means[5])
	}
	if means[9] != 8 {
		t.Errorf("bucket 9 mean = %v, want 8", means[9])
	}
	if !math.IsNaN(means[3]) {
		t.Errorf("empty bucket mean = %v, want NaN", means[3])
	}
}

func TestBucketedMedian(t *testing.T) {
	points := []ScatterPoint{
		{0.15, 1}, {0.16, 100}, {0.17, 3},
	}
	medians := BucketedMedian(points, 10)
	if medians[1] != 3 {
		t.Errorf("bucket 1 median = %v, want 3", medians[1])
	}
}

func TestBucketedDegenerate(t *testing.T) {
	if got := BucketedMean(nil, 0); got != nil {
		t.Errorf("BucketedMean 0 buckets = %v", got)
	}
	if got := BucketedMedian(nil, 0); got != nil {
		t.Errorf("BucketedMedian 0 buckets = %v", got)
	}
}

func TestTable(t *testing.T) {
	out := Table("x",
		Series{Name: "a", Points: []ScatterPoint{{1, 10}, {2, 20}}},
		Series{Name: "b", Points: []ScatterPoint{{1, 0.5}}},
	)
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("Table missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 x rows
		t.Errorf("Table rows = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "-") {
		t.Errorf("missing value not rendered as '-':\n%s", out)
	}
}

func TestFractionBelow(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := FractionBelow(vals, 2); got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionBelow(nil, 2); got != 0 {
		t.Errorf("FractionBelow(nil) = %v, want 0", got)
	}
}

func TestCorrelation(t *testing.T) {
	perfect := []ScatterPoint{{1, 2}, {2, 4}, {3, 6}}
	if got := Correlation(perfect); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v, want 1", got)
	}
	inverse := []ScatterPoint{{1, 6}, {2, 4}, {3, 2}}
	if got := Correlation(inverse); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v, want -1", got)
	}
	flat := []ScatterPoint{{1, 5}, {2, 5}, {3, 5}}
	if got := Correlation(flat); got != 0 {
		t.Errorf("zero-variance correlation = %v, want 0", got)
	}
	if got := Correlation(nil); got != 0 {
		t.Errorf("empty correlation = %v, want 0", got)
	}
	if got := Correlation([]ScatterPoint{{1, 1}}); got != 0 {
		t.Errorf("single-point correlation = %v, want 0", got)
	}
}
