package exp

import (
	"math"

	"avmem/internal/core"
	"avmem/internal/stats"
)

// OverlaySnapshot is the material of Figures 2(a,b,c): the availability
// distribution of online nodes and the per-node sliver sizes at one
// instant.
type OverlaySnapshot struct {
	// OnlineCount is the number of online nodes at the snapshot (the
	// paper's 24h snapshot has 442 of 1442 online).
	OnlineCount int
	// AvailHistogram counts online nodes per 0.05-wide availability
	// bucket (Figure 2a).
	AvailHistogram []int
	// HS and VS are per-online-node (availability, sliver size) points
	// (Figures 2b and 2c).
	HS []stats.ScatterPoint
	VS []stats.ScatterPoint
	// HSMedian and VSMedian are the per-0.1-bucket median sliver sizes.
	HSMedian []float64
	VSMedian []float64
}

// SnapshotOverlay captures Figures 2(a,b,c) from the current instant.
func SnapshotOverlay(w *Deployment) OverlaySnapshot {
	online := w.OnlineHosts()
	snap := OverlaySnapshot{
		OnlineCount: len(online),
		HS:          make([]stats.ScatterPoint, 0, len(online)),
		VS:          make([]stats.ScatterPoint, 0, len(online)),
	}
	avails := make([]float64, 0, len(online))
	for _, id := range online {
		av := w.TrueAvailability(id)
		avails = append(avails, av)
		m := w.Membership(id)
		snap.HS = append(snap.HS, stats.ScatterPoint{X: av, Y: float64(m.SliverSize(core.SliverHorizontal))})
		snap.VS = append(snap.VS, stats.ScatterPoint{X: av, Y: float64(m.SliverSize(core.SliverVertical))})
	}
	snap.AvailHistogram = stats.Histogram(avails, 0, 1, 20)
	snap.HSMedian = stats.BucketedMedian(snap.HS, 10)
	snap.VSMedian = stats.BucketedMedian(snap.VS, 10)
	return snap
}

// HorizontalScaling is Figure 3: horizontal sliver size as a function
// of the total number of candidate nodes within ±ε availability of the
// node (the whole population, online or not — membership is a long-term
// relation, so slivers legitimately retain currently-offline members).
// The paper's claim: growth is sublinear.
type HorizontalScaling struct {
	// Points are (candidate count, HS size) per online node.
	Points []stats.ScatterPoint
}

// ScanHorizontalScaling captures Figure 3 from the current instant.
func ScanHorizontalScaling(w *Deployment) HorizontalScaling {
	online := w.OnlineHosts()
	all := w.Hosts()
	avails := make(map[string]float64, len(all))
	for _, id := range all {
		avails[string(id)] = w.TrueAvailability(id)
	}
	out := HorizontalScaling{Points: make([]stats.ScatterPoint, 0, len(online))}
	for _, id := range online {
		m := w.Membership(id)
		eps, av := m.Predicate().Epsilon, avails[string(id)]
		candidates := 0
		for _, other := range all {
			if other == id {
				continue
			}
			diff := avails[string(other)] - av
			if diff < 0 {
				diff = -diff
			}
			if diff < eps {
				candidates++
			}
		}
		hs := m.SliverSize(core.SliverHorizontal)
		out.Points = append(out.Points, stats.ScatterPoint{X: float64(candidates), Y: float64(hs)})
	}
	return out
}

// SublinearityRatio summarizes Figure 3's claim as a single number: the
// mean HS size of the densest-quartile nodes divided by that of the
// sparsest quartile, over the candidate-count ratio of the same
// quartiles. Sublinear growth yields a value well below 1.
func (h HorizontalScaling) SublinearityRatio() float64 {
	if len(h.Points) < 8 {
		return 0
	}
	xs := make([]float64, len(h.Points))
	for i, p := range h.Points {
		xs[i] = p.X
	}
	q1 := stats.Percentile(xs, 25)
	q3 := stats.Percentile(xs, 75)
	if q3 <= q1 {
		return 0
	}
	var loX, loY, hiX, hiY, nLo, nHi float64
	for _, p := range h.Points {
		switch {
		case p.X <= q1:
			loX += p.X
			loY += p.Y
			nLo++
		case p.X >= q3:
			hiX += p.X
			hiY += p.Y
			nHi++
		}
	}
	if nLo == 0 || nHi == 0 || loY == 0 || loX == 0 {
		return 0
	}
	sizeRatio := (hiY / nHi) / (loY / nLo)
	countRatio := (hiX / nHi) / (loX / nLo)
	if countRatio == 0 {
		return 0
	}
	return sizeRatio / countRatio
}

// VSInDegree is Figure 4: the total number of incoming vertical-sliver
// references pointing at nodes in each availability range. The paper's
// claim: uniform across ranges, uncorrelated with the node population.
type VSInDegree struct {
	// PerBucket is the total incoming VS link count per 0.1-wide
	// availability bucket of the referenced node.
	PerBucket []float64
	// Population is the online-node count per bucket (for contrast with
	// Figure 2a's skew).
	Population []int
	// Points are (availability of node, its VS in-degree).
	Points []stats.ScatterPoint
}

// ScanVSInDegree captures Figure 4 from the current instant.
func ScanVSInDegree(w *Deployment) VSInDegree {
	online := w.OnlineHosts()
	indeg := make(map[string]int, len(online))
	for _, id := range online {
		for _, nb := range w.Membership(id).Neighbors(core.VSOnly) {
			if nb.Sliver == core.SliverVertical {
				indeg[string(nb.ID)]++
			}
		}
	}
	out := VSInDegree{
		PerBucket:  make([]float64, 10),
		Population: make([]int, 10),
		Points:     make([]stats.ScatterPoint, 0, len(online)),
	}
	for _, id := range online {
		av := w.TrueAvailability(id)
		b := int(av * 10)
		if b > 9 {
			b = 9
		}
		d := float64(indeg[string(id)])
		out.PerBucket[b] += d
		out.Population[b]++
		out.Points = append(out.Points, stats.ScatterPoint{X: av, Y: d})
	}
	return out
}

// Spread summarizes Figure 4's claim as a single number: the largest
// over the smallest mean incoming VS references per online node, across
// the availability buckets holding at least three online nodes. Uniform
// coverage yields 1; 0 means no bucket qualified or one drew no
// references at all.
func (v VSInDegree) Spread() float64 {
	lo, hi := math.Inf(1), 0.0
	for b, pop := range v.Population {
		if pop < 3 {
			continue
		}
		perNode := v.PerBucket[b] / float64(pop)
		lo, hi = math.Min(lo, perNode), math.Max(hi, perNode)
	}
	if lo == 0 || math.IsInf(lo, 1) {
		return 0
	}
	return hi / lo
}
