package exp

import (
	"math"
	"testing"

	"avmem/internal/core"
	"avmem/internal/ids"
)

// TestTheorem2BandConnectivity checks Theorem 2's claim on a built
// overlay: for a node x, the sub-overlay of online nodes with
// availability within ±ε of x stays connected (w.h.p.) through
// horizontal-sliver edges.
func TestTheorem2BandConnectivity(t *testing.T) {
	w := mediumWorld(t, 12)
	eps := w.Cfg.Epsilon

	checked := 0
	for _, center := range []float64{0.2, 0.5, 0.8} {
		// Collect the online band members.
		band := make([]ids.NodeID, 0, 64)
		for _, id := range w.OnlineHosts() {
			av := w.TrueAvailability(id)
			if av >= center-eps && av <= center+eps {
				band = append(band, id)
			}
		}
		if len(band) < 5 {
			continue
		}
		checked++
		// Build the undirected HS graph restricted to the band.
		index := make(map[ids.NodeID]int, len(band))
		for i, id := range band {
			index[id] = i
		}
		adj := make([][]int, len(band))
		for i, id := range band {
			for _, nb := range w.Membership(id).CopyNeighbors(core.HSOnly) {
				if j, ok := index[nb.ID]; ok {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		// BFS from node 0: the giant component should cover nearly the
		// whole band (full connectivity is "w.h.p.", and some members
		// just churned online and have not discovered yet).
		seen := make([]bool, len(band))
		queue := []int{0}
		seen[0] = true
		reached := 1
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if !seen[next] {
					seen[next] = true
					reached++
					queue = append(queue, next)
				}
			}
		}
		frac := float64(reached) / float64(len(band))
		if frac < 0.8 {
			t.Errorf("band around %.1f: giant HS component covers only %.0f%% of %d online members",
				center, frac*100, len(band))
		}
	}
	if checked == 0 {
		t.Skip("no sufficiently populated bands")
	}
}

// TestTheorem3DegreeScale checks Theorem 3's claim: the expected number
// of *online* neighbors is O(N*_av + log N*) — concretely, far below
// the online population.
func TestTheorem3DegreeScale(t *testing.T) {
	w := mediumWorld(t, 13)
	online := w.OnlineHosts()
	if len(online) < 50 {
		t.Skip("too few online nodes")
	}
	onlineSet := make(map[ids.NodeID]bool, len(online))
	for _, id := range online {
		onlineSet[id] = true
	}
	exceeded := 0
	for _, id := range online {
		onlineNeighbors := 0
		for _, nb := range w.Membership(id).Neighbors(core.HSVS) {
			if onlineSet[nb.ID] {
				onlineNeighbors++
			}
		}
		// Theorem 3 part (i): at most N*_av − 1 + c1·log N* in
		// expectation. Evaluate the bound at this node's availability.
		av := w.TrueAvailability(id)
		bound := w.PDF.NStarAv(av, w.Cfg.Epsilon, w.NStar) + w.Cfg.C1*math.Log(w.NStar)
		// Allow 2× slack for variance around the expectation.
		if float64(onlineNeighbors) > 2*bound+10 {
			exceeded++
		}
	}
	if frac := float64(exceeded) / float64(len(online)); frac > 0.05 {
		t.Errorf("%.0f%% of nodes exceed twice the Theorem-3 degree bound", frac*100)
	}
}
