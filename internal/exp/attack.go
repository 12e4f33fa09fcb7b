package exp

import (
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/stats"
)

// AttackResult holds one cushion setting's outcome for Figures 5 and 6:
// per-0.1-availability-bucket fractions, averaged over sender nodes in
// the bucket.
type AttackResult struct {
	Cushion float64
	// PerBucket is the mean fraction per 0.1-wide availability bucket
	// of the *sending* node (NaN for empty buckets).
	PerBucket []float64
	// Overall is the global mean fraction across all evaluated senders.
	Overall float64
}

// verifyPair evaluates the receiving-side in-neighbor check for a
// message from sender x arriving at receiver y, using y's information:
// the (possibly noisy/stale) monitoring answer for x and y's own cached
// availability.
func verifyPair(w *Deployment, x, y ids.NodeID, cushion float64) bool {
	avX, ok := w.Monitor.Availability(x)
	if !ok {
		return false
	}
	my := w.Membership(y)
	ok2, _ := my.Predicate().EvalNodes(
		core.NodeInfo{ID: x, Availability: avX},
		my.SelfInfo(),
		cushion, w.Hashes)
	return ok2
}

// FloodingAttack is Figure 5: every online node x plays the selfish
// flooder, attempting to message every online node y outside its AVMEM
// neighbor lists; we measure the fraction of those non-neighbors that
// would accept (verify) the message, per availability bucket of x.
// The paper's claim: under 10% regardless of x's availability.
func FloodingAttack(w *Deployment, cushion float64) AttackResult {
	online := w.OnlineHosts()
	points := make([]stats.ScatterPoint, 0, len(online))
	var acceptedTotal, pairTotal float64
	for _, x := range online {
		mx := w.Membership(x)
		accepted, pairs := 0, 0
		for _, y := range online {
			if y == x || mx.Contains(y) {
				continue
			}
			pairs++
			if verifyPair(w, x, y, cushion) {
				accepted++
			}
		}
		if pairs == 0 {
			continue
		}
		frac := float64(accepted) / float64(pairs)
		points = append(points, stats.ScatterPoint{X: w.TrueAvailability(x), Y: frac})
		acceptedTotal += float64(accepted)
		pairTotal += float64(pairs)
	}
	res := AttackResult{Cushion: cushion, PerBucket: stats.BucketedMean(points, 10)}
	if pairTotal > 0 {
		res.Overall = acceptedTotal / pairTotal
	}
	return res
}

// LegitimateRejection is Figure 6: every online node x messages each of
// its believed AVMEM neighbors y; we measure the fraction of those
// legitimate messages that y would reject because its own (stale or
// noisy) information disagrees. The paper's claim: below 30% with no
// cushion, below 20% with cushion 0.1.
func LegitimateRejection(w *Deployment, cushion float64) AttackResult {
	online := w.OnlineHosts()
	points := make([]stats.ScatterPoint, 0, len(online))
	var rejectedTotal, pairTotal float64
	for _, x := range online {
		mx := w.Membership(x)
		neighbors := mx.Neighbors(core.HSVS)
		rejected, pairs := 0, 0
		for _, nb := range neighbors {
			if !w.Online(nb.ID) {
				continue
			}
			pairs++
			if !verifyPair(w, x, nb.ID, cushion) {
				rejected++
			}
		}
		if pairs == 0 {
			continue
		}
		frac := float64(rejected) / float64(pairs)
		points = append(points, stats.ScatterPoint{X: w.TrueAvailability(x), Y: frac})
		rejectedTotal += float64(rejected)
		pairTotal += float64(pairs)
	}
	res := AttackResult{Cushion: cushion, PerBucket: stats.BucketedMean(points, 10)}
	if pairTotal > 0 {
		res.Overall = rejectedTotal / pairTotal
	}
	return res
}
