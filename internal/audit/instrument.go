package audit

import (
	"fmt"

	"avmem/internal/obs"
	"avmem/internal/ops"
)

// Instruments is the audit layer's shared instrument set. One
// Instruments value serves every per-node Auditor in a deployment
// (counters are atomic, auditors run serialized by the engine), so
// the registry sees fleet-wide totals. A nil *Instruments disables
// recording at the cost of one nil check per audit verdict.
type Instruments struct {
	suspicions map[string]*obs.Counter // audit_suspicions_total{reason=...}
	evictions  *obs.Counter            // audit_evictions_total
	cleans     *obs.Counter            // audit_cleans_total
	interned   *obs.Counter            // audit_peers_interned_total
}

// suspicionReasons is the closed set of evidence labels hit() is
// called with; pre-registering them keeps the hot path lock-free (the
// map is read-only after NewInstruments).
var suspicionReasons = append([]string{
	"availability-claim",
	"predicate-recheck",
	"self-advertising-reply",
}, ops.AggRejectReasons...)

// NewInstruments registers the audit metrics in reg. Returns nil on a
// nil registry (uninstrumented deployment).
func NewInstruments(reg *obs.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	ins := &Instruments{
		suspicions: make(map[string]*obs.Counter, len(suspicionReasons)),
		evictions:  reg.Counter("audit_evictions_total"),
		cleans:     reg.Counter("audit_cleans_total"),
		interned:   reg.Counter("audit_peers_interned_total"),
	}
	for _, reason := range suspicionReasons {
		ins.suspicions[reason] = reg.Counter(fmt.Sprintf("audit_suspicions_total{reason=%q}", reason))
	}
	return ins
}

// suspicion records one piece of evidence against a peer.
func (ins *Instruments) suspicion(reason string) {
	if ins == nil {
		return
	}
	// Unknown reasons fall through to a nil counter, which no-ops —
	// a new evidence label degrades silently rather than panicking.
	ins.suspicions[reason].Inc()
}

// eviction records a terminal eviction verdict.
func (ins *Instruments) eviction() {
	if ins == nil {
		return
	}
	ins.evictions.Inc()
}

// clean records a decay step from consistent behavior.
func (ins *Instruments) clean() {
	if ins == nil {
		return
	}
	ins.cleans.Inc()
}

// internedPeer records a peer the auditor had to number itself: one that
// is outside the host universe, or any peer when there is none.
func (ins *Instruments) internedPeer() {
	if ins == nil {
		return
	}
	ins.interned.Inc()
}
