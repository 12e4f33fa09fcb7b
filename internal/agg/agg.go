// Package agg implements in-overlay partial aggregation — the third
// management-operation family next to anycast and multicast (DESIGN.md
// §13). An aggregation operation computes count/sum/min/max/avg of a
// node-local value over every node whose availability lies in a
// half-open band, without any central collection point: the request
// disseminates through the availability-filtered sliver lists, forming
// an implicit spanning tree (each node's parent is the peer it first
// heard the request from), and partial aggregates flow back up the tree
// with per-hop combining, so no node ever sees more than its children's
// partials.
//
// The package is transport-agnostic: Partial is the pure combining
// algebra, and Station is the per-node state machine — one open record
// per operation id, child-partial absorption, and convergence detection
// (a pending aggregation finalizes as soon as every forwarded-to child
// is accounted for by a partial, a decline, or a delivery failure, with
// a depth-staggered wave deadline as the hard backstop for children
// lost mid-operation). ops.Router owns a Station,
// binds it to the wire messages and decides, with its duplicate-
// suppression set, which requests join a tree; internal/exp supplies
// ground truth and accuracy accounting.
package agg

import (
	"fmt"
	"math"
	"time"
)

// Op selects the aggregate an operation computes.
type Op int

// Aggregation operators.
const (
	// Count counts the contributing nodes.
	Count Op = iota + 1
	// Sum adds the node-local values.
	Sum
	// Min takes the smallest node-local value.
	Min
	// Max takes the largest node-local value.
	Max
	// Avg divides Sum by Count.
	Avg
)

// opNames names the operators.
var opNames = [...]string{Count: "count", Sum: "sum", Min: "min", Max: "max", Avg: "avg"}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o < Count || o > Avg {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Validate checks the operator is known.
func (o Op) Validate() error {
	if o < Count || o > Avg {
		return fmt.Errorf("agg: invalid op %v", o)
	}
	return nil
}

// Partial is a combinable partial aggregate. It carries every moment
// the supported operators need, so one wire struct serves all five and
// merging is associative and commutative — the order children report
// in cannot change the result (Sum up to floating-point rounding; the
// discrete moments exactly). Within one engine run the report order is
// itself deterministic, so scenario results stay bit-reproducible.
type Partial struct {
	// N counts contributing nodes.
	N int
	// Sum, Min, Max fold the contributed values (Min/Max are only
	// meaningful when N > 0).
	Sum float64
	Min float64
	Max float64
	// Depth is the maximum tree depth over all contributors — the
	// operation's hop radius, reported for the agg_mean_hops metric.
	Depth int
}

// Observe folds one node-local value contributed at the given tree
// depth into the partial.
func (p *Partial) Observe(v float64, depth int) {
	p.Merge(Partial{N: 1, Sum: v, Min: v, Max: v, Depth: depth})
}

// Merge folds a child partial into this one.
func (p *Partial) Merge(q Partial) {
	if q.N == 0 {
		return
	}
	if p.N == 0 || q.Min < p.Min {
		p.Min = q.Min
	}
	if p.N == 0 || q.Max > p.Max {
		p.Max = q.Max
	}
	p.N += q.N
	p.Sum += q.Sum
	if q.Depth > p.Depth {
		p.Depth = q.Depth
	}
}

// Value extracts the aggregate for op. An empty partial (no
// contributors) yields NaN for the value operators and 0 for Count.
func (p Partial) Value(op Op) float64 {
	switch {
	case op == Count:
		return float64(p.N)
	case op == Sum:
		return p.Sum
	case p.N == 0 || op < Count || op > Avg:
		return math.NaN()
	case op == Min:
		return p.Min
	case op == Max:
		return p.Max
	default: // Avg
		return p.Sum / float64(p.N)
	}
}

// The aggregation wave timing, in virtual time, hence free in either
// engine.
const (
	// Wave is the per-level hold quantum of the deadline backstop: a node
	// at depth d concludes no later than Wave×(MaxDepth−d+1) after it
	// joined the tree, so children (deeper, hence shorter budgets) hit
	// their deadlines before their parents do. Comfortably above the
	// per-hop latency model, so a child's partial beats its parent's
	// deadline even on the slowest link.
	Wave = time.Second
	// MaxDepth bounds the dissemination tree; nodes at MaxDepth stop
	// forwarding (≈ overlay diameter at paper scale).
	MaxDepth = 8
)

// frontSize is how many records a station keeps in its front.
const frontSize = 4

// pending is one aggregation at this node: the combining state plus the
// caller's own record of the tree (val). Records are recycled: a record
// returns to its station's free list when its deadline timer fires — one
// timer is armed per Open — so its callbacks are bound once per record,
// not once per Open.
type pending[K comparable, V any] struct {
	id  K
	acc Partial
	val V
	// outstanding counts forwarded-to children not yet accounted for;
	// expected flips once Expect ran, so an aggregation cannot converge
	// before the caller even forwarded the request.
	outstanding int
	expected    bool
	// live is set from Open until the aggregation concludes.
	live bool
	// deadline is the record's timer callback; decline its nack callback
	// (Open), which counts only while serial still names it (expire).
	deadline, decline func()
	serial            uint64
}

// Station is the per-node aggregation state machine. It owns no wire
// format and no locks: the caller (ops.Router under the simulator's
// single thread, or node.Node under its gate) serializes access and
// supplies the clockwork through After. Each open aggregation keeps one
// record, which holds the caller's V next to the combining state.
type Station[K comparable, V any] struct {
	after    func(d time.Duration, fn func())
	binder   Binder
	conclude func(id K, v *V, p Partial)

	// recs maps each open aggregation's id to its record.
	recs map[K]*pending[K, V]
	// front holds the records last opened or found in recs (a live front
	// record is in recs): a tree's messages reach a member in bursts, so
	// most lookups compare a few ids here and hash none.
	front [frontSize]*pending[K, V]
	next  int
	// free holds records whose deadline has fired, for Open to reuse.
	free []*pending[K, V]
}

// Binder wraps a callback once, as the host wraps the callbacks it runs
// (a node's gate: ops.Binder).
type Binder interface{ Bind(fn func()) func() }

// NewStation builds a Station. after schedules the deadlines (the host
// Env's timer); binder, when not nil, wraps each record callback — the
// deadline and the decline — once, when the record binds it; conclude is
// called exactly once per Open — at convergence or the deadline — with
// the id, the V given to Open, and the combined partial. The caller sends
// the partial to the parent, or to the origin at the tree root.
func NewStation[K comparable, V any](after func(d time.Duration, fn func()), binder Binder, conclude func(id K, v *V, p Partial)) (*Station[K, V], error) {
	if after == nil || conclude == nil {
		return nil, fmt.Errorf("agg: after scheduler and conclude are required")
	}
	// recs is allocated lazily: most stations in a large world never
	// participate in an aggregation.
	return &Station[K, V]{after: after, binder: binder, conclude: conclude}, nil
}

// bind wraps a record callback with the binder, if there is one.
func (s *Station[K, V]) bind(fn func()) func() {
	if s.binder == nil {
		return fn
	}
	return s.binder.Bind(fn)
}

// lookup returns id's record while the aggregation is open, nil
// otherwise: from the front, or else from recs, moving the record into
// the front.
func (s *Station[K, V]) lookup(id K) *pending[K, V] {
	for _, p := range s.front {
		if p != nil && p.live && p.id == id {
			return p
		}
	}
	p := s.recs[id]
	if p != nil {
		s.remember(p)
	}
	return p
}

// remember puts p in the front, over its oldest entry.
func (s *Station[K, V]) remember(p *pending[K, V]) {
	s.front[s.next], s.next = p, (s.next+1)%frontSize
}

// Open starts a pending aggregation for id at the given tree depth,
// keeping v in its record. When contribute is true, local is folded in
// as this node's own value (an out-of-band tree root relays without
// contributing). It returns the record's decline callback, the nack for
// each forward, which accounts for a child as Decline does — or nil when
// id's record is still open: then nothing started, and the caller must
// decline. A concluded id may open again; the caller's duplicate
// suppression decides whether it should.
func (s *Station[K, V]) Open(id K, depth int, local float64, contribute bool, v V) (decline func()) {
	if s.lookup(id) != nil {
		return nil
	}
	p := s.record()
	p.id, p.val, p.live = id, v, true
	if contribute {
		p.acc.Observe(local, depth)
	}
	if s.recs == nil {
		s.recs = make(map[K]*pending[K, V], 8)
	}
	s.recs[id] = p
	s.remember(p)
	// One timer per aggregation, at the depth-staggered deadline: the
	// hard stop for children lost mid-operation. After an earlier
	// convergence it finds the record concluded and only recycles it.
	waves := max(MaxDepth-depth, 0) + 1
	s.after(time.Duration(waves)*Wave, p.deadline)
	return p.decline
}

// Lookup returns the V of id's open record; false once the aggregation
// concluded (or was never opened here).
func (s *Station[K, V]) Lookup(id K) (*V, bool) {
	if p := s.lookup(id); p != nil {
		return &p.val, true
	}
	return nil, false
}

// record returns a zeroed pending record, reused from the free list when
// one is there, with its callbacks bound.
func (s *Station[K, V]) record() *pending[K, V] {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		*p = pending[K, V]{deadline: p.deadline, decline: p.decline, serial: p.serial}
		return p
	}
	p := &pending[K, V]{}
	p.deadline = s.bind(func() { s.expire(p) })
	s.bindDecline(p)
	return p
}

// bindDecline gives p a decline callback of its current serial.
func (s *Station[K, V]) bindDecline(p *pending[K, V]) {
	serial := p.serial
	p.decline = s.bind(func() {
		if p.serial == serial {
			s.account(p)
		}
	})
}

// expire is a record's deadline: it concludes the aggregation if it is
// still open and recycles the record. After a convergence every child is
// accounted for — a forward is nacked or answered, never both — so no
// nack can still come, and the next tree takes the callback over. With
// children outstanding a nack may yet arrive, as late as the transport
// likes: that callback is retired for good (serial moves on), so a stale
// nack never credits the next tree.
func (s *Station[K, V]) expire(p *pending[K, V]) {
	if p.live {
		s.finish(p)
	}
	if !p.expected || p.outstanding != 0 {
		p.serial++
		s.bindDecline(p)
	}
	s.free = append(s.free, p)
}

// Expect records how many children the caller forwarded the request to,
// arming convergence detection: once Absorb, Decline or the decline
// callback accounted for every child, the aggregation concludes without
// waiting for the deadline; a leaf (children == 0) at once. The count is
// added, so a nack that fired during forwarding stays accounted.
func (s *Station[K, V]) Expect(id K, children int) {
	if p := s.lookup(id); p != nil && !p.expected {
		p.expected = true
		p.outstanding += children
		s.maybeConverge(p)
	}
}

// Absorb folds a child partial into a pending aggregation and marks
// one child accounted for. Partials for unknown or finished operations
// are dropped: late stragglers after the deadline.
func (s *Station[K, V]) Absorb(id K, q Partial) {
	if p := s.lookup(id); p != nil {
		p.acc.Merge(q)
		s.account(p)
	}
}

// Decline marks one child accounted for without a contribution: the
// child was already in the tree through another parent, or lies outside
// the band.
func (s *Station[K, V]) Decline(id K) {
	if p := s.lookup(id); p != nil {
		s.account(p)
	}
}

// Pending returns the number of in-flight aggregations.
func (s *Station[K, V]) Pending() int { return len(s.recs) }

// account marks one child of p accounted for, while p is open.
func (s *Station[K, V]) account(p *pending[K, V]) {
	if p.live {
		p.outstanding--
		s.maybeConverge(p)
	}
}

// maybeConverge concludes once every forwarded-to child is accounted for.
func (s *Station[K, V]) maybeConverge(p *pending[K, V]) {
	if p.expected && p.outstanding <= 0 {
		s.finish(p)
	}
}

// finish retires the aggregation, forgetting its id, and reports its
// combined partial.
func (s *Station[K, V]) finish(p *pending[K, V]) {
	p.live = false
	delete(s.recs, p.id)
	s.conclude(p.id, &p.val, p.acc)
}
