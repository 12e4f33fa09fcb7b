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
// algebra, and Station is the per-node state machine — duplicate
// suppression by operation id, child-partial absorption, and
// convergence detection (a pending aggregation finalizes as soon as
// every forwarded-to child is accounted for by a partial, a decline, or
// a delivery failure, with a depth-staggered wave deadline as the hard
// backstop for children lost mid-operation). ops.Router owns a Station
// and binds it to the wire messages; internal/exp supplies ground truth
// and accuracy accounting.
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

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Validate checks the operator is known.
func (o Op) Validate() error {
	switch o {
	case Count, Sum, Min, Max, Avg:
		return nil
	default:
		return fmt.Errorf("agg: invalid op %v", o)
	}
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
	if p.N == 0 || v < p.Min {
		p.Min = v
	}
	if p.N == 0 || v > p.Max {
		p.Max = v
	}
	p.N++
	p.Sum += v
	if depth > p.Depth {
		p.Depth = depth
	}
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
	switch op {
	case Count:
		return float64(p.N)
	case Sum:
		return p.Sum
	case Min:
		if p.N == 0 {
			return math.NaN()
		}
		return p.Min
	case Max:
		if p.N == 0 {
			return math.NaN()
		}
		return p.Max
	case Avg:
		if p.N == 0 {
			return math.NaN()
		}
		return p.Sum / float64(p.N)
	default:
		return math.NaN()
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

// maxDone bounds the finished-operation suppression set; like the
// router's seen set, aggregations are short-lived so a full reset on
// overflow is harmless.
const maxDone = 1 << 14

// pending is one in-flight aggregation at this node: the combining
// state plus the caller's own record of the tree (val). Records are
// recycled: a record returns to its station's free list when its
// deadline timer fires — the last reference to it, since one timer is
// armed per Open — so the timer callback is bound once per record, not
// once per Open.
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
	// deadline is the record's timer callback, bound when the record was
	// first built.
	deadline func()
}

// Station is the per-node aggregation state machine. It owns no wire
// format and no locks: the caller (ops.Router under the simulator's
// single thread, or node.Node under its gate) serializes access and
// supplies the clockwork through After. Each open aggregation keeps one
// record, which holds the caller's V next to the combining state.
type Station[K comparable, V any] struct {
	after    func(d time.Duration, fn func())
	conclude func(id K, v *V, p Partial)

	open map[K]*pending[K, V]
	done map[K]bool
	// free holds records whose deadline has fired, for Open to reuse.
	free []*pending[K, V]
}

// NewStation builds a Station. after schedules the deadlines (the host
// Env's timer); conclude is called exactly once per Open — at
// convergence or the deadline — with the id, the V given to Open, and
// the combined partial. The caller sends the partial to the parent, or
// to the origin at the tree root.
func NewStation[K comparable, V any](after func(d time.Duration, fn func()), conclude func(id K, v *V, p Partial)) (*Station[K, V], error) {
	if after == nil || conclude == nil {
		return nil, fmt.Errorf("agg: after scheduler and conclude are required")
	}
	// open/done are allocated lazily: most stations in a large world
	// never participate in an aggregation.
	return &Station[K, V]{after: after, conclude: conclude}, nil
}

// Seen reports whether the station already holds (or held) operation
// id — the duplicate-suppression test a receiver consults before
// joining the tree (a duplicate receiver declines instead).
func (s *Station[K, V]) Seen(id K) bool {
	if s.done[id] {
		return true
	}
	_, ok := s.open[id]
	return ok
}

// Open starts a pending aggregation for id at the given tree depth,
// keeping v in its record. When contribute is true, local is folded in
// as this node's own value (an out-of-band tree root relays without
// contributing). Open returns false for a duplicate id, in which case
// nothing was started and the caller must decline rather than forward
// again.
func (s *Station[K, V]) Open(id K, depth int, local float64, contribute bool, v V) bool {
	if s.Seen(id) {
		return false
	}
	p := s.record()
	p.id, p.val, p.live = id, v, true
	if contribute {
		p.acc.Observe(local, depth)
	}
	if s.open == nil {
		s.open = make(map[K]*pending[K, V], 8)
	}
	s.open[id] = p
	// One timer per aggregation, at the depth-staggered deadline: the
	// hard stop for children lost mid-operation. After an earlier
	// convergence it finds the record concluded and only recycles it.
	waves := max(MaxDepth-depth, 0) + 1
	s.after(time.Duration(waves)*Wave, p.deadline)
	return true
}

// Lookup returns the V of id's open record; false once the aggregation
// concluded (or was never opened here).
func (s *Station[K, V]) Lookup(id K) (*V, bool) {
	p, ok := s.open[id]
	if !ok {
		return nil, false
	}
	return &p.val, true
}

// record returns a zeroed pending record, reused from the free list when
// one is there, with its deadline callback bound.
func (s *Station[K, V]) record() *pending[K, V] {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		*p = pending[K, V]{deadline: p.deadline}
		return p
	}
	p := &pending[K, V]{}
	p.deadline = func() { s.expire(p) }
	return p
}

// expire is a record's deadline: it concludes the aggregation if it is
// still open and recycles the record, which nothing else references any
// more.
func (s *Station[K, V]) expire(p *pending[K, V]) {
	if p.live {
		s.finish(p)
	}
	s.free = append(s.free, p)
}

// Expect records how many children the caller forwarded the request
// to, arming convergence detection: once every child is accounted for
// by Absorb or Decline, the aggregation concludes without waiting for
// the deadline. A leaf (children == 0) concludes immediately. The
// count is added, not assigned, so a delivery failure that nacked
// synchronously during forwarding (before Expect ran) stays accounted.
func (s *Station[K, V]) Expect(id K, children int) {
	p, ok := s.open[id]
	if !ok || p.expected {
		return
	}
	p.expected = true
	p.outstanding += children
	s.maybeConverge(p)
}

// Absorb folds a child partial into a pending aggregation and marks
// one child accounted for. Partials for unknown or finished operations
// are dropped — late stragglers after the deadline, or duplicates
// after an overflow reset.
func (s *Station[K, V]) Absorb(id K, q Partial) {
	p, ok := s.open[id]
	if !ok {
		return
	}
	p.acc.Merge(q)
	p.outstanding--
	s.maybeConverge(p)
}

// Decline marks one child accounted for without a contribution: the
// child was already in the tree through another parent, lies outside
// the band, or was unreachable (the forwarding SendCall nacked).
func (s *Station[K, V]) Decline(id K) {
	p, ok := s.open[id]
	if !ok {
		return
	}
	p.outstanding--
	s.maybeConverge(p)
}

// Pending returns the number of in-flight aggregations (tests and
// debugging).
func (s *Station[K, V]) Pending() int { return len(s.open) }

// maybeConverge concludes once every forwarded-to child is accounted
// for.
func (s *Station[K, V]) maybeConverge(p *pending[K, V]) {
	if !p.expected || p.outstanding > 0 {
		return
	}
	s.finish(p)
}

// finish retires the aggregation and reports its combined partial.
func (s *Station[K, V]) finish(p *pending[K, V]) {
	delete(s.open, p.id)
	if s.done == nil || len(s.done) >= maxDone {
		s.done = make(map[K]bool, 64)
	}
	s.done[p.id] = true
	p.live = false
	s.conclude(p.id, &p.val, p.acc)
}
