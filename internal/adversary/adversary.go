// Package adversary injects Byzantine participants into an AVMEM
// deployment. A Behavior describes one way a node misbehaves; Wrap
// interposes it between the node's protocol logic and its runtime.Env,
// so the exact same node code — on the virtual-time simulator or the
// live memnet runtime — transparently lies, drops, and biases on the
// wire while believing itself honest. Behaviors compose through Mix and
// are switched on and off at run time (scenario onset/offset events)
// through a shared Switch; every randomized decision draws from the
// behavior's private, per-seed RNG stream, so adversarial runs stay
// bit-deterministic per seed and honest nodes' randomness is untouched.
//
// The built-in behaviors model the non-cooperative participants the
// paper (and the MPO/Avatar lines of related work) argue overlays must
// survive: availability inflation (lying about one's availability in
// membership and operation exchanges), eclipse-biased discovery
// (poisoning coarse-view exchanges with the adversary cohort), selective
// forwarding (black-holing relayed management operations while
// acknowledging receipt), and free-riding (ignoring shuffle duties).
//
// Architecture: DESIGN.md §10 (adversary & audit subsystem).
package adversary

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"avmem/internal/agg"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/shuffle"
	"avmem/internal/sim"
)

// Decision is a behavior's verdict on one outbound message.
type Decision struct {
	// Msg is the message to send, possibly rewritten.
	Msg any
	// Drop suppresses the send entirely.
	Drop bool
	// FakeAck, with Drop on an acknowledged send, reports success to the
	// sender anyway — the black-hole that defeats retry failover.
	FakeAck bool
	// Delay defers the send (selective delaying rather than dropping).
	Delay time.Duration
}

// Behavior is one node's misbehavior. Methods are called on the
// engine's callback thread (the owning Env serializes them); behaviors
// must draw randomness only from their own stream.
type Behavior interface {
	// Name identifies the behavior in reports.
	Name() string
	// Outbound intercepts one outbound message.
	Outbound(to ids.NodeID, msg any) Decision
	// Inbound intercepts one delivered message; false swallows it (the
	// node never sees it).
	Inbound(from ids.NodeID, msg any) bool
}

// Switch toggles a behavior mix at run time — the scenario engine's
// adversary onset/offset events flip it. Safe for concurrent use (the
// live engine's transports deliver on their own goroutines).
type Switch struct{ on atomic.Bool }

// NewSwitch returns a switch in the given initial state.
func NewSwitch(active bool) *Switch {
	s := &Switch{}
	s.on.Store(active)
	return s
}

// Set flips the switch.
func (s *Switch) Set(active bool) { s.on.Store(active) }

// Active reports the current state.
func (s *Switch) Active() bool { return s.on.Load() }

// Mix composes behaviors behind one Switch: while the switch is off the
// mix is a perfect passthrough; while on, each behavior inspects the
// (possibly already rewritten) message in order, and any drop wins.
// Mix also records whether the node ever emitted traffic while armed —
// the "engaged" denominator detection metrics use (a node offline for
// an entire attack never misbehaved and cannot be observed, let alone
// evicted).
type Mix struct {
	sw        *Switch
	behaviors []Behavior
	engaged   atomic.Bool
}

var _ Behavior = (*Mix)(nil)

// NewMix builds a composite behavior. sw may be nil (always active).
func NewMix(sw *Switch, behaviors ...Behavior) *Mix {
	return &Mix{sw: sw, behaviors: behaviors}
}

// Name implements Behavior.
func (m *Mix) Name() string {
	name := "mix("
	for i, b := range m.behaviors {
		if i > 0 {
			name += "+"
		}
		name += b.Name()
	}
	return name + ")"
}

// active reports whether the mix currently misbehaves.
func (m *Mix) active() bool { return m.sw == nil || m.sw.Active() }

// Engaged reports whether the node sent any message while armed.
func (m *Mix) Engaged() bool { return m.engaged.Load() }

// Outbound implements Behavior.
func (m *Mix) Outbound(to ids.NodeID, msg any) Decision {
	d := Decision{Msg: msg}
	if !m.active() {
		return d
	}
	m.engaged.Store(true)
	for _, b := range m.behaviors {
		next := b.Outbound(to, d.Msg)
		if next.Msg != nil {
			d.Msg = next.Msg
		}
		d.Drop = d.Drop || next.Drop
		d.FakeAck = d.FakeAck || next.FakeAck
		if next.Delay > d.Delay {
			d.Delay = next.Delay
		}
	}
	return d
}

// Inbound implements Behavior.
func (m *Mix) Inbound(from ids.NodeID, msg any) bool {
	if !m.active() {
		return true
	}
	for _, b := range m.behaviors {
		if !b.Inbound(from, msg) {
			return false
		}
	}
	return true
}

// Fabrication is a message an adversary injects of its own volition —
// not a rewrite of something the honest node was about to send.
type Fabrication struct {
	To  ids.NodeID
	Msg any
}

// Reactor is the optional fabrication seam: a behavior implementing it
// gets to emit messages in reaction to inbound traffic (the wrapped
// Env sends them through the underlying transport, bypassing the
// node's honest protocol logic entirely). AggForge uses it to race
// fabricated aggregate results at origins it learned of from tree
// requests.
type Reactor interface {
	React(from ids.NodeID, msg any) []Fabrication
}

var _ Reactor = (*Mix)(nil)

// React implements Reactor: every composed behavior that fabricates
// gets its chance, gated by the mix's switch like everything else.
func (m *Mix) React(from ids.NodeID, msg any) []Fabrication {
	if !m.active() {
		return nil
	}
	var out []Fabrication
	for _, b := range m.behaviors {
		if r, ok := b.(Reactor); ok {
			out = append(out, r.React(from, msg)...)
		}
	}
	if len(out) > 0 {
		m.engaged.Store(true)
	}
	return out
}

// Inflate lies about the node's availability: every availability claim
// on outbound protocol traffic — operation forwards and coarse-view
// exchanges — is rewritten to To (MPO-style self-promotion: a
// low-availability node posing as a stable one).
type Inflate struct {
	// To is the claimed availability (e.g. 0.98).
	To float64
}

var _ Behavior = Inflate{}

// Name implements Behavior.
func (i Inflate) Name() string { return "inflate" }

// Outbound implements Behavior.
func (i Inflate) Outbound(_ ids.NodeID, msg any) Decision {
	switch m := msg.(type) {
	case ops.AnycastMsg:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	case ops.MulticastMsg:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	case ops.AggMsg:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	case ops.AggReplyMsg:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	case ops.AggResultMsg:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	case *shuffle.Request:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	case *shuffle.Reply:
		m.SenderAvail = i.To
		return Decision{Msg: m}
	}
	return Decision{Msg: msg}
}

// Inbound implements Behavior.
func (i Inflate) Inbound(ids.NodeID, any) bool { return true }

// Eclipse poisons coarse-view exchanges: every outbound shuffle message
// advertises the adversary cohort instead of an honest sample, and
// replies lead with the sender itself — the self-promotion that drags
// the whole population's discovery toward the colluders.
type Eclipse struct {
	self      ids.NodeID
	colluders []ids.NodeID
	// mu guards rng: on a live transport the inbound reply path and the
	// gated discovery tick intercept outbound messages from different
	// goroutines (virtual engines are single-threaded; the lock is
	// uncontended there and does not affect determinism).
	mu  sync.Mutex
	rng *rand.Rand
}

var _ Behavior = (*Eclipse)(nil)

// NewEclipse builds the view-poisoning behavior for self, pushing the
// colluder cohort (self may appear in it; it is skipped when sampling).
func NewEclipse(self ids.NodeID, colluders []ids.NodeID, seed int64) *Eclipse {
	return &Eclipse{self: self, colluders: colluders, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Behavior.
func (e *Eclipse) Name() string { return "eclipse" }

// poison appends to out a poisoned entry list of roughly the honest
// offer's size n: fresh (age-0) colluder entries, which win every
// merge-pressure comparison, plus a fresh self-entry. Outbound passes the
// message's own entries, emptied, so the offer is rewritten in place.
func (e *Eclipse) poison(out []shuffle.Entry, to ids.NodeID, n int) []shuffle.Entry {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out = append(out, shuffle.Entry{ID: e.self})
	if len(e.colluders) > 0 {
		for _, i := range e.rng.Perm(len(e.colluders)) {
			if len(out) >= n {
				break
			}
			c := e.colluders[i]
			if c == e.self || c == to {
				continue
			}
			out = append(out, shuffle.Entry{ID: c})
		}
	}
	return out
}

// Outbound implements Behavior.
func (e *Eclipse) Outbound(to ids.NodeID, msg any) Decision {
	switch m := msg.(type) {
	case *shuffle.Request:
		m.Entries = e.poison(m.Entries[:0], to, len(m.Entries))
		return Decision{Msg: m}
	case *shuffle.Reply:
		m.Entries = e.poison(m.Entries[:0], to, len(m.Entries))
		return Decision{Msg: m}
	}
	return Decision{Msg: msg}
}

// Inbound implements Behavior.
func (e *Eclipse) Inbound(ids.NodeID, any) bool { return true }

// SelectiveForward black-holes relayed management operations: an
// operation message this node did not originate is dropped with
// probability Rate — while acknowledging receipt, so the sender's
// retried-greedy failover never fires. Own operations are forwarded
// faithfully (the selfish node still wants its own traffic served).
type SelectiveForward struct {
	self ids.NodeID
	rate float64
	// mu guards rng (see Eclipse.mu).
	mu  sync.Mutex
	rng *rand.Rand
}

var _ Behavior = (*SelectiveForward)(nil)

// NewSelectiveForward builds the relay black hole for self.
func NewSelectiveForward(self ids.NodeID, rate float64, seed int64) *SelectiveForward {
	return &SelectiveForward{self: self, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Behavior.
func (s *SelectiveForward) Name() string { return "selective-forward" }

// Outbound implements Behavior.
func (s *SelectiveForward) Outbound(_ ids.NodeID, msg any) Decision {
	var origin ids.NodeID
	switch m := msg.(type) {
	case ops.AnycastMsg:
		origin = m.ID.Origin
	case ops.MulticastMsg:
		origin = m.ID.Origin
	case ops.AggMsg:
		origin = m.ID.Origin
	default:
		return Decision{Msg: msg}
	}
	if origin == s.self {
		return Decision{Msg: msg}
	}
	s.mu.Lock()
	keep := s.rng.Float64() >= s.rate
	s.mu.Unlock()
	if keep {
		return Decision{Msg: msg}
	}
	return Decision{Msg: msg, Drop: true, FakeAck: true}
}

// Inbound implements Behavior.
func (s *SelectiveForward) Inbound(ids.NodeID, any) bool { return true }

// FreeRide shirks membership duties: inbound shuffle requests are
// ignored (no reply is ever produced), saving the node its share of the
// overlay's maintenance traffic.
type FreeRide struct{}

var _ Behavior = FreeRide{}

// Name implements Behavior.
func (FreeRide) Name() string { return "free-ride" }

// Outbound implements Behavior.
func (FreeRide) Outbound(_ ids.NodeID, msg any) Decision { return Decision{Msg: msg} }

// Inbound implements Behavior.
func (FreeRide) Inbound(_ ids.NodeID, msg any) bool {
	_, isReq := msg.(*shuffle.Request)
	return !isReq
}

// AggLie contributes a grossly false value to every aggregation this
// node participates in: outbound aggregation replies (and results,
// when the liar roots a tree) have their value moments rewritten to
// claim Value for all contributors. A Value far outside [0,1] lands
// outside the band hull, so the parent's PDF sanity checks drop the
// whole partial — the lie costs the liar its entire subtree's voice.
type AggLie struct {
	// Value is the claimed per-contributor value (default via Profile:
	// 100, far outside any availability band).
	Value float64
}

var _ Behavior = AggLie{}

// Name implements Behavior.
func (AggLie) Name() string { return "agg-lie" }

// lie rewrites a partial's value moments to claim Value everywhere.
func (l AggLie) lie(p agg.Partial) agg.Partial {
	if p.N <= 0 {
		return p
	}
	p.Sum = l.Value * float64(p.N)
	p.Min = l.Value
	p.Max = l.Value
	return p
}

// Outbound implements Behavior.
func (l AggLie) Outbound(_ ids.NodeID, msg any) Decision {
	switch m := msg.(type) {
	case ops.AggReplyMsg:
		if !m.Decline {
			m.Partial = l.lie(m.Partial)
			return Decision{Msg: m}
		}
	case ops.AggResultMsg:
		m.Result = l.lie(m.Result)
		return Decision{Msg: m}
	}
	return Decision{Msg: msg}
}

// Inbound implements Behavior.
func (AggLie) Inbound(ids.NodeID, any) bool { return true }

// AggMangle corrupts the partials this node relays up its aggregation
// trees: the merged subtree sum is scaled by a constant factor, so the
// data passing through the mangler arrives poisoned even though every
// descendant was honest. The inflated average leaves the band hull and
// the parent's sanity checks drop the partial.
type AggMangle struct{}

var _ Behavior = AggMangle{}

// aggMangleFactor scales the relayed sum; ×10 pushes any in-band
// average far past the hull tolerance.
const aggMangleFactor = 10

// Name implements Behavior.
func (AggMangle) Name() string { return "agg-mangle" }

// Outbound implements Behavior.
func (AggMangle) Outbound(_ ids.NodeID, msg any) Decision {
	switch m := msg.(type) {
	case ops.AggReplyMsg:
		if !m.Decline && m.Partial.N > 0 {
			m.Partial.Sum *= aggMangleFactor
			return Decision{Msg: m}
		}
	case ops.AggResultMsg:
		if m.Result.N > 0 {
			m.Result.Sum *= aggMangleFactor
			return Decision{Msg: m}
		}
	}
	return Decision{Msg: msg}
}

// Inbound implements Behavior.
func (AggMangle) Inbound(ids.NodeID, any) bool { return true }

// AggForge races fabricated aggregate results: receiving a tree
// request teaches the forger an in-flight operation's id and origin,
// and it immediately emits an AggResultMsg claiming a plausible-
// looking census — statistically unremarkable, so only result binding
// stops it. The forger never saw the origin's token (it travels only
// on the entry anycast path and is stripped from tree requests), so
// its forgery carries token zero and the origin's collector rejects
// it; the byzantine scenario asserts exactly that.
type AggForge struct {
	self ids.NodeID
	// mu guards seen (see Eclipse.mu for the live-transport rationale).
	mu   sync.Mutex
	seen map[ops.MsgID]bool
}

var _ Behavior = (*AggForge)(nil)
var _ Reactor = (*AggForge)(nil)

// NewAggForge builds the result forger for self.
func NewAggForge(self ids.NodeID) *AggForge {
	return &AggForge{self: self, seen: make(map[ops.MsgID]bool, 16)}
}

// Name implements Behavior.
func (*AggForge) Name() string { return "agg-forge" }

// Outbound implements Behavior.
func (*AggForge) Outbound(_ ids.NodeID, msg any) Decision { return Decision{Msg: msg} }

// Inbound implements Behavior.
func (*AggForge) Inbound(ids.NodeID, any) bool { return true }

// maxForgeSeen bounds the per-op dedup ledger (operations are
// short-lived; a wholesale reset is harmless).
const maxForgeSeen = 1 << 12

// React implements Reactor: one forgery per learned operation, aimed
// at its origin.
func (f *AggForge) React(_ ids.NodeID, msg any) []Fabrication {
	m, ok := msg.(ops.AggMsg)
	if !ok || m.ID.Origin == f.self {
		return nil
	}
	f.mu.Lock()
	if f.seen[m.ID] {
		f.mu.Unlock()
		return nil
	}
	if len(f.seen) >= maxForgeSeen {
		f.seen = make(map[ops.MsgID]bool, 16)
	}
	f.seen[m.ID] = true
	f.mu.Unlock()
	forged := ops.AggResultMsg{
		ID: m.ID,
		// A plausible high-availability census: nothing a statistical
		// check would flag. Token stays zero — the forger never saw it.
		Result: agg.Partial{N: 40, Sum: 38, Min: 0.9, Max: 0.99, Depth: 2},
		SentAt: m.SentAt,
	}
	return []Fabrication{{To: m.ID.Origin, Msg: forged}}
}

// wrapped interposes a Behavior between protocol logic and the host
// environment. It implements runtime.Stopper unconditionally,
// forwarding to the inner Env when it stops.
type wrapped struct {
	runtime.Env
	b Behavior
}

// Wrap returns env with every outbound message passing through b's
// Outbound hook and every delivered message through its Inbound hook. A
// nil behavior returns env unchanged. The wrapper preserves the
// Stopper contract of the underlying Env.
func Wrap(env runtime.Env, b Behavior) runtime.Env {
	if b == nil {
		return env
	}
	return &wrapped{Env: env, b: b}
}

// Send implements runtime.Env.
func (w *wrapped) Send(to ids.Addr, msg any) {
	d := w.b.Outbound(to.ID(), msg)
	if d.Drop {
		return
	}
	if d.Delay > 0 {
		w.Env.After(d.Delay, func() { w.Env.Send(to, d.Msg) })
		return
	}
	w.Env.Send(to, d.Msg)
}

// SendCall implements runtime.Env.
func (w *wrapped) SendCall(to ids.Addr, msg any, onResult func(ok bool)) {
	d := w.b.Outbound(to.ID(), msg)
	if d.Drop {
		if onResult != nil {
			// The verdict arrives asynchronously, like a real ack/nack.
			w.Env.After(0, func() { onResult(d.FakeAck) })
		}
		return
	}
	if d.Delay > 0 {
		w.Env.After(d.Delay, func() { w.Env.SendCall(to, d.Msg, onResult) })
		return
	}
	w.Env.SendCall(to, d.Msg, onResult)
}

// SendNack implements runtime.Env. A dropped message whose behavior
// fakes an ack schedules nothing: the fake verdict would be a success,
// which a nack-only caller never hears. Without FakeAck the nack arrives
// asynchronously, as from SendCall; a delayed message is re-sent
// nack-only.
func (w *wrapped) SendNack(to ids.Addr, msg any, onNack func()) {
	d := w.b.Outbound(to.ID(), msg)
	if d.Drop {
		if onNack != nil && !d.FakeAck {
			w.Env.After(0, onNack)
		}
		return
	}
	if d.Delay > 0 {
		w.Env.After(d.Delay, func() { w.Env.SendNack(to, d.Msg, onNack) })
		return
	}
	w.Env.SendNack(to, d.Msg, onNack)
}

// Register implements runtime.Env: the inbound handler is filtered
// through the behavior, and fabricating behaviors (Reactor) get to
// inject their own traffic in reaction to what was delivered. The
// fabrications go out through the underlying Env directly — they are
// already adversarial and bypass the Outbound rewrite chain. A message
// the behavior refuses that owns pooled buffers (sim.Recycler) goes back
// to its pool: the handler it was bound for was its last holder.
func (w *wrapped) Register(h runtime.Handler) error {
	reactor, _ := w.b.(Reactor)
	return w.Env.Register(func(from ids.Addr, msg any) {
		if reactor != nil {
			for _, f := range reactor.React(from.ID(), msg) {
				w.Env.Send(f.To.Addr(), f.Msg)
			}
		}
		if !w.b.Inbound(from.ID(), msg) {
			if r, ok := msg.(sim.Recycler); ok {
				r.Recycle()
			}
			return
		}
		h(from, msg)
	})
}

// Stop implements runtime.Stopper.
func (w *wrapped) Stop() {
	if s, ok := w.Env.(runtime.Stopper); ok {
		s.Stop()
	}
}

// Profile is the declarative per-node behavior assignment the
// deployment engines build from a scenario's adversary block.
type Profile struct {
	// InflateTo, when positive, adds availability inflation claiming
	// this value.
	InflateTo float64
	// Eclipse adds coarse-view poisoning toward the colluder cohort.
	Eclipse bool
	// DropRate, when positive, adds selective forwarding at this rate.
	DropRate float64
	// FreeRide adds shuffle-duty shirking.
	FreeRide bool
	// AggLie adds aggregation value-lying claiming defaultAggLieValue.
	AggLie bool
	// AggMangle adds relayed-partial corruption.
	AggMangle bool
	// AggForge adds fabricated aggregate-result racing.
	AggForge bool
}

// defaultAggLieValue is the value AggLie claims per contributor: far
// outside [0,1], so an unchecked census would be wrecked outright.
const defaultAggLieValue = 100

// Empty reports whether the profile assigns no behavior at all.
func (p Profile) Empty() bool {
	return p.InflateTo <= 0 && !p.Eclipse && p.DropRate <= 0 && !p.FreeRide &&
		!p.AggLie && !p.AggMangle && !p.AggForge
}

// Build assembles the composite behavior for one adversary node. seed
// is the node's private stream; colluders is the full adversary cohort;
// sw gates activation (may be nil for always-on).
func (p Profile) Build(self ids.NodeID, colluders []ids.NodeID, seed int64, sw *Switch) (Behavior, error) {
	if p.Empty() {
		return nil, fmt.Errorf("adversary: empty profile for %s", self)
	}
	var bs []Behavior
	if p.InflateTo > 0 {
		if p.InflateTo > 1 {
			return nil, fmt.Errorf("adversary: InflateTo must be in (0,1], got %v", p.InflateTo)
		}
		bs = append(bs, Inflate{To: p.InflateTo})
	}
	if p.Eclipse {
		bs = append(bs, NewEclipse(self, colluders, seed))
	}
	if p.DropRate > 0 {
		if p.DropRate > 1 {
			return nil, fmt.Errorf("adversary: DropRate must be in (0,1], got %v", p.DropRate)
		}
		bs = append(bs, NewSelectiveForward(self, p.DropRate, seed+1))
	}
	if p.FreeRide {
		bs = append(bs, FreeRide{})
	}
	if p.AggLie {
		bs = append(bs, AggLie{Value: defaultAggLieValue})
	}
	if p.AggMangle {
		bs = append(bs, AggMangle{})
	}
	if p.AggForge {
		bs = append(bs, NewAggForge(self))
	}
	return NewMix(sw, bs...), nil
}
