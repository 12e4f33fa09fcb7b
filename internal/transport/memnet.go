package transport

import (
	"math/rand"
	"sync"
	"time"

	"avmem/internal/ids"
)

// LatencyFn samples a one-way message latency. It runs under the
// memnet's lock with the memnet's seeded RNG, so draws happen in a
// deterministic order.
type LatencyFn func(rng *rand.Rand) time.Duration

// UniformLatencyFn samples uniformly from [min, max] — the paper's
// per-virtual-hop model when given 20ms and 80ms.
func UniformLatencyFn(min, max time.Duration) LatencyFn {
	return func(rng *rand.Rand) time.Duration {
		if max <= min {
			return min
		}
		return min + time.Duration(rng.Int63n(int64(max-min)+1))
	}
}

// MemnetStats counts memnet activity.
type MemnetStats struct {
	Sent      int // messages handed to the memnet
	Delivered int // messages that reached a live handler
	Dropped   int // messages lost to faults, partitions, or dead targets
}

// MemnetConfig assembles a deterministic in-process network.
type MemnetConfig struct {
	// After defers fn by d. nil uses wall-clock timers (time.AfterFunc);
	// a test may inject a virtual-time scheduler here, which makes every
	// delivery an event on its deterministic clock.
	After func(d time.Duration, fn func())
	// Seed drives all latency and drop sampling.
	Seed int64
	// Latency samples per-message one-way latency (nil = instantaneous).
	Latency LatencyFn
	// AckTimeout is how long a SendCall waits before reporting failure
	// when no acknowledgment arrives (default 160ms, 2× the worst-case
	// paper latency).
	AckTimeout time.Duration
	// Drop is the global message-drop probability in [0,1).
	Drop float64
	// Online gates delivery-time liveness by identity (nil = every
	// registered node is live).
	Online func(id ids.NodeID) bool
}

// link is a per-directed-link fault overlay.
type link struct {
	latency LatencyFn
	drop    float64
	hasDrop bool
}

// Memnet is the deterministic, seedable in-process network: an
// implementation of Transport whose deliveries are scheduled on an
// injected clock, with fault injection — node kill/restart, per-link
// latency distributions, per-link and global drops, and partitions —
// pushed down into the fabric itself. Driven by a single-threaded
// virtual scheduler it is bit-reproducible per seed; it is nevertheless
// fully locked, so mixed (wall-clock, concurrent) use is safe, merely
// not deterministic.
type Memnet struct {
	after      func(d time.Duration, fn func())
	ackTimeout time.Duration
	online     func(id ids.NodeID) bool
	// ownClock marks the built-in wall-clock timer; its callbacks are
	// tracked in wg so Close can drain in-flight deliveries (injected
	// virtual schedulers drain by construction — their owner pumps the
	// event queue on one goroutine, where waiting would deadlock).
	ownClock bool
	wg       sync.WaitGroup

	mu       sync.Mutex
	rng      *rand.Rand
	latency  LatencyFn
	drop     float64
	handlers map[ids.NodeID]Handler
	killed   map[ids.NodeID]bool
	islands  map[ids.NodeID]int
	links    map[[2]ids.NodeID]link
	stats    MemnetStats
	closed   bool
}

var _ Transport = (*Memnet)(nil)

// NewMemnet creates a deterministic in-process network.
func NewMemnet(cfg MemnetConfig) *Memnet {
	after := cfg.After
	own := false
	if after == nil {
		own = true
		after = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 160 * time.Millisecond
	}
	return &Memnet{
		after:      after,
		ownClock:   own,
		ackTimeout: cfg.AckTimeout,
		online:     cfg.Online,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		latency:    cfg.Latency,
		drop:       cfg.Drop,
		handlers:   make(map[ids.NodeID]Handler, 64),
		killed:     make(map[ids.NodeID]bool),
		links:      make(map[[2]ids.NodeID]link),
	}
}

// Register implements Transport.
func (m *Memnet) Register(self ids.NodeID, h Handler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[self] = h
	return nil
}

// Unregister implements Transport.
func (m *Memnet) Unregister(self ids.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, self)
}

// Close implements Transport: further deliveries are suppressed, and
// on the built-in wall clock in-flight deliveries are drained before
// returning — no handler runs once Close has returned, and a SendCall
// issued after it reports false.
func (m *Memnet) Close() error {
	m.mu.Lock()
	m.closed = true
	m.handlers = make(map[ids.NodeID]Handler)
	m.mu.Unlock()
	if m.ownClock {
		m.wg.Wait()
	}
	return nil
}

// schedule defers fn on the memnet clock, tracking the callback on the
// built-in wall clock so Close can drain it. Called as is only from
// inside a tracked callback (a send's ack and nack timers), where the
// counter is already above zero; a send's first timer goes through admit.
func (m *Memnet) schedule(d time.Duration, fn func()) {
	if !m.ownClock {
		m.after(d, fn)
		return
	}
	m.wg.Add(1)
	m.after(d, func() { defer m.wg.Done(); fn() })
}

// admit schedules the first timer of a send, which arrives on the
// sender's goroutine and may race Close. On the wall clock it checks
// closed and counts the callback under m.mu, so no Add at counter zero
// runs concurrently with Close's Wait: once closed, the send is counted
// Dropped, no timer is armed, and admit reports false.
func (m *Memnet) admit(d time.Duration, fn func()) bool {
	if m.ownClock {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.closed {
			m.stats.Dropped++
			return false
		}
	}
	m.schedule(d, fn)
	return true
}

// Kill makes a node unreachable (and its handler inert) until Restart —
// the fault-injection face of a node crash. Unlike Unregister, the
// node's registration survives, so Restart restores delivery without
// the node's cooperation.
func (m *Memnet) Kill(id ids.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.killed[id] = true
}

// Restart lifts a Kill.
func (m *Memnet) Restart(id ids.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.killed, id)
}

// Partition splits the network into islands: traffic crosses island
// boundaries only to be dropped. Nodes not named in any group share one
// implicit extra island. Heal removes the partition.
func (m *Memnet) Partition(groups ...[]ids.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.islands = make(map[ids.NodeID]int, 64)
	for g, group := range groups {
		for _, id := range group {
			m.islands[id] = g + 1
		}
	}
}

// Heal removes any partition.
func (m *Memnet) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.islands = nil
}

// SetLinkLatency overrides the latency distribution of the directed
// link from→to (nil restores the global model).
func (m *Memnet) SetLinkLatency(from, to ids.NodeID, fn LatencyFn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := [2]ids.NodeID{from, to}
	l := m.links[k]
	l.latency = fn
	m.setLink(k, l)
}

// SetLinkDrop overrides the drop probability of the directed link
// from→to (negative restores the global probability).
func (m *Memnet) SetLinkDrop(from, to ids.NodeID, p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := [2]ids.NodeID{from, to}
	l := m.links[k]
	l.drop = p
	l.hasDrop = p >= 0
	m.setLink(k, l)
}

// setLink stores or clears a link overlay. Caller holds m.mu.
func (m *Memnet) setLink(k [2]ids.NodeID, l link) {
	if l.latency == nil && !l.hasDrop {
		delete(m.links, k)
		return
	}
	m.links[k] = l
}

// Stats returns a copy of the activity counters.
func (m *Memnet) Stats() MemnetStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// plan samples one send's fate under the lock: its latency and whether
// a fault (global or per-link drop) consumes it. Sampling happens at
// send time in call order, which is what keeps runs deterministic.
func (m *Memnet) plan(from, to ids.NodeID) (lat time.Duration, dropped bool) {
	m.stats.Sent++
	return m.sampleLatency(from, to), m.sampleDrop(from, to)
}

// sampleLatency draws one latency for the directed link from→to,
// honoring a per-link override. Caller holds m.mu.
func (m *Memnet) sampleLatency(from, to ids.NodeID) time.Duration {
	latFn := m.latency
	if l, ok := m.links[[2]ids.NodeID{from, to}]; ok && l.latency != nil {
		latFn = l.latency
	}
	if latFn == nil {
		return 0
	}
	return latFn(m.rng)
}

// sampleDrop decides whether a message on the directed link from→to is
// consumed by a fault, honoring a per-link override. No RNG draw is
// spent when the effective probability is zero, so fault-free runs keep
// their random sequences. Caller holds m.mu.
func (m *Memnet) sampleDrop(from, to ids.NodeID) bool {
	p := m.drop
	if l, ok := m.links[[2]ids.NodeID{from, to}]; ok && l.hasDrop {
		p = l.drop
	}
	if p <= 0 {
		return false
	}
	return m.rng.Float64() < p
}

// handlerFor resolves the live handler for a delivery attempt: nil when
// the target is unregistered, killed, partitioned away from the sender,
// offline, or the memnet is closed. Caller holds m.mu.
func (m *Memnet) handlerFor(from, to ids.NodeID) Handler {
	if m.closed || m.killed[to] || m.killed[from] {
		return nil
	}
	if m.islands != nil && m.islands[from] != m.islands[to] {
		return nil
	}
	h, ok := m.handlers[to]
	if !ok {
		return nil
	}
	if m.online != nil && !m.online(to) {
		return nil
	}
	return h
}

// arrive settles a message once its latency has elapsed: it returns the
// live handler and counts the message Delivered, or returns nil and counts
// it Dropped when a fault consumed it or the target is unreachable now.
func (m *Memnet) arrive(from, to ids.NodeID, dropped bool) Handler {
	m.mu.Lock()
	h := m.handlerFor(from, to)
	if dropped {
		h = nil
	}
	if h == nil {
		m.stats.Dropped++
	} else {
		m.stats.Delivered++
	}
	m.mu.Unlock()
	return h
}

// Send implements Transport.
func (m *Memnet) Send(from, to ids.NodeID, msg any) {
	m.mu.Lock()
	lat, dropped := m.plan(from, to)
	m.mu.Unlock()
	m.admit(lat, func() {
		if h := m.arrive(from, to, dropped); h != nil {
			h(from, msg)
		}
	})
}

// SendCall implements Transport: onResult(true) fires one round-trip
// after sending when the target processed the message (the return leg
// rides the reverse to→from link, honoring its overrides);
// onResult(false) fires once the AckTimeout expires when it did not.
// The callback is invoked exactly once either way, never on the
// caller's stack.
//
// Failure detection mirrors sim.Network, the reference model the
// engines are compared under: the nack fires at the later of AckTimeout
// and the attempt's (possibly fault-inflated) one-way latency — a
// link-latency override larger than the timeout delays detection with
// it.
func (m *Memnet) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	m.mu.Lock()
	out, dropped := m.plan(from, to)
	back := m.sampleLatency(to, from)
	backDropped := m.sampleDrop(to, from)
	m.mu.Unlock()
	admitted := m.admit(out, func() {
		h := m.arrive(from, to, dropped)
		nack := func() {
			wait := m.ackTimeout - out
			if wait < 0 {
				wait = 0
			}
			m.schedule(wait, func() { onResult(false) })
		}
		if h == nil {
			if onResult != nil {
				nack()
			}
			return
		}
		h(from, msg)
		if onResult == nil {
			return
		}
		if backDropped {
			// The message arrived but its acknowledgment was lost: the
			// sender can only conclude failure once the timeout expires.
			nack()
			return
		}
		m.schedule(back, func() { onResult(true) })
	})
	if !admitted && onResult != nil {
		// Closed: nobody will drain a timer. The caller may hold its own
		// lock, so the verdict still arrives on another goroutine.
		go onResult(false)
	}
}
