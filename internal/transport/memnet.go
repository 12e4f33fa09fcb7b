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
	Delivered int // messages that reached a registered handler
	Dropped   int // messages to unregistered targets or after Close
}

// MemnetConfig assembles an in-process network.
type MemnetConfig struct {
	// After defers fn by d. nil uses wall-clock timers (time.AfterFunc).
	//
	// Deprecated: nodes and Envs run in virtual time on sim.Network
	// (runtime.NetFabric); an injected clock is kept only because the
	// benchmark harness's transport.memnet_sendcall_ns kernel sets it,
	// and goes with that kernel (ROADMAP.md items 1(a) and 1(d)).
	After func(d time.Duration, fn func())
	// Seed drives latency sampling.
	Seed int64
	// Latency samples per-message one-way latency (nil = instantaneous).
	Latency LatencyFn
	// AckTimeout is how long a SendCall waits before reporting failure
	// when no acknowledgment arrives (default 160ms, 2× the worst-case
	// paper latency).
	AckTimeout time.Duration
}

// Memnet is the in-process network of examples and single-process
// clusters: an implementation of Transport that delivers on wall-clock
// timers after a seeded latency draw. It is fully locked and safe for
// concurrent use; what arrives when depends on the goroutine schedule,
// so runs are not reproducible — deterministic clusters run on
// sim.Network instead.
type Memnet struct {
	after      func(d time.Duration, fn func())
	ackTimeout time.Duration
	// ownClock marks the built-in wall-clock timer; its callbacks are
	// tracked in wg so Close can drain in-flight deliveries (an injected
	// scheduler drains by construction — its owner pumps the event queue
	// on one goroutine, where waiting would deadlock).
	ownClock bool
	wg       sync.WaitGroup

	mu       sync.Mutex
	rng      *rand.Rand
	latency  LatencyFn
	handlers map[ids.NodeID]Handler
	stats    MemnetStats
	closed   bool
}

var _ Transport = (*Memnet)(nil)

// NewMemnet creates an in-process network.
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
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		latency:    cfg.Latency,
		handlers:   make(map[ids.NodeID]Handler, 64),
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

// Stats returns a copy of the activity counters.
func (m *Memnet) Stats() MemnetStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// sampleLatency draws one one-way latency. Draws happen at send time in
// call order. Caller holds m.mu.
func (m *Memnet) sampleLatency() time.Duration {
	if m.latency == nil {
		return 0
	}
	return m.latency(m.rng)
}

// arrive settles a message once its latency has elapsed: it returns the
// target's handler and counts the message Delivered, or returns nil and
// counts it Dropped when the target is unregistered or the memnet closed.
func (m *Memnet) arrive(to ids.NodeID) Handler {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.handlers[to]
	if m.closed || h == nil {
		m.stats.Dropped++
		return nil
	}
	m.stats.Delivered++
	return h
}

// Send implements Transport.
func (m *Memnet) Send(from, to ids.NodeID, msg any) {
	m.mu.Lock()
	m.stats.Sent++
	lat := m.sampleLatency()
	m.mu.Unlock()
	m.admit(lat, func() {
		if h := m.arrive(to); h != nil {
			h(from, msg)
		}
	})
}

// SendCall implements Transport: onResult(true) fires one round trip
// after sending (an outbound draw, then a return draw) when the target
// processed the message; onResult(false) fires when it did not, at the
// later of AckTimeout and the outbound latency — the failure detection
// of sim.Network. The callback is invoked exactly once either way, never
// on the caller's stack.
func (m *Memnet) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	m.mu.Lock()
	m.stats.Sent++
	out := m.sampleLatency()
	back := m.sampleLatency()
	m.mu.Unlock()
	admitted := m.admit(out, func() {
		h := m.arrive(to)
		if h != nil {
			h(from, msg)
		}
		switch {
		case onResult == nil:
		case h != nil:
			m.schedule(back, func() { onResult(true) })
		default:
			m.schedule(max(m.ackTimeout-out, 0), func() { onResult(false) })
		}
	})
	if !admitted && onResult != nil {
		// Closed: nobody will drain a timer. The caller may hold its own
		// lock, so the verdict still arrives on another goroutine.
		go onResult(false)
	}
}
