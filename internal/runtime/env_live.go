package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"avmem/internal/ids"
	"avmem/internal/stats"
	"avmem/internal/transport"
)

// LiveConfig assembles a wall-clock Env over a real transport.
type LiveConfig struct {
	// Self is the identity the Env is bound to; for the TCP transport it
	// must be the host:port to listen on.
	Self ids.NodeID
	// Transport moves messages.
	Transport transport.Transport
	// Seed seeds the Env's private randomness.
	Seed int64
	// Online reports the owner's liveness (nil = online until Stop).
	Online func() bool
}

// Live is the wall-clock Env: real timers, real transport, goroutine
// callbacks. It is safe for concurrent use; owners that need callbacks
// serialized against their own state wrap it with Gated.
//
// A transport moves identifiers, so Live is where address memos are
// dropped: it sends to the identifier of every target, and its handler
// is handed memo-less senders, which the receiver resolves on the
// identifier path.
type Live struct {
	cfg LiveConfig

	mu      sync.Mutex
	rng     *rand.Rand
	started time.Time
	timers  map[int]*time.Timer
	timerID int
	stopped bool
}

var _ Env = (*Live)(nil)
var _ Stopper = (*Live)(nil)

// NewLive builds a live Env (its clock starts at Register).
func NewLive(cfg LiveConfig) (*Live, error) {
	if cfg.Self.IsNil() {
		return nil, fmt.Errorf("runtime: Live needs an identity")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: Live needs a Transport")
	}
	return &Live{
		cfg:    cfg,
		rng:    rand.New(stats.NewSplitMix64(cfg.Seed)),
		timers: make(map[int]*time.Timer, 8),
	}, nil
}

// Self implements Env.
func (e *Live) Self() ids.NodeID { return e.cfg.Self }

// Now implements Env: time since Register (zero before it).
func (e *Live) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started.IsZero() {
		return 0
	}
	return time.Since(e.started)
}

// afterLocked schedules fn on a tracked timer. Caller holds e.mu.
func (e *Live) afterLocked(d time.Duration, fn func()) {
	if e.stopped {
		return
	}
	id := e.timerID
	e.timerID++
	e.timers[id] = time.AfterFunc(d, func() {
		e.mu.Lock()
		delete(e.timers, id)
		dead := e.stopped
		e.mu.Unlock()
		if dead {
			return
		}
		fn()
	})
}

// After implements Env.
func (e *Live) After(d time.Duration, fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.afterLocked(d, fn)
}

// Every implements Env: a tick of an offline Env skips fn and keeps the
// period.
func (e *Live) Every(offset, period time.Duration, fn func()) (stop func()) {
	if period <= 0 || fn == nil {
		return func() {}
	}
	var mu sync.Mutex
	running := true
	var tick func()
	tick = func() {
		mu.Lock()
		alive := running
		mu.Unlock()
		if !alive {
			return
		}
		if e.Online() {
			fn()
		}
		e.After(period, tick)
	}
	e.After(offset, tick)
	return func() {
		mu.Lock()
		running = false
		mu.Unlock()
	}
}

// RandFloat implements Env.
func (e *Live) RandFloat() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rng.Float64()
}

// RandIntn implements Env.
func (e *Live) RandIntn(n int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rng.Intn(n)
}

// Register implements Env and starts the Env's clock.
func (e *Live) Register(h Handler) error {
	if err := e.cfg.Transport.Register(e.cfg.Self, func(from ids.NodeID, msg any) { h(from.Addr(), msg) }); err != nil {
		return err
	}
	e.mu.Lock()
	if e.started.IsZero() {
		e.started = time.Now()
	}
	e.mu.Unlock()
	return nil
}

// Unregister implements Env.
func (e *Live) Unregister() { e.cfg.Transport.Unregister(e.cfg.Self) }

// Send implements Env.
func (e *Live) Send(to ids.Addr, msg any) { e.cfg.Transport.Send(e.cfg.Self, to.ID(), msg) }

// SendCall implements Env.
func (e *Live) SendCall(to ids.Addr, msg any, onResult func(ok bool)) {
	e.cfg.Transport.SendCall(e.cfg.Self, to.ID(), msg, func(ok bool) {
		e.mu.Lock()
		dead := e.stopped
		e.mu.Unlock()
		if dead || onResult == nil {
			return
		}
		onResult(ok)
	})
}

// SendNack implements Env as a filter over SendCall.
func (e *Live) SendNack(to ids.Addr, msg any, onNack func()) {
	e.SendCall(to, msg, nackOnly(onNack))
}

// Online implements Env.
func (e *Live) Online() bool {
	e.mu.Lock()
	dead := e.stopped
	e.mu.Unlock()
	if dead {
		return false
	}
	if e.cfg.Online == nil {
		return true
	}
	return e.cfg.Online()
}

// Stop implements Stopper: cancels every pending timer and suppresses
// late callbacks (including in-flight SendCall results).
func (e *Live) Stop() {
	e.mu.Lock()
	e.stopped = true
	for id, t := range e.timers {
		t.Stop()
		delete(e.timers, id)
	}
	e.mu.Unlock()
}
