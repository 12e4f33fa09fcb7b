package runtime

import (
	"fmt"
	"math/rand"
	"time"

	"avmem/internal/ids"
	"avmem/internal/sim"
	"avmem/internal/stats"
)

// VirtualConfig assembles a virtual-time Env. Many virtual Envs share
// one Scheduler and one Fabric — that sharing is what makes a cluster of
// real nodes deterministic: every timer and delivery is an event on the
// single virtual clock, executed on one goroutine in a reproducible
// order.
type VirtualConfig struct {
	// Self is the identity the Env is bound to, with its host-index memo
	// when the deployment knows it — resolved once, here, and stamped on
	// everything the Env sends.
	Self ids.Addr
	// Scheduler supplies virtual time and deferred execution
	// (typically a sim.World).
	Scheduler Scheduler
	// Fabric moves messages (a sim.Network via NetFabric).
	Fabric Fabric
	// Online reports this node's current liveness (nil = always online).
	// When Self carries a host index, Online must agree with the liveness
	// the Fabric's network binds for that host (sim.Network.Bind): the
	// Scheduler's periodic timers sleep by that probe, not this one.
	Online func() bool
	// RNG is the Env's private randomness. Exactly one of RNG and Seed
	// is used: a non-nil RNG is shared as given (the simulator passes
	// its world RNG), otherwise a private source is seeded from Seed.
	RNG *rand.Rand
	// Seed seeds a private RNG when RNG is nil.
	Seed int64
}

// Virtual is the deterministic Env: virtual clock, scheduler-driven
// timers, fabric messaging. It is single-threaded by contract — all
// calls and callbacks happen on the scheduler's goroutine — and
// therefore needs no locking.
type Virtual struct {
	cfg     VirtualConfig
	rng     *rand.Rand
	stopped bool
}

var _ Env = (*Virtual)(nil)
var _ Stopper = (*Virtual)(nil)

// NewVirtual builds a virtual-time Env.
func NewVirtual(cfg VirtualConfig) (*Virtual, error) {
	if cfg.Self.IsNil() {
		return nil, fmt.Errorf("runtime: Virtual needs an identity")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("runtime: Virtual needs a Scheduler")
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("runtime: Virtual needs a Fabric")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(stats.NewSplitMix64(cfg.Seed))
	}
	return &Virtual{cfg: cfg, rng: rng}, nil
}

// Self implements Env.
func (e *Virtual) Self() ids.NodeID { return e.cfg.Self.ID() }

// Now implements Env.
func (e *Virtual) Now() time.Duration { return e.cfg.Scheduler.Now() }

// After implements Env. Callbacks of a stopped Env are suppressed: the
// queued event itself asks the Env (Stopped) when it comes due, so a
// call allocates no wrapper.
func (e *Virtual) After(d time.Duration, fn func()) { e.cfg.Scheduler.AfterUnless(d, e, fn) }

// Stopped implements sim.Stoppable: true once Stop ran.
func (e *Virtual) Stopped() bool { return e.stopped }

// Every implements Env on the Scheduler's own periodic timer: the timer
// belongs to an everyTimer, whose stop check is the Scheduler's, so a
// steady-state tick allocates nothing and starting one allocates the
// everyTimer and the stop function it returns; a tick whose next run
// would fall past the end of virtual time ends the timer. The timer
// carries Self's host index, so the Scheduler skips a run while the
// host is offline without touching the Env at all; an Env without a host
// index checks Online before each run instead.
func (e *Virtual) Every(offset, period time.Duration, fn func()) (stop func()) {
	if period <= 0 || fn == nil {
		return func() {}
	}
	host := int(e.cfg.Self.Index())
	if host < 0 && e.cfg.Online != nil {
		tick := fn
		fn = func() {
			if e.cfg.Online() {
				tick()
			}
		}
	}
	t := &everyTimer{env: e}
	// period and fn are valid, which is all EveryHost refuses.
	_ = e.cfg.Scheduler.EveryHost(host, offset, period, t, fn)
	return t.halt
}

// everyTimer is one Every timer of a Virtual: stopped once its Env
// stopped or its own stop function ran.
type everyTimer struct {
	env    *Virtual
	halted bool
}

// Stopped implements sim.Stoppable.
func (t *everyTimer) Stopped() bool { return t.env.stopped || t.halted }

func (t *everyTimer) halt() { t.halted = true }

// RandFloat implements Env.
func (e *Virtual) RandFloat() float64 { return e.rng.Float64() }

// RandIntn implements Env.
func (e *Virtual) RandIntn(n int) int { return e.rng.Intn(n) }

// Register implements Env.
func (e *Virtual) Register(h Handler) error {
	return e.cfg.Fabric.Register(e.cfg.Self, h)
}

// Unregister implements Env.
func (e *Virtual) Unregister() { e.cfg.Fabric.Unregister(e.cfg.Self) }

// Send implements Env.
func (e *Virtual) Send(to ids.Addr, msg any) {
	e.cfg.Fabric.Send(e.cfg.Self, to, msg)
}

// SendCall implements Env.
func (e *Virtual) SendCall(to ids.Addr, msg any, onResult func(ok bool)) {
	e.cfg.Fabric.SendCall(e.cfg.Self, to, msg, onResult)
}

// SendNack implements Env.
func (e *Virtual) SendNack(to ids.Addr, msg any, onNack func()) {
	e.cfg.Fabric.SendNack(e.cfg.Self, to, msg, onNack)
}

// Online implements Env.
func (e *Virtual) Online() bool {
	if e.stopped {
		return false
	}
	if e.cfg.Online == nil {
		return true
	}
	return e.cfg.Online()
}

// Stop implements Stopper: pending and future timer callbacks are
// suppressed. Messaging is left registered; owners Unregister
// separately.
func (e *Virtual) Stop() { e.stopped = true }

// netFabric adapts the simulator's network to the Fabric contract.
type netFabric struct{ net *sim.Network }

// NetFabric wraps a sim.Network as a Fabric. Address memos travel with
// the messages.
func NetFabric(n *sim.Network) Fabric { return netFabric{net: n} }

// Register implements Fabric: self must be a host of the network's
// bound universe.
func (f netFabric) Register(self ids.Addr, h Handler) error {
	return f.net.RegisterAddr(self, sim.AddrHandler(h))
}

// Unregister implements Fabric. An address outside the universe was
// never registered, so its refusal leaves nothing to undo.
func (f netFabric) Unregister(self ids.Addr) { _ = f.net.RegisterAddr(self, nil) }

// Send implements Fabric.
func (f netFabric) Send(from, to ids.Addr, msg any) { f.net.SendAddr(from, to, msg) }

// SendCall implements Fabric.
func (f netFabric) SendCall(from, to ids.Addr, msg any, onResult func(ok bool)) {
	f.net.SendCallAddr(from, to, msg, onResult)
}

// SendNack implements Fabric: the network files no ack event.
func (f netFabric) SendNack(from, to ids.Addr, msg any, onNack func()) {
	f.net.SendNackAddr(from, to, msg, onNack)
}
