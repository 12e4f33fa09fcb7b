package runtime

import (
	"time"

	"avmem/internal/ids"
	"avmem/internal/ops"
)

// gated decorates an Env so every asynchronous callback — one-shot
// timers, periodic ticks, SendCall results and SendNack failures — runs
// through a gate.
// The owning node's gate takes its state lock and drops callbacks that
// arrive after shutdown, which is exactly the serialization the live
// engine needs; under a virtual Env the gate is an uncontended lock on
// the single scheduler goroutine, so determinism is unaffected.
// A callback handed over per call is wrapped per call; a router binds
// the ones it hands over many times once (ops.Binder).
type gated struct {
	env  Env
	gate func(fn func())
}

var _ Env = (*gated)(nil)
var _ ops.Binder = (*gated)(nil)

// Gated wraps env with a callback gate. A nil gate returns env
// unchanged.
func Gated(env Env, gate func(fn func())) Env {
	if gate == nil {
		return env
	}
	return &gated{env: env, gate: gate}
}

// Self implements Env.
func (g *gated) Self() ids.NodeID { return g.env.Self() }

// Now implements Env.
func (g *gated) Now() time.Duration { return g.env.Now() }

// After implements Env: fn fires inside the gate.
func (g *gated) After(d time.Duration, fn func()) {
	g.env.After(d, g.Bind(fn))
}

// Bind implements ops.Binder: fn gated, for a caller that hands it to
// the Env beneath the gate (Unwrapped) many times.
func (g *gated) Bind(fn func()) func() { return func() { g.gate(fn) } }

// BindResult implements ops.Binder: onResult gated, its two runs bound
// with it, so a verdict allocates nothing when it fires.
func (g *gated) BindResult(onResult func(ok bool)) func(ok bool) {
	taken, failed := func() { onResult(true) }, func() { onResult(false) }
	return func(ok bool) {
		if ok {
			g.gate(taken)
		} else {
			g.gate(failed)
		}
	}
}

// Unwrapped implements ops.Binder: the Env beneath the gate.
func (g *gated) Unwrapped() ops.Env { return g.env }

// Every implements Env: each tick fires inside the gate.
func (g *gated) Every(offset, period time.Duration, fn func()) (stop func()) {
	return g.env.Every(offset, period, g.Bind(fn))
}

// RandFloat implements Env.
func (g *gated) RandFloat() float64 { return g.env.RandFloat() }

// RandIntn implements Env.
func (g *gated) RandIntn(n int) int { return g.env.RandIntn(n) }

// Register implements Env. The inbound handler is not gated: handlers
// manage their own locking (shuffle traffic must not serialize behind
// operation handling).
func (g *gated) Register(h Handler) error {
	return g.env.Register(h)
}

// Unregister implements Env.
func (g *gated) Unregister() { g.env.Unregister() }

// Send implements Env.
func (g *gated) Send(to ids.Addr, msg any) { g.env.Send(to, msg) }

// SendCall implements Env: the result callback fires inside the gate.
func (g *gated) SendCall(to ids.Addr, msg any, onResult func(ok bool)) {
	if onResult == nil {
		g.env.SendCall(to, msg, nil)
		return
	}
	g.env.SendCall(to, msg, func(ok bool) {
		g.gate(func() { onResult(ok) })
	})
}

// SendNack implements Env: the nack callback fires inside the gate. It
// stays a SendNack below the gate, so a virtual fabric still files no
// ack event for it.
func (g *gated) SendNack(to ids.Addr, msg any, onNack func()) {
	if onNack == nil {
		g.env.SendNack(to, msg, nil)
		return
	}
	g.env.SendNack(to, msg, g.Bind(onNack))
}

// Online implements Env.
func (g *gated) Online() bool { return g.env.Online() }
