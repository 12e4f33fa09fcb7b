// Package runtime is the execution contract between AVMEM's protocol
// logic and the engine that hosts it. One interface — Env — names
// everything a node needs from its surroundings (a clock, one-shot and
// periodic timers, messaging with acknowledgment semantics, a liveness
// probe, private randomness, and a registration point on the message
// fabric), and two families of implementations bind it:
//
//   - Virtual: a deterministic Env on the discrete-event simulator's
//     clock. Many Virtual envs share one Scheduler and one Fabric (a
//     sim.Network, through NetFabric), so a whole cluster of real nodes
//     executes single-threaded in virtual time — fast, reproducible per
//     seed, and race-free by construction.
//   - Live: a wall-clock Env over a transport.Transport. Timers are real
//     timers, messages cross a real (TCP or in-process) network, and the
//     owning node serializes asynchronous callbacks through a gate.
//
// core, ops, avmon, and shuffle drivers are written once against this
// contract; internal/node runs on any Env, and internal/exp binds the
// same node code to either engine. ops.Env is the structural subset the
// operation router consumes — every runtime Env satisfies it.
//
// Peers are addressed by ids.Addr — an identifier plus an optional memo
// of the peer's host index in the deployment's universe. The simulator's
// network carries the memo with the message and verifies it where it is
// used; a transport (TCP, Memnet) never sees it: Live drops it on the
// way out and hands senders over memo-less.
//
// Architecture: DESIGN.md §6 (the Runtime/Env layer).
package runtime

import (
	"time"

	"avmem/internal/ids"
	"avmem/internal/ops"
)

// Handler consumes a message delivered to a node; from carries the
// sender's host-index memo when the fabric vouches for it.
type Handler func(from ids.Addr, msg any)

// Env is the single host-environment contract of the AVMEM runtime.
// It embeds ops.Env (clock, one-shot timers, uniform randomness,
// messaging with ack semantics, self-liveness) and adds the node-level
// surface: periodic timers for protocol drivers, integer randomness,
// identity, and fabric registration.
//
// Callback discipline: After, Every, SendCall and SendNack callbacks
// fire on the engine's thread (the simulator's event loop, or a
// timer/transport goroutine in live mode). Owners that need mutual
// exclusion wrap the Env with Gated rather than locking inside every
// callback.
type Env interface {
	ops.Env

	// Self returns the identity this Env is bound to.
	Self() ids.NodeID
	// Every schedules fn at now+offset and every period thereafter until
	// the returned stop function is called. period must be positive.
	Every(offset, period time.Duration, fn func()) (stop func())
	// RandIntn returns a uniform int in [0, n); n must be positive.
	RandIntn(n int) int
	// Register binds the Env's identity to the message fabric and
	// installs the inbound handler. It must precede Send/SendCall.
	Register(h Handler) error
	// Unregister removes the identity from the fabric.
	Unregister()
}

// Scheduler is the time source of a virtual Env: the discrete-event
// simulator's clock and deferred-execution queue. sim.World implements
// it.
type Scheduler interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// After schedules fn to run d from now.
	After(d time.Duration, fn func())
}

// Fabric moves messages between addresses for a virtual Env: a
// sim.Network adapted by NetFabric, which carries the memos through, or
// a test's fake.
type Fabric interface {
	// Register installs the message handler for self.
	Register(self ids.Addr, h Handler) error
	// Unregister removes self from the fabric.
	Unregister(self ids.Addr)
	// Send delivers msg to the target, best effort.
	Send(from, to ids.Addr, msg any)
	// SendCall delivers msg and reports the outcome exactly once:
	// onResult(true) after the target acknowledged, onResult(false) when
	// it was unreachable.
	SendCall(from, to ids.Addr, msg any, onResult func(ok bool))
	// SendNack is SendCall reporting failure only: onNack fires when
	// SendCall's onResult(false) would, and a delivery reports nothing.
	SendNack(from, to ids.Addr, msg any, onNack func())
}

// nackOnly adapts a failure-only callback to a SendCall verdict, for an
// Env whose SendNack is a filter over its SendCall (nil stays nil).
func nackOnly(onNack func()) func(ok bool) {
	if onNack == nil {
		return nil
	}
	return func(ok bool) {
		if !ok {
			onNack()
		}
	}
}

// Stopper is implemented by Envs whose timers outlive a node and must be
// cancelled on shutdown (both Virtual and Live implement it). Owners
// call it from their Stop path; a stopped Env suppresses every pending
// and future callback.
type Stopper interface {
	Stop()
}
