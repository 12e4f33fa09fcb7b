package ops

import (
	"avmem/internal/ids"
	"avmem/internal/obs"
)

// This file holds the router's causal-tracing seams. A traced router
// records one obs.Span per operation step — initiation, every inbound
// message that survives the audit gate, and terminal deliveries — all
// stamped with virtual time from the router's Env, so traces are
// deterministic per (trace, seed) and rendering them in Perfetto puts
// every op on the simulated clock's axis. An untraced router
// (otrace == nil) pays one nil check per message.

// span records one causal step of operation id at this node.
func (r *Router) span(kind, ev string, id MsgID, hop int, src ids.NodeID) {
	r.otrace.Record(obs.Span{
		At:   r.env.Now(),
		Op:   id.String(),
		Kind: kind,
		Ev:   ev,
		Hop:  hop,
		Src:  string(src),
		Dst:  string(r.mem.Self()),
	})
}

// traceInbound classifies an inbound message into a span. Called from
// HandleMessage after the audit gate: the trace shows the causal chain
// the node actually processed.
func (r *Router) traceInbound(sender ids.Addr, msg any) {
	from := sender.ID()
	switch m := msg.(type) {
	case DeliveredMsg:
		r.span("anycast", "result", m.ID, m.Hops, from)
	case AggResultMsg:
		r.span("aggregate", "result", m.ID, 0, from)
	case AnycastMsg:
		kind := "anycast"
		switch {
		case m.Multicast != nil:
			kind = multicastKind(m.Multicast.HalfOpen)
		case m.Aggregate != nil:
			kind = "aggregate"
		}
		r.span(kind, "hop", m.ID, m.Hops, from)
	case MulticastMsg:
		// A multicast's deliver spans carry hop 0, a range-cast's its depth.
		hop := 0
		if m.Spec.HalfOpen {
			hop = m.Depth
		}
		r.span(multicastKind(m.Spec.HalfOpen), "deliver", m.ID, hop, from)
	case AggMsg:
		r.span("aggregate", "request", m.ID, m.Depth, from)
	case AggReplyMsg:
		ev := "reply"
		if m.Decline {
			ev = "decline"
		}
		r.span("aggregate", ev, m.ID, 0, from)
	}
}

// multicastKind is the span kind of a dissemination: range-casts (a
// half-open target) keep the name of their own operation family.
func multicastKind(halfOpen bool) string {
	if halfOpen {
		return "rangecast"
	}
	return "multicast"
}
