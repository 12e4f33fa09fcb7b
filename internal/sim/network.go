package sim

import (
	"time"

	"avmem/internal/ids"
)

// Handler consumes a message delivered to a node.
type Handler func(from ids.NodeID, msg any)

// OnlineFunc reports whether a node is currently online. The network
// consults it at delivery time, so a node that goes offline while a
// message is in flight misses the delivery — the same semantics a churn
// trace imposes on a real system.
type OnlineFunc func(id ids.NodeID) bool

// NetworkStats counts network activity for overhead and spam metrics.
type NetworkStats struct {
	Sent      int // messages handed to the network
	Delivered int // messages that reached an online handler
	Dropped   int // messages lost to offline or unregistered targets
}

// Network is the simulated message fabric: unicast with per-hop latency,
// delivery only to online nodes, and optional delivery acknowledgments
// for failure detection (retried-greedy forwarding needs them).
type Network struct {
	world   *World
	latency LatencyModel
	online  OnlineFunc
	// ackTimeout is how long a caller of SendCall waits before declaring
	// the attempt failed when no ack arrives.
	ackTimeout time.Duration
	handlers   map[ids.NodeID]Handler
	stats      NetworkStats

	// Indexed fast path, populated by Bind: a fixed host universe gets a
	// dense handler table and an index-based liveness probe, so a
	// delivery resolves the target once (one map hit) and the rest is
	// array reads. Hosts outside the bound universe fall back to the
	// map + OnlineFunc path.
	idx      map[ids.NodeID]int32
	byIdx    []Handler
	onlineAt func(i int) bool
}

// NewNetwork creates a network on the world. latency defaults to the
// paper's U[20,80] ms model; online defaults to "always online";
// ackTimeout <= 0 defaults to 2× the worst-case paper latency (160 ms).
func NewNetwork(w *World, latency LatencyModel, online OnlineFunc, ackTimeout time.Duration) *Network {
	if latency == nil {
		latency = PaperLatency()
	}
	if online == nil {
		online = func(ids.NodeID) bool { return true }
	}
	if ackTimeout <= 0 {
		ackTimeout = 160 * time.Millisecond
	}
	return &Network{
		world:      w,
		latency:    latency,
		online:     online,
		ackTimeout: ackTimeout,
		handlers:   make(map[ids.NodeID]Handler, 1024),
	}
}

// Bind declares the fixed host universe and its index-based liveness
// probe: hosts[i] is online iff onlineAt(i). Handlers registered for
// bound hosts live in a dense table and deliveries to them skip the
// OnlineFunc entirely. Handlers registered before the call are migrated
// into the table, so Bind and Register compose in either order;
// typically hosts is the churn trace's population in trace-index order.
// The universe is fixed: bind once, before any traffic — a delivery in
// flight carries the host index its Send resolved.
func (n *Network) Bind(hosts []ids.NodeID, onlineAt func(i int) bool) {
	if len(hosts) == 0 || onlineAt == nil {
		return
	}
	n.idx = make(map[ids.NodeID]int32, len(hosts))
	n.byIdx = make([]Handler, len(hosts))
	for i, id := range hosts {
		n.idx[id] = int32(i)
		if h, ok := n.handlers[id]; ok {
			n.byIdx[i] = h
			delete(n.handlers, id)
		}
	}
	n.onlineAt = onlineAt
}

// Register installs the message handler for a node. A nil handler
// unregisters the node.
func (n *Network) Register(id ids.NodeID, h Handler) {
	if i, ok := n.idx[id]; ok {
		n.byIdx[i] = h
		return
	}
	if h == nil {
		delete(n.handlers, id)
		return
	}
	n.handlers[id] = h
}

// Stats returns a copy of the activity counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// ResetStats zeroes the activity counters (used between experiment
// phases so warmup traffic does not pollute measurements).
func (n *Network) ResetStats() { n.stats = NetworkStats{} }

// Online reports whether the network considers id online right now.
func (n *Network) Online(id ids.NodeID) bool {
	if i, ok := n.idx[id]; ok {
		return n.onlineAt(int(i))
	}
	return n.online(id)
}

// handlerFor resolves the live handler for a delivery: nil when the
// target is unregistered or offline right now.
func (n *Network) handlerFor(to ids.NodeID) Handler {
	if i, ok := n.idx[to]; ok {
		return n.handlerAt(int(i))
	}
	if h, ok := n.handlers[to]; ok && n.online(to) {
		return h
	}
	return nil
}

// handlerAt is handlerFor for bound host i.
func (n *Network) handlerAt(i int) Handler {
	if h := n.byIdx[i]; h != nil && n.onlineAt(i) {
		return h
	}
	return nil
}

// deliver hands a message to the target's handler at delivery time,
// counting drops for offline or unregistered targets. It is the firing
// half of Send, invoked by the scheduler's value events. to1 is the
// target's bound host index plus one when Send already resolved it (0
// otherwise): the handler and liveness are then read at that index
// instead of probing the identifier map a second time.
func (n *Network) deliver(from, to ids.NodeID, to1 int32, msg any) {
	var h Handler
	if to1 > 0 {
		h = n.handlerAt(int(to1 - 1))
	} else {
		h = n.handlerFor(to)
	}
	if h == nil {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	h(from, msg)
}

// Send delivers msg to to after one sampled hop latency, if the target
// is online and registered at delivery time. Offline targets silently
// drop the message (counted in stats). The delivery is scheduled as a
// closure-free value event.
func (n *Network) Send(from, to ids.NodeID, msg any) {
	n.stats.Sent++
	lat := n.latency.Sample(n.world.Rand())
	var to1 int32
	if n.world.sh != nil {
		// Resolve the target's host index only when the queue is
		// sharded — it routes the delivery to the owning shard's heap,
		// and rides along so deliver need not resolve it again.
		if i, ok := n.idx[to]; ok {
			to1 = i + 1
		}
	}
	n.world.schedule(n.world.now+lat, &payload{kind: evDeliver, to1: to1, net: n, from: from, to: to, msg: msg})
}

// SendCall delivers msg like Send but also reports the outcome to the
// sender: onResult(true) fires when the target acknowledged (one
// round-trip after sending), onResult(false) fires after ackTimeout when
// the target was offline or unregistered. This models the paper's
// "each next-hop node is required to acknowledge receipt" rule. The
// attempt and the verdict are value events, like Send's delivery: the
// callback and both latencies ride in the attempt's payload.
func (n *Network) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	n.stats.Sent++
	out := n.latency.Sample(n.world.Rand())
	back := n.latency.Sample(n.world.Rand())
	n.world.schedule(n.world.now+out, &payload{kind: evAttempt, net: n,
		from: from, to: to, msg: msg, onResult: onResult, out: out, back: back})
}

// attempt is the firing half of SendCall: hand the message to the
// target if it is reachable now, then schedule the verdict — the ack one
// return hop after the handler ran, or the nack once the sender's
// ackTimeout (counted from the send) has expired. A nil callback
// schedules nothing, so sequence numbers are consumed exactly where a
// caller-visible event exists.
func (n *Network) attempt(call *payload) {
	h := n.handlerFor(call.to)
	if h == nil {
		n.stats.Dropped++
		if call.onResult != nil {
			n.world.schedule(n.world.now+n.ackTimeout-call.out,
				&payload{kind: evResult, onResult: call.onResult})
		}
		return
	}
	n.stats.Delivered++
	h(call.from, call.msg)
	if call.onResult != nil {
		n.world.schedule(n.world.now+call.back,
			&payload{kind: evResult, ok: true, onResult: call.onResult})
	}
}
