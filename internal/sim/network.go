package sim

import (
	"time"

	"avmem/internal/ids"
)

// Handler consumes a message delivered to a node, by identifier alone —
// the form test rigs and the benchmark harness register.
type Handler func(from ids.NodeID, msg any)

// AddrHandler consumes a message delivered to a node. from carries the
// sender's host-index memo when the sender supplied one and it verified
// against the bound universe; otherwise it is memo-less.
type AddrHandler func(from ids.Addr, msg any)

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

// AddrMemoStats counts what became of the host-index memos on the
// addresses the network handled at delivery time (two per message).
type AddrMemoStats struct {
	Hit      int64 // memo present and hosts[i] is the identifier
	Absent   int64 // no memo: the identifier path
	Mismatch int64 // memo present but wrong: ignored, identifier path
}

// Network is the simulated message fabric: unicast with per-hop latency,
// delivery only to online nodes, and optional delivery acknowledgments
// for failure detection (retried-greedy forwarding needs them).
type Network struct {
	world *World
	// net1 is this network's position in world.nets plus one — how a
	// queued event names it.
	net1    uint8
	latency LatencyModel
	online  OnlineFunc
	// ackTimeout is how long a caller of SendCallAddr waits before
	// declaring the attempt failed when no ack arrives.
	ackTimeout time.Duration
	handlers   map[ids.NodeID]AddrHandler
	stats      NetworkStats
	memo       AddrMemoStats

	// Indexed path, populated by Bind: a fixed host universe gets a dense
	// handler table and an index-based liveness probe. An address whose
	// memo names its own slot of hosts is resolved by one slice read and a
	// string compare; idx is the fallback for addresses without a usable
	// memo. Hosts outside the bound universe go through the handlers map
	// and the OnlineFunc.
	hosts    []ids.NodeID
	idx      map[ids.NodeID]int32
	byIdx    []AddrHandler
	onlineAt func(i int) bool
}

// NewNetwork creates a network on the world. latency defaults to the
// paper's U[20,80] ms model; online defaults to "always online";
// ackTimeout <= 0 defaults to 2× the worst-case paper latency (160 ms).
// A world carries at most 255 networks.
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
	if len(w.nets) >= 255 {
		panic("sim: more than 255 networks on one world")
	}
	n := &Network{
		world:      w,
		net1:       uint8(len(w.nets) + 1),
		latency:    latency,
		online:     online,
		ackTimeout: ackTimeout,
		handlers:   make(map[ids.NodeID]AddrHandler, 1024),
	}
	w.nets = append(w.nets, n)
	return n
}

// Bind declares the fixed host universe and its index-based liveness
// probe: hosts[i] is online iff onlineAt(i). Handlers registered for
// bound hosts live in a dense table and deliveries to them skip the
// OnlineFunc entirely. Handlers registered before the call are migrated
// into the table, so Bind and Register compose in either order;
// typically hosts is the churn trace's population in trace-index order.
// The universe is fixed: bind once, before any traffic — hosts is also
// what address memos are verified against, and is kept, not copied.
func (n *Network) Bind(hosts []ids.NodeID, onlineAt func(i int) bool) {
	if len(hosts) == 0 || onlineAt == nil {
		return
	}
	n.hosts = hosts
	n.idx = make(map[ids.NodeID]int32, len(hosts))
	n.byIdx = make([]AddrHandler, len(hosts))
	for i, id := range hosts {
		n.idx[id] = int32(i)
		if h, ok := n.handlers[id]; ok {
			n.byIdx[i] = h
			delete(n.handlers, id)
		}
	}
	n.onlineAt = onlineAt
}

// Register is RegisterAddr for a handler that wants identifiers only.
func (n *Network) Register(id ids.NodeID, h Handler) {
	n.RegisterAddr(id.Addr(), h.withAddr())
}

// withAddr adapts h to the address form (nil stays nil).
func (h Handler) withAddr() AddrHandler {
	if h == nil {
		return nil
	}
	return func(from ids.Addr, msg any) { h(from.ID(), msg) }
}

// RegisterAddr installs the message handler for a node. A nil handler
// unregisters the node.
func (n *Network) RegisterAddr(a ids.Addr, h AddrHandler) {
	if i := n.indexOf(a); i >= 0 {
		n.byIdx[i] = h
		return
	}
	if h == nil {
		delete(n.handlers, a.ID())
		return
	}
	n.handlers[a.ID()] = h
}

// Stats returns a copy of the activity counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// AddrMemoStats returns a copy of the address-memo counters.
func (n *Network) AddrMemoStats() AddrMemoStats { return n.memo }

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

// memoIndex checks a's memo against the bound universe: the host index
// when hosts[i] is a's identifier (in-process a pointer-equal string
// compare), -1 when there is no memo or it names another slot, or none.
// The identifier always wins: a memo that does not verify is only ever
// ignored.
func (n *Network) memoIndex(a ids.Addr) int {
	i := a.Index()
	if i < 0 {
		n.memo.Absent++
		return -1
	}
	if int(i) < len(n.hosts) && n.hosts[i] == a.ID() {
		n.memo.Hit++
		return int(i)
	}
	n.memo.Mismatch++
	return -1
}

// indexOf resolves a to its bound host index — by memo when it verifies,
// by identifier otherwise — or -1 for a host outside the universe.
func (n *Network) indexOf(a ids.Addr) int {
	if i := n.memoIndex(a); i >= 0 {
		return i
	}
	if i, ok := n.idx[a.ID()]; ok {
		return int(i)
	}
	return -1
}

// handlerFor resolves the live handler for a delivery: nil when the
// target is unregistered or offline right now.
func (n *Network) handlerFor(to ids.Addr) AddrHandler {
	if i := n.indexOf(to); i >= 0 {
		if h := n.byIdx[i]; h != nil && n.onlineAt(i) {
			return h
		}
		return nil
	}
	if h, ok := n.handlers[to.ID()]; ok && n.online(to.ID()) {
		return h
	}
	return nil
}

// vouched returns from as the handler may see it: with its memo when it
// verifies, stripped to the identifier when it does not.
func (n *Network) vouched(from ids.Addr) ids.Addr {
	if n.memoIndex(from) < 0 {
		return from.ID().Addr()
	}
	return from
}

// deliver hands a message to the target's handler at delivery time,
// counting drops for offline or unregistered targets. It is the firing
// half of SendAddr, invoked by the scheduler's value events; both memos
// are verified here, where they are used.
func (n *Network) deliver(from, to ids.Addr, msg any) {
	h := n.handlerFor(to)
	if h == nil {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	h(n.vouched(from), msg)
}

// Send is SendAddr for two bare identifiers.
func (n *Network) Send(from, to ids.NodeID, msg any) { n.SendAddr(from.Addr(), to.Addr(), msg) }

// SendAddr delivers msg to to after one sampled hop latency, if the
// target is online and registered at delivery time. Offline targets
// silently drop the message (counted in stats). The delivery is
// scheduled as a closure-free value event carrying both memos; nothing is
// resolved here.
func (n *Network) SendAddr(from, to ids.Addr, msg any) {
	n.stats.Sent++
	lat := n.latency.Sample(n.world.Rand())
	p := n.world.schedule(n.world.now + lat)
	p.kind, p.net1 = evDeliver, n.net1
	p.to1, p.from1 = to.Index()+1, from.Index()+1
	p.from, p.to, p.msg = from.ID(), to.ID(), msg
}

// SendCall is SendCallAddr for two bare identifiers.
func (n *Network) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	n.SendCallAddr(from.Addr(), to.Addr(), msg, onResult)
}

// SendCallAddr delivers msg like SendAddr but also reports the outcome
// to the sender: onResult(true) fires when the target acknowledged (one
// round-trip after sending), onResult(false) fires after ackTimeout when
// the target was offline or unregistered. This models the paper's
// "each next-hop node is required to acknowledge receipt" rule. The
// attempt and the verdict are value events, like SendAddr's delivery:
// the callback and both latencies ride in the attempt's payload.
func (n *Network) SendCallAddr(from, to ids.Addr, msg any, onResult func(ok bool)) {
	n.sendAttempt(from, to, msg).onResult = onResult
}

// SendNackAddr is SendCallAddr for a caller that acts only on failure:
// onNack fires exactly when SendCallAddr's onResult(false) would, and
// nothing is queued where its onResult(true) would fire. Both latencies
// are still drawn at send time, so the world RNG moves as under
// SendCallAddr. The attempt carries onNack in its fn slot instead of
// onResult; that is the whole difference between the two.
func (n *Network) SendNackAddr(from, to ids.Addr, msg any, onNack func()) {
	n.sendAttempt(from, to, msg).fn = onNack
}

// sendAttempt draws both hop latencies and files the attempt of an
// acknowledged send, returning its slot for the caller to add the
// callback to.
func (n *Network) sendAttempt(from, to ids.Addr, msg any) *payload {
	n.stats.Sent++
	out := n.latency.Sample(n.world.Rand())
	back := n.latency.Sample(n.world.Rand())
	p := n.world.schedule(n.world.now + out)
	p.kind, p.net1 = evAttempt, n.net1
	p.to1, p.from1 = to.Index()+1, from.Index()+1
	p.from, p.to, p.msg = from.ID(), to.ID(), msg
	p.out, p.back = out, back
	return p
}

// attempt is the firing half of SendCallAddr and SendNackAddr: hand the
// message to the target if it is reachable now, then schedule the
// verdict — the ack one return hop after the handler ran, or the nack
// once the sender's ackTimeout (counted from the send) has expired. A
// nil callback schedules nothing, and a nack-only attempt (fn set, no
// onResult) schedules no ack, so events are queued exactly where a
// caller-visible one exists.
func (n *Network) attempt(call *payload) {
	h := n.handlerFor(call.toAddr())
	if h == nil {
		n.stats.Dropped++
		if call.onResult != nil || call.fn != nil {
			p := n.world.schedule(n.world.now + n.ackTimeout - call.out)
			p.kind, p.onResult, p.fn = evResult, call.onResult, call.fn
		}
		return
	}
	n.stats.Delivered++
	h(n.vouched(call.fromAddr()), call.msg)
	if call.onResult != nil {
		p := n.world.schedule(n.world.now + call.back)
		p.kind, p.ok, p.onResult = evResult, true, call.onResult
	}
}
