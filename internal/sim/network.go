package sim

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	"avmem/internal/ids"
)

// Handler consumes a message delivered to a node, by identifier alone —
// the form test rigs and the benchmark harness register.
type Handler func(from ids.NodeID, msg any)

// AddrHandler consumes a message delivered to a node. from carries the
// sender's host-index memo when the sender supplied one and it verified
// against the bound universe; otherwise it is memo-less.
type AddrHandler func(from ids.Addr, msg any)

// NetworkStats counts network activity for overhead and spam metrics.
type NetworkStats struct {
	Sent      int // messages handed to the network
	Delivered int // messages that reached an online handler
	Dropped   int // messages lost to offline, unregistered or unknown targets
}

// AddrMemoStats counts what became of the host-index memos on the
// addresses the network handled at delivery time (two per message).
type AddrMemoStats struct {
	Hit      int64 // memo present and hosts[i] is the identifier
	Absent   int64 // no memo: the identifier path
	Mismatch int64 // memo present but wrong: ignored, identifier path
}

// Network is the simulated message fabric over a fixed host universe:
// unicast with per-hop latency, delivery only to online hosts, and
// optional delivery acknowledgments for failure detection
// (retried-greedy forwarding needs them).
type Network struct {
	world *World
	// net1 is this network's position in world.nets plus one — how a
	// queued event names it.
	net1    uint8
	latency LatencyModel
	// ackTimeout is how long a caller of SendCallAddr waits before
	// declaring the attempt failed when no ack arrives.
	ackTimeout time.Duration
	stats      NetworkStats
	memo       AddrMemoStats
	// fan is the delivery body SendAddr filed or joined last, in slot
	// fanSlot, which the next copy may join if it takes push rank
	// fanRank at instant fanAt (SendAddr). shared counts the copies filed
	// on another copy's body: sim_net_shared_copies_total.
	fan     *payload
	fanSlot uint32
	fanRank uint32
	fanAt   time.Duration
	shared  uint64

	// The universe, set once by Bind: a dense handler table and an
	// index-based liveness probe. An address whose memo names its own
	// slot of hosts is resolved by one slice read and a string compare;
	// idx is the fallback for addresses without a usable memo. An address
	// outside the universe reaches nobody.
	hosts    []ids.NodeID
	idx      map[ids.NodeID]int32
	handlers []AddrHandler
	onlineAt func(i int) bool
}

// NewNetwork creates a network on the world. latency defaults to the
// paper's U[20,80] ms model; ackTimeout <= 0 defaults to 2× the
// worst-case paper latency (160 ms). The network delivers nothing until
// Bind declares its host universe. A world carries at most 255 networks.
//
// Deprecated: online is retired and must be nil (a non-nil one panics);
// liveness comes with the universe, from Bind. It stays in the signature
// only until the benchmark harness moves off it (ROADMAP.md item 1(a)).
func NewNetwork(w *World, latency LatencyModel, online func(ids.NodeID) bool, ackTimeout time.Duration) *Network {
	if online != nil {
		panic("sim: NewNetwork's online argument is retired; bind liveness with Bind")
	}
	if latency == nil {
		latency = PaperLatency()
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
		ackTimeout: ackTimeout,
	}
	w.nets = append(w.nets, n)
	return n
}

// Bind declares the fixed host universe and its index-based liveness
// probe: hosts[i] is online iff onlineAt(i). Typically hosts is the churn
// trace's population in trace-index order. Bind once, before any
// registration or traffic — hosts is also what address memos are
// verified against, and is kept, not copied; a second Bind is refused.
// The first network bound on a world also lends it onlineAt, the probe
// its host-bound timers sleep by (World.EveryHost).
func (n *Network) Bind(hosts []ids.NodeID, onlineAt func(i int) bool) error {
	if len(hosts) == 0 || onlineAt == nil {
		return fmt.Errorf("sim: Bind needs hosts and a liveness probe")
	}
	if n.hosts != nil {
		return fmt.Errorf("sim: the network's universe is already bound")
	}
	n.hosts = hosts
	n.idx = make(map[ids.NodeID]int32, len(hosts))
	for i, id := range hosts {
		n.idx[id] = int32(i)
	}
	n.handlers = make([]AddrHandler, len(hosts))
	n.onlineAt = onlineAt
	if n.world.online == nil {
		n.world.online = onlineAt
	}
	return nil
}

// Register is RegisterAddr for a handler that wants identifiers only; it
// panics where RegisterAddr returns an error.
func (n *Network) Register(id ids.NodeID, h Handler) {
	if err := n.RegisterAddr(id.Addr(), h.withAddr()); err != nil {
		panic(err)
	}
}

// withAddr adapts h to the address form (nil stays nil).
func (h Handler) withAddr() AddrHandler {
	if h == nil {
		return nil
	}
	return func(from ids.Addr, msg any) { h(from.ID(), msg) }
}

// RegisterAddr installs the message handler for a host of the bound
// universe; a nil handler unregisters it. An address outside the
// universe is refused.
func (n *Network) RegisterAddr(a ids.Addr, h AddrHandler) error {
	i := n.indexOf(a)
	if i < 0 {
		return fmt.Errorf("sim: %s is outside the network's universe", a.ID())
	}
	n.handlers[i] = h
	return nil
}

// Stats returns a copy of the activity counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// AddrMemoStats returns a copy of the address-memo counters.
func (n *Network) AddrMemoStats() AddrMemoStats { return n.memo }

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
// target is outside the universe, unregistered or offline right now.
func (n *Network) handlerFor(to ids.Addr) AddrHandler {
	if i := n.indexOf(to); i >= 0 && n.handlers[i] != nil && n.onlineAt(i) {
		return n.handlers[i]
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

// Recycler is a message that owns pooled buffers (a CYCLON exchange
// message, shuffle.Request and shuffle.Reply). Whoever ends such a
// message's life undelivered — the network that drops it, a handler that
// refuses it — calls Recycle once, and nobody touches it after; a
// delivered one is recycled by the handler that consumes it.
type Recycler interface{ Recycle() }

// drop counts a message lost to an offline, unregistered or unknown
// target and gives it back to its pool when it owns one. The network
// held the only reference: the sender handed it over, and the fired
// event's slot was zeroed before delivery was attempted — or, for a
// delivery body with copies still queued, holds it for those copies of
// the same send.
func (n *Network) drop(msg any) {
	n.stats.Dropped++
	if r, ok := msg.(Recycler); ok {
		r.Recycle()
	}
}

// deliver hands a message to the target's handler at delivery time,
// counting drops for offline, unregistered or unknown targets. It is the firing
// half of SendAddr, invoked by the scheduler's value events; both memos
// are verified here, where they are used.
func (n *Network) deliver(from, to ids.Addr, msg any) {
	h := n.handlerFor(to)
	if h == nil {
		n.drop(msg)
		return
	}
	n.stats.Delivered++
	h(n.vouched(from), msg)
}

// Send is SendAddr for two bare identifiers.
func (n *Network) Send(from, to ids.NodeID, msg any) { n.SendAddr(from.Addr(), to.Addr(), msg) }

// SendAddr delivers msg to to after one sampled hop latency, if the
// target is a host of the universe, online and registered at delivery
// time. Any other target silently drops the message (counted in stats). The delivery is
// scheduled as a closure-free value event carrying both memos; nothing is
// resolved here.
//
// A flood's fan-out — one boxed message sent from one sender to many
// targets at one instant, no other push between the sends — is filed as
// copies of one delivery body: the first copy takes a slab slot, and
// each later one whose target memo verifies only a key naming its target
// (joinable). Every copy still draws its own latency and takes its own
// push rank, key and deliver event, so events fire exactly as if each
// had its own slot.
func (n *Network) SendAddr(from, to ids.Addr, msg any) {
	n.stats.Sent++
	w := n.world
	at := w.notBefore(w.now + n.latency.Sample(w.Rand()))
	if i := n.joinable(from, to, msg); i >= 0 {
		w.events.file(eventKey{at: at, slot: n.fanSlot, to1: i + 1})
		n.fan.copies++
		n.fanRank++
		n.shared++
		return
	}
	n.fanSlot = w.events.pushSlot(at)
	p := w.events.at(n.fanSlot)
	p.kind, p.net1, p.copies = evDeliver, n.net1, 1
	p.to1, p.from1 = to.Index()+1, from.Index()+1
	p.from, p.to, p.msg = from.ID(), to.ID(), msg
	n.fan, n.fanRank, n.fanAt = p, p.rank+1, w.now
}

// joinable returns the host index of to when a send of msg from from to
// to may be filed on the body of the last send, or -1 when it must start
// a body of its own. It may when nothing has taken a push rank since
// that body's last copy, at this instant; when the body still has
// copies queued (a zero-latency model may have fired them all), below
// the count's limit; when it carries the very same boxed message from
// the same sender; and when to's memo verifies against the universe,
// since a shared copy's target is named by its index alone.
//
// The ranks are what keep a shared copy's ties exact: a copy takes its
// own rank, and so its own place in the queue's FIFO order, but its
// body's rank settles a tie with a ring timer (payload.rank). All the copies' ranks are
// consecutive, so no timer's rank lies between them, and the body's
// first rank compares with any timer's exactly as each copy's own would.
func (n *Network) joinable(from, to ids.Addr, msg any) int32 {
	b, w := n.fan, n.world
	if b == nil || w.events.rank != n.fanRank || w.now != n.fanAt || b.copies == 0 || b.copies == math.MaxUint16 ||
		!sameBox(b.msg, msg) || b.from != from.ID() || b.from1 != from.Index()+1 {
		return -1
	}
	if i := to.Index(); i >= 0 && int(i) < len(n.hosts) && n.hosts[i] == to.ID() {
		return i
	}
	return -1
}

// sameBox reports whether a and b are one boxed value: the same type
// word and data word. Unlike ==, it never panics on an uncomparable
// dynamic type and costs two word compares whatever the type.
func sameBox(a, b any) bool {
	return *(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) == *(*[2]unsafe.Pointer)(unsafe.Pointer(&b))
}

// SendCall is SendCallAddr for two bare identifiers.
func (n *Network) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	n.SendCallAddr(from.Addr(), to.Addr(), msg, onResult)
}

// SendCallAddr delivers msg like SendAddr but also reports the outcome
// to the sender: onResult(true) fires when the target acknowledged (one
// round-trip after sending), onResult(false) fires after ackTimeout when
// the target was unreachable (offline, unregistered or unknown). This models the paper's
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
		n.drop(call.msg)
		if call.onResult != nil || call.fn != nil {
			p := n.world.schedule(n.world.now + n.ackTimeout - call.out)
			p.kind, p.onResult, p.fn = evNack, call.onResult, call.fn
		}
		return
	}
	n.stats.Delivered++
	h(n.vouched(call.fromAddr()), call.msg)
	if call.onResult != nil {
		p := n.world.schedule(n.world.now + call.back)
		p.kind, p.onResult = evAck, call.onResult
	}
}
