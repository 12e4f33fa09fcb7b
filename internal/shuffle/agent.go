package shuffle

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"avmem/internal/ids"
	"avmem/internal/stats"
)

// Request is the initiator half of one CYCLON exchange: the entries the
// initiator offers (including a fresh self-entry).
type Request struct {
	Entries []Entry
	// SenderAvail is the initiator's claimed availability, stamped by
	// the owning node. Receivers' audit layers cross-check it against
	// the monitoring service; the agent itself ignores it.
	SenderAvail float64
}

// Reply is the responder half: the entries the responder offers back.
// An honest responder samples only from its view, which never contains
// itself — a reply advertising its own sender is therefore standalone
// evidence of view poisoning, and the audit layer treats it as such.
type Reply struct {
	Entries []Entry
	// SenderAvail is the responder's claimed availability (see
	// Request.SenderAvail).
	SenderAvail float64
}

// Exchange messages travel as pointers and are recycled. A message has
// one holder at a time, and the last one gives it back to these pools,
// with its entry slice kept for the next offer: the handler that merges
// it (Agent.HandleRequest, Agent.HandleReply), or whoever ends its life
// undelivered — a fabric that drops it at an offline partner
// (sim.Network), the audit layer or a behavior that refuses it — through
// Recycle. Nothing else can still hold it then: the owner sends the
// message the agent gave it once and forgets it; the adversary
// interceptor rewrites it in place (Inflate, Eclipse) and passes the
// same pointer on exactly once, at once or after a delay, and no
// behavior keeps or fabricates from it; the audit layer reads its entries
// and keeps none; a fabric's queued event lets go of it before
// delivery; and a wire codec copies it out.
var (
	requests = sync.Pool{New: func() any { return new(Request) }}
	replies  = sync.Pool{New: func() any { return new(Reply) }}
)

// NewRequest returns an empty request, recycled from an earlier exchange
// when one is free. Handing it to HandleRequest gives it away.
func NewRequest() *Request { return requests.Get().(*Request) }

// NewReply returns an empty reply, recycled when one is free. Handing it
// to HandleReply gives it away.
func NewReply() *Reply { return replies.Get().(*Reply) }

// Recycle returns a request that will never be handled to its pool. Only
// its last holder may call it, once (see NewRequest).
func (m *Request) Recycle() {
	m.Entries, m.SenderAvail = m.Entries[:0], 0
	requests.Put(m)
}

// Recycle returns a reply that will never be handled to its pool (see
// Request.Recycle).
func (m *Reply) Recycle() {
	m.Entries, m.SenderAvail = m.Entries[:0], 0
	replies.Put(m)
}

// Agent is the live, message-based counterpart of Cyclon: one Agent
// runs inside each node and performs the age-based shuffle over a real
// transport. The owner wires it up by:
//
//   - calling TickDiscover (or Tick, for an owner with no discovery) once
//     per protocol period, sending the returned request to the returned
//     peer;
//   - feeding inbound requests to HandleRequest and sending the
//     returned reply back to the requester;
//   - feeding inbound replies to HandleReply.
//
// A handler consumes the message it is given and recycles it (see
// NewRequest), so nothing may read or keep an inbound message, or its
// entries, once its handler has been called. The messages the agent
// returns belong to the caller until it hands them on.
//
// The agent runs the same view core as Cyclon. A code is the peer's
// dense host index in the universe UseIndex names, or, for a peer the
// universe does not know, the complement of its slot in the agent's
// stray table. So the self and duplicate checks of a merge compare
// int32s, and the owner's discovery reads codes and memo words straight
// off the view (TickDiscover). An entry is built only where one leaves
// the agent, on a message, with its code plus one as its index memo. An
// agent's entries arrive from a wire or an adversary, so — as Cyclon
// does with what a Tap hands back — the memo on a received entry is
// checked against the universe (one array load) and re-resolved from the
// identifier when it is missing or names another host: the identifier
// always wins. Entries outside the universe, and every entry of an agent
// without UseIndex, are strays, compared by identifier. Decisions and RNG
// draws are the same either way. Received ages are clamped into
// [0, maxAge], so no peer can pin an entry by lying about its age.
//
// Agent is safe for concurrent use.
type Agent struct {
	self       ids.NodeID
	shuffleLen int

	mu sync.Mutex
	// rng draws from src; both live in the agent, so it allocates neither.
	src stats.SplitMix64
	rng rand.Rand
	view

	// strays names the view's peers outside the universe: code ^s is
	// strays[s]. A slot is freed (set to Nil, pushed on free) when its
	// peer leaves the view and reused before the table grows, so it never
	// holds more slots than the view does.
	strays []ids.NodeID
	free   []int32

	// Index universe (UseIndex): the host table in index order, the
	// identifier resolver behind it, and self's index plus one.
	hosts    []ids.NodeID
	indexOf  func(ids.NodeID) int
	selfIdx1 int32
}

// NewAgent creates a live shuffle agent for self.
func NewAgent(self ids.NodeID, viewSize, shuffleLen int, seed int64) (*Agent, error) {
	if self.IsNil() {
		return nil, fmt.Errorf("shuffle: agent needs an identity")
	}
	if viewSize <= 0 {
		return nil, fmt.Errorf("shuffle: viewSize must be positive, got %d", viewSize)
	}
	if shuffleLen <= 0 || shuffleLen > viewSize {
		return nil, fmt.Errorf("shuffle: shuffleLen must be in [1,%d], got %d", viewSize, shuffleLen)
	}
	if seed == 0 {
		seed = int64(ids.SelfHash(self) * (1 << 62))
	}
	a := &Agent{
		self:       self,
		shuffleLen: shuffleLen,
		view:       newView(viewSize, make([]int32, 2*viewSize), make([]uint64, viewSize)),
	}
	a.src.Seed(seed)
	a.rng = *rand.New(&a.src)
	return a, nil
}

// UseIndex names the dense host-index universe the agent lives in:
// hosts is the host table in index order (shared, read-only) and indexOf
// resolves an identifier to its index in it (negative = unknown); the
// two must agree. Entries already in the view are re-coded, so the call
// order relative to Seed does not matter.
func (a *Agent) UseIndex(hosts []ids.NodeID, indexOf func(ids.NodeID) int) {
	if len(hosts) == 0 || indexOf == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.hosts
	a.hosts, a.indexOf = hosts, indexOf
	a.selfIdx1 = a.resolve(a.self, 0) + 1
	for k, code := range a.codes {
		var id ids.NodeID
		if code >= 0 {
			id = old[code]
		} else {
			id = a.strays[^code]
		}
		switch c := a.resolve(id, code+1); {
		case c >= 0 && code < 0:
			a.dropStray(code)
			a.codes[k] = c
		case c >= 0:
			a.codes[k] = c
		case code >= 0:
			a.codes[k] = a.addStray(id)
		}
	}
}

// resolve returns id's host index: k-1 when the universe confirms that
// memo k names id, otherwise the index looked up from the identifier (-1
// when the universe does not know it, or there is no universe).
func (a *Agent) resolve(id ids.NodeID, k int32) int32 {
	if k > 0 && int(k) <= len(a.hosts) && a.hosts[k-1] == id {
		return k - 1
	}
	if a.indexOf == nil {
		return -1
	}
	if i := a.indexOf(id); i >= 0 && i < len(a.hosts) {
		return int32(i)
	}
	return -1
}

// idOf returns the identifier of the peer coded code.
func (a *Agent) idOf(code int32) ids.NodeID {
	if code >= 0 {
		return a.hosts[code]
	}
	return a.strays[^code]
}

// addStray files id in the stray table and returns its code.
func (a *Agent) addStray(id ids.NodeID) int32 {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		a.strays[s] = id
		return ^s
	}
	a.strays = append(a.strays, id)
	return ^int32(len(a.strays) - 1)
}

// dropStray frees the stray table slot of code, whose peer has left the
// view.
func (a *Agent) dropStray(code int32) {
	a.strays[^code] = ids.Nil
	a.free = append(a.free, ^code)
}

// entry builds slot k's wire form: its memo is its host index plus one,
// 0 for a stray.
func (a *Agent) entry(k int) Entry {
	code := a.codes[k]
	return Entry{ID: a.idOf(code), Age: int(a.ages[k]), idx1: max(code+1, 0)}
}

// Seed adds bootstrap peers to the view.
func (a *Agent) Seed(peers []ids.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seedLocked(peers)
}

func (a *Agent) seedLocked(peers []ids.NodeID) {
	m := a.beginMerge()
	for _, p := range peers {
		a.addLocked(p, 0, 0, &m)
	}
}

// View returns the current coarse-view identifiers.
func (a *Agent) View() []ids.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ids.NodeID, len(a.codes))
	for k, code := range a.codes {
		out[k] = a.idOf(code)
	}
	return out
}

// Tick is TickDiscover for an owner that runs no discovery.
func (a *Agent) Tick() (peer ids.NodeID, req *Request, ok bool) {
	to, req, ok := a.TickDiscover(nil, nil)
	return to.ID(), req, ok
}

// TickDiscover starts one shuffle round and runs the owner's discovery
// over it, under one acquisition of the agent's lock. It ages the view,
// picks the oldest peer and returns the request to send to it, addressed
// with the peer's host-index memo when the universe resolved it; ok is
// false, and the request nil, when the view is empty (nothing to shuffle
// with), in which case the view is re-seeded from reseed first. It then
// calls judge — core.Membership.DiscoverView — on the round's candidates
// in place: the view in View's order, then the partner. The partner's
// entry leaves the view pending its reply, but it is still the
// freshest-known peer, so it stays a candidate for this round (in a
// two-node deployment the view would otherwise be empty at every tick),
// carrying the word its slot had; no inbound message can come between
// the removal and the verdict. codes[k] is candidate k's dense host
// index, or for a negative code the complement of its slot in strays,
// and memo[k] its slot's word, which judge may rewrite. The three alias
// the agent's view and stray table, valid only during the call. A nil
// judge is skipped.
func (a *Agent) TickDiscover(reseed []ids.NodeID, judge func(codes []int32, memo []uint64, strays []ids.NodeID) int) (peer ids.Addr, req *Request, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.codes) == 0 {
		a.seedLocked(reseed)
		if judge != nil {
			judge(a.codes, a.memo, a.strays)
		}
		return ids.Addr{}, nil, false
	}
	a.age()
	// Remove the partner's slot; it is replaced by whatever comes back.
	// Until the judge returns it sits, word and all, in the slot the
	// removal freed, just past the end of the view.
	code, word := a.remove(a.oldest(nil))
	if judge != nil {
		n := len(a.codes)
		codes, memo := a.codes[:n+1], a.memo[:n+1]
		codes[n], memo[n] = code, word
		judge(codes, memo, a.strays)
	}
	peer = ids.AddrAt(a.idOf(code), code)
	if code < 0 {
		a.dropStray(code)
	}

	req = NewRequest()
	if cap(req.Entries) < a.shuffleLen {
		req.Entries = make([]Entry, 0, a.shuffleLen)
	}
	req.Entries = a.sampleLocked(req.Entries, a.shuffleLen-1)
	req.Entries = append(req.Entries, Entry{ID: a.self, idx1: a.selfIdx1})
	return peer, req, true
}

// HandleRequest merges an inbound shuffle request, which it consumes,
// and returns the reply to send back.
func (a *Agent) HandleRequest(from ids.NodeID, req *Request) *Reply {
	reply := NewReply()
	if cap(reply.Entries) < a.shuffleLen {
		reply.Entries = make([]Entry, 0, a.shuffleLen)
	}
	a.mu.Lock()
	reply.Entries = a.sampleLocked(reply.Entries, a.shuffleLen)
	a.mergeLocked(req.Entries)
	a.mu.Unlock()
	req.Recycle()
	return reply
}

// HandleReply folds a shuffle reply, which it consumes, into the view.
func (a *Agent) HandleReply(from ids.NodeID, reply *Reply) {
	a.mu.Lock()
	a.mergeLocked(reply.Entries)
	a.mu.Unlock()
	reply.Recycle()
}

// sampleLocked appends a sample of n of the view's entries to dst, in
// wire form. Caller holds mu.
func (a *Agent) sampleLocked(dst []Entry, n int) []Entry {
	var stack [sampleStack]int32
	for _, k := range a.sample(&a.rng, n, stack[:0]) {
		dst = append(dst, a.entry(int(k)))
	}
	return dst
}

// mergeLocked folds received entries in, skipping self and duplicates,
// evicting oldest entries under capacity pressure. Caller holds mu.
func (a *Agent) mergeLocked(received []Entry) {
	m := a.beginMerge()
	for i := range received {
		e := &received[i]
		a.addLocked(e.ID, e.idx1, clampAge(e.Age), &m)
	}
}

// mergeState is what one merge into the view keeps between its entries: the
// victim cursor, and a 256-bit filter with bit code&255 set for every
// host code the view held when the merge began or took since. A code
// whose bit is clear is in no slot, so most duplicate checks skip the
// scan of the code column; an evicted code keeps its bit, which only
// costs a scan.
type mergeState struct {
	victims victimCursor
	held    [4]uint64
}

// beginMerge starts a merge over the view as it stands.
func (a *Agent) beginMerge() mergeState {
	var m mergeState
	for _, code := range a.codes {
		if code >= 0 {
			m.mark(code)
		}
	}
	return m
}

func (m *mergeState) mark(code int32) { m.held[code>>6&3] |= 1 << (code & 63) }

func (m *mergeState) mayHold(code int32) bool { return m.held[code>>6&3]&(1<<(code&63)) != 0 }

// addLocked merges one entry: peer id at age, carrying index memo idx1.
// An entry the universe resolves can only duplicate another resolved
// entry, so it is compared by code; a stray is compared by identifier
// against the stray table. The view's insertion files it, a stray under
// a placeholder code until the victim's stray slot, if any, is freed and
// the newcomer takes one. Caller holds mu.
func (a *Agent) addLocked(id ids.NodeID, idx1, age int32, m *mergeState) {
	if id.IsNil() {
		return
	}
	code := a.resolve(id, idx1)
	if code >= 0 {
		if code+1 == a.selfIdx1 || m.mayHold(code) && slices.Contains(a.codes, code) {
			return
		}
	} else {
		// The stray table's occupied slots are exactly the view's strays.
		if id == a.self || slices.Contains(a.strays, id) {
			return
		}
	}
	k, evicted := a.insert(code, age, &m.victims)
	if k < 0 {
		return
	}
	if evicted < 0 && evicted != vacant {
		a.dropStray(evicted)
	}
	if code >= 0 {
		m.mark(code)
	} else {
		a.codes[k] = a.addStray(id)
	}
}
