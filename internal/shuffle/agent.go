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
// The view is stored as parallel columns, one slot per peer: its
// identifier, its index memo, its age and the owner's memo word. With
// UseIndex configured the agent addresses its view by dense host index:
// every slot holds idx1 > 0 exactly when the universe confirms that index
// names the slot's peer, so the self and duplicate checks of a merge
// compare int32s and the owner's discovery reads indexes and memo words
// straight off the view (TickDiscover). An agent's entries arrive from a
// wire or an adversary, so — as Cyclon does with what a Tap hands back —
// the memo on a received entry is checked against the universe (one
// array load) and re-resolved from the identifier when it is missing or
// names another host: the identifier always wins. Entries outside the
// universe, and every entry of an agent without UseIndex, stay at
// idx1 == 0 and are compared by identifier. Decisions and RNG draws are
// the same either way. Received ages are clamped into [0, maxAge] and a
// tick's ageing saturates there, so no peer can pin an entry by lying
// about its age.
//
// Agent is safe for concurrent use.
type Agent struct {
	self       ids.NodeID
	shuffleLen int
	cap        int

	mu  sync.Mutex
	rng *rand.Rand
	// The view: slot k holds peers[k] at age ages[k]; idx1[k] is its host
	// index plus one (0 = unresolved) and memo[k] the word the owner's
	// discovery keeps about it (see view.memo), zeroed when the slot takes
	// a new occupant and moved with its occupant.
	peers []ids.NodeID
	idx1  []int32
	ages  []int32
	memo  []uint64

	// Index universe (UseIndex): the host table in index order, the
	// identifier resolver behind it, and self's index plus one.
	hosts    []ids.NodeID
	indexOf  func(ids.NodeID) int
	selfIdx1 int32

	// Scratch, reused under mu: the index permutation sampleLocked
	// shuffles a prefix of, and judgeLocked's candidate codes and the
	// strays among them.
	perm   []int
	codes  []int32
	strays []ids.NodeID
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
	return &Agent{
		self:       self,
		shuffleLen: shuffleLen,
		cap:        viewSize,
		rng:        rand.New(stats.NewSplitMix64(seed)),
		peers:      make([]ids.NodeID, 0, viewSize),
		idx1:       make([]int32, 0, viewSize),
		ages:       make([]int32, 0, viewSize),
		memo:       make([]uint64, 0, viewSize),
	}, nil
}

// UseIndex names the dense host-index universe the agent lives in:
// hosts is the host table in index order (shared, read-only) and indexOf
// resolves an identifier to its index in it (negative = unknown); the
// two must agree. Entries already in the view are resolved, so the call
// order relative to Seed does not matter.
func (a *Agent) UseIndex(hosts []ids.NodeID, indexOf func(ids.NodeID) int) {
	if len(hosts) == 0 || indexOf == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hosts, a.indexOf = hosts, indexOf
	a.selfIdx1 = a.resolve(a.self, 0)
	for k, id := range a.peers {
		a.idx1[k] = a.resolve(id, a.idx1[k])
	}
}

// resolve returns id's index memo for this agent: k when the universe
// confirms it names id, otherwise the index looked up from the identifier
// plus one (0 when the universe does not know it, or there is no
// universe).
func (a *Agent) resolve(id ids.NodeID, k int32) int32 {
	if k > 0 && int(k) <= len(a.hosts) && a.hosts[k-1] == id {
		return k
	}
	if a.indexOf == nil {
		return 0
	}
	if i := a.indexOf(id); i >= 0 && i < len(a.hosts) {
		return int32(i) + 1
	}
	return 0
}

// Seed adds bootstrap peers to the view.
func (a *Agent) Seed(peers []ids.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seedLocked(peers)
}

func (a *Agent) seedLocked(peers []ids.NodeID) {
	var victims victimCursor
	for _, p := range peers {
		a.addLocked(p, 0, 0, &victims)
	}
}

// View returns the current coarse-view identifiers.
func (a *Agent) View() []ids.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.peers)
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
// index, or for a negative code the complement of its position in
// strays, and memo[k] its slot's word, which judge may rewrite. A nil
// judge is skipped.
func (a *Agent) TickDiscover(reseed []ids.NodeID, judge func(codes []int32, memo []uint64, strays []ids.NodeID) int) (peer ids.Addr, req *Request, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.peers) == 0 {
		a.seedLocked(reseed)
		a.judgeLocked(len(a.peers), judge)
		return ids.Addr{}, nil, false
	}
	// Age every entry and find the oldest (the first among equals) in
	// one pass.
	oldest := 0
	for k := range a.ages {
		if a.ages[k] < maxAge {
			a.ages[k]++
		}
		if a.ages[k] > a.ages[oldest] {
			oldest = k
		}
	}
	// Remove the partner's slot; it is replaced by whatever comes back.
	// Until this call returns it sits, word and all, in the slot the
	// removal freed, just past the end of the view.
	id, idx1, age, word := a.peers[oldest], a.idx1[oldest], a.ages[oldest], a.memo[oldest]
	last := len(a.peers) - 1
	copy(a.peers[oldest:], a.peers[oldest+1:])
	copy(a.idx1[oldest:], a.idx1[oldest+1:])
	copy(a.ages[oldest:], a.ages[oldest+1:])
	copy(a.memo[oldest:], a.memo[oldest+1:])
	a.peers[last], a.idx1[last], a.ages[last], a.memo[last] = id, idx1, age, word
	a.peers, a.idx1, a.ages, a.memo = a.peers[:last], a.idx1[:last], a.ages[:last], a.memo[:last]
	a.judgeLocked(last+1, judge)

	req = NewRequest()
	if cap(req.Entries) < a.shuffleLen {
		req.Entries = make([]Entry, 0, a.shuffleLen)
	}
	req.Entries = a.sampleLocked(req.Entries, a.shuffleLen-1)
	req.Entries = append(req.Entries, Entry{ID: a.self, idx1: a.selfIdx1})
	return ids.AddrAt(id, idx1-1), req, true
}

// judgeLocked codes the first n slots (the view, and past its end the
// partner TickDiscover holds there) and hands them to judge with their
// words. Caller holds mu.
func (a *Agent) judgeLocked(n int, judge func(codes []int32, memo []uint64, strays []ids.NodeID) int) int {
	if judge == nil {
		return 0
	}
	a.codes, a.strays = a.codes[:0], a.strays[:0]
	peers := a.peers[:n]
	for k, idx1 := range a.idx1[:n] {
		code := idx1 - 1
		if code < 0 {
			code = ^int32(len(a.strays))
			a.strays = append(a.strays, peers[k])
		}
		a.codes = append(a.codes, code)
	}
	return judge(a.codes, a.memo[:n], a.strays)
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

// sampleLocked appends min(n, len(view)) distinct random entries to dst:
// the partial Fisher–Yates Cyclon samples with, one Intn draw per entry
// picked, over the agent's index scratch. Caller holds mu.
func (a *Agent) sampleLocked(dst []Entry, n int) []Entry {
	m := len(a.peers)
	n = min(n, m)
	if n <= 0 {
		return dst
	}
	if cap(a.perm) < m {
		a.perm = make([]int, a.cap)
	}
	idx := a.perm[:m]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + a.rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
		k := idx[i]
		dst = append(dst, Entry{ID: a.peers[k], Age: int(a.ages[k]), idx1: a.idx1[k]})
	}
	return dst
}

// mergeLocked folds received entries in, skipping self and duplicates,
// evicting oldest entries under capacity pressure. Caller holds mu.
func (a *Agent) mergeLocked(received []Entry) {
	var victims victimCursor
	for i := range received {
		e := &received[i]
		a.addLocked(e.ID, e.idx1, clampAge(e.Age), &victims)
	}
}

// addLocked merges one entry: peer id at age, carrying index memo idx1.
// An entry the universe resolves can only duplicate another resolved
// entry, so it is compared by index; the rest are compared by identifier
// against the unresolved slots. A full view takes the entry in place of
// its oldest one (the first among equals, found by the merge's victim
// cursor) if that one is no younger. Caller holds mu.
func (a *Agent) addLocked(id ids.NodeID, idx1, age int32, victims *victimCursor) {
	if id.IsNil() {
		return
	}
	if idx1 = a.resolve(id, idx1); idx1 > 0 {
		if idx1 == a.selfIdx1 || slices.Contains(a.idx1, idx1) {
			return
		}
	} else {
		if id == a.self {
			return
		}
		for k, have := range a.idx1 {
			if have == 0 && a.peers[k] == id {
				return
			}
		}
	}
	if len(a.peers) < a.cap {
		a.peers = append(a.peers, id)
		a.idx1 = append(a.idx1, idx1)
		a.ages = append(a.ages, age)
		a.memo = append(a.memo, 0)
		return
	}
	if k := victims.next(a.ages); a.ages[k] >= age {
		a.peers[k], a.idx1[k], a.ages[k], a.memo[k] = id, idx1, age, 0
	}
}
