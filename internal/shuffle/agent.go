package shuffle

import (
	"fmt"
	"math/rand"
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
// With UseIndex configured the agent addresses its view by dense host
// index: every entry it holds carries idx1 > 0 exactly when the universe
// confirms that index names the entry's ID, so the self and duplicate
// checks of a merge compare int32s and the owner's discovery reads
// indexes and memo words straight off the view (TickDiscover). An agent's
// entries arrive from a wire or an adversary, so — as Cyclon does with
// what a Tap hands back — the memo on a received entry is checked
// against the universe (one array load) and re-resolved from the
// identifier when it is missing or names another host: the identifier
// always wins. Entries outside the universe, and every entry of an agent
// without UseIndex, stay at idx1 == 0 and are compared by identifier.
// Decisions and RNG draws are the same either way.
//
// Agent is safe for concurrent use.
type Agent struct {
	self       ids.NodeID
	shuffleLen int

	mu      sync.Mutex
	rng     *rand.Rand
	entries []Entry
	cap     int
	// memo is parallel to entries: one word per slot for the owner's
	// discovery (see view.memo), zeroed when a slot takes a new occupant
	// and moved with its occupant.
	memo []uint64

	// Index universe (UseIndex): the host table in index order, the
	// identifier resolver behind it, and self's index plus one.
	hosts    []ids.NodeID
	indexOf  func(ids.NodeID) int
	selfIdx1 int32

	// Scratch, reused under mu: the index permutation sampleLocked
	// shuffles a prefix of, and mergeLocked's compact mirrors of the
	// view's indexes and ages (the duplicate scan and the eviction-victim
	// cursor walk these, not the entries).
	perm    []int
	idxs    []int32
	ages    []int
	victims victimCursor[int]
	// judgeLocked's scratch: the candidates' codes and the strays among them.
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
		rng:        rand.New(stats.NewSplitMix64(seed)),
		entries:    make([]Entry, 0, viewSize),
		memo:       make([]uint64, 0, viewSize),
		cap:        viewSize,
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
	me := Entry{ID: a.self}
	a.resolve(&me)
	a.selfIdx1 = me.idx1
	for i := range a.entries {
		a.resolve(&a.entries[i])
	}
}

// resolve settles e.idx1 for this agent: kept when the universe confirms
// it names e.ID, otherwise looked up from the identifier (0 when the
// universe does not know it, or there is no universe).
func (a *Agent) resolve(e *Entry) {
	if k := e.idx1; k > 0 && int(k) <= len(a.hosts) && a.hosts[k-1] == e.ID {
		return
	}
	e.idx1 = 0
	if a.indexOf == nil {
		return
	}
	if i := a.indexOf(e.ID); i >= 0 && i < len(a.hosts) {
		e.idx1 = int32(i) + 1
	}
}

// Seed adds bootstrap peers to the view.
func (a *Agent) Seed(peers []ids.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seedLocked(peers)
}

func (a *Agent) seedLocked(peers []ids.NodeID) {
	a.beginMerge()
	for _, p := range peers {
		a.addLocked(Entry{ID: p})
	}
}

// View returns the current coarse-view identifiers.
func (a *Agent) View() []ids.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ids.NodeID, len(a.entries))
	for i, e := range a.entries {
		out[i] = e.ID
	}
	return out
}

// Tick is TickDiscover for an owner that runs no discovery.
func (a *Agent) Tick() (peer ids.NodeID, req Request, ok bool) {
	to, req, ok := a.TickDiscover(nil, nil)
	return to.ID(), req, ok
}

// TickDiscover starts one shuffle round and runs the owner's discovery
// over it, under one acquisition of the agent's lock. It ages the view,
// picks the oldest peer and returns the request to send to it, addressed
// with the peer's host-index memo when the universe resolved it; ok is
// false when the view is empty (nothing to shuffle with), in which case
// the view is re-seeded from reseed first. It then calls judge —
// core.Membership.DiscoverView — on the round's candidates in place: the
// view in View's order, then the partner. The partner's entry leaves the
// view pending its reply, but it is still the freshest-known peer, so it
// stays a candidate for this round (in a two-node deployment the view
// would otherwise be empty at every tick), carrying the word its slot
// had; no inbound message can come between the removal and the verdict.
// codes[k] is candidate k's dense host index, or for a negative code the
// complement of its position in strays, and memo[k] its slot's word,
// which judge may rewrite. A nil judge is skipped.
func (a *Agent) TickDiscover(reseed []ids.NodeID, judge func(codes []int32, memo []uint64, strays []ids.NodeID) int) (peer ids.Addr, req Request, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.entries) == 0 {
		a.seedLocked(reseed)
		a.judgeLocked(len(a.entries), judge)
		return ids.Addr{}, Request{}, false
	}
	for i := range a.entries {
		a.entries[i].Age++
	}
	oldest := oldestIndex(a.entries)
	partner, word := a.entries[oldest], a.memo[oldest]
	// Remove the partner's entry; it is replaced by whatever comes back.
	// Until this call returns it sits, word and all, in the slot the
	// removal freed, just past the end of the view.
	last := len(a.entries) - 1
	copy(a.entries[oldest:], a.entries[oldest+1:])
	copy(a.memo[oldest:], a.memo[oldest+1:])
	a.entries[last], a.memo[last] = partner, word
	a.entries, a.memo = a.entries[:last], a.memo[:last]
	a.judgeLocked(last+1, judge)

	// The offer is a fresh slice: it travels with the message.
	out := a.sampleLocked(a.shuffleLen-1, 1)
	out = append(out, Entry{ID: a.self, Age: 0, idx1: a.selfIdx1})
	return ids.AddrAt(partner.ID, partner.idx1-1), Request{Entries: out}, true
}

// judgeLocked codes the first n slots (the view, and past its end the
// partner TickDiscover holds there) and hands them to judge with their
// words. Caller holds mu.
func (a *Agent) judgeLocked(n int, judge func(codes []int32, memo []uint64, strays []ids.NodeID) int) int {
	if judge == nil {
		return 0
	}
	a.codes, a.strays = a.codes[:0], a.strays[:0]
	for _, e := range a.entries[:n] {
		code := e.idx1 - 1
		if code < 0 {
			code = ^int32(len(a.strays))
			a.strays = append(a.strays, e.ID)
		}
		a.codes = append(a.codes, code)
	}
	return judge(a.codes, a.memo[:n], a.strays)
}

// HandleRequest processes an inbound shuffle request and returns the
// reply to send back.
func (a *Agent) HandleRequest(from ids.NodeID, req Request) Reply {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.sampleLocked(a.shuffleLen, 0)
	a.mergeLocked(req.Entries)
	return Reply{Entries: out}
}

// HandleReply folds a shuffle reply into the view.
func (a *Agent) HandleReply(from ids.NodeID, reply Reply) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mergeLocked(reply.Entries)
}

// sampleLocked picks min(n, len(view)) distinct random entries into a
// fresh slice with room for extra more: the partial Fisher–Yates Cyclon
// samples with, one Intn draw per entry picked, over the agent's index
// scratch. Caller holds mu.
func (a *Agent) sampleLocked(n, extra int) []Entry {
	m := len(a.entries)
	if n > m {
		n = m
	}
	if n <= 0 {
		return nil
	}
	if cap(a.perm) < m {
		a.perm = make([]int, a.cap)
	}
	idx := a.perm[:m]
	for i := range idx {
		idx[i] = i
	}
	out := make([]Entry, 0, n+extra)
	for i := 0; i < n; i++ {
		j := i + a.rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, a.entries[idx[i]])
	}
	return out
}

// mergeLocked folds received entries in, skipping self and duplicates,
// evicting oldest entries under capacity pressure. Caller holds mu.
func (a *Agent) mergeLocked(received []Entry) {
	a.beginMerge()
	for _, e := range received {
		a.addLocked(e)
	}
}

// beginMerge rebuilds the index and age mirrors addLocked scans and
// restarts the victim cursor.
func (a *Agent) beginMerge() {
	a.idxs, a.ages, a.victims = a.idxs[:0], a.ages[:0], victimCursor[int]{}
	for i := range a.entries {
		a.idxs = append(a.idxs, a.entries[i].idx1)
		a.ages = append(a.ages, a.entries[i].Age)
	}
}

// addLocked merges one entry (a copy: the sender may still hold the
// slice it came from). An entry the universe resolves can only duplicate
// another resolved entry, so it is compared by index; the rest are
// compared by identifier against the unresolved entries. A full view
// takes the entry in place of its oldest one (the first among equals) if
// that one is no younger. Caller holds mu and has called beginMerge.
func (a *Agent) addLocked(e Entry) {
	if e.ID.IsNil() {
		return
	}
	a.resolve(&e)
	if e.idx1 > 0 {
		if e.idx1 == a.selfIdx1 {
			return
		}
		for _, k := range a.idxs {
			if k == e.idx1 {
				return
			}
		}
	} else {
		if e.ID == a.self {
			return
		}
		for i, k := range a.idxs {
			if k == 0 && a.entries[i].ID == e.ID {
				return
			}
		}
	}
	if len(a.entries) < a.cap {
		a.entries = append(a.entries, e)
		a.memo = append(a.memo, 0)
		a.idxs = append(a.idxs, e.idx1)
		a.ages = append(a.ages, e.Age)
		return
	}
	if oldest := a.victims.next(a.ages); a.ages[oldest] >= e.Age {
		a.entries[oldest] = e
		a.memo[oldest] = 0
		a.idxs[oldest] = e.idx1
		a.ages[oldest] = e.Age
	}
}
