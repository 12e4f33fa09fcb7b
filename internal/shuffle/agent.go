package shuffle

import (
	"fmt"
	"math/rand"
	"sync"

	"avmem/internal/ids"
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
//   - calling Tick once per protocol period, sending the returned
//     request to the returned peer;
//   - feeding inbound requests to HandleRequest and sending the
//     returned reply back to the requester;
//   - feeding inbound replies to HandleReply.
//
// With UseIndex configured the agent addresses its view by dense host
// index: every entry it holds carries idx1 > 0 exactly when the universe
// confirms that index names the entry's ID, so the self and duplicate
// checks of a merge compare int32s and the owner's discovery reads
// indexes straight off the view (AppendViewCand). An agent's entries
// arrive from a wire or an adversary, so — as Cyclon does with what a Tap
// hands back — the memo on a received entry is checked against the
// universe (one array load) and re-resolved from the identifier when it
// is missing or names another host: the identifier always wins. Entries
// outside the universe, and every entry of an agent without UseIndex,
// stay at idx1 == 0 and are compared by identifier. Decisions and RNG
// draws are the same either way.
//
// Agent is safe for concurrent use.
type Agent struct {
	self       ids.NodeID
	shuffleLen int

	mu      sync.Mutex
	rng     *rand.Rand
	entries []Entry
	cap     int

	// Index universe (UseIndex): the host table in index order, the
	// identifier resolver behind it, and self's index plus one.
	hosts    []ids.NodeID
	indexOf  func(ids.NodeID) int
	selfIdx1 int32

	// Scratch, reused under mu: the permutation sampleLocked draws, and
	// mergeLocked's compact mirrors of the view's indexes and ages (the
	// duplicate scan and the eviction-victim cursor walk these, not the
	// entries).
	perm    []int
	idxs    []int32
	ages    []int
	victims victimCursor[int]
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
		rng:        rand.New(rand.NewSource(seed)),
		entries:    make([]Entry, 0, viewSize),
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

// AppendViewCand appends the view's identifiers and their dense host
// indexes (−1 = unknown) to the parallel dst/dstIdx buffers — the
// allocation-free feed for core.Membership.DiscoverIdx, in View's order.
func (a *Agent) AppendViewCand(dst []ids.NodeID, dstIdx []int32) ([]ids.NodeID, []int32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.entries {
		dst = append(dst, a.entries[i].ID)
		dstIdx = append(dstIdx, a.entries[i].idx1-1)
	}
	return dst, dstIdx
}

// Tick starts one shuffle round: it ages the view, picks the oldest
// peer, and returns the request to send to it. ok is false when the
// view is empty (nothing to shuffle with — re-Seed).
func (a *Agent) Tick() (peer ids.NodeID, req Request, ok bool) {
	peer, _, req, ok = a.TickIdx()
	return peer, req, ok
}

// TickIdx is Tick that also returns the peer's dense host index
// (−1 = unknown), for owners that keep the peer as a discovery candidate.
func (a *Agent) TickIdx() (peer ids.NodeID, peerIdx int32, req Request, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.entries) == 0 {
		return ids.Nil, -1, Request{}, false
	}
	for i := range a.entries {
		a.entries[i].Age++
	}
	oldest := oldestIndex(a.entries)
	peer, peerIdx = a.entries[oldest].ID, a.entries[oldest].idx1-1
	// Remove the partner's entry; it is replaced by whatever comes back.
	a.entries = append(a.entries[:oldest], a.entries[oldest+1:]...)

	// The offer is a fresh slice: it travels with the message.
	out := a.sampleLocked(a.shuffleLen-1, 1)
	out = append(out, Entry{ID: a.self, Age: 0, idx1: a.selfIdx1})
	return peer, peerIdx, Request{Entries: out}, true
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

// sampleLocked picks up to n distinct random entries into a fresh slice
// with room for extra more. It draws exactly what rand.Perm(len(view))
// draws — the whole permutation, whatever n is — into the agent's
// scratch. Caller holds mu.
func (a *Agent) sampleLocked(n, extra int) []Entry {
	m := len(a.entries)
	if n <= 0 || m == 0 {
		return nil
	}
	if cap(a.perm) < m {
		a.perm = make([]int, a.cap)
	}
	perm := a.perm[:m]
	for i := range perm {
		j := a.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	if n > m {
		n = m
	}
	out := make([]Entry, 0, n+extra)
	for _, i := range perm[:n] {
		out = append(out, a.entries[i])
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
		a.idxs = append(a.idxs, e.idx1)
		a.ages = append(a.ages, e.Age)
		return
	}
	if oldest := a.victims.next(a.ages); a.ages[oldest] >= e.Age {
		a.entries[oldest] = e
		a.idxs[oldest] = e.idx1
		a.ages[oldest] = e.Age
	}
}
