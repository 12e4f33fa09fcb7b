// Package shuffle implements the decentralized shuffling partial
// membership service AVMEM consumes as a black box (paper §3.1): each
// node maintains a small random "coarse view" of other nodes whose
// contents are continuously shuffled, so that any long-lived node
// eventually appears in any other node's view (expected discovery time
// O(N/v) protocol periods for view size v).
//
// Two implementations of the CYCLON-style age-based shuffle (Voulgaris
// et al.) are provided, with bounded views and pairwise exchanges:
//
//   - Cyclon runs the protocol for a whole simulated population at once,
//     addressing every node by its dense index in a host universe bound
//     before the first Join.
//   - Agent runs it inside one live node, over a real transport,
//     exchanging *Request and *Reply messages.
//
// Both store a view as the same three columns, 16 bytes a slot: the
// peer's int32 code (its dense host index; in an Agent, for a peer
// outside the universe, the complement of its slot in a small stray
// table), its age, and the owner's memo word. Neither keeps rows of
// Entry: Entry is the wire form, and the form a Tap sees, built only
// where an entry leaves. Exchange messages are recycled: the handler that merges a
// message consumes it and returns it to a pool, and a message dropped
// undelivered or refused returns through its Recycle (see NewRequest).
// Ages that arrive from outside are clamped into [0, maxAge].
//
// Architecture: DESIGN.md §7 (monitoring and shuffling services).
package shuffle

import (
	"fmt"
	"math/rand"

	"avmem/internal/ids"
)

// Entry is one coarse-view slot on the wire: a peer and its CYCLON age.
// It is what exchange messages carry and what crosses a Tap; Cyclon and
// Agent keep their views in columns and build entries only at those
// boundaries.
type Entry struct {
	ID  ids.NodeID
	Age int
	// idx1 memoizes the peer's dense host index plus one (0 = none). It is
	// a hint that travels with the entry: whoever receives one checks it
	// against its own host table before use, and the identifier wins.
	idx1 int32
}

// view is one node's bounded coarse view, packed: entry k is the node
// coded codes[k] at age ages[k]. Both slices are cut from one backing
// array of capacity 2·viewSize, so ageing, the partner scan, sampling and
// the eviction search walk dense int32s. memo[k] is the slot's memo word
// — 16 bytes per entry in all: the shuffle never reads it, it belongs to
// the view owner's discovery (core.Membership.DiscoverView) and holds
// what that learned about the slot's current occupant. Cyclon's part is
// to keep each word beside the occupant it was written for: zeroed when
// the occupant changes, moved when the occupant moves. Create views
// through Cyclon.
type view struct {
	self  ids.NodeID
	code  int32 // self's host index, its code
	codes []int32
	ages  []int32
	memo  []uint64
}

// remove deletes entry k, keeping the order of the rest.
func (v *view) remove(k int) {
	v.codes = append(v.codes[:k], v.codes[k+1:]...)
	v.ages = append(v.ages[:k], v.ages[k+1:]...)
	v.memo = append(v.memo[:k], v.memo[k+1:]...)
}

// offer is a batch of entries in packed form: the subset one side of an
// exchange contributes, or the seeds of a Join.
type offer struct {
	codes, ages []int32
}

func (o *offer) reset() { o.codes, o.ages = o.codes[:0], o.ages[:0] }

func (o *offer) add(code, age int32) {
	o.codes = append(o.codes, code)
	o.ages = append(o.ages, age)
}

// memoChunk is how many views' memo words one slab allocation holds.
const memoChunk = 512

// maxAge bounds the ages a view stores. An Entry.Age received from
// outside — off a wire into an Agent, or back from a Tap into Cyclon — is
// clamped into [0, maxAge]: an age below 0 would never be picked as
// partner nor evicted, and one near the int range would wrap on the next
// tick to the same effect, pinning the entry in an honest view. The
// Agent's ageing saturates at maxAge; Cyclon's leaves 2^30 protocol
// periods before an int32 could wrap. No in-tree behaviour sets an age at
// all — honest ages start at 0 and grow by one per period.
const maxAge = 1 << 30

// clampAge returns a received age as a view stores it.
func clampAge(age int) int32 { return int32(min(max(age, 0), maxAge)) }

// Cyclon runs the age-based shuffling protocol across a set of nodes.
// It is driven explicitly: the simulation calls TickIdx once per
// protocol period per online node. Cyclon is not safe for concurrent
// use; wrap it if the caller is concurrent.
//
// Every node is named by one int32 code: its dense index in the host
// universe UseIndex binds, before the first Join. Views, liveness,
// registration and merge's duplicate check are array probes at the code;
// an identifier is looked up only where one enters — Join, View, and
// entries a Tap hands back. An identifier outside the universe is never
// coded: a Join naming one is refused, and a Tap entry naming one is
// dropped and counted.
type Cyclon struct {
	viewSize   int
	shuffleLen int
	rng        *rand.Rand

	// UseIndex: the dense host index and its liveness probe.
	indexOf  func(ids.NodeID) int
	onlineAt func(i int) bool

	// Per code, in three slices of one length: the identifier behind it
	// (Nil = never named), the registered view (nil = never joined), and
	// merge's duplicate set — stamp[k] == gen marks the node as the
	// receiving view's owner or one of its entries. A merge claims a fresh
	// generation instead of clearing the set, so dedupe costs O(v + l) per
	// merge rather than O(v·l); when gen wraps the set is zeroed. One set
	// serves every view because merges never interleave: a Cyclon belongs
	// to one single-threaded world.
	names []ids.NodeID
	views []*view
	stamp []uint32
	gen   uint32

	// Exchange scratch, reused across ticks: an index permutation for
	// partial Fisher–Yates sampling, the two sampled offers, the batch a
	// Join or a Tap hands to merge, and the entries built for a Tap. merge
	// copies out of its input, so nothing retains these between calls.
	permScratch []int
	outX, outQ  offer
	recv        offer
	tapBuf      []Entry
	// memoSlab is the unused tail of the current memo chunk: newView cuts
	// each view's words from it, so a deployment's memo costs one
	// allocation per memoChunk views rather than one per view.
	memoSlab []uint64
	// dropped counts the entries received refused for naming no code.
	dropped int
	// tap, when set, intercepts every exchange (adversary injection and
	// audit observation); nil is the zero-cost honest path.
	tap *Tap
}

// Tap intercepts the centrally simulated CYCLON exchanges, giving the
// simulation engine the same adversary-injection and audit seams the
// live runtime gets from real shuffle messages: Outbound is where a
// misbehaving owner rewrites its offer (and lies about its
// availability), Inbound is where the receiving party audits what it
// got, and Refuse models a free-rider ignoring exchange requests. All
// fields are optional; a nil Tap (the default) leaves exchanges
// untouched.
//
// The entries a hook receives live in scratch the Cyclon reuses for the
// next offer: a hook may rewrite them in place or return another slice,
// but must not keep them past its return. Entries a hook returns are
// taken by identifier — nil identifiers are dropped, and the index memo
// of an entry is used only when the host table confirms it.
type Tap struct {
	// Outbound lets owner rewrite the entries it contributes to an
	// exchange and attach its availability claim, or drop its half of
	// the exchange entirely (a dropped request aborts the exchange like
	// an unanswered live request; a dropped reply leaves the initiator
	// empty-handed); reply marks the responder side. The returned slice
	// may alias the input. Delaying is not expressible here — the
	// central exchange is instantaneous; behaviors that delay live
	// traffic degrade to passthrough on this engine.
	Outbound func(owner ids.NodeID, reply bool, entries []Entry) (out []Entry, claim float64, drop bool)
	// Inbound observes the entries receiver obtained from its exchange
	// partner; returning false drops them (the receiver has audited the
	// sender out), which also cancels the rest of the exchange.
	Inbound func(receiver, sender ids.NodeID, reply bool, entries []Entry, claim float64) bool
	// Refuse reports whether owner ignores inbound exchange requests (a
	// free-rider); the initiator's offer then goes unanswered, exactly
	// like an ignored live request.
	Refuse func(owner ids.NodeID) bool
}

// NewCyclon creates the shuffling service. viewSize is the per-node
// coarse view bound v (the paper derives v ≈ √N as the sweet spot);
// shuffleLen is the number of entries exchanged per shuffle (must be
// <= viewSize); rng drives peer and subset selection. Liveness comes
// with the host universe, from UseIndex.
//
// Deprecated: online is retired and must be nil; it stays in the
// signature only until the benchmark harness moves off it (ROADMAP.md
// item 1(a)).
func NewCyclon(viewSize, shuffleLen int, online func(ids.NodeID) bool, rng *rand.Rand) (*Cyclon, error) {
	if viewSize <= 0 {
		return nil, fmt.Errorf("shuffle: viewSize must be positive, got %d", viewSize)
	}
	if shuffleLen <= 0 || shuffleLen > viewSize {
		return nil, fmt.Errorf("shuffle: shuffleLen must be in [1,%d], got %d", viewSize, shuffleLen)
	}
	if online != nil {
		return nil, fmt.Errorf("shuffle: the online argument is retired; bind liveness with UseIndex")
	}
	if rng == nil {
		return nil, fmt.Errorf("shuffle: rng must not be nil")
	}
	return &Cyclon{viewSize: viewSize, shuffleLen: shuffleLen, rng: rng}, nil
}

// UseIndex binds the host universe: node id is coded indexOf(id), and is
// online iff onlineAt(indexOf(id)). indexOf must be a pure function
// returning a stable, distinct non-negative index for every node of the
// universe, and a negative one for every other identifier. It must be
// called once, before the first Join; a second call is refused.
func (c *Cyclon) UseIndex(indexOf func(ids.NodeID) int, onlineAt func(i int) bool) error {
	if indexOf == nil || onlineAt == nil {
		return fmt.Errorf("shuffle: UseIndex needs an index and a liveness probe")
	}
	if c.indexOf != nil {
		return fmt.Errorf("shuffle: the host universe is already bound")
	}
	c.indexOf, c.onlineAt = indexOf, onlineAt
	return nil
}

// intern returns id's code, naming it on first sight; ok is false for an
// identifier outside the universe, which has none.
func (c *Cyclon) intern(id ids.NodeID) (code int32, ok bool) {
	i := c.indexOf(id)
	if i < 0 {
		return 0, false
	}
	if d := i + 1 - len(c.names); d > 0 {
		c.names = append(c.names, make([]ids.NodeID, d)...)
		c.views = append(c.views, make([]*view, d)...)
		c.stamp = append(c.stamp, make([]uint32, d)...)
	}
	c.names[i] = id
	return int32(i), true
}

// viewByIdx returns host i's registered view, nil when there is none.
func (c *Cyclon) viewByIdx(i int) *view {
	if i < 0 || i >= len(c.views) {
		return nil
	}
	return c.views[i]
}

// Join registers x with an initial view drawn from seeds (typically a
// handful of random online nodes, the bootstrap-server story). Calling
// Join for an existing node re-seeds without clearing what remains. A
// Join before UseIndex, or naming a joiner or seed outside the universe,
// is refused and changes no view.
func (c *Cyclon) Join(x ids.NodeID, seeds []ids.NodeID) error {
	if c.indexOf == nil {
		return fmt.Errorf("shuffle: Join of %s before UseIndex", x)
	}
	code, ok := c.intern(x)
	if !ok {
		return fmt.Errorf("shuffle: joiner %s is outside the universe", x)
	}
	c.recv.reset()
	for _, s := range seeds {
		if s.IsNil() {
			continue
		}
		sc, ok := c.intern(s)
		if !ok {
			return fmt.Errorf("shuffle: seed %s of %s is outside the universe", s, x)
		}
		c.recv.add(sc, 0)
	}
	v := c.views[code]
	if v == nil {
		v = c.newView(x, code)
	}
	c.merge(v, &c.recv, true)
	return nil
}

// newView registers an empty view for the node x coded code.
func (c *Cyclon) newView(x ids.NodeID, code int32) *view {
	buf := make([]int32, 2*c.viewSize)
	if len(c.memoSlab) < c.viewSize {
		c.memoSlab = make([]uint64, memoChunk*c.viewSize)
	}
	v := &view{
		self:  x,
		code:  code,
		codes: buf[:0:c.viewSize],
		ages:  buf[c.viewSize:c.viewSize],
		memo:  c.memoSlab[:0:c.viewSize],
	}
	c.memoSlab = c.memoSlab[c.viewSize:]
	c.views[code] = v
	return v
}

// View returns the identifiers currently in x's coarse view, nil when x
// never joined. The returned slice is owned by the caller.
func (c *Cyclon) View(x ids.NodeID) []ids.NodeID {
	if c.indexOf == nil {
		return nil
	}
	v := c.viewByIdx(c.indexOf(x))
	if v == nil {
		return nil
	}
	out := make([]ids.NodeID, len(v.codes))
	for k, code := range v.codes {
		out[k] = c.names[code]
	}
	return out
}

// ViewLenIdx returns the current number of entries in host i's coarse
// view without copying it.
func (c *Cyclon) ViewLenIdx(i int) int {
	v := c.viewByIdx(i)
	if v == nil {
		return 0
	}
	return len(v.codes)
}

// ViewSlots hands out node i's view in place for one discovery pass
// (core.Membership.DiscoverView): codes[k] is slot k's occupant, by host
// index, and memo[k] the word the owner may write about it. Both alias
// the view and are valid until the next call that changes it (TickIdx,
// Join, an exchange initiated by another node).
func (c *Cyclon) ViewSlots(i int) (codes []int32, memo []uint64) {
	v := c.viewByIdx(i)
	if v == nil {
		return nil, nil
	}
	return v.codes, v.memo
}

// ReceivedDropped returns how many entries coming back from a Tap were
// dropped because their identifier is outside the universe.
func (c *Cyclon) ReceivedDropped() int { return c.dropped }

// ViewSize returns the configured per-node view bound.
func (c *Cyclon) ViewSize() int { return c.viewSize }

// TickIdx performs one CYCLON shuffle initiated by host i: ages its
// entries, picks the oldest *online* neighbor q, and exchanges up to
// shuffleLen entries with it.
//
// Entries for currently-offline nodes are deliberately kept: the coarse
// view is weakly consistent (paper §3.1 — it "may even contain stale
// entries"), and AVMEM's discovery depends on that. In a churned system
// most of the population is offline at any instant; if their entries
// washed out, low-availability nodes would never be discovered as
// neighbors. Stale entries are skipped as shuffle partners, age
// normally, and get evicted by merge pressure from fresher entries.
func (c *Cyclon) TickIdx(i int) {
	vx := c.viewByIdx(i)
	if vx == nil || !c.onlineAt(i) {
		return
	}
	for k := range vx.ages {
		vx.ages[k]++
	}
	for {
		// Partner = the oldest entry whose node is online.
		partner := -1
		for k, code := range vx.codes {
			if !c.onlineAt(int(code)) {
				continue
			}
			if partner < 0 || vx.ages[k] > vx.ages[partner] {
				partner = k
			}
		}
		if partner < 0 {
			return // no online partner this round
		}
		vq := c.views[vx.codes[partner]]
		if vq == nil {
			// Seeded but never joined: drop, rescan.
			vx.remove(partner)
			continue
		}
		c.exchange(vx, vq, partner)
		return
	}
}

// SetTap installs (or, with nil, removes) the exchange interceptor.
func (c *Cyclon) SetTap(t *Tap) { c.tap = t }

// exchange swaps subsets between initiator vx (whose oldest entry sits
// at index qIdx and belongs to responder vq).
func (c *Cyclon) exchange(vx, vq *view, qIdx int) {
	// The initiator discards its entry for the responder and sends a
	// fresh self-entry plus up to shuffleLen-1 random others.
	vx.remove(qIdx)
	c.outX.reset()
	c.sample(&c.outX, vx, c.shuffleLen-1)
	c.outX.add(vx.code, 0)

	c.outQ.reset()
	c.sample(&c.outQ, vq, c.shuffleLen)

	if c.tap == nil {
		c.merge(vq, &c.outX, false)
		c.merge(vx, &c.outQ, false)
		return
	}
	// Request half: the initiator's offer crosses the tap; a dropping
	// initiator, a refusing responder, or a rejecting responder ends
	// the exchange with the initiator's entry for it already spent —
	// the cost an unanswered live request has.
	offerX, claimX, dropX := c.tapOutbound(vx.self, false, c.entries(&c.outX))
	if dropX {
		return
	}
	if c.tap.Refuse != nil && c.tap.Refuse(vq.self) {
		return
	}
	if !c.tapInbound(vq.self, vx.self, false, offerX, claimX) {
		return
	}
	c.merge(vq, c.received(offerX), false)
	// Reply half: a dropped reply leaves the initiator empty-handed. The
	// request's entries are spent by now, so the reply reuses their buffer.
	offerQ, claimQ, dropQ := c.tapOutbound(vq.self, true, c.entries(&c.outQ))
	if dropQ {
		return
	}
	if !c.tapInbound(vx.self, vq.self, true, offerQ, claimQ) {
		return
	}
	c.merge(vx, c.received(offerQ), false)
}

// entries unpacks an offer into the Tap's wire form, in Cyclon-owned
// scratch: identifier, age, and the host index as the entry's memo.
func (c *Cyclon) entries(o *offer) []Entry {
	c.tapBuf = c.tapBuf[:0]
	for k, code := range o.codes {
		c.tapBuf = append(c.tapBuf, Entry{ID: c.names[code], Age: int(o.ages[k]), idx1: code + 1})
	}
	return c.tapBuf
}

// received packs the entries a Tap let through for an exchange merge.
// They come from outside: each is coded from its identifier — the memo
// only saves the lookup when the host table confirms it names that
// identifier — and ages are clamped into [0, maxAge]. Nil identifiers are
// dropped, and so, counted, is an identifier outside the universe.
func (c *Cyclon) received(entries []Entry) *offer {
	c.recv.reset()
	for i := range entries {
		e := &entries[i]
		if e.ID.IsNil() {
			continue
		}
		code := e.idx1 - 1
		if code < 0 || int(code) >= len(c.names) || c.names[code] != e.ID {
			var ok bool
			if code, ok = c.intern(e.ID); !ok {
				c.dropped++
				continue
			}
		}
		c.recv.add(code, clampAge(e.Age))
	}
	return &c.recv
}

// tapOutbound runs the Outbound hook, defaulting to the honest offer.
func (c *Cyclon) tapOutbound(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
	if c.tap.Outbound == nil {
		return entries, 0, false
	}
	return c.tap.Outbound(owner, reply, entries)
}

// tapInbound runs the Inbound hook, defaulting to acceptance.
func (c *Cyclon) tapInbound(receiver, sender ids.NodeID, reply bool, entries []Entry, claim float64) bool {
	if c.tap.Inbound == nil {
		return true
	}
	return c.tap.Inbound(receiver, sender, reply, entries, claim)
}

// sample appends up to n distinct random entries of v to dst via a
// partial Fisher–Yates over a reusable index scratch.
func (c *Cyclon) sample(dst *offer, v *view, n int) {
	m := len(v.codes)
	if n > m {
		n = m
	}
	if n <= 0 {
		return
	}
	if cap(c.permScratch) < m {
		c.permScratch = make([]int, c.viewSize)
	}
	idx := c.permScratch[:m]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + c.rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
		dst.add(v.codes[idx[i]], v.ages[idx[i]])
	}
}

// merge folds received entries into v, skipping self, duplicates, and —
// unless seeding (Join, whose bootstrap peers may not have joined yet) —
// entries for never-joined nodes, which would otherwise ping-pong between
// views. A full view takes an entry in place of its oldest one (the first
// among equals, found by a victimCursor): always when seeding, otherwise
// only if the newcomer is no older. A slot that takes a new occupant
// starts with a zero memo word.
func (c *Cyclon) merge(v *view, received *offer, seeding bool) {
	c.gen++
	if c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	c.stamp[v.code] = c.gen
	for _, code := range v.codes {
		c.stamp[code] = c.gen
	}
	var victims victimCursor
	for i, code := range received.codes {
		age := received.ages[i]
		if c.stamp[code] == c.gen {
			continue
		}
		if !seeding && c.views[code] == nil {
			continue
		}
		if len(v.codes) < c.viewSize {
			v.codes = append(v.codes, code)
			v.ages = append(v.ages, age)
			v.memo = append(v.memo, 0)
		} else {
			oldest := victims.next(v.ages)
			if !seeding && v.ages[oldest] < age {
				continue
			}
			c.stamp[v.codes[oldest]] = 0 // gen is never 0
			v.codes[oldest] = code
			v.ages[oldest] = age
			v.memo[oldest] = 0
		}
		c.stamp[code] = c.gen
	}
}
