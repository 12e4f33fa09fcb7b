// Package shuffle implements the decentralized shuffling partial
// membership service AVMEM consumes as a black box (paper §3.1): each
// node maintains a small random "coarse view" of other nodes whose
// contents are continuously shuffled, so that any long-lived node
// eventually appears in any other node's view (expected discovery time
// O(N/v) protocol periods for view size v).
//
// One implementation of the CYCLON-style age-based shuffle (Voulgaris
// et al.), the view core (view), runs under two drivers, with bounded
// views and pairwise exchanges:
//
//   - Cyclon runs the protocol for a whole simulated population at once,
//     addressing every node by its dense index in a host universe bound
//     before the first Join.
//   - Agent runs it inside one live node, over a real transport,
//     exchanging *Request and *Reply messages.
//
// A view is three columns, 16 bytes a slot: the peer's int32 code (its
// dense host index; in an Agent, for a peer outside the universe, the
// complement of its slot in a small stray table), its age, and the
// owner's memo word. Entry is the wire form, and the form a Tap sees,
// built only where an entry leaves. Exchange messages are recycled: the
// handler that merges a message consumes it and returns it to a pool,
// and a message dropped undelivered or refused returns through its
// Recycle (see NewRequest). Ages that arrive from outside are clamped
// into [0, maxAge].
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

// maxAge bounds the ages a view stores. An Entry.Age received from
// outside — off a wire into an Agent, or back from a Tap into Cyclon — is
// clamped into [0, maxAge], and ageing saturates there: an age below 0
// would never be picked as partner nor evicted, and one near the int
// range would wrap on the next tick to the same effect, pinning the entry
// in an honest view. No in-tree behaviour sets an age at all — honest
// ages start at 0 and grow by one per period.
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

	// Exchange scratch, reused across ticks: the two sampled offers, the
	// batch a Join or a Tap hands to merge, and the entries built for a
	// Tap. merge copies out of its input, so nothing retains these between
	// calls.
	outX, outQ offer
	recv       offer
	tapBuf     []Entry
	// slab cuts every view Join registers — header, columns and memo
	// words — from chunks shared by viewChunk views. views stays a table
	// of pointers, so the never-joined check reads 8 bytes.
	slab viewSlab
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
	if c.views[code] == nil {
		c.views[code] = c.slab.cut(c.viewSize)
	}
	c.merge(code, &c.recv, true)
	return nil
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
	vx.age()
	for {
		partner := vx.oldest(c.onlineAt)
		if partner < 0 {
			return // no online partner this round
		}
		if q := vx.codes[partner]; c.views[q] != nil {
			c.exchange(int32(i), q, partner)
			return
		}
		// Seeded but never joined: drop, rescan.
		vx.remove(partner)
	}
}

// SetTap installs (or, with nil, removes) the exchange interceptor.
func (c *Cyclon) SetTap(t *Tap) { c.tap = t }

// exchange swaps subsets between initiator x (whose oldest entry sits
// at index qIdx and is responder q).
func (c *Cyclon) exchange(x, q int32, qIdx int) {
	// The initiator discards its entry for the responder and sends a
	// fresh self-entry plus up to shuffleLen-1 random others.
	c.views[x].remove(qIdx)
	c.outX.reset()
	c.sample(&c.outX, c.views[x], c.shuffleLen-1)
	c.outX.add(x, 0)

	c.outQ.reset()
	c.sample(&c.outQ, c.views[q], c.shuffleLen)

	if c.tap == nil {
		c.merge(q, &c.outX, false)
		c.merge(x, &c.outQ, false)
		return
	}
	// Request half: the initiator's offer crosses the tap; a dropping
	// initiator, a refusing responder, or a rejecting responder ends
	// the exchange with the initiator's entry for it already spent —
	// the cost an unanswered live request has.
	self, peer := c.names[x], c.names[q]
	offerX, claimX, dropX := c.tapOutbound(self, false, c.entries(&c.outX))
	if dropX {
		return
	}
	if c.tap.Refuse != nil && c.tap.Refuse(peer) {
		return
	}
	if !c.tapInbound(peer, self, false, offerX, claimX) {
		return
	}
	c.merge(q, c.received(offerX), false)
	// Reply half: a dropped reply leaves the initiator empty-handed. The
	// request's entries are spent by now, so the reply reuses their buffer.
	offerQ, claimQ, dropQ := c.tapOutbound(peer, true, c.entries(&c.outQ))
	if dropQ {
		return
	}
	if !c.tapInbound(self, peer, true, offerQ, claimQ) {
		return
	}
	c.merge(x, c.received(offerQ), false)
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

// sample appends up to n distinct random entries of v to dst.
func (c *Cyclon) sample(dst *offer, v *view, n int) {
	var stack [sampleStack]int32
	for _, k := range v.sample(c.rng, n, stack[:0]) {
		dst.add(v.codes[k], v.ages[k])
	}
}

// merge folds received entries into x's view, skipping self, duplicates,
// and — unless seeding (Join, whose bootstrap peers may not have joined
// yet) — entries for never-joined nodes, which would otherwise ping-pong
// between views. What is left goes to the view's insertion; a newcomer
// is stamped, an evicted code unstamped.
func (c *Cyclon) merge(x int32, received *offer, seeding bool) {
	v := c.views[x]
	c.gen++
	if c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	c.stamp[x] = c.gen
	for _, code := range v.codes {
		c.stamp[code] = c.gen
	}
	var victims victimCursor
	for i, code := range received.codes {
		if c.stamp[code] == c.gen || !seeding && c.views[code] == nil {
			continue
		}
		k, evicted := v.insert(code, received.ages[i], &victims)
		if k < 0 {
			continue
		}
		if evicted != vacant {
			c.stamp[evicted] = 0 // gen is never 0
		}
		c.stamp[code] = c.gen
	}
}
