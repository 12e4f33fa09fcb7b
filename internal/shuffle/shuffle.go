// Package shuffle implements the decentralized shuffling partial
// membership service AVMEM consumes as a black box (paper §3.1): each
// node maintains a small random "coarse view" of other nodes whose
// contents are continuously shuffled, so that any long-lived node
// eventually appears in any other node's view (expected discovery time
// O(N/v) protocol periods for view size v).
//
// Two implementations are provided:
//
//   - Cyclon: the CYCLON-style age-based shuffle (Voulgaris et al.),
//     the faithful protocol with bounded views and pairwise exchanges.
//   - UniformSampler: an idealized service that returns a fresh uniform
//     sample of online nodes on every query — an upper bound useful for
//     tests and ablations.
//
// Architecture: DESIGN.md §7 (monitoring and shuffling services).
package shuffle

import (
	"fmt"
	"math/rand"
	"sort"

	"avmem/internal/ids"
)

// Service yields the current coarse view of a node. AVMEM's discovery
// sub-protocol iterates these entries every protocol period.
type Service interface {
	// View returns the identifiers currently in x's coarse view. The
	// returned slice is owned by the caller.
	View(x ids.NodeID) []ids.NodeID
}

// Entry is one coarse-view slot on the wire: a peer and its CYCLON age.
// It is what an Agent stores and what crosses a Tap; Cyclon keeps its
// views packed (see view) and builds entries only at the Tap boundary.
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
	code  int32 // self, in the Cyclon's code space
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

// codeTable is everything Cyclon keeps per code on one side of the code
// space; the three slices always have the same length.
type codeTable struct {
	ids   []ids.NodeID // the identifier behind the code (Nil = never interned)
	views []*view      // the registered view, nil when departed or never joined
	// stamp is merge's duplicate set: stamp[k] == gen marks the node as the
	// receiving view's owner or one of its entries. A merge claims a fresh
	// generation instead of clearing the table, so dedupe costs O(v + l)
	// per merge rather than O(v·l); when gen wraps the table is zeroed.
	// One table serves every view because merges never interleave: a
	// Cyclon belongs to one single-threaded world.
	stamp []uint32
}

// grow extends the table to hold at least n codes.
func (t *codeTable) grow(n int) {
	if d := n - len(t.ids); d > 0 {
		t.ids = append(t.ids, make([]ids.NodeID, d)...)
		t.views = append(t.views, make([]*view, d)...)
		t.stamp = append(t.stamp, make([]uint32, d)...)
	}
}

// memoChunk is how many views' memo words one slab allocation holds.
const memoChunk = 512

// maxAge bounds the ages Cyclon stores: an Entry.Age beyond ±maxAge
// saturates there on its way in from a Tap, which leaves 2^30 protocol
// periods of ageing before an int32 could wrap. No in-tree behaviour sets
// an age at all — honest ages start at 0 and grow by one per period.
const maxAge = 1 << 30

// Cyclon runs the age-based shuffling protocol across a set of nodes.
// It is driven explicitly: the simulation calls Tick(x) once per
// protocol period per online node; the live runtime does the same from
// its timer loop. Cyclon is not safe for concurrent use; wrap it if the
// caller is concurrent.
//
// Every node Cyclon has been told about — joined, seeded, or both — is
// named by one int32 code. A code >= 0 is the node's dense host index,
// for identifiers UseIndex resolves; a code < 0 is the complement of a
// slot in a Cyclon-private stray table, where every other identifier is
// interned on first sight (all of them, for a Cyclon that never had
// UseIndex called). Views, liveness, registration and merge's duplicate
// check are array probes at the code on either side; an identifier is
// looked up only where one enters — Join, the identifier-keyed entry
// points, and entries a Tap hands back.
type Cyclon struct {
	viewSize   int
	shuffleLen int
	rng        *rand.Rand
	online     func(ids.NodeID) bool

	// UseIndex: the dense host index and its liveness probe.
	indexOf  func(ids.NodeID) int
	onlineAt func(i int) bool

	// The code space: hosts[code] for code >= 0, strays[^code] below, and
	// the identifier → stray slot map behind intern and find.
	hosts, strays codeTable
	strayOf       map[ids.NodeID]int32
	gen           uint32 // the current merge's stamp generation

	// leaves counts Leave calls. While zero — the whole lifetime of a
	// simulated deployment — the per-entry departed-node scan in Tick is
	// skipped (the partner's view resolution still catches strays).
	leaves int
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

var _ Service = (*Cyclon)(nil)

// NewCyclon creates the shuffling service. viewSize is the per-node
// coarse view bound v (the paper derives v ≈ √N as the sweet spot);
// shuffleLen is the number of entries exchanged per shuffle (must be
// <= viewSize); online reports current liveness (nil means always
// online); rng drives peer and subset selection.
func NewCyclon(viewSize, shuffleLen int, online func(ids.NodeID) bool, rng *rand.Rand) (*Cyclon, error) {
	if viewSize <= 0 {
		return nil, fmt.Errorf("shuffle: viewSize must be positive, got %d", viewSize)
	}
	if shuffleLen <= 0 || shuffleLen > viewSize {
		return nil, fmt.Errorf("shuffle: shuffleLen must be in [1,%d], got %d", viewSize, shuffleLen)
	}
	if online == nil {
		online = func(ids.NodeID) bool { return true }
	}
	if rng == nil {
		return nil, fmt.Errorf("shuffle: rng must not be nil")
	}
	return &Cyclon{
		viewSize:   viewSize,
		shuffleLen: shuffleLen,
		rng:        rng,
		online:     online,
		strayOf:    make(map[ids.NodeID]int32),
	}, nil
}

// table returns the side of the code space code lives on and its slot
// there.
func (c *Cyclon) table(code int32) (*codeTable, int) {
	if code >= 0 {
		return &c.hosts, int(code)
	}
	return &c.strays, int(^code)
}

// idOf returns the identifier behind a code.
func (c *Cyclon) idOf(code int32) ids.NodeID {
	t, k := c.table(code)
	return t.ids[k]
}

// viewAt returns the registered view of the node coded code, nil when it
// departed or never joined.
func (c *Cyclon) viewAt(code int32) *view {
	t, k := c.table(code)
	return t.views[k]
}

// intern returns id's code, assigning one on first sight: the host index
// when UseIndex resolves id, a fresh stray slot otherwise.
func (c *Cyclon) intern(id ids.NodeID) int32 {
	if c.indexOf != nil {
		if i := c.indexOf(id); i >= 0 {
			c.hosts.grow(i + 1)
			c.hosts.ids[i] = id
			return int32(i)
		}
	}
	s, ok := c.strayOf[id]
	if !ok {
		s = int32(len(c.strays.ids))
		c.strays.grow(int(s) + 1)
		c.strays.ids[s] = id
		c.strayOf[id] = s
	}
	return ^s
}

// find returns id's code without assigning one; ok is false for an
// identifier Cyclon was never told about, which therefore names no view.
func (c *Cyclon) find(id ids.NodeID) (code int32, ok bool) {
	if c.indexOf != nil {
		if i := c.indexOf(id); i >= 0 {
			return int32(i), i < len(c.hosts.ids)
		}
	}
	s, ok := c.strayOf[id]
	return ^s, ok
}

// viewOf returns x's registered view, nil when there is none.
func (c *Cyclon) viewOf(x ids.NodeID) *view {
	code, ok := c.find(x)
	if !ok {
		return nil
	}
	return c.viewAt(code)
}

// viewByIdx returns host i's registered view, nil when there is none.
func (c *Cyclon) viewByIdx(i int) *view {
	if i < 0 || i >= len(c.hosts.views) {
		return nil
	}
	return c.hosts.views[i]
}

// Join registers x with an initial view drawn from seeds (typically a
// handful of random online nodes, the bootstrap-server story). Calling
// Join for an existing node re-seeds without clearing what remains.
func (c *Cyclon) Join(x ids.NodeID, seeds []ids.NodeID) {
	code := c.intern(x)
	v := c.viewAt(code)
	if v == nil {
		v = c.newView(x, code)
	}
	c.recv.reset()
	for _, s := range seeds {
		if !s.IsNil() {
			c.recv.add(c.intern(s), 0)
		}
	}
	c.merge(v, &c.recv, true)
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
	t, k := c.table(code)
	t.views[k] = v
	return v
}

// Leave removes x entirely (a permanent departure; churned-offline nodes
// should simply fail the online check instead). Its code stays interned:
// entries naming it wash out of other views as they are encountered.
func (c *Cyclon) Leave(x ids.NodeID) {
	if code, ok := c.find(x); ok {
		t, k := c.table(code)
		t.views[k] = nil
	}
	c.leaves++
}

// UseIndex switches the service to a dense host index: a node is online
// iff onlineAt(indexOf(id)), and the node's code is that index.
// indexOf must be a pure function returning a stable, distinct
// non-negative index for every node the service will see (negative
// means unknown → treated offline, and coded as a stray). Everything
// interned before the call — every registered view and every entry in
// one — is re-coded under the new index here, once, so the *Idx entry
// points work regardless of Join/UseIndex order and no stale code
// survives the switch. Memo words stay where they are: the occupants do
// not change, only their names.
func (c *Cyclon) UseIndex(indexOf func(ids.NodeID) int, onlineAt func(i int) bool) {
	if indexOf == nil || onlineAt == nil {
		return
	}
	old := *c // the code space as it was: tables and identifiers
	c.indexOf, c.onlineAt = indexOf, onlineAt
	c.hosts, c.strays = codeTable{}, codeTable{}
	c.strayOf = make(map[ids.NodeID]int32)
	for _, t := range [2]*codeTable{&old.hosts, &old.strays} {
		for _, v := range t.views {
			if v == nil {
				continue
			}
			for k, code := range v.codes {
				v.codes[k] = c.intern(old.idOf(code))
			}
			v.code = c.intern(v.self)
			nt, nk := c.table(v.code)
			nt.views[nk] = v
		}
	}
}

// codeOnline reports liveness for a code: the index probe once UseIndex
// is configured (strays are outside the universe, hence offline), the
// identifier probe before.
func (c *Cyclon) codeOnline(code int32) bool {
	if c.onlineAt != nil {
		return code >= 0 && c.onlineAt(int(code))
	}
	return c.online(c.strays.ids[^code])
}

// View implements Service.
func (c *Cyclon) View(x ids.NodeID) []ids.NodeID {
	v := c.viewOf(x)
	if v == nil {
		return nil
	}
	out := make([]ids.NodeID, len(v.codes))
	for k, code := range v.codes {
		out[k] = c.idOf(code)
	}
	return out
}

// ViewLen returns the current number of entries in x's coarse view
// without copying it.
func (c *Cyclon) ViewLen(x ids.NodeID) int {
	v := c.viewOf(x)
	if v == nil {
		return 0
	}
	return len(v.codes)
}

// ViewLenIdx is ViewLen keyed by liveness index — no map lookup.
func (c *Cyclon) ViewLenIdx(i int) int {
	v := c.viewByIdx(i)
	if v == nil {
		return 0
	}
	return len(v.codes)
}

// ViewSlots hands out node i's view in place for one discovery pass
// (core.Membership.DiscoverView): codes[k] is slot k's occupant — its
// host index, or for a negative code the complement of its position in
// StrayIDs — and memo[k] the word the owner may write about it. Both
// alias the view and are valid until the next call that changes it
// (TickIdx, Join, an exchange initiated by another node).
func (c *Cyclon) ViewSlots(i int) (codes []int32, memo []uint64) {
	v := c.viewByIdx(i)
	if v == nil {
		return nil, nil
	}
	return v.codes, v.memo
}

// StrayIDs returns the identifiers behind negative codes: code names
// StrayIDs()[^code]. The slice is replaced when a new stray is interned.
func (c *Cyclon) StrayIDs() []ids.NodeID { return c.strays.ids }

// ReceivedDropped returns how many entries coming back from a Tap were
// dropped because their identifier names no node Cyclon knows.
func (c *Cyclon) ReceivedDropped() int { return c.dropped }

// TickIdx is Tick keyed by liveness index — no map lookup for the
// initiator's own view.
func (c *Cyclon) TickIdx(i int) {
	if v := c.viewByIdx(i); v != nil {
		c.tick(v)
	}
}

// ViewSize returns the configured per-node view bound.
func (c *Cyclon) ViewSize() int { return c.viewSize }

// Tick performs one CYCLON shuffle initiated by x: ages x's entries,
// picks the oldest *online* neighbor q, and exchanges up to shuffleLen
// entries with it.
//
// Entries for currently-offline nodes are deliberately kept: the coarse
// view is weakly consistent (paper §3.1 — it "may even contain stale
// entries"), and AVMEM's discovery depends on that. In a churned system
// most of the population is offline at any instant; if their entries
// washed out, low-availability nodes would never be discovered as
// neighbors. Stale entries are skipped as shuffle partners, age
// normally, and get evicted by merge pressure from fresher entries.
// Entries for permanently departed nodes (Leave) are discarded.
func (c *Cyclon) Tick(x ids.NodeID) {
	if vx := c.viewOf(x); vx != nil {
		c.tick(vx)
	}
}

// tick is the shared body of Tick and TickIdx.
func (c *Cyclon) tick(vx *view) {
	if !c.codeOnline(vx.code) {
		return
	}
	for k := range vx.ages {
		vx.ages[k]++
	}
	// Partner = the oldest entry whose node is online and registered.
	// Departed (unregistered) nodes are dropped as encountered; while no
	// node has ever left, that scan is pure liveness probes.
	checkDeparted := c.leaves > 0
	for {
		partner := -1
		for k, code := range vx.codes {
			if checkDeparted && c.viewAt(code) == nil {
				// Permanently gone: remove and rescan.
				vx.remove(k)
				partner = -2
				break
			}
			if !c.codeOnline(code) {
				continue
			}
			if partner < 0 || vx.ages[k] > vx.ages[partner] {
				partner = k
			}
		}
		if partner == -2 {
			continue // rescan after removal
		}
		if partner < 0 {
			return // no online partner this round
		}
		vq := c.viewAt(vx.codes[partner])
		if vq == nil {
			// Unregistered stray (seeded but never joined): drop, rescan.
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
		c.tapBuf = append(c.tapBuf, Entry{ID: c.idOf(code), Age: int(o.ages[k]), idx1: max(code, -1) + 1})
	}
	return c.tapBuf
}

// received packs the entries a Tap let through for an exchange merge.
// They come from outside: each is coded from its identifier — the memo
// only saves the lookup when the host table confirms it names that
// identifier — and ages saturate at ±maxAge. Nil identifiers are
// dropped, and so is an identifier without a code: it names no
// registered view, which an exchange merge would refuse anyway, and not
// interning it keeps invented identifiers from growing the stray table.
func (c *Cyclon) received(entries []Entry) *offer {
	c.recv.reset()
	for i := range entries {
		e := &entries[i]
		if e.ID.IsNil() {
			continue
		}
		code := e.idx1 - 1
		if code < 0 || int(code) >= len(c.hosts.ids) || c.hosts.ids[code] != e.ID {
			var ok bool
			if code, ok = c.find(e.ID); !ok {
				c.dropped++
				continue
			}
		}
		c.recv.add(code, int32(min(max(e.Age, -maxAge), maxAge)))
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
// entries for unregistered (departed or never-joined) nodes: without
// that check, two nodes could ping-pong a departed entry between their
// views forever. A full view takes an entry in place of its oldest one
// (the first among equals, found by a victimCursor): always when
// seeding, otherwise only if the newcomer is no older. A slot that takes
// a new occupant starts with a zero memo word.
func (c *Cyclon) merge(v *view, received *offer, seeding bool) {
	c.gen++
	if c.gen == 0 {
		clear(c.hosts.stamp)
		clear(c.strays.stamp)
		c.gen = 1
	}
	c.mark(v.code)
	for _, code := range v.codes {
		c.mark(code)
	}
	var victims victimCursor[int32]
	for i, code := range received.codes {
		age := received.ages[i]
		t, k := c.table(code)
		if t.stamp[k] == c.gen {
			continue
		}
		if !seeding && t.views[k] == nil {
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
			ot, ok := c.table(v.codes[oldest])
			ot.stamp[ok] = 0 // gen is never 0
			v.codes[oldest] = code
			v.ages[oldest] = age
			v.memo[oldest] = 0
		}
		t.stamp[k] = c.gen
	}
}

// mark stamps a code into the current merge generation.
func (c *Cyclon) mark(code int32) {
	t, k := c.table(code)
	t.stamp[k] = c.gen
}

// Nodes returns all registered node ids in deterministic order.
func (c *Cyclon) Nodes() []ids.NodeID {
	var out []ids.NodeID
	for _, t := range [2]*codeTable{&c.hosts, &c.strays} {
		for _, v := range t.views {
			if v != nil {
				out = append(out, v.self)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UniformSampler is the idealized shuffling service: every View call
// returns a fresh uniform sample (without replacement) of size up to
// viewSize drawn from the currently online population. It models a
// perfect shuffle and upper-bounds discovery speed.
type UniformSampler struct {
	viewSize int
	rng      *rand.Rand
	// Population enumerates candidate node ids; online filters them.
	population func() []ids.NodeID
	online     func(ids.NodeID) bool
}

var _ Service = (*UniformSampler)(nil)

// NewUniformSampler constructs the idealized service. population must
// not be nil; online nil means always online.
func NewUniformSampler(viewSize int, population func() []ids.NodeID, online func(ids.NodeID) bool, rng *rand.Rand) (*UniformSampler, error) {
	if viewSize <= 0 {
		return nil, fmt.Errorf("shuffle: viewSize must be positive, got %d", viewSize)
	}
	if population == nil {
		return nil, fmt.Errorf("shuffle: population must not be nil")
	}
	if rng == nil {
		return nil, fmt.Errorf("shuffle: rng must not be nil")
	}
	if online == nil {
		online = func(ids.NodeID) bool { return true }
	}
	return &UniformSampler{viewSize: viewSize, rng: rng, population: population, online: online}, nil
}

// View implements Service.
func (u *UniformSampler) View(x ids.NodeID) []ids.NodeID {
	all := u.population()
	candidates := make([]ids.NodeID, 0, len(all))
	for _, id := range all {
		if id != x && u.online(id) {
			candidates = append(candidates, id)
		}
	}
	u.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > u.viewSize {
		candidates = candidates[:u.viewSize]
	}
	return candidates
}
