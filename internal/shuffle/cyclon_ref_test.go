package shuffle

import (
	"fmt"
	"math/rand"

	"avmem/internal/ids"
)

// refCyclon is the Cyclon as it stood before views were packed — views of
// []Entry with a lazily memoized host index, an identifier fallback for
// what the index cannot resolve, and a full oldest-age scan per eviction
// — kept verbatim (types renamed) as the executable definition the
// packed Cyclon must reproduce: same views, same registered set, same
// RNG draws, after every step of any schedule.

// refView is one node's bounded coarse view in the reference model.
type refView struct {
	self ids.NodeID
	cap  int
	rows []Entry
	// idx1 memoizes self's dense host index plus one, as Entry.idx1 does.
	idx1 int32
}

// holdsID reports whether an entry of v names id — the identifier
// fallback for received entries the index cannot resolve.
func (v *refView) holdsID(id ids.NodeID) bool {
	for i := range v.rows {
		if v.rows[i].ID == id {
			return true
		}
	}
	return false
}

// refOldest returns the first position among the entries holding the
// greatest age.
func refOldest(entries []Entry) int {
	oldest := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].Age > entries[oldest].Age {
			oldest = i
		}
	}
	return oldest
}

// refOldestAge is refOldest over a compact mirror of the entries' ages.
func refOldestAge(ages []int) int {
	oldest := 0
	for j := 1; j < len(ages); j++ {
		if ages[j] > ages[oldest] {
			oldest = j
		}
	}
	return oldest
}

// refCyclon runs the age-based shuffling protocol across a set of nodes.
// It is driven explicitly: the simulation calls TickIdx once per
// protocol period per online node. refCyclon is not safe for concurrent use; wrap it if the
// caller is concurrent.
//
// With UseIndex configured, everything a tick touches is addressed by
// dense host index: the initiator's and partner's views (viewsByIdx),
// liveness (onlineAt), the never-joined check, and merge's
// duplicate check (the stamp table below). The identifier-keyed views
// map and the linear identifier scan remain only as the fallback for
// entries the index cannot resolve — identifiers outside the universe.
type refCyclon struct {
	viewSize   int
	shuffleLen int
	rng        *rand.Rand
	online     func(ids.NodeID) bool
	views      map[ids.NodeID]*refView

	// Index fast path (UseIndex): dense host index in place of NodeID.
	indexOf    func(ids.NodeID) int
	onlineAt   func(i int) bool
	viewsByIdx []*refView
	// stamp is merge's duplicate set: stamp[i] == gen marks host i as the
	// receiving refView's owner or one of its entries. A merge claims a fresh
	// generation instead of clearing the table, so dedupe costs O(v + l)
	// per merge rather than O(v·l); when gen wraps the table is zeroed.
	// One table serves every refView because merges never interleave: a
	// refCyclon belongs to one single-threaded world.
	stamp []uint32
	gen   uint32
	// ages mirrors the receiving refView's entry ages during a merge, so the
	// eviction-victim search walks a compact array instead of the entries.
	ages []int
	// Exchange scratch, reused across ticks: an index permutation for
	// partial Fisher–Yates sampling and the two offered-entry buffers.
	// merge copies entries out, so nothing retains these between calls.
	permScratch []int
	outX, outQ  []Entry
	// tap, when set, intercepts every exchange (adversary injection and
	// audit observation); nil is the zero-cost honest path.
	tap *Tap
}

// newRefCyclon creates the shuffling service. viewSize is the per-node
// coarse refView bound v (the paper derives v ≈ √N as the sweet spot);
// shuffleLen is the number of entries exchanged per shuffle (must be
// <= viewSize); online reports current liveness (nil means always
// online); rng drives peer and subset selection.
func newRefCyclon(viewSize, shuffleLen int, online func(ids.NodeID) bool, rng *rand.Rand) (*refCyclon, error) {
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
	return &refCyclon{
		viewSize:   viewSize,
		shuffleLen: shuffleLen,
		rng:        rng,
		online:     online,
		views:      make(map[ids.NodeID]*refView, 2048),
	}, nil
}

// Join registers x with an initial refView drawn from seeds (typically a
// handful of random online nodes, the bootstrap-server story). Calling
// Join for an existing node re-seeds without clearing what remains.
func (c *refCyclon) Join(x ids.NodeID, seeds []ids.NodeID) {
	v := c.views[x]
	if v == nil {
		v = &refView{self: x, cap: c.viewSize, rows: make([]Entry, 0, c.viewSize)}
		c.views[x] = v
		if c.indexOf != nil {
			c.indexView(v)
		}
	}
	c.outX = c.outX[:0]
	for _, s := range seeds {
		c.outX = append(c.outX, Entry{ID: s})
	}
	c.merge(v, c.outX, true)
}

// indexView memoizes v's dense host index and enters it in viewsByIdx.
func (c *refCyclon) indexView(v *refView) {
	i := c.indexOf(v.self)
	if i < 0 {
		v.idx1 = -1
		return
	}
	v.idx1 = int32(i) + 1
	for len(c.viewsByIdx) <= i {
		c.viewsByIdx = append(c.viewsByIdx, nil)
	}
	c.viewsByIdx[i] = v
}

// resolveEntry memoizes e's dense host index (sentinel -1 = unknown).
func (c *refCyclon) resolveEntry(e *Entry) {
	if c.indexOf == nil || e.idx1 != 0 {
		return
	}
	if i := c.indexOf(e.ID); i >= 0 {
		e.idx1 = int32(i) + 1
	} else {
		e.idx1 = -1
	}
}

// viewOf returns the registered refView of the node e names (nil when it
// never joined): an index-table probe for resolved entries.
func (c *refCyclon) viewOf(e *Entry) *refView {
	c.resolveEntry(e)
	if e.idx1 > 0 {
		return c.viewByIdx(int(e.idx1 - 1))
	}
	return c.views[e.ID]
}

// UseIndex switches the service to a dense host index: a node is online
// iff onlineAt(indexOf(id)), and views, duplicates and registration are
// looked up at that index. Entries memoize their index on first
// resolution, so steady-state ticks never look an identifier up.
// indexOf must be a pure function returning a stable, distinct
// non-negative index for every node the service will see (negative
// means unknown → treated offline). Views joined before the call are
// backfilled into the index table, so the *Idx entry points work
// regardless of Join/UseIndex order.
func (c *refCyclon) UseIndex(indexOf func(ids.NodeID) int, onlineAt func(i int) bool) {
	if indexOf == nil || onlineAt == nil {
		return
	}
	c.indexOf = indexOf
	c.onlineAt = onlineAt
	for _, v := range c.views {
		if v.idx1 == 0 {
			c.indexView(v)
		}
	}
}

// entryOnline reports liveness for a refView entry, memoizing its index.
func (c *refCyclon) entryOnline(e *Entry) bool {
	if c.onlineAt == nil {
		return c.online(e.ID)
	}
	c.resolveEntry(e)
	if e.idx1 < 0 {
		return false
	}
	return c.onlineAt(int(e.idx1 - 1))
}

// viewOnline reports liveness for a refView's owner (indexed at Join).
func (c *refCyclon) viewOnline(v *refView) bool {
	if c.onlineAt == nil {
		return c.online(v.self)
	}
	return v.idx1 > 0 && c.onlineAt(int(v.idx1-1))
}

// View returns the identifiers currently in x's coarse view.
func (c *refCyclon) View(x ids.NodeID) []ids.NodeID {
	v := c.views[x]
	if v == nil {
		return nil
	}
	out := make([]ids.NodeID, len(v.rows))
	for i, e := range v.rows {
		out[i] = e.ID
	}
	return out
}

// viewByIdx resolves a refView through the index table (UseIndex + Join).
func (c *refCyclon) viewByIdx(i int) *refView {
	if i < 0 || i >= len(c.viewsByIdx) {
		return nil
	}
	return c.viewsByIdx[i]
}

// TickIdx performs one CYCLON shuffle initiated by host i: ages its
// entries, picks the oldest *online* neighbor q, and exchanges up to
// shuffleLen entries with it.
func (c *refCyclon) TickIdx(i int) {
	if v := c.viewByIdx(i); v != nil {
		c.tick(v)
	}
}

// tick is the body of TickIdx.
func (c *refCyclon) tick(vx *refView) {
	if !c.viewOnline(vx) {
		return
	}
	for i := range vx.rows {
		vx.rows[i].Age = min(vx.rows[i].Age+1, maxAge)
	}
	// Partner = the oldest entry whose node is online.
	for {
		partner := -1
		for i := range vx.rows {
			e := &vx.rows[i]
			if !c.entryOnline(e) {
				continue
			}
			if partner < 0 || e.Age > vx.rows[partner].Age {
				partner = i
			}
		}
		if partner < 0 {
			return // no online partner this round
		}
		vq := c.viewOf(&vx.rows[partner])
		if vq == nil {
			// Unregistered stray (seeded but never joined): drop, rescan.
			vx.rows = append(vx.rows[:partner], vx.rows[partner+1:]...)
			continue
		}
		c.exchange(vx, vq, partner)
		return
	}
}

// SetTap installs (or, with nil, removes) the exchange interceptor.
func (c *refCyclon) SetTap(t *Tap) { c.tap = t }

// exchange swaps subsets between initiator vx (whose oldest entry sits
// at index qIdx and belongs to responder vq).
func (c *refCyclon) exchange(vx, vq *refView, qIdx int) {
	// The initiator discards its entry for the responder and sends a
	// fresh self-entry plus up to shuffleLen-1 random others.
	vx.rows = append(vx.rows[:qIdx], vx.rows[qIdx+1:]...)
	c.outX = c.sampleEntries(c.outX[:0], vx, c.shuffleLen-1)
	c.outX = append(c.outX, Entry{ID: vx.self, Age: 0, idx1: vx.idx1})

	c.outQ = c.sampleEntries(c.outQ[:0], vq, c.shuffleLen)

	if c.tap == nil {
		c.merge(vq, c.outX, false)
		c.merge(vx, c.outQ, false)
		return
	}
	// Request half: the initiator's offer crosses the tap; a dropping
	// initiator, a refusing responder, or a rejecting responder ends
	// the exchange with the initiator's entry for it already spent —
	// the cost an unanswered live request has.
	offerX, claimX, dropX := c.tapOutbound(vx.self, false, c.outX)
	if dropX {
		return
	}
	if c.tap.Refuse != nil && c.tap.Refuse(vq.self) {
		return
	}
	if !c.tapInbound(vq.self, vx.self, false, offerX, claimX) {
		return
	}
	c.merge(vq, offerX, false)
	// Reply half: a dropped reply leaves the initiator empty-handed.
	offerQ, claimQ, dropQ := c.tapOutbound(vq.self, true, c.outQ)
	if dropQ {
		return
	}
	if !c.tapInbound(vx.self, vq.self, true, offerQ, claimQ) {
		return
	}
	c.merge(vx, offerQ, false)
}

// tapOutbound runs the Outbound hook, defaulting to the honest offer.
func (c *refCyclon) tapOutbound(owner ids.NodeID, reply bool, entries []Entry) ([]Entry, float64, bool) {
	if c.tap.Outbound == nil {
		return entries, 0, false
	}
	return c.tap.Outbound(owner, reply, entries)
}

// tapInbound runs the Inbound hook, defaulting to acceptance.
func (c *refCyclon) tapInbound(receiver, sender ids.NodeID, reply bool, entries []Entry, claim float64) bool {
	if c.tap.Inbound == nil {
		return true
	}
	return c.tap.Inbound(receiver, sender, reply, entries, claim)
}

// sampleEntries appends up to n distinct random entries from v to dst
// via a partial Fisher–Yates over a reusable index scratch.
func (c *refCyclon) sampleEntries(dst []Entry, v *refView, n int) []Entry {
	m := len(v.rows)
	if n > m {
		n = m
	}
	if n <= 0 {
		return dst
	}
	if cap(c.permScratch) < m {
		c.permScratch = make([]int, m)
	}
	idx := c.permScratch[:m]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + c.rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
		dst = append(dst, v.rows[idx[i]])
	}
	return dst
}

// merge folds received entries into v, skipping self, duplicates, and —
// unless seeding (Join, whose bootstrap peers may not have joined yet) —
// entries for never-joined nodes: without that check, two nodes could
// ping-pong such an entry between their views forever. A full refView takes an entry in place of its oldest one
// (the first among equals): always when seeding, otherwise only if the
// newcomer is no older.
//
// Index-resolved entries are deduplicated and checked for registration
// by array probe (stamp, viewsByIdx); only entries outside the index
// universe fall back to the identifier scan and the views map.
func (c *refCyclon) merge(v *refView, received []Entry, seeding bool) {
	c.gen++
	if c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	if v.idx1 > 0 {
		c.mark(int(v.idx1 - 1))
	}
	ages := c.ages[:0]
	for i := range v.rows {
		e := &v.rows[i]
		if e.idx1 == 0 {
			c.resolveEntry(e)
		}
		if e.idx1 > 0 {
			c.mark(int(e.idx1 - 1))
		}
		ages = append(ages, e.Age)
	}
	for i := range received {
		e := received[i]
		if e.ID.IsNil() {
			continue
		}
		if !seeding { // an exchange's entries came back from a Tap
			e.Age = min(max(e.Age, 0), maxAge)
		}
		c.resolveEntry(&e)
		if e.idx1 > 0 {
			h := int(e.idx1 - 1)
			if h < len(c.stamp) && c.stamp[h] == c.gen {
				continue
			}
			if !seeding && c.viewByIdx(h) == nil {
				continue
			}
		} else if e.ID == v.self || v.holdsID(e.ID) || (!seeding && c.views[e.ID] == nil) {
			continue
		}
		if len(v.rows) < v.cap {
			v.rows = append(v.rows, e)
			ages = append(ages, e.Age)
		} else {
			oldest := refOldestAge(ages)
			if !seeding && ages[oldest] < e.Age {
				continue
			}
			if out := v.rows[oldest].idx1; out > 0 {
				c.stamp[out-1] = 0 // gen is never 0
			}
			v.rows[oldest] = e
			ages[oldest] = e.Age
		}
		if e.idx1 > 0 {
			c.mark(int(e.idx1 - 1))
		}
	}
	c.ages = ages
}

// mark stamps host h into the current merge generation.
func (c *refCyclon) mark(h int) {
	if h >= len(c.stamp) {
		c.stamp = append(c.stamp, make([]uint32, h+1-len(c.stamp))...)
	}
	c.stamp[h] = c.gen
}
