package core

import (
	"avmem/internal/ids"
)

// This file is the discovery path as it stood before view slots carried
// memo words — DiscoverIdx over gathered identifiers, the tagged index
// set with its epoch-scoped rejection tags, tombstones and rebuilds, and
// the member map — kept verbatim (types renamed) as the executable
// definition DiscoverView must reproduce: the same neighbors with the
// same cached fields, the same return counts, the same monitor queries
// in the same order, after every step of any schedule
// (discover_diff_test.go).

// modelIdxSet is a small open-addressing table keyed by dense host index,
// each key carrying one of two tags. It replaces a Go map on the indexed
// discovery path: one multiply, one mask and (at the load it is kept
// under) about one 4-byte probe per lookup, no hashing of wide keys and
// no allocation after the table exists.
//
// Deletions leave tombstones, which only reset reclaims. The table does
// not grow on its own: put reports a full table and the owner rebuilds
// it (reset, then re-put what must survive).
type modelIdxSet struct {
	// slots holds (index+1)<<1 | tag; 0 is an empty slot, modelIdxTomb a
	// deleted one. The length is zero or a power of two.
	slots []uint32
	// used counts non-empty slots, tombstones included; neighbors counts
	// keys currently tagged modelIdxNeighbor.
	used      int
	neighbors int
}

// Tags find reports; modelIdxAbsent is find's answer for a missing key.
const (
	modelIdxNeighbor uint32 = 0
	modelIdxRejected uint32 = 1
	modelIdxAbsent   uint32 = 2

	modelIdxTomb     uint32 = 1 // key 0 never occurs, so 0<<1|1 is free
	modelIdxMinSlots        = 512
)

// home returns the first probe position of index yi.
func (s *modelIdxSet) home(yi int32) uint32 {
	return (uint32(yi) * 2654435761) & (uint32(len(s.slots)) - 1)
}

// find returns yi's tag, or modelIdxAbsent.
func (s *modelIdxSet) find(yi int32) uint32 {
	if len(s.slots) == 0 {
		return modelIdxAbsent
	}
	key := uint32(yi+1) << 1
	mask := uint32(len(s.slots)) - 1
	for i := s.home(yi); ; i = (i + 1) & mask {
		switch v := s.slots[i]; {
		case v&^1 == key:
			return v & 1
		case v == 0:
			return modelIdxAbsent
		}
	}
}

// put tags yi, inserting it if absent. It returns false, changing
// nothing, when an insert would push the table past 3/4 load.
func (s *modelIdxSet) put(yi int32, tag uint32) bool {
	if len(s.slots) == 0 {
		s.reset(0)
	}
	key := uint32(yi+1) << 1
	mask := uint32(len(s.slots)) - 1
	free := -1
	for i := s.home(yi); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v&^1 == key {
			s.neighbors += int(v&1) - int(tag)
			s.slots[i] = key | tag
			return true
		}
		if v == modelIdxTomb && free < 0 {
			free = int(i)
		}
		if v != 0 {
			continue
		}
		if free < 0 {
			if (s.used+1)*4 >= len(s.slots)*3 {
				return false
			}
			free = int(i)
			s.used++
		}
		s.slots[free] = key | tag
		s.neighbors += 1 - int(tag)
		return true
	}
}

// del removes yi, leaving a tombstone.
func (s *modelIdxSet) del(yi int32) {
	if len(s.slots) == 0 {
		return
	}
	key := uint32(yi+1) << 1
	mask := uint32(len(s.slots)) - 1
	for i := s.home(yi); ; i = (i + 1) & mask {
		switch v := s.slots[i]; {
		case v&^1 == key:
			s.neighbors -= 1 - int(v&1)
			s.slots[i] = modelIdxTomb
			return
		case v == 0:
			return
		}
	}
}

// reset empties the table, sizing it so that n keys stay under half
// load (and never below modelIdxMinSlots). The backing array is reused when
// the size does not change.
func (s *modelIdxSet) reset(n int) {
	size := max(len(s.slots), modelIdxMinSlots)
	for n*2 > size {
		size *= 2
	}
	if size == len(s.slots) {
		clear(s.slots)
	} else {
		s.slots = make([]uint32, size)
	}
	s.used, s.neighbors = 0, 0
}

// modelMembership is Membership before slot memos.
type modelMembership struct {
	cfg       Config
	self      ids.NodeID
	selfAvail float64
	selfKnown bool
	// member is the set of current neighbor identifiers.
	member map[ids.NodeID]struct{}
	// all, hs, vs are the cached views, each sorted by ID. Entries are
	// duplicated between all and their sliver list; Refresh keeps the
	// copies coherent.
	all []Neighbor
	hs  []Neighbor
	vs  []Neighbor
	// pairMemo memoizes H(self, y) per candidate of the identifier-keyed
	// discovery path. The hash depends only on the two identifiers, and
	// discovery re-tests the same candidates every protocol period, so a
	// single-id-keyed memo beats both recomputing SHA-256 and the shared
	// two-id-keyed cache on this path. Bounded by pairMemoMax with full
	// reset (the SHA recompute after a reset is cheap and allocation-
	// free). Never allocated while every candidate arrives indexed.
	pairMemo map[ids.NodeID]float64
	// idx holds, by dense host index, every indexed neighbor and every
	// candidate the predicate rejected in the current (epoch, self-claim)
	// regime — see Config.MonitorEpoch — so the indexed discovery path
	// settles "already a neighbor" and "rejected this epoch" in one
	// probe. rejEpoch/rejVer name the regime the rejections belong to;
	// rejVer pairs with selfVer, bumped whenever the self claim moves.
	idx      modelIdxSet
	rejEpoch int
	rejVer   uint64
	selfVer  uint64
	// hasUnindexed records that at least one neighbor was admitted
	// without a known index; the indexed duplicate check then falls
	// back to the identifier set (correctness net, not a hot path).
	hasUnindexed bool
	// hsThr memoizes the horizontal threshold for the current self claim
	// (hsKnown; cleared whenever the claim moves) when the predicate's
	// horizontal side depends on av(x) alone (hsByX): II.B's O(buckets)
	// PDF scan — or the probe of CachedByX's deployment-wide float64-keyed
	// memo in front of it — then runs once per self claim, not once per
	// horizontal pair.
	hsByX, hsKnown bool
	hsThr          float64
}

// pairHash returns the memoized consistent hash H(self, y).
func (m *modelMembership) pairHash(y ids.NodeID) float64 {
	if h, ok := m.pairMemo[y]; ok {
		return h
	}
	h := ids.PairHash(m.self, y)
	if m.pairMemo == nil {
		m.pairMemo = make(map[ids.NodeID]float64, 64)
	} else if len(m.pairMemo) >= pairMemoMax {
		m.pairMemo = make(map[ids.NodeID]float64, 64)
	}
	m.pairMemo[y] = h
	return h
}

// availability queries the monitor, preferring the indexed service when
// the peer's index is known (yi >= 0).
func (m *modelMembership) availability(y ids.NodeID, yi int32) (float64, bool) {
	if m.cfg.MonitorIdx != nil && yi >= 0 {
		return m.cfg.MonitorIdx.AvailabilityIdx(int(yi))
	}
	return m.cfg.Monitor.Availability(y)
}

// RefreshSelf re-queries the monitoring service for this node's own
// availability. Returns the cached value.
func (m *modelMembership) RefreshSelf() float64 {
	if v, ok := m.availability(m.self, m.selfIdx()); ok {
		if v != m.selfAvail || !m.selfKnown {
			m.selfVer++
			m.hsKnown = false
		}
		m.selfAvail = v
		m.selfKnown = true
	}
	return m.selfAvail
}

// eval decides M(self, y) from the pair hash and y's availability —
// Predicate.Eval at cushion 0 against the cached self claim.
func (m *modelMembership) eval(h, avY float64) (bool, Sliver) {
	p := m.cfg.Predicate
	kind := p.Classify(m.selfAvail, avY)
	if kind == SliverHorizontal && m.hsByX {
		if !m.hsKnown {
			m.hsThr, m.hsKnown = p.thresholdOf(kind, m.selfAvail, avY), true
		}
		return h <= m.hsThr, kind
	}
	return h <= p.thresholdOf(kind, m.selfAvail, avY), kind
}

// Discover runs one round of the discovery sub-protocol (paper §3.1.I):
// it iterates the supplied coarse-view candidates, queries the
// availability of each one not already a neighbor, evaluates the AVMEM
// predicate, and admits those for which M(self, y) = 1. It returns the
// number of neighbors added.
func (m *modelMembership) Discover(candidates []ids.NodeID) int {
	if !m.selfKnown {
		m.RefreshSelf()
	}
	added := 0
	for _, y := range candidates {
		if m.discoverOne(y) {
			added++
		}
	}
	return added
}

// admit inserts a new neighbor into all views and the duplicate sets.
func (m *modelMembership) admit(nb Neighbor) {
	m.member[nb.ID] = struct{}{}
	if nb.idx1 > 0 {
		m.idxPut(nb.idx1-1, modelIdxNeighbor)
	} else if m.cfg.PairIdx != nil {
		m.hasUnindexed = true
	}
	m.all = insertNeighbor(m.all, nb)
	view := m.sliverView(nb.Sliver)
	*view = insertNeighbor(*view, nb)
}

// DiscoverIdx is Discover for candidates that carry their dense host
// index (idxs parallel to candidates; a negative index means unknown).
// With Config.PairIdx and MonitorIdx configured, a candidate that is
// already a neighbor or was rejected earlier in the epoch costs one
// probe of the index set — no identifier is hashed and no Go map is
// touched anywhere on the admit-nothing path, which is the common case
// once the overlay has converged. Candidates without an index take the
// identifier-keyed path of Discover.
func (m *modelMembership) DiscoverIdx(candidates []ids.NodeID, idxs []int32) int {
	if len(idxs) != len(candidates) || m.cfg.PairIdx == nil {
		return m.Discover(candidates)
	}
	if !m.selfKnown {
		m.RefreshSelf()
	}
	caching := false
	if m.cfg.MonitorEpoch != nil {
		if ep, stable := m.cfg.MonitorEpoch(); stable {
			caching = true
			if ep != m.rejEpoch || m.rejVer != m.selfVer {
				// The regime moved on: its rejections no longer hold.
				if m.idx.used != m.idx.neighbors {
					m.rebuildIdx()
				}
				m.rejEpoch, m.rejVer = ep, m.selfVer
			}
		}
	}
	added := 0
	for j, y := range candidates {
		yi := idxs[j]
		if yi < 0 {
			if m.discoverOne(y) {
				added++
			}
			continue
		}
		if yi == m.cfg.SelfIdx || y.IsNil() {
			continue
		}
		// A rejection counts only while the monitor is stable: the tag may
		// date from before a noise layer was swapped in.
		if tag := m.idx.find(yi); tag == modelIdxNeighbor || (tag == modelIdxRejected && caching) {
			continue
		}
		if m.hasUnindexed {
			if _, exists := m.member[y]; exists {
				continue
			}
		}
		if m.cfg.Blocked != nil && m.cfg.Blocked(y.Addr()) {
			continue
		}
		avY, ok := m.availability(y, yi)
		if !ok {
			continue
		}
		// The pair hash is computed directly: the rejection tags already
		// absorb within-epoch repeats, so most candidates reaching this
		// point are first-time pairs a memo could not have served — and a
		// deployment-wide memo table outgrows the CPU cache, making the
		// probe cost more than one short SHA-256.
		h := ids.PairHash(m.self, y)
		match, kind := m.eval(h, avY)
		if !match {
			if caching {
				m.idxPut(yi, modelIdxRejected)
			}
			continue
		}
		m.admit(Neighbor{ID: y, Availability: avY, Sliver: kind, hash: h, idx1: yi + 1})
		added++
	}
	return added
}

// idxPut tags yi in the index set. A full table is rebuilt from the
// neighbor list rather than grown past what the neighbors need — the
// rejections it forgets are advisory, and the per-epoch candidate set is
// normally far smaller than the table.
func (m *modelMembership) idxPut(yi int32, tag uint32) {
	if !m.idx.put(yi, tag) {
		m.rebuildIdx()
		m.idx.put(yi, tag)
	}
}

// rebuildIdx empties the index set of rejections and tombstones,
// keeping exactly the indexed neighbors.
func (m *modelMembership) rebuildIdx() {
	m.idx.reset(len(m.all))
	for i := range m.all {
		if k := m.all[i].idx1; k > 0 {
			m.idx.put(k-1, modelIdxNeighbor)
		}
	}
}

// discoverOne runs the identifier-keyed discovery test for a single
// candidate, reporting whether it was admitted.
func (m *modelMembership) discoverOne(y ids.NodeID) bool {
	if y == m.self || y.IsNil() {
		return false
	}
	if _, exists := m.member[y]; exists {
		return false
	}
	if m.cfg.Blocked != nil && m.cfg.Blocked(y.Addr()) {
		return false
	}
	avY, ok := m.cfg.Monitor.Availability(y)
	if !ok {
		return false
	}
	h := m.pairHash(y)
	match, kind := m.eval(h, avY)
	if !match {
		return false
	}
	m.admit(Neighbor{ID: y, Availability: avY, Sliver: kind, hash: h})
	return true
}

// Refresh runs one round of the refresh sub-protocol (paper §3.1.II):
// it re-fetches the availability of every current neighbor, re-evaluates
// the predicate, evicts entries whose M(self, y) became 0, and
// reclassifies entries whose sliver changed. It returns the number of
// evicted neighbors.
func (m *modelMembership) Refresh() int {
	m.RefreshSelf()
	evicted := 0
	// Compact the full list in place (the write index never passes the
	// read index), then rebuild the sliver views from it — still sorted,
	// since the full list is. Buffer capacity is reused across rounds.
	keep := m.all[:0]
	for i := range m.all {
		nb := m.all[i]
		if m.cfg.Blocked != nil && m.cfg.Blocked(nb.ID.Addr()) {
			m.drop(&nb)
			evicted++
			continue
		}
		avY, ok := m.availability(nb.ID, nb.idx1-1)
		if !ok {
			m.drop(&nb)
			evicted++
			continue
		}
		match, kind := m.eval(nb.hash, avY)
		if !match {
			m.drop(&nb)
			evicted++
			continue
		}
		nb.Availability = avY
		nb.Sliver = kind
		keep = append(keep, nb)
	}
	for i := len(keep); i < len(m.all); i++ {
		m.all[i] = Neighbor{}
	}
	m.all = keep
	m.hs = m.hs[:0]
	m.vs = m.vs[:0]
	for i := range m.all {
		view := m.sliverView(m.all[i].Sliver)
		*view = append(*view, m.all[i])
	}
	return evicted
}

// drop removes a neighbor from the duplicate sets.
func (m *modelMembership) drop(nb *Neighbor) {
	delete(m.member, nb.ID)
	if nb.idx1 > 0 {
		m.idx.del(nb.idx1 - 1)
	}
}

// selfIdx returns this node's dense host index, or −1 without a universe.
func (m *modelMembership) selfIdx() int32 {
	if m.cfg.PairIdx != nil {
		return m.cfg.SelfIdx
	}
	return -1
}

// sliverView returns the sliver list nb belongs to.
func (m *modelMembership) sliverView(s Sliver) *[]Neighbor {
	if s == SliverHorizontal {
		return &m.hs
	}
	return &m.vs
}

// Neighbors returns the neighbor entries selected by flavor, sorted by
// identifier for determinism. The returned slice is a cached view —
// it is valid until the next Discover or Refresh and must not be
// modified. It is rebuilt incrementally, so calling Neighbors performs
// no allocation and no sorting; callers needing a stable snapshot use
// CopyNeighbors.
func (m *modelMembership) Neighbors(f Flavor) []Neighbor {
	switch f {
	case HSOnly:
		return m.hs
	case VSOnly:
		return m.vs
	case HSVS:
		return m.all
	default:
		return nil
	}
}

// newModelMembership is NewMembership for the model (cfg already valid).
func newModelMembership(self ids.NodeID, cfg Config) *modelMembership {
	m := &modelMembership{
		cfg:    cfg,
		self:   self,
		member: make(map[ids.NodeID]struct{}, 8),
	}
	switch cfg.Predicate.Horizontal.(type) {
	case ConstantHorizontal, LogConstantHorizontal, *CachedByX:
		m.hsByX = true
	}
	m.RefreshSelf()
	return m
}

// SelfClaim is Membership.SelfClaim.
func (m *modelMembership) SelfClaim() float64 {
	if v, ok := m.availability(m.self, m.selfIdx()); ok {
		return v
	}
	return m.selfAvail
}
