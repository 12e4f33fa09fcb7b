package core

import (
	"fmt"
	"math"
	"time"

	"avmem/internal/avmon"
	"avmem/internal/ids"
)

// Flavor selects which sliver lists an operation may use — the paper
// evaluates every anycast/multicast algorithm in HS-only, VS-only, and
// HS+VS variants.
type Flavor int

// Operation flavors.
const (
	HSOnly Flavor = iota + 1
	VSOnly
	HSVS
)

// String implements fmt.Stringer.
func (f Flavor) String() string {
	switch f {
	case HSOnly:
		return "HS-only"
	case VSOnly:
		return "VS-only"
	case HSVS:
		return "HS+VS"
	default:
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
}

// Admits reports whether flavor f reads neighbors of sliver s.
func (f Flavor) Admits(s Sliver) bool {
	switch f {
	case HSOnly:
		return s == SliverHorizontal
	case VSOnly:
		return s == SliverVertical
	}
	return f == HSVS
}

// Neighbor is one entry of a node's AVMEM membership list, with the
// availability value cached at the last discovery/refresh — operations
// deliberately use these cached values rather than re-querying the
// monitoring service per message (paper §3.2).
type Neighbor struct {
	ID           ids.NodeID
	Availability float64
	// hash is H(self, ID), fixed for the pair: Refresh re-tests the
	// predicate against it without hashing or probing a shared cache.
	hash float64
	// idx1 is the neighbor's dense host index plus one when known
	// (zero = unknown), carried so Refresh and the indexed discovery
	// path never resolve identifiers. It shares a word with Sliver.
	idx1   int32
	Sliver Sliver
}

// PairHash returns H(self, ID), the consistent pair hash this neighbor
// was admitted under — what dissemination orders sliver lists by.
func (n Neighbor) PairHash() float64 { return n.hash }

// Addr returns the neighbor's address with the host index it was admitted
// under as the memo (memo-less when it was admitted by identifier).
func (n *Neighbor) Addr() ids.Addr { return ids.AddrAt(n.ID, n.idx1-1) }

// Config wires a Membership to its dependencies.
type Config struct {
	// Predicate is the application-specified AVMEM predicate.
	Predicate *Predicate
	// Monitor answers availability queries (the black-box service).
	Monitor avmon.Service
	// Hashes optionally shares a memoized pair-hash cache across nodes
	// of one simulation; nil computes hashes directly.
	Hashes *ids.HashCache
	// Clock supplies the current (virtual or real) time. No membership
	// decision reads it (a neighbor records no fetch time); it stays
	// required so existing configurations keep validating unchanged.
	Clock func() time.Duration
	// VerifyCushion is added to f during in-neighbor verification to
	// tolerate stale or inconsistent availability views (paper §4.1
	// evaluates cushion 0 and 0.1).
	VerifyCushion float64
	// Blocked, when non-nil, reports peers the owner's audit layer has
	// evicted: Discover never admits them and Refresh drops them, so an
	// audited-out node falls out of both slivers for good. The address
	// carries the peer's host index when the membership knows it.
	Blocked func(ids.Addr) bool

	// PairIdx, when non-nil, enables the index-keyed fast path: it names
	// the dense host-index universe, and view slots fed through
	// DiscoverView with an index in it skip all identifier-keyed lookups.
	// SelfIdx must then be this node's index in that universe.
	PairIdx *ids.PairIndexCache
	SelfIdx int32
	// MonitorIdx optionally answers availability queries by host index
	// (the same service as Monitor, minus the identifier lookup).
	MonitorIdx avmon.IndexedService
	// MonitorEpoch, when set, reports the monitor's current epoch and
	// whether its availability answers are pure, epoch-constant reads
	// (true for a noiseless oracle; false when queries draw noise RNG
	// or reflect live ping rounds). While stable, a verdict holds for the
	// epoch — many protocol periods — so DiscoverView judges only the view
	// slots the shuffle changed.
	MonitorEpoch func() (epoch int, stable bool)
	// Stats, when non-nil, is where the membership counts its discovery
	// work instead of in a struct of its own: a single-threaded deployment
	// shares one across its memberships and reads the totals in one load.
	Stats *DiscoveryStats
}

func (c Config) validate() error {
	if c.Predicate == nil {
		return fmt.Errorf("core: Config.Predicate is required")
	}
	if c.Monitor == nil {
		return fmt.Errorf("core: Config.Monitor is required")
	}
	if c.Clock == nil {
		return fmt.Errorf("core: Config.Clock is required")
	}
	if c.VerifyCushion < 0 || c.VerifyCushion > 1 {
		return fmt.Errorf("core: Config.VerifyCushion must be in [0,1], got %v", c.VerifyCushion)
	}
	return nil
}

// Membership is one node's AVMEM state: its horizontal and vertical
// slivers plus the cached availabilities backing them. It is driven
// externally: the owner calls Discover once per protocol period with
// the current coarse view, and Refresh once per refresh period.
// Membership is not safe for concurrent use.
//
// Storage is one incrementally-maintained slice sorted by node ID, each
// entry carrying its sliver, so Neighbors hands out a read-only view
// without allocating or sorting per call and a reader of one sliver
// skips the other's entries as it walks. The identifier-keyed duplicate
// check is a binary search of it; the indexed one probes idx.
type Membership struct {
	cfg       Config
	self      ids.NodeID
	selfAvail float64
	selfKnown bool
	// all is every neighbor, sorted by ID.
	all []Neighbor
	// pairMemo memoizes H(self, y) per candidate of the identifier-keyed
	// discovery path. The hash depends only on the two identifiers, and
	// discovery re-tests the same candidates every protocol period, so a
	// single-id-keyed memo beats both recomputing SHA-256 and the shared
	// two-id-keyed cache on this path. Bounded by pairMemoMax with full
	// reset (the SHA recompute after a reset is cheap and allocation-
	// free). Never allocated while every candidate arrives indexed.
	pairMemo map[ids.NodeID]float64
	// idx is the set of indexed neighbors, by dense host index.
	idx idxSet
	// passEpoch, passVer and passStable are the regime of the last
	// DiscoverView pass — the monitor's epoch, the self-claim version
	// (selfVer, bumped whenever the claim moves) and whether the monitor
	// was stable: the verdicts that pass left in the view's memo words
	// stand exactly while the regime does. refull forces the next pass to
	// re-judge every slot all the same: Refresh sets it when it evicts a
	// neighbor whose word the next pass could not take at face value.
	passEpoch  int
	passVer    uint64
	passStable bool
	refull     bool
	selfVer    uint64
	// hasUnindexed records that at least one neighbor was admitted
	// without a known index; the indexed duplicate check then also
	// searches the full list (correctness net, not a hot path).
	hasUnindexed bool
	// gen counts the mutations of the neighbor lists (admit and Refresh,
	// the only two): whatever a reader derived from Neighbors(f) — the
	// router's hash orders — stands exactly while Generation does.
	gen   uint64
	stats *DiscoveryStats
	// hsThr memoizes the horizontal threshold for the current self claim
	// (hsKnown; cleared whenever the claim moves) when the predicate's
	// horizontal side depends on av(x) alone (hsByX): II.B's O(buckets)
	// PDF scan — or the probe of CachedByX's deployment-wide float64-keyed
	// memo in front of it — then runs once per self claim, not once per
	// horizontal pair.
	hsByX, hsKnown bool
	hsThr          float64
}

// pairMemoMax bounds the per-membership hash memo; enough for every
// peer of a multi-thousand-host deployment to stay memoized for good.
const pairMemoMax = 1 << 13

// pairHash returns the memoized consistent hash H(self, y).
func (m *Membership) pairHash(y ids.NodeID) float64 {
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
func (m *Membership) availability(y ids.NodeID, yi int32) (float64, bool) {
	if m.cfg.MonitorIdx != nil && yi >= 0 {
		return m.cfg.MonitorIdx.AvailabilityIdx(int(yi))
	}
	return m.cfg.Monitor.Availability(y)
}

// NewMembership creates the membership state for node self.
func NewMembership(self ids.NodeID, cfg Config) (*Membership, error) {
	if self.IsNil() {
		return nil, fmt.Errorf("core: nil self id")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Membership{cfg: cfg, self: self, stats: cfg.Stats}
	if m.stats == nil {
		m.stats = new(DiscoveryStats)
	}
	switch cfg.Predicate.Horizontal.(type) {
	case ConstantHorizontal, LogConstantHorizontal, *CachedByX:
		m.hsByX = true // II.A and II.B read av(x) alone; the memo requires it
	}
	if cfg.PairIdx != nil {
		if cfg.SelfIdx < 0 || int(cfg.SelfIdx) >= cfg.PairIdx.Hosts() {
			return nil, fmt.Errorf("core: SelfIdx %d outside pair-cache universe (%d hosts)",
				cfg.SelfIdx, cfg.PairIdx.Hosts())
		}
		if cfg.PairIdx.ID(cfg.SelfIdx) != self {
			return nil, fmt.Errorf("core: SelfIdx %d names %q, not self %q",
				cfg.SelfIdx, cfg.PairIdx.ID(cfg.SelfIdx), self)
		}
	}
	m.RefreshSelf()
	return m, nil
}

// searchNeighbors returns the position of id in the ID-sorted list, or
// the insertion point keeping the list sorted.
func searchNeighbors(list []Neighbor, id ids.NodeID) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertNeighbor splices nb into the ID-sorted list.
func insertNeighbor(list []Neighbor, nb Neighbor) []Neighbor {
	i := searchNeighbors(list, nb.ID)
	list = append(list, Neighbor{})
	copy(list[i+1:], list[i:])
	list[i] = nb
	return list
}

// Self returns this node's identifier.
func (m *Membership) Self() ids.NodeID { return m.self }

// SelfInfo returns this node's identity with its cached availability.
func (m *Membership) SelfInfo() NodeInfo {
	return NodeInfo{ID: m.self, Availability: m.selfAvail}
}

// Predicate exposes the configured predicate (read-only use).
func (m *Membership) Predicate() *Predicate { return m.cfg.Predicate }

// SelfClaim returns the monitoring service's current answer for this
// node itself — the availability an honest node claims on outbound
// protocol traffic. Unlike RefreshSelf it does not update the cached
// selfAvail the predicate consumes, so claims stay as fresh as the
// monitor (the audit layer cross-checks them against the same service)
// without perturbing membership decisions. Falls back to the cached
// value when the monitor does not answer.
func (m *Membership) SelfClaim() float64 {
	if v, ok := m.availability(m.self, m.selfIdx()); ok {
		return v
	}
	return m.selfAvail
}

// selfIdx returns this node's dense host index, or −1 without a universe.
func (m *Membership) selfIdx() int32 {
	if m.cfg.PairIdx != nil {
		return m.cfg.SelfIdx
	}
	return -1
}

// RefreshSelf re-queries the monitoring service for this node's own
// availability. Returns the cached value.
func (m *Membership) RefreshSelf() float64 {
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
func (m *Membership) eval(h, avY float64) (bool, Sliver) {
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
func (m *Membership) Discover(candidates []ids.NodeID) int {
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

// admit inserts a new neighbor into the list and the index set.
func (m *Membership) admit(nb Neighbor) {
	m.gen++
	if nb.idx1 > 0 {
		m.idx.add(nb.idx1 - 1)
	} else if m.cfg.PairIdx != nil {
		m.hasUnindexed = true
	}
	m.all = insertNeighbor(m.all, nb)
}

// DiscoveryStats counts the work of the indexed discovery loop in plain
// fields, published as metrics by whoever owns the deployment.
type DiscoveryStats struct {
	Passes     int64 // passes of the loop
	FullPasses int64 // ... that re-judged every slot
	Offered    int64 // slots offered
	Skipped    int64 // ... settled by their memo word alone
	Evaluated  int64 // candidates that reached a predicate verdict
	Hashes     int64 // pair hashes computed rather than read from a word
	Admitted   int64 // neighbors added
}

// DiscoveryStats returns the counters so far (Config.Stats's when set).
func (m *Membership) DiscoveryStats() DiscoveryStats { return *m.stats }

// memoJudged marks a memo word as holding a verdict's pair hash. H is in
// [0,1), so the sign bit of its float64 is free, and a marked word is
// never zero.
const memoJudged = 1 << 63

// regime reads the monitor's epoch and stability and reports whether the
// verdicts of the last DiscoverView pass still stand: the monitor stable
// then and now, the same epoch, the same self claim.
func (m *Membership) regime() (ep int, stable, stands bool) {
	if m.cfg.MonitorEpoch != nil {
		ep, stable = m.cfg.MonitorEpoch()
	}
	return ep, stable, stable && m.passStable && ep == m.passEpoch && m.selfVer == m.passVer
}

// DiscoverView is Discover over a coarse view read in place. codes[k]
// names the occupant of view slot k — its dense host index (which
// requires Config.PairIdx), or for a negative code the identifier
// strays[^code], which takes Discover's identifier path — and memo[k] is
// the slot's memo word, private to this membership: the view's owner
// zeroes it whenever the slot's occupant changes and moves it with the
// occupant, and nobody else writes it. A predicate verdict, admitted or
// not, leaves H(self, y) in the word; a candidate that got none (blocked,
// or the monitor had no answer) leaves it zero.
//
// While the monitor is stable a verdict is a pure function of the
// (epoch, self claim) regime and the pair, so when the regime of the last
// pass still stands this is a delta pass: a non-zero word settles its
// slot — the occupant is a neighbor or would be rejected again — and only
// the slots the shuffle changed are judged. Every way a word can stop
// telling the truth forces a full pass instead (a new epoch, a moved self
// claim, an unstable monitor now or at the last pass, a Refresh eviction
// the predicate alone does not explain), which re-judges every slot but
// takes the pair hash from the word: SHA-256 runs once per residency of a
// pair in the view.
func (m *Membership) DiscoverView(codes []int32, memo []uint64, strays []ids.NodeID) int {
	return m.discover(codes, memo[:len(codes)], strays, false)
}

// DiscoverIdx is Discover for candidates that carry their dense host
// index (idxs parallel to candidates; a negative index means unknown):
// DiscoverView's loop for callers without a view to keep words in, every
// candidate judged afresh.
func (m *Membership) DiscoverIdx(candidates []ids.NodeID, idxs []int32) int {
	if len(idxs) != len(candidates) || m.cfg.PairIdx == nil {
		return m.Discover(candidates)
	}
	return m.discover(idxs, nil, candidates, true)
}

// discover is the indexed discovery loop. With byPos, names is parallel
// to codes and there are no memo words (DiscoverIdx); otherwise names
// holds the strays and memo the view's words (DiscoverView).
func (m *Membership) discover(codes []int32, memo []uint64, names []ids.NodeID, byPos bool) int {
	if !m.selfKnown {
		m.RefreshSelf()
	}
	delta := false
	if !byPos {
		ep, stable, stands := m.regime()
		delta = stands && !m.refull
		m.passEpoch, m.passVer, m.passStable, m.refull = ep, m.selfVer, stable, false
	}
	var skipped, evaluated, hashes int64
	added := 0
	for k, yi := range codes {
		var word uint64
		if !byPos {
			if word = memo[k]; word != 0 && delta {
				skipped++
				continue
			}
		}
		if yi < 0 {
			j := int(^yi)
			if byPos {
				j = k
			}
			if m.discoverOne(names[j]) {
				added++
			}
			continue
		}
		if yi == m.cfg.SelfIdx || m.idx.has(yi) {
			continue
		}
		var y ids.NodeID
		if byPos {
			y = names[k]
		} else {
			y = m.cfg.PairIdx.ID(yi)
		}
		if y.IsNil() || (m.hasUnindexed && m.Contains(y)) {
			continue
		}
		avY, ok := 0.0, false
		if m.cfg.Blocked == nil || !m.cfg.Blocked(ids.AddrAt(y, yi)) {
			avY, ok = m.availability(y, yi)
		}
		if !ok {
			// No verdict: the slot must be judged again next pass.
			if word != 0 {
				memo[k] = 0
			}
			continue
		}
		h := math.Float64frombits(word &^ memoJudged)
		if word == 0 {
			h = ids.PairHash(m.self, y)
			hashes++
			if !byPos {
				memo[k] = math.Float64bits(h) | memoJudged
			}
		}
		evaluated++
		if match, kind := m.eval(h, avY); match {
			m.admit(Neighbor{ID: y, Availability: avY, Sliver: kind, hash: h, idx1: yi + 1})
			added++
		}
	}
	m.stats.Passes++
	if !delta {
		m.stats.FullPasses++
	}
	m.stats.Offered += int64(len(codes))
	m.stats.Skipped += skipped
	m.stats.Evaluated += evaluated
	m.stats.Hashes += hashes
	m.stats.Admitted += int64(added)
	return added
}

// discoverOne runs the identifier-keyed discovery test for a single
// candidate, reporting whether it was admitted.
func (m *Membership) discoverOne(y ids.NodeID) bool {
	if y == m.self || y.IsNil() {
		return false
	}
	if m.Contains(y) {
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
func (m *Membership) Refresh() int {
	m.gen++
	m.RefreshSelf()
	evicted, unjudged := 0, 0
	// Compact the list in place (the write index never passes the read
	// index); its capacity is reused across rounds.
	keep := m.all[:0]
	for i := range m.all {
		nb := m.all[i]
		avY, ok := 0.0, false
		if m.cfg.Blocked == nil || !m.cfg.Blocked(nb.Addr()) {
			avY, ok = m.availability(nb.ID, nb.idx1-1)
		}
		if !ok {
			evicted++
			unjudged++
			continue
		}
		match, kind := m.eval(nb.hash, avY)
		if !match {
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
	if evicted > 0 {
		m.idx.reset()
		for i := range m.all {
			if k := m.all[i].idx1; k > 0 {
				m.idx.add(k - 1)
			}
		}
		// An evicted neighbor may still sit in the coarse view under a memo
		// word. The next delta pass may skip it only if it would reject it:
		// true when the predicate evicted it in the regime that pass will
		// find standing, not when it went unjudged or the regime has moved.
		if _, _, stands := m.regime(); unjudged > 0 || !stands {
			m.refull = true
		}
	}
	return evicted
}

// Contains reports whether id is currently a neighbor (either sliver).
func (m *Membership) Contains(id ids.NodeID) bool {
	i := searchNeighbors(m.all, id)
	return i < len(m.all) && m.all[i].ID == id
}

// Lookup returns the neighbor entry for id, if present.
func (m *Membership) Lookup(id ids.NodeID) (Neighbor, bool) {
	i := searchNeighbors(m.all, id)
	if i < len(m.all) && m.all[i].ID == id {
		return m.all[i], true
	}
	return Neighbor{}, false
}

// Generation returns the neighbor lists' mutation count: it moves
// whenever a view Neighbors hands out may have changed, and only then.
func (m *Membership) Generation() uint64 { return m.gen }

// Size returns the total number of neighbors (both slivers).
func (m *Membership) Size() int { return len(m.all) }

// SliverSize returns the number of neighbors in one sliver.
func (m *Membership) SliverSize(s Sliver) int {
	n := 0
	for i := range m.all {
		if m.all[i].Sliver == s {
			n++
		}
	}
	return n
}

// Neighbors returns the list that holds flavor f's neighbors, sorted by
// identifier for determinism: every neighbor of both slivers for a valid
// flavor (nil otherwise), so a reader of HSOnly or VSOnly keeps only the
// entries with f.Admits(nb.Sliver). The slice is the membership's own —
// valid until the next Discover or Refresh, not to be modified — so the
// call allocates and sorts nothing; CopyNeighbors takes a stable snapshot.
func (m *Membership) Neighbors(f Flavor) []Neighbor {
	if f != HSOnly && f != VSOnly && f != HSVS {
		return nil
	}
	return m.all
}

// CopyNeighbors returns a freshly allocated snapshot of flavor f's
// neighbors, in identifier order, that survives later Discover/Refresh
// rounds.
func (m *Membership) CopyNeighbors(f Flavor) []Neighbor {
	var out []Neighbor
	for _, nb := range m.Neighbors(f) {
		if f.Admits(nb.Sliver) {
			out = append(out, nb)
		}
	}
	return out
}

// VerifyInbound is the receiving-side defense against selfish senders
// (paper §4.1): node self, having received a message from sender,
// checks whether it is legitimately an AVMEM neighbor of the sender —
// that is, whether M(sender, self) holds — using self's own (possibly
// stale) information: the monitoring service's availability for the
// sender and self's cached own availability. The configured
// VerifyCushion widens f to absorb benign staleness.
//
// It returns false when the sender's availability is unknown: an
// unverifiable sender is rejected, never trusted.
func (m *Membership) VerifyInbound(sender ids.NodeID) bool {
	if sender == m.self || sender.IsNil() {
		return false
	}
	avSender, ok := m.cfg.Monitor.Availability(sender)
	if !ok {
		return false
	}
	match, _ := m.cfg.Predicate.EvalNodes(
		NodeInfo{ID: sender, Availability: avSender},
		NodeInfo{ID: m.self, Availability: m.selfAvail},
		m.cfg.VerifyCushion, m.cfg.Hashes)
	return match
}
