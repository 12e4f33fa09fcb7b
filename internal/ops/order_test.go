package ops

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"avmem/internal/agg"
	"avmem/internal/core"
	"avmem/internal/ids"
)

// peerKey and modelTargets are the dissemination scratch the order memo
// replaced, kept as the reference model: filter the sliver, then sort
// what is left by (salted) pair hash. The one change is the tie-break —
// equal keys fall back to the identifier, in the model as in the
// implementation, because an order that depends on how pdqsort visited
// its input is not an order two code paths can agree on.
type peerKey struct {
	key float64
	id  ids.NodeID
}

func modelTargets(r *Router, flavor core.Flavor, contains func(float64) bool, salt uint64) []peerKey {
	all := r.mem.CopyNeighbors(flavor)
	var out []peerKey
	for i := range all {
		nb := &all[i]
		if r.auditor != nil && r.auditor.Blocked(nb.Addr()) {
			continue
		}
		if contains(nb.Availability) {
			out = append(out, peerKey{key: saltKey(nb.PairHash(), salt), id: nb.ID})
		}
	}
	slices.SortFunc(out, func(a, b peerKey) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return out
}

// orderMonitor is an indexed monitor over a host table whose answers the
// test edits between rounds (NaN = no answer).
type orderMonitor struct {
	hosts []ids.NodeID
	index map[ids.NodeID]int
	avail []float64
}

func (m *orderMonitor) Availability(id ids.NodeID) (float64, bool) {
	i, ok := m.index[id]
	if !ok {
		return 0, false
	}
	return m.AvailabilityIdx(i)
}

func (m *orderMonitor) AvailabilityIdx(i int) (float64, bool) {
	return m.avail[i], !math.IsNaN(m.avail[i])
}

// blockSet is an Auditor that blocks what the test says.
type blockSet map[ids.NodeID]bool

func (b blockSet) ObserveInbound(ids.Addr, any) bool { return true }
func (b blockSet) Blocked(a ids.Addr) bool           { return b[a.ID()] }

// sendLog is an Env that records where the router sends.
type sendLog struct {
	now  time.Duration
	sent []ids.Addr
}

func (e *sendLog) Now() time.Duration                        { return e.now }
func (e *sendLog) After(time.Duration, func())               {}
func (e *sendLog) RandFloat() float64                        { return 0.5 }
func (e *sendLog) Send(to ids.Addr, _ any)                   { e.sent = append(e.sent, to) }
func (e *sendLog) SendCall(to ids.Addr, _ any, _ func(bool)) { e.sent = append(e.sent, to) }
func (e *sendLog) SendNack(to ids.Addr, _ any, _ func())     { e.sent = append(e.sent, to) }
func (e *sendLog) Online() bool                              { return true }

// orderRig is one router over a membership whose slivers, pair hashes
// and blocked set the test controls.
type orderRig struct {
	t       *testing.T
	rng     *rand.Rand
	mon     *orderMonitor
	mem     *core.Membership
	blocked blockSet
	env     *sendLog
	r       *Router
	seq     uint64
}

const orderRigHosts = 96

func newOrderRig(t *testing.T, seed int64) *orderRig {
	t.Helper()
	g := &orderRig{t: t, rng: rand.New(rand.NewSource(seed)), blocked: blockSet{}, env: &sendLog{}}
	g.mon = &orderMonitor{index: map[ids.NodeID]int{}}
	for i := 0; i < orderRigHosts; i++ {
		id := ids.Synthetic(i)
		g.mon.hosts = append(g.mon.hosts, id)
		g.mon.index[id] = i
		g.mon.avail = append(g.mon.avail, g.rng.Float64())
	}
	g.mon.avail[0] = 0.5 // self: inside every band the test draws
	pairs, err := ids.NewPairIndexCache(g.mon.hosts, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every pair matches, so the slivers are whatever the test offers, and
	// ε = 0.15 splits them into a horizontal and a vertical list.
	pred, err := core.NewPredicate(0.15, core.UniformRandom{P: 1}, core.UniformRandom{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.mem, err = core.NewMembership(g.mon.hosts[0], core.Config{
		Predicate: pred, Monitor: g.mon, MonitorIdx: g.mon,
		Clock:   func() time.Duration { return g.env.now },
		PairIdx: pairs, SelfIdx: 0,
		Blocked: g.blocked.Blocked,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.r, err = NewRouter(RouterConfig{Membership: g.mem, Env: g.env, Collector: NewCollector(), Auditor: g.blocked})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// admit offers host i to discovery. With a hash, the offer is a view slot
// whose memo word already holds that pair hash — DiscoverView's contract
// is to take the hash of a judged slot from its word — so the test picks
// the ordering key, ties included; without one (hash < 0) the host comes
// as a stray and is admitted by identifier: no index, no memo.
func (g *orderRig) admit(i int, hash float64) {
	if hash < 0 {
		g.mem.DiscoverView([]int32{^0}, []uint64{0}, []ids.NodeID{g.mon.hosts[i]})
		return
	}
	g.mem.DiscoverView([]int32{int32(i)}, []uint64{math.Float64bits(hash) | 1<<63}, nil)
}

// mutate moves the membership: new admissions, monitor answers that come
// and go (Refresh evicts a neighbor the monitor no longer answers for),
// availabilities that cross ε (Refresh reclassifies), blocked peers.
func (g *orderRig) mutate() {
	switch g.rng.Intn(4) {
	case 0, 1:
		for n := 1 + g.rng.Intn(6); n > 0; n-- {
			i := 1 + g.rng.Intn(orderRigHosts-1)
			switch g.rng.Intn(5) {
			case 0:
				g.admit(i, -1)
			case 1:
				g.admit(i, g.rng.Float64())
			default:
				g.admit(i, float64(g.rng.Intn(6))/8) // a handful of keys: ties everywhere
			}
		}
	case 2:
		for n := 1 + g.rng.Intn(8); n > 0; n-- {
			i := 1 + g.rng.Intn(orderRigHosts-1)
			if g.rng.Intn(3) == 0 {
				g.mon.avail[i] = math.NaN()
			} else {
				g.mon.avail[i] = g.rng.Float64()
			}
		}
		g.mem.Refresh()
	case 3:
		id := g.mon.hosts[1+g.rng.Intn(orderRigHosts-1)]
		if g.blocked[id] {
			delete(g.blocked, id)
		} else {
			g.blocked[id] = true
		}
	}
}

// want is the model's answer as the addresses the router must send to:
// the model's identifiers, each with the memo its neighbor entry carries.
func (g *orderRig) want(flavor core.Flavor, contains func(float64) bool, salt uint64, skip ids.NodeID, limit int) []ids.Addr {
	var out []ids.Addr
	for _, pk := range modelTargets(g.r, flavor, contains, salt) {
		if pk.id == skip {
			continue
		}
		if limit >= 0 && len(out) == limit {
			break
		}
		nb, ok := g.mem.Lookup(pk.id)
		if !ok {
			g.t.Fatalf("model names %s, not a neighbor", pk.id)
		}
		out = append(out, nb.Addr())
	}
	return out
}

func (g *orderRig) nextID() MsgID {
	g.seq++
	return MsgID{Origin: "origin", Seq: g.seq}
}

// TestDisseminationMatchesScratchModel drives the order memo and the
// filter-then-sort scratch it replaced from one seed: random slivers
// (indexed and identifier-admitted neighbors, pair hashes drawn from a
// handful of values so ties are the rule), Discover and Refresh between
// floods, a blocked set that moves without the generation moving, and
// five (flavor, salt) pairs in rotation over the memo's four slots, plus
// salt 3 now and then. Every family must send to the model's targets —
// same identifiers, same memos, same order.
func TestDisseminationMatchesScratchModel(t *testing.T) {
	rotation := []struct {
		flavor core.Flavor
		salt   uint64
	}{
		{core.HSVS, aggSalt(0)}, {core.HSVS, aggSalt(1)}, {core.HSVS, aggSalt(2)},
		{core.VSOnly, aggSalt(0)}, {core.HSOnly, aggSalt(1)},
	}
	for seed := int64(1); seed <= 20; seed++ {
		g := newOrderRig(t, seed)
		for i := 1; i < 40; i++ {
			g.admit(i, float64(g.rng.Intn(6))/8)
		}
		sorts := (*g.r.stats).OrderSorts
		for step := 0; step < 300; step++ {
			if g.rng.Intn(3) == 0 {
				g.mutate()
			}
			// Strict rotation of five pairs over four slots would miss every
			// time; every other step asks for the previous pair again.
			pick := rotation[step/2%len(rotation)]
			if g.rng.Intn(10) == 0 {
				pick.salt = aggSalt(3)
			}
			lo, hi := 0.5*g.rng.Float64(), 0.5+0.5*g.rng.Float64()
			band := Band{Lo: lo, Hi: hi}
			g.env.sent = g.env.sent[:0]
			var want []ids.Addr
			var what string
			switch family := g.rng.Intn(4); {
			case family == 0 && pick.salt == 0:
				what = "flood"
				g.r.disseminate(&MulticastMsg{ID: g.nextID(), Target: band.Target(), Spec: MulticastSpec{Mode: Flood, Flavor: pick.flavor}})
				want = g.want(pick.flavor, band.Target().Contains, 0, ids.Nil, -1)
			case family == 1 && pick.salt == 0:
				what = "gossip"
				fanout := 1 + g.rng.Intn(5)
				g.r.disseminate(&MulticastMsg{ID: g.nextID(), Target: band.Target(),
					Spec: MulticastSpec{Mode: Gossip, Flavor: pick.flavor, Fanout: fanout, Rounds: 1, Period: time.Second}})
				want = g.want(pick.flavor, band.Target().Contains, 0, ids.Nil, fanout)
			case family == 2 && pick.salt == 0:
				what = "rangecast"
				g.r.disseminate(&MulticastMsg{ID: g.nextID(), Target: band.Target(), Spec: MulticastSpec{Mode: Flood, Flavor: pick.flavor, HalfOpen: true}})
				want = g.want(pick.flavor, band.Contains, 0, ids.Nil, -1)
			default:
				what = "aggregate"
				parent := ids.Nil
				if all := g.mem.CopyNeighbors(pick.flavor); len(all) > 0 && g.rng.Intn(2) == 0 {
					parent = all[g.rng.Intn(len(all))].ID
				}
				spec := AggregateSpec{Op: agg.Count, Band: band, Flavor: pick.flavor, Salt: pick.salt}
				g.r.forwardAgg(g.nextID(), spec, 0, 0, parent, func() {})
				want = g.want(pick.flavor, band.Contains, pick.salt, parent, -1)
			}
			if len(want) == 0 && len(g.env.sent) == 0 {
				continue
			}
			if !reflect.DeepEqual(g.env.sent, want) {
				t.Fatalf("seed %d step %d: %s over %v salt %#x sent to\n %v\nthe model to\n %v",
					seed, step, what, pick.flavor, pick.salt, g.env.sent, want)
			}
		}
		if grew := (*g.r.stats).OrderSorts - sorts; grew == 0 || grew >= (*g.r.stats).OrderRequests {
			t.Errorf("seed %d: %d sorts for %d requests: the memo never hit, or never missed", seed, grew, (*g.r.stats).OrderRequests)
		}
	}
}

// TestGenerationMovesWithTheLists pins the validity rule the order memo
// rests on: admit and Refresh, the only two ways a neighbor list changes,
// both move core.Membership's generation, and nothing else does.
func TestGenerationMovesWithTheLists(t *testing.T) {
	g := newOrderRig(t, 7)
	gen := g.mem.Generation()
	g.admit(3, 0.25)
	if g.mem.Generation() == gen {
		t.Error("an admission left the generation standing")
	}
	gen = g.mem.Generation()
	g.admit(3, 0.25) // already a neighbor: nothing changes
	g.mem.Neighbors(core.HSVS)
	g.mem.RefreshSelf()
	if g.mem.Generation() != gen {
		t.Error("the generation moved with no change to the lists")
	}
	g.mon.avail[3] = math.NaN()
	if g.mem.Refresh() != 1 || g.mem.Generation() == gen {
		t.Error("a Refresh that evicted a neighbor left the generation standing")
	}
}

// seenModel is the duplicate-suppression set without its front cache.
type seenModel struct{ seen map[MsgID]bool }

func (m *seenModel) mark(id MsgID) bool {
	if m.seen[id] {
		return true
	}
	if len(m.seen) >= maxSeen {
		m.seen = nil
	}
	if m.seen == nil {
		m.seen = map[MsgID]bool{}
	}
	m.seen[id] = true
	return false
}

// TestMarkSeenMatchesBareMap runs markSeen against the bare map through
// two maxSeen resets, with bursts of duplicates (what a flood delivers),
// ids whose Seq collide mod 4 across a few origins, and the zero MsgID,
// which an empty front slot must not answer for.
func TestMarkSeenMatchesBareMap(t *testing.T) {
	g := newOrderRig(t, 1)
	rng := rand.New(rand.NewSource(9))
	model := &seenModel{}
	origins := []ids.NodeID{"", "a", "b", "c"}
	var recent []MsgID
	next := uint64(0)
	for step := 0; step < 6*maxSeen; step++ { // four ids in ten are new: two resets
		var id MsgID
		switch k := rng.Intn(10); {
		case k < 4 && len(recent) > 0: // a duplicate of something recent
			id = recent[rng.Intn(len(recent))]
		case k == 4: // an old id: evicted from the front, maybe from the set
			id = MsgID{Origin: origins[rng.Intn(len(origins))], Seq: uint64(rng.Int63n(int64(next + 1)))}
		case k == 5:
			id = MsgID{}
		default:
			next++
			id = MsgID{Origin: origins[rng.Intn(len(origins))], Seq: next / 2} // pairs share a Seq, every fourth pair a slot
			recent = append(recent, id)
			if len(recent) > 6 {
				recent = recent[1:]
			}
		}
		if got, want := g.r.markSeen(id), model.mark(id); got != want {
			t.Fatalf("step %d: markSeen(%v) = %v, the bare map says %v", step, id, got, want)
		}
	}
	if next < 2*maxSeen {
		t.Fatalf("only %d distinct ids: the set never reset twice", next)
	}
	s := (*g.r.stats)
	if s.SeenFrontHits == 0 || s.SeenFrontHits >= s.SeenChecks {
		t.Errorf("front cache answered %d of %d checks", s.SeenFrontHits, s.SeenChecks)
	}
}

// TestWarmOrderWalkDoesNotAllocate: trap (a) of the order memo. On a warm
// memo a relayed hop allocates what it always did — the one boxed message
// of a flood or range-cast, the box and the nack callback of a tree
// forward — and the walk itself nothing, whatever the salt; a cold router
// allocates its memo block once and then one permutation per
// (flavor, salt) it serves, with no key array beside it.
func TestWarmOrderWalkDoesNotAllocate(t *testing.T) {
	g := newOrderRig(t, 3)
	for i := 1; i < 64; i++ {
		g.admit(i, g.rng.Float64())
	}
	everyone := func(float64) bool { return true }
	band := Band{Lo: 0, Hi: 1}
	for j := 0; j < 3; j++ {
		salt := aggSalt(j)
		walk := func() {
			for nb := range g.r.targets(core.HSVS, salt, everyone) {
				_ = nb
			}
		}
		walk()
		if avg := testing.AllocsPerRun(50, walk); avg != 0 {
			t.Errorf("salt %d: a warm order walk allocates %.1f times, want 0", j, avg)
		}
		spec := AggregateSpec{Op: agg.Count, Band: band, Flavor: core.HSVS, Salt: salt}
		id := MsgID{Origin: "o", Seq: 1}
		g.env.sent = make([]ids.Addr, 0, 1<<16)
		if avg := testing.AllocsPerRun(50, func() { g.r.forwardAgg(id, spec, 0, 0, ids.Nil, func() {}) }); avg != 1 {
			t.Errorf("salt %d: a warm tree forward allocates %.1f times, want 1 (its box)", j, avg)
		}
	}
	seq := uint64(100)
	g.env.sent = make([]ids.Addr, 0, 1<<16)
	flood := func() {
		seq++
		g.r.disseminate(&MulticastMsg{ID: MsgID{Origin: "o", Seq: seq}, Target: band.Target(), Spec: MulticastSpec{Mode: Flood, Flavor: core.HSVS}})
	}
	rangecast := func() {
		seq++
		g.r.disseminate(&MulticastMsg{ID: MsgID{Origin: "o", Seq: seq}, Target: band.Target(), Spec: MulticastSpec{Mode: Flood, Flavor: core.HSVS, HalfOpen: true}})
	}
	flood()
	rangecast() // the seen set has its buckets
	for name, hop := range map[string]func(){"flood": flood, "rangecast": rangecast} {
		g.env.sent = g.env.sent[:0]
		if avg := testing.AllocsPerRun(50, hop); avg > 1.5 { // the box, and the seen set growing now and then
			t.Errorf("a warm %s hop allocates %.1f times, want 1 (the boxed message)", name, avg)
		}
	}

	fresh := newOrderRig(t, 3)
	for i := 1; i < 64; i++ {
		fresh.admit(i, fresh.rng.Float64())
	}
	served := 0
	before := mallocs()
	for _, flavor := range []core.Flavor{core.HSVS, core.VSOnly} {
		for j := 0; j < 2; j++ {
			served++
			for nb := range fresh.r.targets(flavor, aggSalt(j), everyone) {
				_ = nb
			}
		}
	}
	if got := mallocs() - before; got > uint64(served)+1 {
		t.Errorf("a cold router allocated %d times serving %d (flavor, salt) pairs, want at most one slice each plus the memo block", got, served)
	}
	for i := range fresh.r.orders.slots {
		s := &fresh.r.orders.slots[i]
		if n := len(fresh.mem.CopyNeighbors(s.flavor)); len(s.perm) != n || cap(s.perm) > n+n/4 {
			t.Errorf("slot %d: permutation len %d cap %d for %d neighbors", i, len(s.perm), cap(s.perm), n)
		}
	}
}

// TestRouterSize: trap (c). The order memo lives behind a pointer and
// the front cache is four ids, so a router — there is one per host — grew
// by less than 128 bytes over the 264 it had with the scratch.
func TestRouterSize(t *testing.T) {
	if got := unsafe.Sizeof(Router{}); got > 264+128 {
		t.Errorf("Router is %d bytes, want at most %d", got, 264+128)
	}
	r := newOrderRig(t, 1).r
	if r.orders != nil {
		t.Error("a router that relayed nothing holds an order memo")
	}
}

// TestMessageSizes: every receiver copies a dissemination message out of
// its interface box (router, auditor, adversary), and a relay boxes one,
// so the merged multicast/range-cast message stays within the 128-byte
// size class and the anycast, which lost its range-cast pointer, within 112.
func TestMessageSizes(t *testing.T) {
	if got := unsafe.Sizeof(MulticastMsg{}); got > 128 {
		t.Errorf("MulticastMsg is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(AnycastMsg{}); got > 112 {
		t.Errorf("AnycastMsg is %d bytes, want at most 112", got)
	}
}

// mallocs reads the process's allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
