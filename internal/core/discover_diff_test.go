package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmem/internal/ids"
)

// diffWorld is the ground truth one differential schedule plays out in:
// a small host universe (hosts[0] is self), a few identifiers outside it,
// their availabilities, what the monitor currently answers for, who the
// audit layer has blocked, and the monitor's epoch and stability.
type diffWorld struct {
	hosts, outside []ids.NodeID
	index          map[ids.NodeID]int // universe and outside alike (outside: len(hosts)+i)
	avail          []float64
	known          []bool
	blocked        map[ids.NodeID]bool
	epoch          int
	stable         bool
	now            time.Duration
}

// diffMonitor is one membership's window on the world. While the monitor
// is unstable every answer draws noise from the window's own stream, as
// avmon.Noisy does, so two memberships that ask different questions, or
// the same ones in another order, stop agreeing on availabilities — and
// asked counts the noisy questions outright.
type diffMonitor struct {
	w     *diffWorld
	rng   *rand.Rand
	asked int
}

func (m *diffMonitor) Availability(id ids.NodeID) (float64, bool) {
	i, ok := m.w.index[id]
	if !ok {
		return 0, false
	}
	return m.AvailabilityIdx(i)
}

func (m *diffMonitor) AvailabilityIdx(h int) (float64, bool) {
	if h < 0 || h >= len(m.w.avail) {
		return 0, false
	}
	noise := 0.0
	if !m.w.stable {
		m.asked++
		noise = (m.rng.Float64() - 0.5) * 0.1
	}
	if !m.w.known[h] {
		return 0, false
	}
	return min(1, max(0, m.w.avail[h]+noise)), true
}

// diffView is a coarse view as its owner's shuffle keeps it: packed
// codes, one memo word per slot, and the stray table negative codes
// point into. Its three mutators are the shuffle's side of the memo
// contract.
type diffView struct {
	codes   []int32
	memo    []uint64
	strays  []ids.NodeID
	strayOf map[ids.NodeID]int32
}

func (v *diffView) code(w *diffWorld, id ids.NodeID, indexed bool) int32 {
	if i, ok := w.index[id]; ok && i < len(w.hosts) && indexed {
		return int32(i)
	}
	s, ok := v.strayOf[id]
	if !ok {
		s = int32(len(v.strays))
		v.strays = append(v.strays, id)
		v.strayOf[id] = s
	}
	return ^s
}

func (v *diffView) add(code int32) {
	v.codes, v.memo = append(v.codes, code), append(v.memo, 0)
}

func (v *diffView) replace(k int, code int32) { v.codes[k], v.memo[k] = code, 0 }

func (v *diffView) remove(k int) {
	v.codes = append(v.codes[:k], v.codes[k+1:]...)
	v.memo = append(v.memo[:k], v.memo[k+1:]...)
}

// gather is what Cyclon.AppendViewCand fed the model: every slot's
// identifier, and its index or −1.
func (v *diffView) gather(w *diffWorld) (cand []ids.NodeID, idxs []int32) {
	for _, code := range v.codes {
		if code >= 0 {
			cand, idxs = append(cand, w.hosts[code]), append(idxs, code)
		} else {
			cand, idxs = append(cand, v.strays[^code]), append(idxs, -1)
		}
	}
	return cand, idxs
}

// discoverDiff drives the model (discover_model_test.go) and the
// implementation through one schedule from one seed.
type discoverDiff struct {
	t     testing.TB
	w     *diffWorld
	env   *rand.Rand // availability drift: the world's own stream
	view  diffView
	impl  *Membership
	model *modelMembership
	monI  *diffMonitor
	monM  *diffMonitor
	pick  func(n int) int
	// admitted and evicted feed the tameness check of the seeded test.
	admitted, evicted int
}

const (
	diffHosts   = 48
	diffOutside = 4
	diffSlots   = 10
)

func newDiscoverDiff(t testing.TB, seed int64, pick func(n int) int) *discoverDiff {
	t.Helper()
	env := rand.New(rand.NewSource(seed))
	w := &diffWorld{index: map[ids.NodeID]int{}, blocked: map[ids.NodeID]bool{}, stable: true}
	for i := 0; i < diffHosts+diffOutside; i++ {
		id := ids.Synthetic(i)
		if i < diffHosts {
			w.hosts = append(w.hosts, id)
		} else {
			id = ids.Synthetic(9000 + i)
			w.outside = append(w.outside, id)
		}
		w.index[id] = i
		w.avail = append(w.avail, env.Float64())
		w.known = append(w.known, true)
	}
	pairs, err := ids.NewPairIndexCache(w.hosts, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := &discoverDiff{t: t, w: w, env: env, pick: pick, view: diffView{strayOf: map[ids.NodeID]int32{}},
		monI: &diffMonitor{w: w, rng: rand.New(rand.NewSource(seed + 1))},
		monM: &diffMonitor{w: w, rng: rand.New(rand.NewSource(seed + 1))}}
	cfg := Config{
		Predicate:    paperLike(t, 40),
		Clock:        func() time.Duration { return w.now },
		Blocked:      func(a ids.Addr) bool { return w.blocked[a.ID()] },
		PairIdx:      pairs,
		MonitorEpoch: func() (int, bool) { return w.epoch, w.stable },
	}
	cfg.Monitor, cfg.MonitorIdx = d.monI, d.monI
	if d.impl, err = NewMembership(w.hosts[0], cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Monitor, cfg.MonitorIdx = d.monM, d.monM
	d.model = newModelMembership(w.hosts[0], cfg)
	return d
}

// anyID draws from everything a view slot or a candidate list may name:
// universe hosts (self among them), outsiders, the nil identifier.
func (d *discoverDiff) anyID() ids.NodeID {
	switch n := d.pick(diffHosts + diffOutside + 1); {
	case n < diffHosts:
		return d.w.hosts[n]
	case n < diffHosts+diffOutside:
		return d.w.outside[n-diffHosts]
	}
	return ids.Nil
}

// anyCode is anyID as a view code; one universe host in eight arrives
// unresolved, as a stray.
func (d *discoverDiff) anyCode() int32 {
	return d.view.code(d.w, d.anyID(), d.pick(8) != 0)
}

// shuffle changes a few view slots the way a shuffle round does.
func (d *discoverDiff) shuffle() {
	for n := 1 + d.pick(4); n > 0; n-- {
		switch op := d.pick(4); {
		case len(d.view.codes) == 0 || (op == 0 && len(d.view.codes) < diffSlots):
			d.view.add(d.anyCode())
		case op == 1:
			d.view.remove(d.pick(len(d.view.codes)))
		default:
			d.view.replace(d.pick(len(d.view.codes)), d.anyCode())
		}
	}
}

// neighborOrAny picks a current neighbor when there is one and the
// schedule says so, else anybody.
func (d *discoverDiff) neighborOrAny() ids.NodeID {
	if nbs := d.impl.Neighbors(HSVS); len(nbs) > 0 && d.pick(2) == 0 {
		return nbs[d.pick(len(nbs))].ID
	}
	return d.anyID()
}

func (d *discoverDiff) step(step int) {
	d.t.Helper()
	w := d.w
	w.now += time.Minute
	switch op := d.pick(64); {
	case op == 0: // epoch roll: availabilities drift, self included
		w.epoch++
		for i := range w.avail {
			if d.env.Intn(3) == 0 {
				w.avail[i] = min(1, max(0, w.avail[i]+(d.env.Float64()-0.5)*0.3))
			}
		}
	case op == 1: // noise layer swapped in or out, inside the epoch
		w.stable = !w.stable
	case op == 2: // the monitor stops, or resumes, answering for one host
		if i, ok := w.index[d.neighborOrAny()]; ok && i != 0 {
			w.known[i] = !w.known[i]
		}
	case op == 3 || op == 4: // the audit layer blocks or pardons a peer
		id := d.neighborOrAny()
		w.blocked[id] = !w.blocked[id]
	case op == 5: // the self claim moves inside the epoch
		w.avail[0] = min(1, max(0, w.avail[0]+(d.env.Float64()-0.5)*0.2))
		if a, b := d.impl.RefreshSelf(), d.model.RefreshSelf(); a != b {
			d.t.Fatalf("step %d: RefreshSelf %v, model %v", step, a, b)
		}
	case op < 9:
		d.refresh(step)
	case op == 9: // the identifier path: admits neighbors without an index
		cands := make([]ids.NodeID, 1+d.pick(4))
		for i := range cands {
			cands[i] = d.anyID()
		}
		if a, b := d.impl.Discover(cands), d.model.Discover(cands); a != b {
			d.t.Fatalf("step %d: Discover admitted %d, model %d", step, a, b)
		}
	case op == 10: // the memo-less adapter, on the same loop
		cands := make([]ids.NodeID, 1+d.pick(6))
		idxs := make([]int32, len(cands))
		for i := range cands {
			cands[i], idxs[i] = d.anyID(), -1
			if h, ok := w.index[cands[i]]; ok && h < diffHosts && d.pick(4) != 0 {
				idxs[i] = int32(h)
			}
			if d.pick(12) == 0 {
				cands[i] = ids.Nil // an index with no identifier beside it
			}
		}
		if a, b := d.impl.DiscoverIdx(cands, idxs), d.model.DiscoverIdx(cands, idxs); a != b {
			d.t.Fatalf("step %d: DiscoverIdx admitted %d, model %d", step, a, b)
		}
	case op < 16: // an exchange that lands between two passes
		d.shuffle()
	default: // one protocol period: shuffle, then discover
		d.shuffle()
		d.pass(step)
	}
	d.check(step)
}

// refresh runs one refresh round on both sides.
func (d *discoverDiff) refresh(step int) {
	d.t.Helper()
	a, b := d.impl.Refresh(), d.model.Refresh()
	if a != b {
		d.t.Fatalf("step %d: Refresh evicted %d, model %d", step, a, b)
	}
	d.evicted += a
}

// pass runs one discovery pass over the view: in place on the
// implementation, gathered for the model.
func (d *discoverDiff) pass(step int) {
	d.t.Helper()
	cand, idxs := d.view.gather(d.w)
	a, b := d.impl.DiscoverView(d.view.codes, d.view.memo, d.view.strays), d.model.DiscoverIdx(cand, idxs)
	if a != b {
		d.t.Fatalf("step %d: DiscoverView admitted %d, model %d (view %v, words %x)", step, a, b, cand, d.view.memo)
	}
	d.admitted += a
}

// check compares everything a membership shows the outside.
func (d *discoverDiff) check(step int) {
	d.t.Helper()
	if a, b := d.impl.SelfClaim(), d.model.SelfClaim(); a != b {
		d.t.Fatalf("step %d: self claim %v, model %v", step, a, b)
	}
	if d.monI.asked != d.monM.asked {
		d.t.Fatalf("step %d: asked the noisy monitor %d times, model %d", step, d.monI.asked, d.monM.asked)
	}
	for _, f := range []Flavor{HSOnly, VSOnly, HSVS} {
		// Neighbor is comparable: every field, the carried pair hash and
		// index included. The model keeps one list per flavor.
		if got, want := d.impl.CopyNeighbors(f), d.model.Neighbors(f); !slices.Equal(got, want) {
			d.t.Fatalf("step %d: %v lists diverge\n got:   %+v\n model: %+v", step, f, got, want)
		}
	}
	for _, nb := range d.impl.Neighbors(HSVS) {
		if nb.PairHash() != ids.PairHash(d.impl.Self(), nb.ID) {
			d.t.Fatalf("step %d: neighbor %s carries hash %v, want H(self, y)", step, nb.ID, nb.PairHash())
		}
	}
}

// TestDiscoverViewMatchesModel is the differential test of slot-memo
// discovery against the discovery path it replaced: slots appended,
// replaced in place and removed mid-view, occupants that leave and
// return inside one epoch, epoch rolls, self-claim bumps, a monitor that
// goes unstable and stable again inside one epoch, blocked flags flipping
// under candidates and neighbors, a monitor that stops answering for one
// host, Refresh between passes, neighbors admitted without an index and
// later offered with one, stray codes, self and nil identifiers.
func TestDiscoverViewMatchesModel(t *testing.T) {
	var total DiscoveryStats
	admitted, evicted := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		d := newDiscoverDiff(t, seed, rng.Intn)
		for step := 0; step < 6000; step++ {
			d.step(step)
		}
		s := d.impl.DiscoveryStats()
		total.Passes += s.Passes
		total.FullPasses += s.FullPasses
		total.Skipped += s.Skipped
		total.Evaluated += s.Evaluated
		total.Hashes += s.Hashes
		admitted += d.admitted
		evicted += d.evicted
	}
	t.Logf("%+v, %d admitted, %d evicted", total, admitted, evicted)
	if total.Passes-total.FullPasses < 1000 || total.FullPasses < 1000 || total.Skipped < 1000 ||
		total.Evaluated-total.Hashes < 1000 || admitted < 500 || evicted < 200 {
		t.Fatalf("schedule too tame: %+v, %d admitted, %d evicted", total, admitted, evicted)
	}
}

// TestSlotMemoPins scripts the corners where a memo word stops telling
// the truth, one by one, against the model — each is the smallest
// schedule on which one plausible shortcut in the delta/full rule makes
// the implementation skip a slot the model judges.
func TestSlotMemoPins(t *testing.T) {
	// flipper finds a host and two availabilities for it, one the
	// predicate rejects and one it admits at the current self claim.
	flipper := func(d *discoverDiff) (y int, rejected, admitted float64) {
		m := d.impl
		for y = 1; y < diffHosts; y++ {
			rejected, admitted = -1, -1
			h := ids.PairHash(m.Self(), d.w.hosts[y])
			for av := 0.0; av <= 1; av += 0.01 {
				if ok, _ := m.Predicate().Eval(h, m.SelfInfo().Availability, av, 0); ok {
					admitted = av
				} else {
					rejected = av
				}
			}
			if rejected >= 0 && admitted >= 0 {
				return y, rejected, admitted
			}
		}
		t.Fatal("no host the predicate both rejects and admits")
		return 0, 0, 0
	}
	start := func(t *testing.T) (d *discoverDiff, y int, rejected, admitted float64) {
		d = newDiscoverDiff(t, 3, func(int) int { return 0 })
		y, rejected, admitted = flipper(d)
		d.view.add(int32(y))
		return d, y, rejected, admitted
	}
	neighbor := func(d *discoverDiff, y int, want bool) {
		t.Helper()
		d.check(0)
		if got := d.impl.Contains(d.w.hosts[y]); got != want {
			t.Fatalf("neighbor = %v, want %v", got, want)
		}
	}
	t.Run("no verdict zeroes the word", func(t *testing.T) {
		d, y, rejected, admitted := start(t)
		d.w.avail[y] = rejected
		d.pass(0) // rejected: the word holds the verdict
		d.w.epoch++
		d.w.avail[y] = admitted
		d.w.blocked[d.w.hosts[y]] = true
		d.pass(1) // full pass, but blocked: no verdict in this regime
		d.w.blocked[d.w.hosts[y]] = false
		d.pass(2) // delta pass: the slot must be judged, not skipped
		neighbor(d, y, true)
		d.w.epoch++
		d.w.known[y] = false
		d.refresh(3)
		d.pass(3) // the monitor has no answer: no verdict either
		d.w.known[y] = true
		d.pass(4)
		neighbor(d, y, true)
	})
	t.Run("an unjudged eviction forces a full pass", func(t *testing.T) {
		d, y, _, admitted := start(t)
		d.w.avail[y] = admitted
		d.pass(0)
		neighbor(d, y, true)
		d.w.blocked[d.w.hosts[y]] = true
		d.refresh(1) // evicted without a verdict; its word still says "judged"
		d.w.blocked[d.w.hosts[y]] = false
		d.pass(2)
		neighbor(d, y, true)
	})
	t.Run("an eviction judged in another regime forces a full pass", func(t *testing.T) {
		d, y, rejected, admitted := start(t)
		d.w.avail[y] = admitted
		d.pass(0)
		d.w.epoch++
		d.w.avail[y] = rejected
		d.refresh(1) // the predicate evicts it — under an epoch no pass has seen
		d.w.epoch--
		d.w.avail[y] = admitted
		d.pass(2) // the last pass's regime again: its verdict, not the eviction's, holds
		neighbor(d, y, true)
	})
	t.Run("a predicate eviction in the standing regime does not", func(t *testing.T) {
		d, y, rejected, admitted := start(t)
		d.w.avail[y] = admitted
		d.pass(0)
		d.w.epoch++
		d.w.avail[y] = rejected
		d.pass(1) // full pass in the new epoch: y is a neighbor, skipped as one
		d.refresh(2)
		before := d.impl.DiscoveryStats()
		d.pass(3)
		neighbor(d, y, false)
		if s := d.impl.DiscoveryStats(); s.FullPasses != before.FullPasses || s.Skipped != before.Skipped+1 {
			t.Fatalf("pass after a reproducible eviction was not a delta pass: %+v after %+v", s, before)
		}
	})
}

// TestRefreshMovesNeighborBetweenSlivers: a neighbor whose availability
// drifts out of the self claim's ε-band, and back, stays admitted but
// changes sliver at Refresh — in place in the one list, where every
// flavor's view must still match the model's three lists.
func TestRefreshMovesNeighborBetweenSlivers(t *testing.T) {
	d := newDiscoverDiff(t, 5, func(int) int { return 0 })
	m := d.impl
	y, avHS, avVS := 0, -1.0, -1.0
	for cand := 1; cand < diffHosts && y == 0; cand++ {
		avHS, avVS = -1, -1
		h := ids.PairHash(m.Self(), d.w.hosts[cand])
		for av := 0.0; av <= 1; av += 0.01 {
			switch ok, kind := m.Predicate().Eval(h, m.SelfInfo().Availability, av, 0); {
			case ok && kind == SliverHorizontal:
				avHS = av
			case ok && kind == SliverVertical:
				avVS = av
			}
		}
		if avHS >= 0 && avVS >= 0 {
			y = cand
		}
	}
	if y == 0 {
		t.Fatal("no host the predicate admits in both slivers")
	}
	d.view.add(int32(y))
	want := func(step int, s Sliver) {
		t.Helper()
		d.check(step)
		if nb, ok := m.Lookup(d.w.hosts[y]); !ok || nb.Sliver != s {
			t.Fatalf("step %d: neighbor %v in %v, want in %v", step, ok, nb.Sliver, s)
		}
	}
	d.w.avail[y] = avHS
	d.pass(0)
	want(0, SliverHorizontal)
	d.w.epoch++
	d.w.avail[y] = avVS
	d.refresh(1)
	want(1, SliverVertical)
	d.w.epoch++
	d.w.avail[y] = avHS
	d.refresh(2)
	want(2, SliverHorizontal)
}

// FuzzDiscoverSchedule decodes the same differential schedule from the
// input: byte 0 seeds the world, every later byte answers one choice of
// discoverDiff.step. Seed corpus: testdata/fuzz/FuzzDiscoverSchedule.
func FuzzDiscoverSchedule(f *testing.F) {
	f.Add([]byte{1, 20, 0, 0, 5, 20, 2, 1, 7, 2, 2, 20, 0, 20, 1, 20, 6, 20, 1, 20})
	f.Add([]byte{2, 9, 2, 3, 4, 20, 0, 0, 3, 20, 6, 20, 3, 1, 0, 20, 10, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		choices := data[1:min(len(data), 4096)]
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			b := choices[0]
			choices = choices[1:]
			return int(b) % n
		}
		d := newDiscoverDiff(t, int64(data[0]), pick)
		for step := 0; len(choices) > 0; step++ {
			d.step(step)
		}
	})
}
