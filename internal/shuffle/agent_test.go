package shuffle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avmem/internal/ids"
	"avmem/internal/stats"
)

// agentNet runs a set of agents with synchronous message delivery —
// the minimal harness for exercising the request/reply protocol.
type agentNet struct {
	agents map[ids.NodeID]*Agent
}

func newAgentNet(t *testing.T, n, viewSize int) (*agentNet, []ids.NodeID) {
	t.Helper()
	net := &agentNet{agents: make(map[ids.NodeID]*Agent, n)}
	nodes := make([]ids.NodeID, n)
	for i := range nodes {
		nodes[i] = ids.Synthetic(i)
	}
	for i, id := range nodes {
		a, err := NewAgent(id, viewSize, 3, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		// Ring bootstrap.
		a.Seed([]ids.NodeID{nodes[(i+1)%n], nodes[(i+2)%n]})
		net.agents[id] = a
	}
	return net, nodes
}

// tick runs one shuffle round for id, delivering request and reply
// synchronously.
func (n *agentNet) tick(id ids.NodeID) {
	a := n.agents[id]
	peer, req, ok := a.Tick()
	if !ok {
		return
	}
	b, exists := n.agents[peer]
	if !exists {
		return // peer gone; request lost
	}
	reply := b.HandleRequest(id, req)
	a.HandleReply(peer, reply)
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(ids.Nil, 8, 3, 1); err == nil {
		t.Error("want error for nil self")
	}
	if _, err := NewAgent("a", 0, 3, 1); err == nil {
		t.Error("want error for zero view")
	}
	if _, err := NewAgent("a", 8, 0, 1); err == nil {
		t.Error("want error for zero shuffle len")
	}
	if _, err := NewAgent("a", 8, 9, 1); err == nil {
		t.Error("want error for shuffleLen > viewSize")
	}
	a, err := NewAgent("a", 8, 3, 0) // zero seed derives from identity
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("nil agent")
	}
}

func TestAgentSeedAndView(t *testing.T) {
	a, err := NewAgent("self", 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Seed([]ids.NodeID{"p1", "p2", "self", "", "p1"})
	v := a.View()
	if len(v) != 2 {
		t.Fatalf("view = %v, want [p1 p2]", v)
	}
	for _, id := range v {
		if id == "self" || id.IsNil() {
			t.Errorf("view contains %q", id)
		}
	}
}

func TestAgentViewBounded(t *testing.T) {
	a, err := NewAgent("self", 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]ids.NodeID, 10)
	for i := range peers {
		peers[i] = ids.Synthetic(i + 1)
	}
	a.Seed(peers)
	if got := len(a.View()); got > 3 {
		t.Errorf("view size %d exceeds bound 3", got)
	}
}

func TestAgentTickEmptyView(t *testing.T) {
	a, err := NewAgent("self", 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.Tick(); ok {
		t.Error("Tick on empty view returned ok")
	}
}

func TestAgentExchangeSpreadsEntries(t *testing.T) {
	const n = 30
	net, nodes := newAgentNet(t, n, 8)
	for round := 0; round < 60; round++ {
		for _, id := range nodes {
			net.tick(id)
		}
	}
	// Node 0 should have met far more peers than its 2 bootstrap seeds.
	distinct := make(map[ids.NodeID]bool)
	for round := 0; round < 30; round++ {
		for _, id := range net.agents[nodes[0]].View() {
			distinct[id] = true
		}
		for _, id := range nodes {
			net.tick(id)
		}
	}
	if len(distinct) < 10 {
		t.Errorf("node 0 saw only %d distinct peers", len(distinct))
	}
	// Invariants: no self, no duplicates, bounded.
	for _, id := range nodes {
		v := net.agents[id].View()
		if len(v) > 8 {
			t.Fatalf("view overflow: %d", len(v))
		}
		seen := map[ids.NodeID]bool{}
		for _, peer := range v {
			if peer == id {
				t.Fatalf("node %v has itself in view", id)
			}
			if seen[peer] {
				t.Fatalf("duplicate %v in %v's view", peer, id)
			}
			seen[peer] = true
		}
	}
}

func TestAgentSelfEntryPropagates(t *testing.T) {
	// After an exchange, the responder must know the initiator (the
	// fresh self-entry is the mechanism that spreads knowledge of new
	// nodes).
	a, err := NewAgent("a", 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAgent("b", 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Seed([]ids.NodeID{"b"})
	peer, req, ok := a.Tick()
	if !ok || peer != "b" {
		t.Fatalf("Tick = (%v, %v)", peer, ok)
	}
	reply := b.HandleRequest("a", req)
	a.HandleReply("b", reply)
	found := false
	for _, id := range b.View() {
		if id == "a" {
			found = true
		}
	}
	if !found {
		t.Error("responder never learned the initiator")
	}
}

// countingSource counts the draws a rand.Rand takes from the stream under
// it.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 { s.draws++; return s.Source.Int63() }

// TestAgentSampleIsPartialFisherYates pins sampleLocked: min(n, view)
// distinct entries of the view, one draw per entry picked — not one per
// view slot — and every entry as likely as any other.
func TestAgentSampleIsPartialFisherYates(t *testing.T) {
	const view = 8
	a, err := NewAgent(ids.Synthetic(999), view, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]ids.NodeID, view)
	for i := range peers {
		peers[i] = ids.Synthetic(i)
	}
	a.Seed(peers)
	src := &countingSource{Source: stats.NewSplitMix64(11)}
	a.rng = *rand.New(src)
	for _, n := range []int{0, 1, 3, view - 1, view, view + 5} {
		before := src.draws
		// The sample is appended behind what the message already holds.
		out := a.sampleLocked([]Entry{{ID: "kept"}}, n)
		want := min(n, view)
		if len(out) != 1+want || out[0].ID != "kept" {
			t.Fatalf("sample(%d) = %v, want the kept entry and %d sampled", n, out, want)
		}
		out = out[1:]
		if draws := src.draws - before; draws != want {
			t.Errorf("sample(%d) took %d draws, want %d", n, draws, want)
		}
		seen := map[ids.NodeID]bool{}
		for _, e := range out {
			if seen[e.ID] || !slices.Contains(peers, e.ID) {
				t.Fatalf("sample(%d) = %v: repeats an entry or invents one", n, out)
			}
			seen[e.ID] = true
		}
	}
	// χ² of how often each entry is picked by 20k samples of 3: with 7
	// degrees of freedom, a uniform sampler exceeds 24.32 once in 1000.
	const trials, n = 20000, 3
	picks := map[ids.NodeID]int{}
	for i := 0; i < trials; i++ {
		for _, e := range a.sampleLocked(nil, n) {
			picks[e.ID]++
		}
	}
	expect, chi2 := float64(trials*n)/view, 0.0
	for _, id := range peers {
		d := float64(picks[id]) - expect
		chi2 += d * d / expect
	}
	if chi2 > 24.32 {
		t.Errorf("χ² = %.1f over %v, want ≤ 24.32 for uniform picks", chi2, picks)
	}
	// A view larger than the stack buffer permutes a heap copy instead,
	// with the same draws.
	big, err := NewAgent(ids.Synthetic(999), 2*sampleStack, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	bigPeers := make([]ids.NodeID, 2*sampleStack)
	for i := range bigPeers {
		bigPeers[i] = ids.Synthetic(i)
	}
	big.Seed(bigPeers)
	src = &countingSource{Source: stats.NewSplitMix64(11)}
	big.rng = *rand.New(src)
	out := big.sampleLocked(nil, len(bigPeers))
	seen := map[ids.NodeID]bool{}
	for _, e := range out {
		seen[e.ID] = true
	}
	if len(out) != len(bigPeers) || len(seen) != len(bigPeers) || src.draws != len(bigPeers) {
		t.Fatalf("sampling all %d slots gave %d entries, %d distinct, in %d draws", len(bigPeers), len(out), len(seen), src.draws)
	}
}

// TestAgentDrawsTheSplitMix64Stream: a seeded agent's randomness is the
// splitmix64 stream of its seed, written out here from the generator's
// definition.
func TestAgentDrawsTheSplitMix64Stream(t *testing.T) {
	const seed = 42
	a, err := NewAgent(ids.Synthetic(1), 8, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(seed)
	for i := 0; i < 5; i++ {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		if got, want := a.NextDraw(), int64(z>>1); got != want {
			t.Fatalf("draw %d = %d, want splitmix64's %d", i, got, want)
		}
	}
}

// TestReceivedAgeCannotPinAnEntry: an age off the wire is clamped into
// [0, maxAge] on arrival and ageing saturates there, so an entry carrying
// an age no honest agent holds — one that would wrap to the bottom of the
// int range on the next tick, or one far below zero — is still picked as
// partner within a view's worth of ticks of honest traffic. Cyclon bounds
// what a Tap hands back the same way.
func TestReceivedAgeCannotPinAnEntry(t *testing.T) {
	const view = 4
	for _, age := range []int{math.MaxInt, math.MinInt, -1 << 40, 1 << 40, -1, maxAge + 1} {
		a, err := NewAgent("self", view, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		a.Seed([]ids.NodeID{"p0", "p1", "p2"})
		reply := NewReply()
		reply.Entries = append(reply.Entries, Entry{ID: "pinned", Age: age})
		a.HandleReply("p0", reply)
		if !slices.Contains(a.View(), "pinned") {
			t.Fatalf("age %d: the entry never entered the view %v", age, a.View())
		}
		fresh := 0
		for tick := 1; ; tick++ {
			peer, _, ok := a.Tick()
			if !ok {
				t.Fatalf("age %d: the view emptied", age)
			}
			if peer == "pinned" {
				break
			}
			if tick > view {
				t.Fatalf("age %d: still not partnered after %d ticks, view %v", age, tick, a.View())
			}
			// The partner answers with a fresh peer, as honest traffic does.
			reply := NewReply()
			reply.Entries = append(reply.Entries, Entry{ID: ids.Synthetic(fresh)})
			fresh++
			a.HandleReply(peer, reply)
		}
		for _, got := range a.Snapshot() {
			if got.Age < 0 || got.Age > maxAge {
				t.Fatalf("age %d: the view holds %v at age %d", age, got.ID, got.Age)
			}
		}
		if got := clampAge(age); got < 0 || got > maxAge {
			t.Fatalf("Cyclon would store age %d as %d", age, got)
		}
	}
	c := boundCyclon(t, 4, 2, 1, synthetic(4), nil)
	in := c.received([]Entry{{ID: ids.Synthetic(1), Age: math.MinInt}, {ID: ids.Synthetic(2), Age: math.MaxInt}})
	if !slices.Equal(in.ages, []int32{0, maxAge}) {
		t.Fatalf("Cyclon packed received ages %v, want [0 %d]", in.ages, maxAge)
	}
}

// TestNewAgentAllocations: an agent is its struct, one int32 array its
// codes and ages are cut from, and its memo words — 16 bytes a view slot.
// The RNG lives in the struct, and no sample or judge scratch is
// allocated.
func TestNewAgentAllocations(t *testing.T) {
	avg := testing.AllocsPerRun(100, func() {
		if _, err := NewAgent("self", 45, 11, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 {
		t.Fatalf("NewAgent allocates %.1f times, want at most 3", avg)
	}
	a, err := NewAgent("self", 45, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cap(a.codes) != 45 || cap(a.ages) != 45 || cap(a.memo) != 45 {
		t.Fatalf("codes, ages, memo capacities %d, %d, %d, want 45 each",
			cap(a.codes), cap(a.ages), cap(a.memo))
	}
}

// TestWarmAgentCycleDoesNotAllocate: once the pools hold a request and a
// reply and the stray tables have grown, a TickDiscover → HandleRequest
// → HandleReply round trip between indexed agents allocates nothing —
// outsiders in the views included.
func TestWarmAgentCycleDoesNotAllocate(t *testing.T) {
	const n, view = 40, 8
	universe := make([]ids.NodeID, n)
	index := map[ids.NodeID]int{}
	for i := range universe {
		universe[i] = ids.Synthetic(i)
		index[universe[i]] = i
	}
	indexOf := func(id ids.NodeID) int {
		if i, ok := index[id]; ok {
			return i
		}
		return -1
	}
	agents := make([]*Agent, n)
	for i := range agents {
		a, err := NewAgent(universe[i], view, 4, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		a.UseIndex(universe, indexOf)
		a.Seed([]ids.NodeID{universe[(i+1)%n], universe[(i+7)%n], ids.Synthetic(9000 + i%3)})
		agents[i] = a
	}
	judge := func(codes []int32, memo []uint64, strays []ids.NodeID) int {
		for k, code := range codes {
			if code < 0 && strays[^code].IsNil() {
				t.Fatalf("slot %d names a free stray slot", k)
			}
			memo[k]++
		}
		return 0
	}
	round := 0
	cycle := func() {
		a := agents[round%n]
		round++
		to, req, ok := a.TickDiscover(nil, judge)
		if !ok {
			return
		}
		if q := to.Index(); q >= 0 {
			a.HandleReply(to.ID(), agents[q].HandleRequest(a.self, req))
			return
		}
		req.Recycle() // an outsider: the request is lost
	}
	for range 50 * n {
		cycle()
	}
	if avg := testing.AllocsPerRun(20*n, cycle); avg != 0 {
		t.Fatalf("a warm exchange allocates %.2f times, want 0", avg)
	}
}
