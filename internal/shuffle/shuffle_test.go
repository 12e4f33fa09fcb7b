package shuffle

import (
	"math/rand"
	"testing"

	"avmem/internal/ids"
)

// synthetic returns n synthetic identifiers: the universe of a test.
func synthetic(n int) []ids.NodeID {
	nodes := make([]ids.NodeID, n)
	for i := range nodes {
		nodes[i] = ids.Synthetic(i)
	}
	return nodes
}

// boundCyclon returns a Cyclon bound to the universe nodes, host i
// online iff up(i) (nil: always).
func boundCyclon(t testing.TB, viewSize, shuffleLen int, seed int64, nodes []ids.NodeID, up func(int) bool) *Cyclon {
	t.Helper()
	c, err := NewCyclon(viewSize, shuffleLen, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[ids.NodeID]int, len(nodes))
	for i, id := range nodes {
		index[id] = i
	}
	if up == nil {
		up = func(int) bool { return true }
	}
	indexOf := func(id ids.NodeID) int {
		if i, ok := index[id]; ok {
			return i
		}
		return -1
	}
	if err := c.UseIndex(indexOf, up); err != nil {
		t.Fatal(err)
	}
	return c
}

// mustJoin joins x with seeds, failing the test on a refusal.
func mustJoin(t testing.TB, c *Cyclon, x ids.NodeID, seeds ...ids.NodeID) {
	t.Helper()
	if err := c.Join(x, seeds); err != nil {
		t.Fatal(err)
	}
}

func newCyclonForTest(t *testing.T, n, viewSize int) (*Cyclon, []ids.NodeID) {
	t.Helper()
	nodes := synthetic(n)
	c := boundCyclon(t, viewSize, 3, 7, nodes, nil)
	// Bootstrap: each node seeds with a few ring neighbors — a weakly
	// connected start the shuffle must randomize.
	for i, id := range nodes {
		mustJoin(t, c, id, nodes[(i+1)%n], nodes[(i+2)%n], nodes[(i+n-1)%n])
	}
	return c, nodes
}

// tickAll runs one protocol period: every host initiates once.
func tickAll(c *Cyclon, n int) {
	for i := 0; i < n; i++ {
		c.TickIdx(i)
	}
}

func TestNewCyclonValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewCyclon(0, 1, nil, rng); err == nil {
		t.Error("want error for zero view size")
	}
	if _, err := NewCyclon(8, 0, nil, rng); err == nil {
		t.Error("want error for zero shuffle len")
	}
	if _, err := NewCyclon(8, 9, nil, rng); err == nil {
		t.Error("want error for shuffleLen > viewSize")
	}
	if _, err := NewCyclon(8, 3, nil, nil); err == nil {
		t.Error("want error for nil rng")
	}
	if _, err := NewCyclon(8, 3, func(ids.NodeID) bool { return true }, rng); err == nil {
		t.Error("want error for the retired online argument")
	}
}

// TestJoinOutsideTheUniverseIsRefused: a Join before UseIndex, of a
// joiner outside the universe, or naming a seed outside it, is refused
// and leaves every view as it was; so is a second UseIndex.
func TestJoinOutsideTheUniverseIsRefused(t *testing.T) {
	nodes := synthetic(4)
	c, err := NewCyclon(4, 2, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Join(nodes[0], nodes[1:2]); err == nil {
		t.Error("Join before UseIndex was not refused")
	}
	c = boundCyclon(t, 4, 2, 1, nodes, nil)
	mustJoin(t, c, nodes[0], nodes[1])
	outsider := ids.Synthetic(99)
	if err := c.Join(outsider, nodes[:1]); err == nil {
		t.Error("Join of a joiner outside the universe was not refused")
	}
	if err := c.Join(nodes[0], []ids.NodeID{nodes[2], outsider}); err == nil {
		t.Error("Join naming a seed outside the universe was not refused")
	}
	if err := c.Join(nodes[3], []ids.NodeID{outsider}); err == nil {
		t.Error("Join naming a seed outside the universe was not refused")
	}
	if v := c.View(nodes[0]); len(v) != 1 || v[0] != nodes[1] {
		t.Errorf("a refused Join changed a view: %v", v)
	}
	if c.View(nodes[3]) != nil || c.View(outsider) != nil {
		t.Error("a refused Join registered a view")
	}
	if err := c.UseIndex(func(ids.NodeID) int { return 0 }, func(int) bool { return true }); err == nil {
		t.Error("a second UseIndex was not refused")
	}
}

func TestJoinAndView(t *testing.T) {
	c, nodes := newCyclonForTest(t, 10, 5)
	v := c.View(nodes[0])
	if len(v) != 3 {
		t.Fatalf("initial view size = %d, want 3", len(v))
	}
	for _, id := range v {
		if id == nodes[0] {
			t.Error("view contains self")
		}
	}
	if got := c.View("unknown"); got != nil {
		t.Errorf("View(unknown) = %v, want nil", got)
	}
}

func TestViewBounded(t *testing.T) {
	nodes := synthetic(21)
	c := boundCyclon(t, 4, 2, 3, nodes, nil)
	mustJoin(t, c, nodes[0], nodes[1:]...)
	if got := len(c.View(nodes[0])); got > 4 {
		t.Errorf("view size = %d exceeds capacity 4", got)
	}
}

func TestJoinIgnoresSelfAndNil(t *testing.T) {
	nodes := synthetic(2)
	c := boundCyclon(t, 4, 2, 3, nodes, nil)
	x := nodes[0]
	mustJoin(t, c, x, x, ids.Nil, nodes[1])
	v := c.View(x)
	if len(v) != 1 || v[0] != nodes[1] {
		t.Errorf("view = %v, want only synthetic 1", v)
	}
}

func TestShuffleSpreadsEntries(t *testing.T) {
	const n = 60
	c, nodes := newCyclonForTest(t, n, 8)
	// Run many shuffle rounds.
	for round := 0; round < 80; round++ {
		tickAll(c, n)
	}
	// Every node should still have a healthy view, and the union of
	// distinct peers seen in node 0's view over additional rounds should
	// far exceed the initial 3 ring neighbors — evidence of mixing.
	distinct := make(map[ids.NodeID]bool)
	for round := 0; round < 40; round++ {
		for _, id := range c.View(nodes[0]) {
			distinct[id] = true
		}
		tickAll(c, n)
	}
	if len(distinct) < 15 {
		t.Errorf("node 0 saw only %d distinct peers; shuffle not mixing", len(distinct))
	}
	for _, id := range nodes {
		if got := len(c.View(id)); got == 0 {
			t.Errorf("node %v has empty view after shuffling", id)
		}
	}
}

func TestShuffleNoSelfNoDuplicates(t *testing.T) {
	c, nodes := newCyclonForTest(t, 30, 6)
	for round := 0; round < 60; round++ {
		tickAll(c, len(nodes))
		for _, id := range nodes {
			seen := make(map[ids.NodeID]bool)
			for _, peer := range c.View(id) {
				if peer == id {
					t.Fatalf("round %d: node %v has itself in view", round, id)
				}
				if seen[peer] {
					t.Fatalf("round %d: node %v has duplicate %v", round, id, peer)
				}
				seen[peer] = true
			}
		}
	}
}

func TestOfflineEntriesPersistButDoNotBlock(t *testing.T) {
	// The coarse view is weakly consistent: entries for offline nodes
	// are kept (they are what lets AVMEM discover low-availability
	// neighbors) but must not stall shuffling among online nodes.
	nodes := synthetic(12)
	online := make([]bool, len(nodes))
	for i := range online {
		online[i] = true
	}
	c := boundCyclon(t, 6, 3, 5, nodes, func(i int) bool { return online[i] })
	for i, id := range nodes {
		mustJoin(t, c, id, nodes[(i+1)%12], nodes[(i+2)%12], nodes[(i+3)%12])
	}
	for round := 0; round < 30; round++ {
		tickAll(c, len(nodes))
	}
	// Take half the nodes offline. Shuffling among the online half must
	// continue: their views keep evolving.
	for i := 6; i < 12; i++ {
		online[i] = false
	}
	distinct := make(map[ids.NodeID]bool)
	for round := 0; round < 60; round++ {
		tickAll(c, 6)
		for _, peer := range c.View(nodes[0]) {
			distinct[peer] = true
		}
	}
	if len(distinct) < 4 {
		t.Errorf("shuffling stalled: node 0 saw only %d distinct peers", len(distinct))
	}
	// Views must not be empty, and online nodes remain reachable.
	for _, id := range nodes[:6] {
		if len(c.View(id)) == 0 {
			t.Errorf("node %v view emptied", id)
		}
	}
}

func TestOfflineNodeTickNoop(t *testing.T) {
	nodes := synthetic(2)
	c := boundCyclon(t, 6, 3, 5, nodes, func(i int) bool { return i == 1 })
	mustJoin(t, c, nodes[0], nodes[1])
	before := c.View(nodes[0])
	c.TickIdx(0) // host 0 offline: no-op
	after := c.View(nodes[0])
	if len(before) != len(after) {
		t.Errorf("offline tick changed view: %v -> %v", before, after)
	}
	c.TickIdx(7) // past the host table: no-op, no panic
	c.TickIdx(-1)
}

func TestEventualDiscovery(t *testing.T) {
	// The black-box property AVMEM relies on: given enough rounds, node
	// y appears in node x's view at least once.
	const n = 40
	c, nodes := newCyclonForTest(t, n, 6)
	target := nodes[n-1]
	seen := false
	for round := 0; round < 400 && !seen; round++ {
		tickAll(c, n)
		for _, peer := range c.View(nodes[0]) {
			if peer == target {
				seen = true
				break
			}
		}
	}
	if !seen {
		t.Error("target never appeared in initiator's coarse view")
	}
}

// TestMergeRejectsNeverJoinedStrays: entries for nodes that were seeded
// but never joined must not replicate through exchanges.
func TestMergeRejectsNeverJoinedStrays(t *testing.T) {
	nodes := synthetic(11)
	stray := nodes[10] // in the universe, never joined
	c := boundCyclon(t, 6, 3, 11, nodes, nil)
	for i, id := range nodes[:10] {
		mustJoin(t, c, id, nodes[(i+1)%10], nodes[(i+2)%10])
	}
	mustJoin(t, c, nodes[0], stray)
	for round := 0; round < 50; round++ {
		tickAll(c, 10)
	}
	holders := 0
	for _, id := range nodes {
		for _, peer := range c.View(id) {
			if peer == stray {
				holders++
			}
		}
	}
	// The stray may linger in the view it was seeded into until age
	// pressure evicts it, but it must never spread beyond it.
	if holders > 1 {
		t.Errorf("never-joined stray replicated into %d views", holders)
	}
}
