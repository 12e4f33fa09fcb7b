package ops

import (
	"reflect"
	"testing"
	"time"

	"avmem/internal/agg"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/sim"
)

// cluster is a miniature AVMEM world for router tests: a set of nodes
// with chosen availabilities, full predicate-driven membership, a
// fixed-latency network, and a shared collector.
type cluster struct {
	t       *testing.T
	world   *sim.World
	net     *sim.Network
	col     *Collector
	monitor avmon.Static
	online  map[ids.NodeID]bool
	routers map[ids.NodeID]*Router
	members map[ids.NodeID]*core.Membership
	nodes   []ids.NodeID
}

const testHop = 10 * time.Millisecond

// testEnv adapts the test cluster's world + network to Env (the
// production bindings live in internal/runtime, which this package
// cannot import without a cycle).
type testEnv struct {
	world  *sim.World
	net    *sim.Network
	self   ids.NodeID
	online func() bool
}

var _ Env = (*testEnv)(nil)

func newTestEnv(world *sim.World, net *sim.Network, self ids.NodeID, online func() bool) *testEnv {
	if online == nil {
		online = func() bool { return true }
	}
	return &testEnv{world: world, net: net, self: self, online: online}
}

func (e *testEnv) Now() time.Duration               { return e.world.Now() }
func (e *testEnv) After(d time.Duration, fn func()) { e.world.After(d, fn) }
func (e *testEnv) RandFloat() float64               { return e.world.Rand().Float64() }
func (e *testEnv) Send(to ids.Addr, msg any)        { e.net.SendAddr(e.self.Addr(), to, msg) }
func (e *testEnv) SendCall(to ids.Addr, msg any, onResult func(ok bool)) {
	e.net.SendCallAddr(e.self.Addr(), to, msg, onResult)
}
func (e *testEnv) SendNack(to ids.Addr, msg any, onNack func()) {
	e.net.SendNackAddr(e.self.Addr(), to, msg, onNack)
}
func (e *testEnv) Online() bool { return e.online() }

// newCluster builds a cluster where node i has availability avails[i].
// The predicate decides the membership graph; every node discovers all
// others.
func newCluster(t *testing.T, pred *core.Predicate, avails []float64, verify bool) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		world:   sim.NewWorld(1),
		col:     NewCollector(),
		monitor: avmon.Static{},
		online:  make(map[ids.NodeID]bool, len(avails)),
		routers: make(map[ids.NodeID]*Router, len(avails)),
		members: make(map[ids.NodeID]*core.Membership, len(avails)),
	}
	for i, av := range avails {
		id := ids.Synthetic(i)
		c.nodes = append(c.nodes, id)
		c.monitor[id] = av
		c.online[id] = true
	}
	c.net = sim.NewNetwork(c.world, sim.FixedLatency(testHop), nil, 0)
	if err := c.net.Bind(c.nodes, func(i int) bool { return c.online[c.nodes[i]] }); err != nil {
		t.Fatal(err)
	}
	hashes := ids.NewHashCache(0)
	for _, id := range c.nodes {
		m, err := core.NewMembership(id, core.Config{
			Predicate:     pred,
			Monitor:       c.monitor,
			Hashes:        hashes,
			Clock:         c.world.Now,
			VerifyCushion: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Discover(c.nodes)
		c.members[id] = m

		self := id
		env := newTestEnv(c.world, c.net, id, func() bool { return c.online[self] })
		r, err := NewRouter(RouterConfig{
			Membership:    m,
			Env:           env,
			Collector:     c.col,
			VerifyInbound: verify,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.routers[id] = r
		if err := c.net.RegisterAddr(id.Addr(), r.HandleMessage); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (c *cluster) run() { c.world.Run(c.world.Now() + time.Minute) }

// chainPredicate accepts only horizontal pairs (|Δav| < eps), so the
// overlay is a path graph over sorted availabilities — good for
// multi-hop routing tests.
func chainPredicate(t *testing.T, eps float64) *core.Predicate {
	t.Helper()
	p, err := core.NewPredicate(eps, core.ConstantHorizontal{Fraction: 1}, core.UniformRandom{P: 0})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fullPredicate accepts every pair.
func fullPredicate(t *testing.T) *core.Predicate {
	t.Helper()
	p, err := core.NewPredicate(0.1, core.ConstantHorizontal{Fraction: 1}, core.UniformRandom{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRouterValidation(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5}, false)
	m := c.members[c.nodes[0]]
	env := newTestEnv(c.world, c.net, c.nodes[0], nil)
	if _, err := NewRouter(RouterConfig{Env: env, Collector: c.col}); err == nil {
		t.Error("want error for nil membership")
	}
	if _, err := NewRouter(RouterConfig{Membership: m, Collector: c.col}); err == nil {
		t.Error("want error for nil env")
	}
	if _, err := NewRouter(RouterConfig{Membership: m, Env: env}); err == nil {
		t.Error("want error for nil collector")
	}
}

func TestAnycastOptionValidation(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	r := c.routers[c.nodes[0]]
	tgt, _ := Range(0.85, 0.95)
	bad := []AnycastOptions{
		{Policy: Policy(0), Flavor: core.HSVS, TTL: 6},
		{Policy: Greedy, Flavor: core.Flavor(0), TTL: 6},
		{Policy: Greedy, Flavor: core.HSVS, TTL: 0},
		{Policy: RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 0},
	}
	for i, o := range bad {
		if _, err := r.Anycast(tgt, o); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := r.Anycast(Target{Lo: 0.5, Hi: 0.1}, DefaultAnycastOptions()); err == nil {
		t.Error("want error for invalid target")
	}
}

func TestAnycastInitiatorInRange(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.9, 0.5}, false)
	tgt, _ := Range(0.85, 0.95)
	id, err := c.routers[c.nodes[0]].Anycast(tgt, DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeDelivered || r.Hops != 0 || r.Latency != 0 {
		t.Errorf("record = %+v, want immediate delivery", r)
	}
}

func TestGreedyAnycastOneHop(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.3}, false)
	tgt, _ := Range(0.85, 0.95)
	id, err := c.routers[c.nodes[0]].Anycast(tgt, DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeDelivered {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if r.Hops != 1 {
		t.Errorf("hops = %d, want 1", r.Hops)
	}
	if r.Latency != testHop {
		t.Errorf("latency = %v, want %v", r.Latency, testHop)
	}
}

func TestGreedyAnycastMultiHopChain(t *testing.T) {
	// Path overlay 0.5–0.6–0.7–0.8–0.9; target reachable only by
	// walking the chain.
	avails := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	c := newCluster(t, chainPredicate(t, 0.15), avails, false)
	tgt, _ := Range(0.88, 0.92)
	id, err := c.routers[c.nodes[0]].Anycast(tgt, DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeDelivered {
		t.Fatalf("outcome = %v, want delivered", r.Outcome)
	}
	if r.Hops != 4 {
		t.Errorf("hops = %d, want 4", r.Hops)
	}
	if r.Latency != 4*testHop {
		t.Errorf("latency = %v, want %v", r.Latency, 4*testHop)
	}
}

func TestAnycastTTLExpires(t *testing.T) {
	avails := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	c := newCluster(t, chainPredicate(t, 0.15), avails, false)
	tgt, _ := Range(0.88, 0.92)
	opts := DefaultAnycastOptions()
	opts.TTL = 2 // needs 4 hops
	id, err := c.routers[c.nodes[0]].Anycast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeTTLExpired {
		t.Errorf("outcome = %v, want ttl-expired", r.Outcome)
	}
}

func TestAnycastNoCandidates(t *testing.T) {
	// A single isolated node outside the target has no next hop.
	c := newCluster(t, fullPredicate(t), []float64{0.5}, false)
	tgt, _ := Range(0.85, 0.95)
	id, err := c.routers[c.nodes[0]].Anycast(tgt, DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeRetryExpired {
		t.Errorf("outcome = %v, want retry-expired (no candidates)", r.Outcome)
	}
}

func TestGreedyFailsOverOnOfflineNextHop(t *testing.T) {
	// Transport failure is observable (a connect to a dead host fails),
	// so plain greedy fails over: with the best candidate offline, the
	// message reaches the second in-range candidate.
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.92}, false)
	c.online[c.nodes[1]] = false
	tgt, _ := Range(0.85, 0.95)
	id, err := c.routers[c.nodes[0]].Anycast(tgt, DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeDelivered {
		t.Fatalf("outcome = %v, want delivered via failover", r.Outcome)
	}
	if r.Latency <= testHop {
		t.Errorf("latency = %v, should include the failed attempt", r.Latency)
	}
}

func TestGreedyExhaustsCandidates(t *testing.T) {
	// With every candidate offline, greedy fails over until the list is
	// exhausted and the operation fails explicitly.
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	c.online[c.nodes[1]] = false
	tgt, _ := Range(0.85, 0.95)
	id, err := c.routers[c.nodes[0]].Anycast(tgt, DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeRetryExpired {
		t.Errorf("outcome = %v, want retry-expired after exhausting candidates", r.Outcome)
	}
}

func TestRetriedGreedyFailsOver(t *testing.T) {
	// Two in-range candidates; the greedy-preferred one (closest, then
	// lowest ID — node 1) is offline, so the retry moves to node 2.
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.9}, false)
	c.online[c.nodes[1]] = false
	tgt, _ := Range(0.85, 0.95)
	opts := AnycastOptions{Policy: RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 4}
	id, err := c.routers[c.nodes[0]].Anycast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeDelivered {
		t.Fatalf("outcome = %v, want delivered via failover", r.Outcome)
	}
	if r.Hops != 1 {
		t.Errorf("hops = %d, want 1", r.Hops)
	}
	// Latency must include the failed attempt's ack timeout (160ms
	// default) plus the successful hop.
	if r.Latency <= testHop {
		t.Errorf("latency = %v, should include failure detection", r.Latency)
	}
}

func TestRetriedGreedyBudgetExhausts(t *testing.T) {
	// All candidates offline: budget burns out → retry-expired.
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.9, 0.9}, false)
	for _, id := range c.nodes[1:] {
		c.online[id] = false
	}
	tgt, _ := Range(0.85, 0.95)
	opts := AnycastOptions{Policy: RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 2}
	id, err := c.routers[c.nodes[0]].Anycast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome != OutcomeRetryExpired {
		t.Errorf("outcome = %v, want retry-expired", r.Outcome)
	}
}

func TestAnnealingDelivers(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.2, 0.7}, false)
	tgt, _ := Range(0.85, 0.95)
	opts := AnycastOptions{Policy: Annealing, Flavor: core.HSVS, TTL: 6}
	delivered := 0
	for i := 0; i < 20; i++ {
		id, err := c.routers[c.nodes[0]].Anycast(tgt, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.run()
		if r, _ := c.col.Anycast(id); r.Outcome == OutcomeDelivered {
			delivered++
		}
	}
	// Annealing may take random detours but with TTL 6 and an in-range
	// direct neighbor it should deliver most of the time.
	if delivered < 15 {
		t.Errorf("annealing delivered %d/20", delivered)
	}
}

func TestFlavorRestrictsNeighborUse(t *testing.T) {
	// Initiator 0.5; in-range node 0.9 is a vertical neighbor. HS-only
	// forwarding cannot use it.
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	tgt, _ := Range(0.85, 0.95)
	opts := AnycastOptions{Policy: Greedy, Flavor: core.HSOnly, TTL: 6}
	id, err := c.routers[c.nodes[0]].Anycast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Anycast(id)
	if r.Outcome == OutcomeDelivered {
		t.Error("HS-only anycast used a vertical neighbor")
	}
}

func TestMulticastFloodFullCoverage(t *testing.T) {
	// Nodes 1..4 in range; initiator 0 outside. Flood must reach all.
	avails := []float64{0.5, 0.86, 0.88, 0.9, 0.92, 0.3}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	opts := DefaultMulticastOptions()
	opts.Eligible = 4
	id, err := c.routers[c.nodes[0]].Multicast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Multicast(id)
	if !r.EnteredRange {
		t.Fatal("multicast never entered the range")
	}
	if got := r.Reliability(); got != 1.0 {
		t.Errorf("reliability = %v, want 1.0", got)
	}
	if r.Spam != 0 {
		t.Errorf("spam = %d, want 0", r.Spam)
	}
	if r.WorstLatency() <= 0 {
		t.Error("worst latency not recorded")
	}
}

func TestMulticastInitiatorInsideRange(t *testing.T) {
	avails := []float64{0.9, 0.88, 0.86}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	opts := DefaultMulticastOptions()
	opts.Eligible = 3
	id, err := c.routers[c.nodes[0]].Multicast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Multicast(id)
	if !r.EnteredRange || r.Reliability() != 1.0 {
		t.Errorf("entered=%v reliability=%v", r.EnteredRange, r.Reliability())
	}
}

func TestMulticastSpamOnStaleCache(t *testing.T) {
	// Node 1's availability dropped out of range, but the other nodes
	// still cache the old in-range value → node 1 receives spam.
	avails := []float64{0.9, 0.88, 0.86}
	c := newCluster(t, fullPredicate(t), avails, false)
	c.monitor[c.nodes[1]] = 0.5     // world changed
	c.members[c.nodes[1]].Refresh() // node 1 refreshes its own view
	// Nodes 0 and 2 did NOT refresh: their cached entry for node 1 is
	// stale (0.88, in range).
	tgt, _ := Range(0.85, 0.95)
	opts := DefaultMulticastOptions()
	opts.Eligible = 2 // truly in range: nodes 0 and 2
	id, err := c.routers[c.nodes[0]].Multicast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	r, _ := c.col.Multicast(id)
	if r.Spam != 1 {
		t.Errorf("spam = %d, want 1 (stale-cached node 1)", r.Spam)
	}
	if got := r.Reliability(); got != 1.0 {
		t.Errorf("reliability = %v, want 1.0", got)
	}
}

func TestMulticastGossipCoverageAndTermination(t *testing.T) {
	// 8 in-range nodes, fully connected; gossip fanout 3 × 3 rounds.
	avails := []float64{0.86, 0.87, 0.88, 0.89, 0.9, 0.91, 0.92, 0.93}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	opts := MulticastOptions{
		Anycast:       DefaultAnycastOptions(),
		MulticastSpec: MulticastSpec{Mode: Gossip, Flavor: core.HSVS, Fanout: 3, Rounds: 3, Period: time.Second},
		Eligible:      8,
	}
	id, err := c.routers[c.nodes[0]].Multicast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Gossip runs over multiple periods: run long enough, then verify
	// the event queue drains (termination).
	c.world.Run(c.world.Now() + time.Minute)
	if c.world.Pending() != 0 {
		t.Errorf("gossip left %d events pending after a minute", c.world.Pending())
	}
	r, _ := c.col.Multicast(id)
	if got := r.Reliability(); got < 0.99 {
		t.Errorf("gossip reliability = %v, want full coverage in a clique", got)
	}
	// Worst latency spans at least one gossip period (multi-round).
	if r.WorstLatency() < time.Second && len(r.Delivered) > 4 {
		t.Logf("note: gossip finished within one period: %v", r.WorstLatency())
	}
}

func TestMulticastGossipRespectsFanout(t *testing.T) {
	// Star-of-clique check at the message level: with fanout 2 and 1
	// round, the initiator gossips to exactly 2 of its 4 in-range
	// neighbors (plus duplicates suppressed).
	avails := []float64{0.9, 0.86, 0.87, 0.88, 0.89}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	opts := MulticastOptions{
		Anycast:       DefaultAnycastOptions(),
		MulticastSpec: MulticastSpec{Mode: Gossip, Flavor: core.HSVS, Fanout: 2, Rounds: 1, Period: time.Second},
		Eligible:      5,
	}
	id, err := c.routers[c.nodes[0]].Multicast(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.world.Run(c.world.Now() + time.Minute)
	r, _ := c.col.Multicast(id)
	// Initiator + its 2 targets each gossip to 2 more: coverage can
	// reach everyone, but never less than initiator + 2.
	if len(r.Delivered) < 3 {
		t.Errorf("delivered = %d, want >= 3", len(r.Delivered))
	}
	if c.world.Pending() != 0 {
		t.Error("gossip did not terminate")
	}
}

func TestMulticastValidation(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5}, false)
	r := c.routers[c.nodes[0]]
	tgt, _ := Range(0.85, 0.95)
	bad := DefaultMulticastOptions()
	bad.Mode = Gossip // fanout/rounds/period missing
	if _, err := r.Multicast(tgt, bad); err == nil {
		t.Error("want error for gossip without parameters")
	}
	bad2 := DefaultMulticastOptions()
	bad2.Mode = Mode(0)
	if _, err := r.Multicast(tgt, bad2); err == nil {
		t.Error("want error for invalid mode")
	}
	bad3 := DefaultMulticastOptions()
	bad3.Flavor = core.Flavor(0)
	if _, err := r.Multicast(tgt, bad3); err == nil {
		t.Error("want error for invalid flavor")
	}
}

func TestVerifyInboundRejectsNonNeighborSender(t *testing.T) {
	// Reject-all predicate: no node is anyone's neighbor, so any direct
	// send must be rejected by the verifying receiver.
	p, err := core.NewPredicate(0.1, core.ConstantHorizontal{Fraction: 0}, core.UniformRandom{P: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, p, []float64{0.5, 0.9}, true)
	tgt, _ := Range(0.85, 0.95)
	attacker, victim := c.nodes[0], c.nodes[1]
	msg := AnycastMsg{ID: MsgID{Origin: attacker, Seq: 1}, Target: tgt, AnycastOptions: DefaultAnycastOptions()}
	c.col.StartAnycast(msg.ID, tgt)
	c.net.Send(attacker, victim, msg)
	c.run()
	if got := c.routers[victim].stats.RejectedInNeighbor; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	r, _ := c.col.Anycast(msg.ID)
	if r.Outcome == OutcomeDelivered {
		t.Error("flooded message was accepted")
	}
}

func TestUnknownPayloadIgnored(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9}, false)
	c.net.Send(c.nodes[0], c.nodes[1], "garbage")
	c.run() // must not panic
}

func TestDuplicateMulticastIgnored(t *testing.T) {
	avails := []float64{0.9, 0.88}
	c := newCluster(t, fullPredicate(t), avails, false)
	tgt, _ := Range(0.85, 0.95)
	id := MsgID{Origin: c.nodes[0], Seq: 99}
	c.col.StartMulticast(id, tgt, false, 2, 0)
	m := MulticastMsg{ID: id, Target: tgt, Spec: MulticastSpec{Mode: Flood, Flavor: core.HSVS}}
	c.net.Send(c.nodes[0], c.nodes[1], m)
	c.net.Send(c.nodes[0], c.nodes[1], m)
	c.run()
	r, _ := c.col.Multicast(id)
	if len(r.Delivered) != 2 { // node1 once + node0 via flood-back
		t.Errorf("delivered set = %v", r.Delivered)
	}
}

// heldEnv keeps what the router sends, acknowledged or not, instead of
// delivering it.
type heldEnv struct {
	testEnv
	sent []any
}

func (e *heldEnv) Send(_ ids.Addr, msg any)               { e.sent = append(e.sent, msg) }
func (e *heldEnv) SendNack(_ ids.Addr, msg any, _ func()) { e.sent = append(e.sent, msg) }

// TestLateDuplicateJoinsNoTree: which copies of a tree's request join it
// is the router's seen set, the one duplicate-suppression set of floods
// and trees alike. A member that has concluded declines a late copy, and
// an entry anycast that a retry brings to the same node twice roots the
// tree once — whether or not the first tree is still open.
func TestLateDuplicateJoinsNoTree(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.55}, false)
	self, parent := c.nodes[0], c.nodes[1]
	env := &heldEnv{testEnv: *newTestEnv(c.world, c.net, self, nil)}
	r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col})
	if err != nil {
		t.Fatal(err)
	}
	// A member alone in its band: it joins, has no child, and concludes.
	alone := AggMsg{ID: MsgID{Origin: parent, Seq: 1}, Spec: AggregateSpec{Op: agg.Count, Band: Band{Lo: 0.4, Hi: 0.52}, Flavor: core.HSVS}, Depth: 1}
	r.handleAggRequest(parent.Addr(), alone)
	r.handleAggRequest(parent.Addr(), alone)
	if len(env.sent) != 2 || r.station.Pending() != 0 {
		t.Fatalf("a member alone in its band sent %d messages and holds %d trees, want its partial and a decline, and none", len(env.sent), r.station.Pending())
	}
	if p, ok := env.sent[0].(AggReplyMsg); !ok || p.Decline || p.Partial.N != 1 {
		t.Errorf("the member's first answer is %+v, want its partial", env.sent[0])
	}
	if d, ok := env.sent[1].(AggReplyMsg); !ok || !d.Decline || d.ID != alone.ID {
		t.Errorf("the late copy got %+v, want a decline", env.sent[1])
	}
	// A root with one child (node 2): the retried entry arrives once while
	// the tree is open and once after it concluded, and roots nothing.
	env.sent = nil
	spec := AggregateSpec{Op: agg.Count, Band: Band{Lo: 0.4, Hi: 0.6}, Flavor: core.HSVS, Token: 5}
	entry := AnycastMsg{ID: MsgID{Origin: parent, Seq: 2}, Target: spec.Band.Target(), AnycastOptions: DefaultAnycastOptions(), Aggregate: &spec}
	r.handleAnycast(parent.Addr(), entry)
	r.handleAnycast(c.nodes[2].Addr(), entry)
	if len(env.sent) != 1 || r.station.Pending() != 1 {
		t.Fatalf("two entries sent %d requests and opened %d trees, want 1 and 1", len(env.sent), r.station.Pending())
	}
	r.handleAggReply(c.nodes[2].Addr(), AggReplyMsg{ID: entry.ID, Partial: agg.Partial{N: 1, Sum: 0.55, Min: 0.55, Max: 0.55, Depth: 1}})
	r.handleAnycast(c.nodes[2].Addr(), entry)
	results := 0
	for _, m := range env.sent {
		if res, ok := m.(AggResultMsg); ok && res.ID == entry.ID && res.Result.N == 2 {
			results++
		}
	}
	if len(env.sent) != 2 || results != 1 || r.station.Pending() != 0 {
		t.Errorf("the root sent %+v and holds %d trees, want its request and one result of both members, and none", env.sent, r.station.Pending())
	}
}

// TestDisseminationOrderMatchesPairHashPath pins the child order of all
// three dissemination families on a fixed sliver: ordering by the pair
// hash the membership stored at admission must equal what ordering by
// ids.PairHash / ids.HashCache.Pair yielded (the expected orders were
// recorded on the commit before the stored hash took over), unsalted
// and under the salts of redundant trees 1 and 2.
func TestDisseminationOrderMatchesPairHashPath(t *testing.T) {
	avails := make([]float64, 24)
	for i := range avails {
		avails[i] = 0.30 + 0.02*float64(i)
	}
	c := newCluster(t, fullPredicate(t), avails, false)
	r := c.routers[c.nodes[0]]
	index := make(map[ids.NodeID]int, len(c.nodes))
	for i, id := range c.nodes {
		index[id] = i
	}
	want := [][]int{
		{20, 7, 23, 12, 19, 5, 6, 4, 18, 13, 11, 2, 14, 16, 1, 21, 17, 3, 22, 9, 15, 8, 10},
		{16, 14, 18, 23, 22, 20, 8, 11, 3, 21, 5, 2, 4, 19, 7, 9, 13, 12, 17, 6, 10, 15, 1},
		{23, 14, 21, 6, 16, 13, 1, 3, 15, 8, 18, 12, 20, 5, 10, 22, 2, 19, 9, 11, 17, 7, 4},
	}
	everyone := func(float64) bool { return true }
	for j := range want {
		var got []int
		for nb := range r.targets(core.HSVS, aggSalt(j), everyone) {
			got = append(got, index[nb.ID])
		}
		if !reflect.DeepEqual(got, want[j]) {
			t.Errorf("tree %d child order\n got %v\nwant %v", j, got, want[j])
		}
	}
}

// countingEnv is an Env that only counts acknowledged sends (SendCall
// and SendNack alike) and holds its timers until fire runs them, so a
// test can look at what the router itself allocates per forward.
type countingEnv struct {
	testEnv
	calls  int
	timers []func()
}

func (e *countingEnv) SendCall(ids.Addr, any, func(bool)) { e.calls++ }
func (e *countingEnv) SendNack(ids.Addr, any, func())     { e.calls++ }
func (e *countingEnv) After(_ time.Duration, fn func())   { e.timers = append(e.timers, fn) }

// fire runs and forgets every held timer.
func (e *countingEnv) fire() {
	for _, fn := range e.timers {
		fn()
	}
	e.timers = e.timers[:0]
}

// TestForwardAggAllocatesPerForwardNotPerChild checks the aggregation
// fan-out boxes its request once and builds no nack callback (the
// station record's serves every child): one forward allocates exactly
// once, whatever the child count.
func TestForwardAggAllocatesPerForwardNotPerChild(t *testing.T) {
	perForward := func(children int) float64 {
		avails := make([]float64, children+1)
		for i := range avails {
			avails[i] = 0.2 + 0.6*float64(i)/float64(children)
		}
		c := newCluster(t, fullPredicate(t), avails, false)
		self := c.nodes[0]
		env := &countingEnv{testEnv: *newTestEnv(c.world, c.net, self, nil)}
		r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col})
		if err != nil {
			t.Fatal(err)
		}
		spec := AggregateSpec{Op: agg.Count, Band: Band{Lo: 0, Hi: 1}, Flavor: core.HSVS}
		id := MsgID{Origin: self, Seq: 1}
		if kids := r.forwardAgg(id, spec, 0, 0, ids.Nil, func() {}); kids != children || env.calls != children {
			t.Fatalf("forwardAgg addressed %d children (%d calls), want %d", kids, env.calls, children)
		}
		return testing.AllocsPerRun(20, func() { r.forwardAgg(id, spec, 0, 0, ids.Nil, func() {}) })
	}
	few, many := perForward(4), perForward(64)
	if few != many || many != 1 {
		t.Fatalf("forwardAgg allocates %.0f times for 4 children, %.0f for 64; want 1 (its box) for both", few, many)
	}
}

// TestWarmAggJoinAllocatesOnlyItsForward: once a member's station has
// recycled records, joining a tree costs what its forward costs and
// nothing more — the record keeps the member's tree and its nack
// callback, so no per-join closure or side table is built — and a warm
// forward allocates exactly its boxed request.
func TestWarmAggJoinAllocatesOnlyItsForward(t *testing.T) {
	avails := make([]float64, 17)
	for i := range avails {
		avails[i] = 0.2 + 0.6*float64(i)/16
	}
	c := newCluster(t, fullPredicate(t), avails, false)
	self, parent := c.nodes[0], c.nodes[1]
	env := &countingEnv{testEnv: *newTestEnv(c.world, c.net, self, nil), timers: make([]func(), 0, 256)}
	r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col})
	if err != nil {
		t.Fatal(err)
	}
	spec := AggregateSpec{Op: agg.Count, Band: Band{Lo: 0, Hi: 1}, Flavor: core.HSVS}
	seq := uint64(0)
	join := func() {
		seq++
		r.handleAggRequest(parent.Addr(), AggMsg{ID: MsgID{Origin: parent, Seq: seq}, Spec: spec, Depth: 1})
	}
	// Warm the station: more trees than the measurement joins open, hear
	// from every child and reach their deadlines, so every measured join
	// reuses a record.
	for range 64 {
		before := env.calls
		join()
		for range env.calls - before {
			r.station.Decline(MsgID{Origin: parent, Seq: seq})
		}
	}
	env.fire()
	joins := testing.AllocsPerRun(20, join)
	id := MsgID{Origin: parent, Seq: 1}
	forward := testing.AllocsPerRun(20, func() { r.forwardAgg(id, spec, 1, 0, parent, func() {}) })
	if joins > forward || forward != 1 {
		t.Fatalf("a warm join allocates %.0f times, its forward %.0f; want no more than the forward, which boxes its request once", joins, forward)
	}
}

// verdictEnv answers every SendCall at once, failing every other one.
type verdictEnv struct {
	testEnv
	calls int
}

func (e *verdictEnv) SendCall(_ ids.Addr, _ any, onResult func(bool)) {
	e.calls++
	onResult(e.calls%2 == 0)
}

// TestRetriedGreedyHopAllocatesOnlyItsMessage: an anycast hop's attempt
// chain comes from the router's pool with its candidate buffer and bound
// result callback, so a warm hop allocates one box per attempt — its
// message — and nothing else, a failed attempt and its retry included.
func TestRetriedGreedyHopAllocatesOnlyItsMessage(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.2, 0.4, 0.5, 0.6, 0.7}, false)
	self := c.nodes[0]
	env := &verdictEnv{testEnv: *newTestEnv(c.world, c.net, self, nil)}
	r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col})
	if err != nil {
		t.Fatal(err)
	}
	m := AnycastMsg{ID: MsgID{Origin: self, Seq: 1}, Target: Target{Lo: 0.85, Hi: 0.95},
		AnycastOptions: AnycastOptions{Policy: RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 3}}
	hop := func() { r.forwardAnycast(c.nodes[1].Addr(), m) }
	hop() // warm the chain pool
	before := env.calls
	allocs := testing.AllocsPerRun(20, hop)
	if attempts := float64(env.calls-before) / 21; attempts != 2 || allocs != attempts {
		t.Fatalf("a warm hop of %.1f attempts allocates %.1f times, want 2 attempts and one box each", attempts, allocs)
	}
}

// gateEnv is a Binder over under: what it binds runs through a counting
// gate, and a callback handed to gateEnv itself is wrapped per call, as a
// node's gated Env does — so wrapped counts what the router failed to
// bind once.
type gateEnv struct {
	under                 Env
	binds, gated, wrapped int
}

var _ Binder = (*gateEnv)(nil)

func (e *gateEnv) Now() time.Duration               { return e.under.Now() }
func (e *gateEnv) RandFloat() float64               { return e.under.RandFloat() }
func (e *gateEnv) Online() bool                     { return e.under.Online() }
func (e *gateEnv) Send(to ids.Addr, msg any)        { e.under.Send(to, msg) }
func (e *gateEnv) Unwrapped() Env                   { return e.under }
func (e *gateEnv) After(d time.Duration, fn func()) { e.wrapped++; e.under.After(d, e.Bind(fn)) }
func (e *gateEnv) SendCall(to ids.Addr, msg any, onResult func(bool)) {
	e.wrapped++
	e.under.SendCall(to, msg, e.BindResult(onResult))
}
func (e *gateEnv) SendNack(to ids.Addr, msg any, onNack func()) {
	e.wrapped++
	e.under.SendNack(to, msg, e.Bind(onNack))
}
func (e *gateEnv) Bind(fn func()) func() {
	e.binds++
	return func() { e.gated++; fn() }
}
func (e *gateEnv) BindResult(fn func(bool)) func(bool) {
	e.binds++
	return func(ok bool) { e.gated++; fn(ok) }
}

// TestRouterBindsItsCallbacksOnce: on an Env that wraps its callbacks
// (Binder), the callbacks the router hands over many times — an anycast
// chain's result, an aggregation record's decline and deadline — are
// bound once, where they are built, and go to the Env beneath the
// wrapper: a warm hop or join binds nothing and wraps nothing, so it
// allocates what it allocates on a bare Env, yet every verdict, nack and
// deadline still runs through the gate.
func TestRouterBindsItsCallbacksOnce(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.2, 0.4, 0.5, 0.6, 0.7}, false)
	self := c.nodes[0]
	verdicts := &verdictEnv{testEnv: *newTestEnv(c.world, c.net, self, nil)}
	env := &gateEnv{under: verdicts}
	r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col})
	if err != nil {
		t.Fatal(err)
	}
	m := AnycastMsg{ID: MsgID{Origin: self, Seq: 1}, Target: Target{Lo: 0.85, Hi: 0.95},
		AnycastOptions: AnycastOptions{Policy: RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 3}}
	hop := func() { r.forwardAnycast(c.nodes[1].Addr(), m) }
	hop() // builds and binds the chain
	binds, gated, calls := env.binds, env.gated, verdicts.calls
	allocs := testing.AllocsPerRun(20, hop)
	attempts := verdicts.calls - calls
	if env.binds != binds || env.wrapped != 0 || env.gated-gated != attempts || allocs != 2 {
		t.Fatalf("warm hops: %d binds, %d per-call wraps, %d of %d verdicts gated, %.1f allocs per hop; want 0, 0, all, 2 (one box per attempt)",
			env.binds-binds, env.wrapped, env.gated-gated, attempts, allocs)
	}

	counting := &countingEnv{testEnv: *newTestEnv(c.world, c.net, self, nil), timers: make([]func(), 0, 256)}
	env = &gateEnv{under: counting}
	if r, err = NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col}); err != nil {
		t.Fatal(err)
	}
	parent := c.nodes[1]
	spec := AggregateSpec{Op: agg.Count, Band: Band{Lo: 0, Hi: 1}, Flavor: core.HSVS}
	seq, kids := uint64(0), 0
	join := func() {
		seq++
		before := counting.calls
		r.handleAggRequest(parent.Addr(), AggMsg{ID: MsgID{Origin: parent, Seq: seq}, Spec: spec, Depth: 1})
		kids = counting.calls - before
	}
	join() // builds and binds one record: its deadline and its decline
	if env.binds != 2 || kids == 0 {
		t.Fatalf("a first join bound %d callbacks and forwarded to %d children, want 2 and some", env.binds, kids)
	}
	for range 20 {
		env.gated = 0
		for range kids { // every child answers: the record will be reused
			r.station.Decline(MsgID{Origin: parent, Seq: seq})
		}
		counting.fire() // the deadline recycles the record
		if env.gated != 1 {
			t.Fatalf("a deadline ran through the gate %d times, want 1", env.gated)
		}
		join()
	}
	if env.binds != 2 || env.wrapped != 0 {
		t.Fatalf("joins that reuse a record: %d more binds, %d per-call wraps; want 0 and 0", env.binds-2, env.wrapped)
	}
}

// TestStationBuiltOnFirstAggregation: a router builds its aggregation
// station when it first opens a tree, not before. Until then a reply
// finds no record, and a request it declines builds nothing.
func TestStationBuiltOnFirstAggregation(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.5, 0.9, 0.55}, false)
	self, parent := c.nodes[0], c.nodes[1]
	env := &heldEnv{testEnv: *newTestEnv(c.world, c.net, self, nil)}
	r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: env, Collector: c.col})
	if err != nil {
		t.Fatal(err)
	}
	id := MsgID{Origin: parent, Seq: 1}
	r.handleAggReply(parent.Addr(), AggReplyMsg{ID: id, Partial: agg.Partial{N: 1, Sum: 0.9, Min: 0.9, Max: 0.9}})
	r.handleAggReply(parent.Addr(), AggReplyMsg{ID: id, Decline: true})
	if r.station != nil || len(env.sent) != 0 {
		t.Fatalf("stray replies built a station (%v) or sent %d messages", r.station != nil, len(env.sent))
	}
	out := AggMsg{ID: id, Spec: AggregateSpec{Op: agg.Count, Band: Band{Lo: 0.8, Hi: 1}, Flavor: core.HSVS}, Depth: 1}
	r.handleAggRequest(parent.Addr(), out)
	if d, ok := env.sent[0].(AggReplyMsg); r.station != nil || len(env.sent) != 1 || !ok || !d.Decline {
		t.Fatalf("an out-of-band request built a station (%v) or was answered %+v, want a decline", r.station != nil, env.sent)
	}
	in := AggMsg{ID: MsgID{Origin: parent, Seq: 2}, Spec: AggregateSpec{Op: agg.Count, Band: Band{Lo: 0.4, Hi: 0.6}, Flavor: core.HSVS}, Depth: 1}
	r.handleAggRequest(parent.Addr(), in)
	if r.station == nil || r.station.Pending() != 1 {
		t.Fatal("an in-band request opened no tree")
	}
}

// TestInterleavedTreesShareDeclineBoxes: a node that declines the copies
// of several concurrent trees in turn boxes each tree's decline once, not
// once per copy — and every box answers its own tree.
func TestInterleavedTreesShareDeclineBoxes(t *testing.T) {
	c := newCluster(t, fullPredicate(t), []float64{0.2, 0.5, 0.8}, false)
	self := c.nodes[0]
	r, err := NewRouter(RouterConfig{Membership: c.members[self], Env: newTestEnv(c.world, c.net, self, nil), Collector: c.col})
	if err != nil {
		t.Fatal(err)
	}
	trees := []MsgID{{Origin: c.nodes[1], Seq: 7}, {Origin: c.nodes[2], Seq: 8}, {Origin: c.nodes[1], Seq: 9}}
	for _, id := range trees {
		r.declineMsg(id)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, id := range trees {
			if d := r.declineMsg(id).(AggReplyMsg); d.ID != id || !d.Decline {
				t.Fatalf("decline for %v answers %+v", id, d)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("interleaved declines of %d trees allocate %.0f times per round, want 0", len(trees), allocs)
	}
}
