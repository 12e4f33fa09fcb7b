package node

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/runtime"
	"avmem/internal/shuffle"
	"avmem/internal/sim"
	"avmem/internal/trace"
)

// universeCluster deploys hostCount real nodes on a churn trace, the
// paper predicate and the trace oracle (optionally behind a noise layer, whose
// shared RNG makes the result sensitive to the order of every monitor
// query in the deployment) on the simulator's network — the way
// exp.Deployment's memnet engine does — handing every node the host-index
// universe or not. Every node's own address is memo-less, so senders
// arrive memo-less either way.
func universeCluster(t *testing.T, hostCount int, withUniverse, noisy bool) (*sim.World, []*Node) {
	t.Helper()
	tr, err := trace.Generate(trace.GenConfig{
		Hosts: hostCount, Epochs: 30, Epoch: 20 * time.Minute, Seed: 7,
		MeanSessionEpochs: 9, DiurnalAmplitude: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld(1)
	hosts := tr.HostIDs()
	online := func(h int) bool { return tr.UpAtIndex(h, w.Now()) }
	net := sim.NewNetwork(w, nil, nil, 0)
	if err := net.Bind(hosts, online); err != nil {
		t.Fatal(err)
	}
	oracle, err := avmon.NewOracle(tr, w.Now)
	if err != nil {
		t.Fatal(err)
	}
	var monitor avmon.Service = oracle
	if noisy {
		monitor, err = avmon.NewNoisy(oracle, 0.05, 10*time.Minute, w.Now, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Sized for at least 30 hosts, so that the predicate still refuses
	// some pairs in the two-node deployment.
	pred, err := core.PaperPredicate(0.1, 1, 1, max(tr.MeanOnline(), 30), avdist.Overnet(0))
	if err != nil {
		t.Fatal(err)
	}
	var universe *Universe
	if withUniverse {
		pairs, err := ids.NewPairIndexCache(hosts, 0)
		if err != nil {
			t.Fatal(err)
		}
		universe = &Universe{
			Pairs:        pairs,
			IndexOf:      tr.HostIndex,
			MonitorEpoch: func() (int, bool) { return tr.EpochAt(w.Now()), !noisy },
		}
	}
	nodes := make([]*Node, len(hosts))
	for h, id := range hosts {
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			Self: id.Addr(), Scheduler: w, Fabric: runtime.NetFabric(net), Seed: int64(h + 100),
			Online: func() bool { return online(h) },
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Self:           id,
			Predicate:      pred,
			Monitor:        monitor,
			Seeds:          []ids.NodeID{hosts[(h+1)%len(hosts)], hosts[(h+17)%len(hosts)]},
			ViewSize:       8,
			Env:            env,
			ProtocolPeriod: time.Minute,
			Seed:           int64(h + 1),
			Universe:       universe,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[h] = n
		w.After(time.Duration(h)*time.Second, func() {
			if err := n.Start(); err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return w, nodes
}

// TestUniverseDoesNotChangeDecisions: the universe is an addressing
// choice. The same 60-host deployment with and without it must hold
// identical slivers (every cached field, the admitting pair hash
// included) and identical coarse views on every node after 400 protocol
// periods of churn, epoch changes and refresh rounds — under the stable
// oracle, where indexed discovery skips judged view slots by their memo
// word, and under a noisy monitor, where it must re-query in the same
// order.
func TestUniverseDoesNotChangeDecisions(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		name := "oracle"
		if noisy {
			name = "noisy"
		}
		t.Run(name, func(t *testing.T) {
			wi, indexed := universeCluster(t, 60, true, noisy)
			wb, byID := universeCluster(t, 60, false, noisy)
			wi.Run(400 * time.Minute)
			wb.Run(400 * time.Minute)
			total, rejected := sameMemberships(t, indexed, byID)
			// The comparison is vacuous unless the predicate both admits and
			// refuses within reach of the views.
			if total == 0 || !rejected {
				t.Fatalf("degenerate deployment: %d neighbors in total, rejections seen: %v", total, rejected)
			}
		})
	}
}

// sameMemberships compares two deployments host by host — slivers with
// every cached field, and coarse views — returning the neighbor total and
// whether some node holds fewer neighbors than view entries.
func sameMemberships(t *testing.T, indexed, byID []*Node) (total int, rejected bool) {
	t.Helper()
	for h := range indexed {
		// Neighbor's unexported index memo differs by design; compare
		// what operations can read.
		ni, nb := indexed[h].Neighbors(core.HSVS), byID[h].Neighbors(core.HSVS)
		if len(ni) != len(nb) {
			t.Fatalf("host %d: %d neighbors indexed, %d by identifier", h, len(ni), len(nb))
		}
		for j := range ni {
			a, b := ni[j], nb[j]
			if a.ID != b.ID || a.Availability != b.Availability || a.Sliver != b.Sliver ||
				a.PairHash() != b.PairHash() {
				t.Fatalf("host %d neighbor %d: %+v indexed, %+v by identifier", h, j, a, b)
			}
		}
		if vi, vb := indexed[h].CoarseView(), byID[h].CoarseView(); !slices.Equal(vi, vb) {
			t.Fatalf("host %d coarse views diverge:\n indexed    %v\n identifier %v", h, vi, vb)
		}
		total += len(ni)
		if len(ni) < len(indexed[h].CoarseView()) {
			rejected = true
		}
	}
	return total, rejected
}

// TestUniverseTwoNodes is the same comparison on the smallest deployment:
// with one peer, every tick spends the whole view on the shuffle request,
// so the partner Tick has just removed — kept on offer for the round with
// the memo word its slot had — is the only discovery candidate there ever
// is. Compared every ten periods, through the epoch changes and refresh
// rounds that evict and re-admit it.
func TestUniverseTwoNodes(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		wi, indexed := universeCluster(t, 2, true, noisy)
		wb, byID := universeCluster(t, 2, false, noisy)
		seen, changes, last := 0, 0, -1
		for at := 10 * time.Minute; at <= 400*time.Minute; at += 10 * time.Minute {
			wi.Run(at)
			wb.Run(at)
			total, _ := sameMemberships(t, indexed, byID)
			seen += total
			if total != last {
				last, changes = total, changes+1
			}
		}
		if seen == 0 || changes < 2 {
			t.Fatalf("noisy=%v: degenerate pair: %d neighbors seen over the run, %d changes", noisy, seen, changes)
		}
	}
}

// sinkFabric is a message fabric that remembers only the last send.
type sinkFabric struct {
	to   ids.NodeID
	sent int
}

func (f *sinkFabric) Register(ids.Addr, runtime.Handler) error { return nil }
func (f *sinkFabric) Unregister(ids.Addr)                      {}
func (f *sinkFabric) Send(_, to ids.Addr, _ any)               { f.to, f.sent = to.ID(), f.sent+1 }
func (f *sinkFabric) SendCall(_, to ids.Addr, _ any, _ func(bool)) {
	f.to, f.sent = to.ID(), f.sent+1
}
func (f *sinkFabric) SendNack(_, to ids.Addr, _ any, _ func()) {
	f.to, f.sent = to.ID(), f.sent+1
}

// replyingFabric answers every shuffle request on the spot, before Send
// returns, with an empty reply from the addressee: the fastest partner a
// real-time transport can produce.
type replyingFabric struct {
	sinkFabric
	deliver func(from ids.Addr, msg any)
}

func (f *replyingFabric) Send(from, to ids.Addr, msg any) {
	f.sinkFabric.Send(from, to, msg)
	if _, ok := msg.(*shuffle.Request); ok {
		f.deliver(to, shuffle.NewReply())
	}
}

// TestFastReplyKeepsPartnerOnOffer: inbound shuffle traffic reaches the
// agent without the node's lock, so a reply can land at any point of a
// discovery round. The partner the tick removed must be judged all the
// same — tick and verdict are one critical section of the agent, entered
// before the request leaves. In a two-node deployment the partner is the
// only candidate there is, so losing it shows as an empty sliver.
func TestFastReplyKeepsPartnerOnOffer(t *testing.T) {
	for _, withUniverse := range []bool{true, false} {
		all := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)}
		fabric := &replyingFabric{}
		env, err := runtime.NewVirtual(runtime.VirtualConfig{Self: all[0].Addr(), Scheduler: sim.NewWorld(1), Fabric: fabric, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: all[0], Predicate: acceptAll(t), Monitor: avmon.Static{all[0]: 0.5, all[1]: 0.5},
			Seeds: all[1:], ViewSize: 8, Env: env, Seed: 1,
		}
		if withUniverse {
			pairs, err := ids.NewPairIndexCache(all, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Universe = &Universe{Pairs: pairs, IndexOf: func(id ids.NodeID) int { return slices.Index(all, id) }}
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fabric.deliver = n.handleMessage
		n.DiscoverNow()
		if fabric.sent != 1 || fabric.to != all[1] {
			t.Fatalf("universe=%v: %d requests sent, last to %v; want one to %v", withUniverse, fabric.sent, fabric.to, all[1])
		}
		if hs, vs := n.SliverSizes(); hs+vs != 1 {
			t.Errorf("universe=%v: %d neighbors after a round whose reply beat the verdict, want the partner", withUniverse, hs+vs)
		}
	}
}

// TestConvergedDiscoveryTickAllocatesOnlyWhatItSends pins the discovery
// round of a node whose slivers have settled: the shuffle request and its
// entry slice — what leaves the node — and nothing else. No View() copy,
// no candidate slice, no map growth; with or without a universe. The sink
// drops every request, so none comes back to be recycled and each tick
// pays for a new one; the partner's reply is recycled by the handler that
// merges it and costs nothing once the pool is warm.
func TestConvergedDiscoveryTickAllocatesOnlyWhatItSends(t *testing.T) {
	for _, withUniverse := range []bool{true, false} {
		all := make([]ids.NodeID, 12)
		monitor := avmon.Static{}
		for i := range all {
			all[i] = ids.Synthetic(i)
			monitor[all[i]] = 0.5
		}
		fabric := &sinkFabric{}
		w := sim.NewWorld(1)
		env, err := runtime.NewVirtual(runtime.VirtualConfig{Self: all[0].Addr(), Scheduler: w, Fabric: fabric, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: all[0], Predicate: acceptAll(t), Monitor: monitor,
			Seeds: all[1:], ViewSize: 8, Env: env, Seed: 1,
		}
		if withUniverse {
			pairs, err := ids.NewPairIndexCache(all, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Universe = &Universe{Pairs: pairs, IndexOf: func(id ids.NodeID) int { return slices.Index(all, id) }}
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One round trip per tick: the partner answers with its own entry,
		// so the view the tick spent is whole again for the next one.
		tick := func() {
			n.DiscoverNow()
			reply := shuffle.NewReply()
			reply.Entries = append(reply.Entries, shuffle.Entry{ID: fabric.to})
			n.agent.HandleReply(fabric.to, reply)
		}
		for i := 0; i < 50; i++ {
			tick()
		}
		if hs, vs := n.SliverSizes(); hs+vs < 8 {
			t.Fatalf("universe=%v: node never converged: %d neighbors", withUniverse, hs+vs)
		}
		sent := fabric.sent
		if avg := testing.AllocsPerRun(100, tick); avg != 2 {
			t.Errorf("universe=%v: a converged discovery tick allocates %.2f times, want 2 (request + its entries)",
				withUniverse, avg)
		}
		if fabric.sent-sent < 100 {
			t.Fatalf("universe=%v: only %d requests left the node during the measurement", withUniverse, fabric.sent-sent)
		}
	}
}

// shuffleRoundTrip builds two unstarted nodes, a and b, on fabric (over
// w's virtual clock), each holding only the other in its view, and
// returns one round trip of their shuffle: a ticks and sends its offer,
// the clock delivers it, b answers, the clock delivers the answer. A
// two-node view empties when its partner leaves it, so the round ends by
// seeding b back in, which allocates nothing.
func shuffleRoundTrip(t *testing.T, w *sim.World, fabric runtime.Fabric) (roundTrip func(), a *Node) {
	t.Helper()
	all := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)}
	pairs, err := ids.NewPairIndexCache(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	universe := &Universe{Pairs: pairs, IndexOf: func(id ids.NodeID) int { return slices.Index(all, id) }}
	nodes := make([]*Node, len(all))
	for i, id := range all {
		env, err := runtime.NewVirtual(runtime.VirtualConfig{Self: ids.AddrAt(id, int32(i)), Scheduler: w, Fabric: fabric, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Self: id, Predicate: acceptAll(t), Monitor: avmon.Static{all[0]: 0.5, all[1]: 0.5},
			Seeds: []ids.NodeID{all[1-i]}, ViewSize: 8, Env: env, Seed: int64(i + 1), Universe: universe,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Registered, not started: no periodic driver shares the clock.
		if err := n.env.Register(n.handleMessage); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	partner := all[1:]
	return func() {
		nodes[0].DiscoverNow()
		w.Run(w.Now() + time.Second)
		nodes[0].agent.Seed(partner)
	}, nodes[0]
}

// TestShuffleRoundTripAllocatesOnlyWhatItSends pins what real nodes cost
// on the simulator's own network: once the message pools are warm, a
// shuffle round trip allocates nothing — each message is recycled by the
// handler that merges it, and each delivery is a value event in the
// queue's slab, not a closure.
func TestShuffleRoundTripAllocatesOnlyWhatItSends(t *testing.T) {
	w := sim.NewWorld(1)
	net := virtualNet(t, w, []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)})
	roundTrip, a := shuffleRoundTrip(t, w, runtime.NetFabric(net))
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	if hs, vs := a.SliverSizes(); hs+vs != 1 {
		t.Fatalf("the initiator holds %d neighbors, want its partner", hs+vs)
	}
	// Under the race detector the pools drop recycled messages at random,
	// so only the round trips themselves are checked there.
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 && !raceEnabled {
		t.Errorf("a round trip on the simulated network allocates %.2f times, want 0", got)
	}
	if s := net.Stats(); s.Delivered != s.Sent || s.Sent < 300 {
		t.Fatalf("network delivered %d of %d messages, want every one of at least 300", s.Delivered, s.Sent)
	}
}

// TestStoppedNodeIgnoresDiscoveryAndCallbacks pins Stop's promise: once a
// node is stopped, DiscoverNow sends nothing and every gated callback —
// a timer armed before Stop, or one handed to the gate afterwards — is
// dropped unrun.
func TestStoppedNodeIgnoresDiscoveryAndCallbacks(t *testing.T) {
	all := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1), ids.Synthetic(2), ids.Synthetic(3)}
	fabric := &sinkFabric{}
	w := sim.NewWorld(1)
	env, err := runtime.NewVirtual(runtime.VirtualConfig{Self: all[0].Addr(), Scheduler: w, Fabric: fabric, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Self: all[0], Predicate: acceptAll(t), Monitor: avmon.Static{all[0]: 0.5, all[1]: 0.5, all[2]: 0.5, all[3]: 0.5},
		Seeds: all[1:], ViewSize: 8, Env: env, Seed: 1, ProtocolPeriod: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Now() + time.Second) // the first discovery round
	if fabric.sent != 1 {
		t.Fatalf("a started node sent %d shuffle requests in its first round, want 1", fabric.sent)
	}
	n.DiscoverNow()
	if fabric.sent != 2 {
		t.Fatalf("DiscoverNow on a running node sent %d requests in all, want 2", fabric.sent)
	}
	fired := 0
	n.env.After(time.Second, func() { fired++ })
	n.Stop()
	n.DiscoverNow()
	n.gate(func() { fired++ })
	w.Run(w.Now() + time.Hour)
	if fabric.sent != 2 {
		t.Errorf("a stopped node sent %d more requests", fabric.sent-2)
	}
	if fired != 0 {
		t.Errorf("%d gated callbacks ran on a stopped node", fired)
	}
}

// TestDroppedShuffleRoundAllocatesNothing: a request sent to a partner
// that is offline when it arrives is lost, as CYCLON expects — and the
// network that drops it gives it back to its pool, so once the pools are
// warm such a round allocates nothing either.
func TestDroppedShuffleRoundAllocatesNothing(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, nil, nil, 0)
	if err := net.Bind([]ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)}, func(i int) bool { return i == 0 }); err != nil {
		t.Fatal(err)
	}
	round, _ := shuffleRoundTrip(t, w, runtime.NetFabric(net))
	for i := 0; i < 50; i++ {
		round()
	}
	// Under the race detector the pools drop recycled messages at random,
	// so only the rounds themselves are checked there.
	if got := testing.AllocsPerRun(100, round); got != 0 && !raceEnabled {
		t.Errorf("a round whose request is dropped at an offline partner allocates %.2f times, want 0", got)
	}
	if s := net.Stats(); s.Dropped != s.Sent || s.Sent < 150 {
		t.Fatalf("network dropped %d of %d requests, want every one of at least 150", s.Dropped, s.Sent)
	}
}

// TestRefusedShuffleMessageIsRecycled: a node that refuses an exchange
// message — here one with no shuffle agent to hand it to — is its last
// holder and recycles it, so the next message comes from the pool.
func TestRefusedShuffleMessageIsRecycled(t *testing.T) {
	all := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)}
	env, err := runtime.NewVirtual(runtime.VirtualConfig{Self: all[0].Addr(), Scheduler: sim.NewWorld(1), Fabric: &sinkFabric{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Self: all[0], Predicate: acceptAll(t), Monitor: avmon.Static{all[0]: 0.5, all[1]: 0.5},
		Peers: PeerFunc(func(ids.NodeID) []ids.NodeID { return all[1:] }), Env: env, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	from := all[1].Addr()
	refuse := func() {
		req := shuffle.NewRequest()
		req.Entries = append(req.Entries, shuffle.Entry{ID: all[1]})
		n.handleMessage(from, req)
		reply := shuffle.NewReply()
		reply.Entries = append(reply.Entries, shuffle.Entry{ID: all[1]})
		n.handleMessage(from, reply)
	}
	refuse()
	if got := testing.AllocsPerRun(100, refuse); got != 0 && !raceEnabled {
		t.Errorf("refusing a warm request and reply allocates %.2f times, want 0", got)
	}
}

// TestOfflineRoundsDoNothing is why an Env may skip an offline node's
// periodic runs outright (runtime.Env.Every): a discovery round of an
// offline node returns before anything else, its PeerSource fetch
// included, and so does a refresh — no fetch, no send, no membership
// change, no claim cached — whether the Env skips the run or makes it.
func TestOfflineRoundsDoNothing(t *testing.T) {
	all := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1), ids.Synthetic(2)}
	up, fetches := false, 0
	peers := PeerFunc(func(ids.NodeID) []ids.NodeID { fetches++; return all[1:] })
	for _, seeds := range []bool{false, true} {
		fabric := &sinkFabric{}
		w := sim.NewWorld(1)
		env, err := runtime.NewVirtual(runtime.VirtualConfig{Self: all[0].Addr(), Scheduler: w, Fabric: fabric, Online: func() bool { return up }, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: all[0], Predicate: acceptAll(t), Monitor: avmon.Static{all[0]: 0.5, all[1]: 0.5, all[2]: 0.5},
			Env: env, Seed: 1, ProtocolPeriod: time.Minute, RefreshPeriod: time.Minute,
		}
		if seeds {
			cfg.Seeds = all[1:]
		} else {
			cfg.Peers = peers
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refresh := func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.refreshTick()
		}
		up, fetches = false, 0
		w.Run(time.Hour)
		n.DiscoverNow()
		refresh()
		if hs, vs := n.SliverSizes(); fetches != 0 || fabric.sent != 0 || hs+vs != 0 || n.claimAt.Load() != 0 {
			t.Fatalf("seeds=%v: offline rounds fetched %d times, sent %d, admitted %d, cached a claim at %v",
				seeds, fetches, fabric.sent, hs+vs, time.Duration(n.claimAt.Load()))
		}
		up = true
		refresh()
		n.DiscoverNow()
		if hs, vs := n.SliverSizes(); hs+vs == 0 || (seeds && fabric.sent != 1) || (!seeds && fetches != 1) || n.claimAt.Load() != int64(time.Hour) {
			t.Fatalf("seeds=%v: online rounds fetched %d times, sent %d, admitted %d", seeds, fetches, fabric.sent, hs+vs)
		}
	}
}
