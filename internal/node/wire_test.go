package node

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"avmem/internal/agg"
	"avmem/internal/audit"
	"avmem/internal/avmon"
	"avmem/internal/ids"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/transport"
)

// spyEnv reports the sender address of every message the node's handler
// was handed, once the handler is done with it.
type spyEnv struct {
	runtime.Env
	handled chan ids.Addr
}

func (e *spyEnv) Register(h runtime.Handler) error {
	return e.Env.Register(func(from ids.Addr, msg any) {
		h(from, msg)
		e.handled <- from
	})
}

// TestWireSenderReachesNodeMemoLess sends a node a message over real TCP
// from a live Env, to a target address that carries a memo. The wire has
// no room for one: the node's handler is handed a memo-less sender, and
// its auditor — which knows the host universe — resolves that sender by
// identifier to the same record a memo'd address names. Nobody is
// interned, nothing is keyed by a number a peer sent.
func TestWireSenderReachesNodeMemoLess(t *testing.T) {
	tr := NewTCPForTest(t)
	defer tr.Close()
	hosts := freeLoopbackAddrs(t, 2)
	pairs, err := ids.NewPairIndexCache(hosts, 0)
	if err != nil {
		t.Fatal(err)
	}
	indexOf := func(id ids.NodeID) int {
		for i, h := range hosts {
			if h == id {
				return i
			}
		}
		return -1
	}
	live, err := runtime.NewLive(runtime.LiveConfig{Self: hosts[0], Transport: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyEnv{Env: live, handled: make(chan ids.Addr, 4)} // more than the test sends
	reg := obs.NewRegistry()
	n, err := New(Config{
		Self:      hosts[0],
		Predicate: acceptAll(t),
		Monitor:   avmon.Static{hosts[0]: 0.5, hosts[1]: 0.3},
		Seeds:     hosts[1:],
		Env:       spy,
		Audit:     &audit.Params{ClaimWarmup: time.Nanosecond},
		AuditObs:  audit.NewInstruments(reg),
		Universe:  &Universe{Pairs: pairs, IndexOf: indexOf},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	// The sender: a live Env over the same transport, handed the target
	// with its memo.
	sender, err := runtime.NewLive(runtime.LiveConfig{Self: hosts[1], Transport: tr, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(chan bool, 1)
	// An availability claim 0.6 above the monitor's estimate: hard evidence.
	sender.SendCall(ids.AddrAt(hosts[0], 0), ops.AnycastMsg{ID: ops.MsgID{Origin: hosts[1], Seq: 1}, TTL: 1, SenderAvail: 0.9},
		func(ok bool) { acked <- ok })
	select {
	case ok := <-acked:
		if !ok {
			t.Fatal("the node did not acknowledge the frame")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no verdict on the send")
	}
	// TCP acknowledges before it dispatches: wait for the handler itself.
	var from ids.Addr
	select {
	case from = <-spy.handled:
	case <-time.After(3 * time.Second):
		t.Fatal("the frame was acknowledged but never dispatched")
	}
	if from.ID() != hosts[1] || from.Index() != -1 {
		t.Fatalf("the handler was handed %s with memo %d, want %s with no memo", from.ID(), from.Index(), hosts[1])
	}
	n.mu.Lock()
	byID, byMemo := n.auditor.Blocked(hosts[1].Addr()), n.auditor.Blocked(ids.AddrAt(hosts[1], 1))
	n.mu.Unlock()
	if !byID || !byMemo {
		t.Fatalf("the lying sender is blocked by identifier: %v, by memo'd address: %v; want one record behind both", byID, byMemo)
	}
	if got := reg.Counter("audit_peers_interned_total").Value(); got != 0 {
		t.Fatalf("%d peers interned: a sender of the universe was not resolved to its host index", got)
	}
}

// wireCheck is a transport that puts every message a node sends through
// the TCP wire codec first: a message that does not encode, or does not
// decode back to itself, fails the test, and what goes on to the peer is
// the decoded copy, as over TCP.
type wireCheck struct {
	transport.Transport
	t     *testing.T
	mu    sync.Mutex
	kinds map[string]bool
}

func (c *wireCheck) trip(from ids.NodeID, msg any) any {
	env, err := transport.Encode(from, msg)
	if err != nil {
		c.t.Errorf("a node sent a message the wire cannot carry: %v", err)
		return msg
	}
	back, err := transport.Decode(env)
	if err != nil || !reflect.DeepEqual(back, msg) {
		c.t.Errorf("%s does not survive the wire: sent %+v, received %+v (%v)", env.Kind, msg, back, err)
	}
	c.mu.Lock()
	c.kinds[env.Kind] = true
	c.mu.Unlock()
	return back
}

func (c *wireCheck) Send(from, to ids.NodeID, msg any) {
	c.Transport.Send(from, to, c.trip(from, msg))
}

func (c *wireCheck) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	c.Transport.SendCall(from, to, c.trip(from, msg), onResult)
}

func (c *wireCheck) seen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.kinds)
}

// TestEveryRouterMessageCrossesTheWire runs every operation family — and
// the shuffle that fills the coarse views — between live nodes whose
// every message round-trips the TCP codec, until all eight kinds the wire
// defines have crossed it.
func TestEveryRouterMessageCrossesTheWire(t *testing.T) {
	tr := &wireCheck{Transport: transport.NewMemnet(transport.MemnetConfig{}), t: t, kinds: map[string]bool{}}
	defer tr.Close()
	avails := []float64{0.9, 0.88, 0.5, 0.3}
	monitor := avmon.Static{}
	all := make([]ids.NodeID, len(avails))
	for i, av := range avails {
		all[i] = ids.Synthetic(i)
		monitor[all[i]] = av
	}
	var nodes []*Node
	for i, id := range all {
		n, err := New(Config{
			Self:           id,
			Predicate:      acceptAll(t),
			Monitor:        monitor,
			Seeds:          []ids.NodeID{all[(i+1)%len(all)], all[(i+2)%len(all)]},
			ViewSize:       4,
			Transport:      tr,
			ProtocolPeriod: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	waitFor(t, "discovery", func() bool { hs, vs := nodes[0].SliverSizes(); return hs+vs == len(all)-1 })

	origin := nodes[0]
	mid, err := ops.Range(0.45, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	initiate := []func() (ops.MsgID, error){
		func() (ops.MsgID, error) { return origin.Anycast(mid, ops.DefaultAnycastOptions()) },
		func() (ops.MsgID, error) {
			high, _ := ops.Range(0.85, 0.95)
			return origin.Multicast(high, ops.DefaultMulticastOptions())
		},
		func() (ops.MsgID, error) {
			opts := ops.DefaultMulticastOptions()
			opts.HalfOpen, opts.Payload = true, "payload"
			return origin.Multicast(ops.Target{Lo: 0.85, Hi: 1}, opts)
		},
		func() (ops.MsgID, error) { return origin.Aggregate(agg.Count, 0.2, 1, ops.DefaultAggregateOptions()) },
		func() (ops.MsgID, error) {
			return origin.Aggregate(agg.Count, 0.45, 0.55, ops.DefaultAggregateOptions())
		},
	}
	for _, op := range initiate {
		if _, err := op(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all eight message kinds on the wire", func() bool { return tr.seen() == 8 })
}

// arrivals is a transport that remembers which message types it handed
// each registered node.
type arrivals struct {
	transport.Transport
	mu   sync.Mutex
	seen map[ids.NodeID]map[string]bool
}

func (a *arrivals) Register(self ids.NodeID, h transport.Handler) error {
	a.mu.Lock()
	a.seen[self] = map[string]bool{}
	a.mu.Unlock()
	return a.Transport.Register(self, func(from ids.NodeID, msg any) {
		a.mu.Lock()
		a.seen[self][fmt.Sprintf("%T", msg)] = true
		a.mu.Unlock()
		h(from, msg)
	})
}

func (a *arrivals) got(self ids.NodeID, typ string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seen[self][typ]
}

// TestLiveRangecastAndAggregateOverTCP: over real sockets, a range-cast
// reaches the band beyond its entry node, an aggregation tree collects
// its child's partial, and a tree rooted elsewhere returns its result to
// the origin.
func TestLiveRangecastAndAggregateOverTCP(t *testing.T) {
	tr := &arrivals{Transport: NewTCPForTest(t), seen: map[ids.NodeID]map[string]bool{}}
	defer tr.Close()
	all := freeLoopbackAddrs(t, 2)
	monitor := avmon.Static{all[0]: 0.5, all[1]: 0.9}
	peers := PeerFunc(func(self ids.NodeID) []ids.NodeID {
		if self == all[0] {
			return all[1:]
		}
		return all[:1]
	})
	var nodes []*Node
	for _, id := range all {
		n, err := New(Config{
			Self:           id,
			Predicate:      acceptAll(t),
			Monitor:        monitor,
			Peers:          peers,
			Transport:      tr,
			ProtocolPeriod: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	waitFor(t, "TCP discovery", func() bool {
		_, vs0 := nodes[0].SliverSizes()
		_, vs1 := nodes[1].SliverSizes()
		return vs0 >= 1 && vs1 >= 1
	})
	origin := nodes[0]

	// The origin lies in the band, enters it itself, and relays onward.
	opts := ops.DefaultMulticastOptions()
	opts.HalfOpen, opts.Payload = true, "payload"
	if _, err := origin.Multicast(ops.Target{Lo: 0.4, Hi: 1}, opts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the range-cast to reach the other band member", func() bool { return tr.got(all[1], "ops.MulticastMsg") })

	for _, tc := range []struct {
		lo, hi float64
		count  int
	}{
		{0.4, 1, 2},  // the origin roots the tree; its child replies over TCP
		{0.85, 1, 1}, // the peer roots the tree and returns the result over TCP
	} {
		id, err := origin.Aggregate(agg.Count, tc.lo, tc.hi, ops.DefaultAggregateOptions())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the aggregation to complete", func() bool {
			rec, ok := origin.AggregateResult(id)
			return ok && rec.Done
		})
		if rec, _ := origin.AggregateResult(id); rec.Result.N != tc.count {
			t.Errorf("count over [%v, %v) = %d, want %d", tc.lo, tc.hi, rec.Result.N, tc.count)
		}
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
