package node

import (
	"net"
	"testing"
	"time"

	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/transport"
)

// liveCluster spins up n live nodes over a wall-clock memnet with
// the given availabilities, an accept-all predicate (deterministic
// topology), and a static monitor. A non-nil col is shared by every node.
func liveCluster(t *testing.T, avails []float64, pred *core.Predicate, col *ops.Collector) ([]*Node, func()) {
	t.Helper()
	tr := transport.NewMemnet(transport.MemnetConfig{})
	monitor := avmon.Static{}
	idsList := make([]ids.NodeID, len(avails))
	for i, av := range avails {
		idsList[i] = ids.Synthetic(i)
		monitor[idsList[i]] = av
	}
	peers := PeerFunc(func(self ids.NodeID) []ids.NodeID {
		out := make([]ids.NodeID, 0, len(idsList)-1)
		for _, id := range idsList {
			if id != self {
				out = append(out, id)
			}
		}
		return out
	})
	nodes := make([]*Node, 0, len(avails))
	for _, id := range idsList {
		n, err := New(Config{
			Self:           id,
			Predicate:      pred,
			Monitor:        monitor,
			Peers:          peers,
			Transport:      tr,
			ProtocolPeriod: 50 * time.Millisecond,
			RefreshPeriod:  time.Second,
			Collector:      col,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	cleanup := func() {
		for _, n := range nodes {
			n.Stop()
		}
		tr.Close()
	}
	return nodes, cleanup
}

func acceptAll(t *testing.T) *core.Predicate {
	t.Helper()
	p, err := core.NewPredicate(0.1, core.ConstantHorizontal{Fraction: 1}, core.UniformRandom{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	pred := acceptAll(t)
	tr := transport.NewMemnet(transport.MemnetConfig{})
	defer tr.Close()
	mon := avmon.Static{"a": 0.5}
	peers := PeerFunc(func(ids.NodeID) []ids.NodeID { return nil })
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no self", Config{Predicate: pred, Monitor: mon, Peers: peers, Transport: tr}},
		{"no predicate", Config{Self: "a", Monitor: mon, Peers: peers, Transport: tr}},
		{"no monitor", Config{Self: "a", Predicate: pred, Peers: peers, Transport: tr}},
		{"no peers", Config{Self: "a", Predicate: pred, Monitor: mon, Transport: tr}},
		{"no transport", Config{Self: "a", Predicate: pred, Monitor: mon, Peers: peers}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestStartStopLifecycle(t *testing.T) {
	nodes, cleanup := liveCluster(t, []float64{0.5}, acceptAll(t), nil)
	defer cleanup()
	if err := nodes[0].Start(); err == nil {
		t.Error("want error for double start")
	}
	nodes[0].Stop()
	nodes[0].Stop() // idempotent
}

func TestLiveDiscoveryBuildsSlivers(t *testing.T) {
	nodes, cleanup := liveCluster(t, []float64{0.5, 0.55, 0.9}, acceptAll(t), nil)
	defer cleanup()
	deadline := time.After(3 * time.Second)
	for {
		hs, vs := nodes[0].SliverSizes()
		if hs >= 1 && vs >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("slivers never formed: hs=%d vs=%d", hs, vs)
		case <-time.After(10 * time.Millisecond):
		}
	}
	nbs := nodes[0].Neighbors(core.HSVS)
	if len(nbs) != 2 {
		t.Errorf("neighbors = %v, want 2", nbs)
	}
}

func TestLiveAnycastDelivers(t *testing.T) {
	nodes, cleanup := liveCluster(t, []float64{0.5, 0.9}, acceptAll(t), nil)
	defer cleanup()
	// Wait for discovery.
	deadline := time.After(3 * time.Second)
	for {
		if _, vs := nodes[0].SliverSizes(); vs >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("discovery never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	target, err := ops.Range(0.85, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	id, err := nodes[0].Anycast(target, ops.DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.After(3 * time.Second)
	for {
		rec, ok := nodes[0].AnycastResult(id)
		if ok && rec.Outcome == ops.OutcomeDelivered {
			if rec.Hops != 1 {
				t.Errorf("hops = %d, want 1", rec.Hops)
			}
			return
		}
		select {
		case <-deadline:
			rec, _ := nodes[0].AnycastResult(id)
			t.Fatalf("anycast never delivered: %+v", rec)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestLiveMulticastReachesInitiatorRange(t *testing.T) {
	nodes, cleanup := liveCluster(t, []float64{0.9, 0.88, 0.86, 0.3}, acceptAll(t), nil)
	defer cleanup()
	deadline := time.After(3 * time.Second)
	for {
		if hs, vs := nodes[0].SliverSizes(); hs+vs >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("discovery never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	target, err := ops.Range(0.85, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	opts := ops.DefaultMulticastOptions()
	opts.Eligible = 3
	id, err := nodes[0].Multicast(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The initiator's own collector sees at least its own delivery.
	deadline = time.After(3 * time.Second)
	for {
		rec, ok := nodes[0].MulticastResult(id)
		if ok && rec.EnteredRange && len(rec.Delivered) >= 1 {
			return
		}
		select {
		case <-deadline:
			rec, _ := nodes[0].MulticastResult(id)
			t.Fatalf("multicast made no progress: %+v", rec)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestSharedCollectorResultsDoNotRace: live nodes that share one
// collector report into it from their own goroutines. One node
// multicasts while another polls the record through its own result
// accessor, walking the Delivered map as deliveries land; run under
// -race, the poll must never read memory a handler is writing.
func TestSharedCollectorResultsDoNotRace(t *testing.T) {
	avails := []float64{0.9, 0.88, 0.86, 0.87}
	nodes, cleanup := liveCluster(t, avails, acceptAll(t), ops.NewCollector())
	defer cleanup()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if hs, vs := nodes[0].SliverSizes(); hs+vs >= len(avails)-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("discovery never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	target, err := ops.Range(0.85, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	opts := ops.DefaultMulticastOptions()
	opts.Eligible = len(avails)
	for round := 0; round < 5; round++ {
		id, err := nodes[0].Multicast(target, opts)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for {
			rec, ok := nodes[1].MulticastResult(id)
			seen := 0
			for range rec.Delivered {
				seen++
			}
			if ok && seen == len(avails) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: multicast reached %d of %d nodes", round, seen, len(avails))
			}
		}
	}
}

func TestLiveNodeOverTCP(t *testing.T) {
	tr := NewTCPForTest(t)
	defer tr.Close()
	all := freeLoopbackAddrs(t, 2)
	monitor := avmon.Static{all[0]: 0.5, all[1]: 0.9}
	peers := PeerFunc(func(self ids.NodeID) []ids.NodeID {
		out := make([]ids.NodeID, 0, 1)
		for _, id := range all {
			if id != self {
				out = append(out, id)
			}
		}
		return out
	})
	pred := acceptAll(t)
	var nodes []*Node
	for _, id := range all {
		n, err := New(Config{
			Self:           id,
			Predicate:      pred,
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
	deadline := time.After(5 * time.Second)
	for {
		if _, vs := nodes[0].SliverSizes(); vs >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("TCP discovery never completed")
		case <-time.After(20 * time.Millisecond):
		}
	}
	target, err := ops.Range(0.85, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	id, err := nodes[0].Anycast(target, ops.DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.After(5 * time.Second)
	for {
		rec, ok := nodes[0].AnycastResult(id)
		if ok && rec.Outcome == ops.OutcomeDelivered {
			return
		}
		select {
		case <-deadline:
			rec, _ := nodes[0].AnycastResult(id)
			t.Fatalf("TCP anycast never delivered: %+v", rec)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// NewTCPForTest builds a TCP transport with short timeouts.
func NewTCPForTest(t *testing.T) transport.Transport {
	t.Helper()
	return transport.NewTCP(500*time.Millisecond, 2*time.Second)
}

// freeLoopbackAddrs returns n distinct loopback addresses on ports the
// kernel has just reported free: each listens on port 0 and reads the
// port, and all close once every port is read. A fixed port inside the
// ephemeral range (32768–60999 on Linux) can be held at any time by an
// outbound connection's local end.
func freeLoopbackAddrs(t *testing.T, n int) []ids.NodeID {
	t.Helper()
	addrs := make([]ids.NodeID, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("no free loopback port: %v", err)
		}
		defer l.Close()
		addrs[i] = ids.NodeID(l.Addr().String())
	}
	return addrs
}

func TestLiveSeedsModeShuffleDiscovery(t *testing.T) {
	// Seeds mode: no external PeerSource — nodes bootstrap from a few
	// seeds and fill their coarse views through live CYCLON exchanges.
	tr := transport.NewMemnet(transport.MemnetConfig{})
	defer tr.Close()
	const n = 12
	monitor := avmon.Static{}
	all := make([]ids.NodeID, n)
	for i := range all {
		all[i] = ids.Synthetic(i)
		monitor[all[i]] = 0.1 + 0.8*float64(i)/float64(n)
	}
	pred := acceptAll(t)
	nodes := make([]*Node, 0, n)
	for i, id := range all {
		nd, err := New(Config{
			Self:           id,
			Predicate:      pred,
			Monitor:        monitor,
			Seeds:          []ids.NodeID{all[(i+1)%n], all[(i+2)%n]},
			ViewSize:       8,
			Transport:      tr,
			ProtocolPeriod: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		defer nd.Stop()
		nodes = append(nodes, nd)
	}
	// Wait until node 0 knows more peers than its 2 seeds and has
	// formed slivers from its coarse view.
	deadline := time.After(5 * time.Second)
	for {
		view := nodes[0].CoarseView()
		hs, vs := nodes[0].SliverSizes()
		if len(view) > 2 && hs+vs >= 3 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("seeds-mode discovery stalled: view=%d hs=%d vs=%d", len(view), hs, vs)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestNewSeedsAndPeersMutuallyExclusive(t *testing.T) {
	tr := transport.NewMemnet(transport.MemnetConfig{})
	defer tr.Close()
	pred := acceptAll(t)
	mon := avmon.Static{"a": 0.5}
	peers := PeerFunc(func(ids.NodeID) []ids.NodeID { return nil })
	if _, err := New(Config{
		Self: "a", Predicate: pred, Monitor: mon, Transport: tr,
		Peers: peers, Seeds: []ids.NodeID{"b"},
	}); err == nil {
		t.Error("want error for Peers + Seeds together")
	}
}

func TestCoarseViewNilInPeersMode(t *testing.T) {
	nodes, cleanup := liveCluster(t, []float64{0.5}, acceptAll(t), nil)
	defer cleanup()
	if got := nodes[0].CoarseView(); got != nil {
		t.Errorf("CoarseView in Peers mode = %v, want nil", got)
	}
}
