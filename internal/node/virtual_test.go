package node

import (
	"testing"
	"time"

	"avmem/internal/avmon"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/sim"
	"avmem/internal/transport"
)

// virtualCluster spins up n real nodes on a shared virtual clock and a
// deterministic memnet — the binding the scenario engine's memnet
// backend uses — in Seeds mode with the given availabilities.
func virtualCluster(t *testing.T, avails []float64) (*sim.World, []*Node) {
	t.Helper()
	w := sim.NewWorld(1)
	net := transport.NewMemnet(transport.MemnetConfig{
		After:   w.After,
		Seed:    1,
		Latency: transport.UniformLatencyFn(20*time.Millisecond, 80*time.Millisecond),
	})
	monitor := avmon.Static{}
	all := make([]ids.NodeID, len(avails))
	for i, av := range avails {
		all[i] = ids.Synthetic(i)
		monitor[all[i]] = av
	}
	nodes := make([]*Node, 0, len(avails))
	for i, id := range all {
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			Self:      id.Addr(),
			Scheduler: w,
			Fabric:    runtime.TransportFabric(net),
			Seed:      int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Self:           id,
			Predicate:      acceptAll(t),
			Monitor:        monitor,
			Seeds:          []ids.NodeID{all[(i+1)%len(all)], all[(i+2)%len(all)]},
			ViewSize:       8,
			Env:            env,
			ProtocolPeriod: time.Minute,
			Seed:           int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return w, nodes
}

// TestNodeOnVirtualEnv runs real nodes entirely in virtual time: no
// goroutines, no wall clock — discovery, shuffling, and operations all
// advance with the scheduler.
func TestNodeOnVirtualEnv(t *testing.T) {
	avails := []float64{0.5, 0.55, 0.9, 0.3, 0.7, 0.88}
	w, nodes := virtualCluster(t, avails)
	w.Run(10 * time.Minute)
	hs, vs := nodes[0].SliverSizes()
	if hs+vs < 3 {
		t.Fatalf("slivers never formed in virtual time: hs=%d vs=%d", hs, vs)
	}
	if view := nodes[0].CoarseView(); len(view) <= 2 {
		t.Errorf("coarse view never grew past the seeds: %d", len(view))
	}
	target, err := ops.Range(0.85, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	id, err := nodes[0].Anycast(target, ops.DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	w.Run(w.Now() + time.Minute)
	rec, ok := nodes[0].AnycastResult(id)
	if !ok || rec.Outcome != ops.OutcomeDelivered {
		t.Fatalf("virtual anycast not delivered: ok=%v rec=%+v", ok, rec)
	}
}

// TestNodeVirtualDeterminism replays the virtual cluster and requires
// identical sliver trajectories.
func TestNodeVirtualDeterminism(t *testing.T) {
	run := func() (sizes []int) {
		avails := []float64{0.5, 0.55, 0.9, 0.3, 0.7, 0.88}
		w, nodes := virtualCluster(t, avails)
		w.Run(10 * time.Minute)
		for _, n := range nodes {
			hs, vs := n.SliverSizes()
			sizes = append(sizes, hs, vs)
		}
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sliver sizes diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestNodeSharedCollector verifies cluster-wide accounting through an
// injected collector: the deliverer's verdict is visible to the
// initiator's harness immediately.
func TestNodeSharedCollector(t *testing.T) {
	w := sim.NewWorld(1)
	net := transport.NewMemnet(transport.MemnetConfig{After: w.After, Seed: 1})
	monitor := avmon.Static{}
	all := []ids.NodeID{ids.Synthetic(0), ids.Synthetic(1)}
	monitor[all[0]] = 0.5
	monitor[all[1]] = 0.9
	col := ops.NewCollector()
	var nodes []*Node
	for i, id := range all {
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			Self: id.Addr(), Scheduler: w, Fabric: runtime.TransportFabric(net), Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Self:      id,
			Predicate: acceptAll(t),
			Monitor:   monitor,
			Seeds:     []ids.NodeID{all[(i+1)%2]},
			Env:       env,
			Collector: col,
			Seed:      int64(i + 1),
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
	w.Run(5 * time.Minute)
	target, err := ops.Range(0.85, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	id, err := nodes[0].Anycast(target, ops.DefaultAnycastOptions())
	if err != nil {
		t.Fatal(err)
	}
	w.Run(w.Now() + time.Minute)
	rec, ok := col.Anycast(id)
	if !ok || rec.Outcome != ops.OutcomeDelivered {
		t.Fatalf("shared collector missed the delivery: ok=%v rec=%+v", ok, rec)
	}
}
