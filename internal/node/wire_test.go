package node

import (
	"testing"
	"time"

	"avmem/internal/audit"
	"avmem/internal/avmon"
	"avmem/internal/ids"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/sim"
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
// from an Env whose own address and whose target address both carry
// memos. The wire has no room for either: the node's handler is handed a
// memo-less sender, and its auditor — which knows the host universe —
// resolves that sender by identifier to the same record a memo'd address
// names. Nobody is interned, nothing is keyed by a number a peer sent.
func TestWireSenderReachesNodeMemoLess(t *testing.T) {
	tr := NewTCPForTest(t)
	defer tr.Close()
	hosts := []ids.NodeID{"127.0.0.1:39701", "127.0.0.1:39702"}
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

	// The sender: a virtual Env over the same transport, so that both its
	// own address and the target's carry a memo up to the fabric adapter.
	sender, err := runtime.NewVirtual(runtime.VirtualConfig{
		Self: ids.AddrAt(hosts[1], 1), Scheduler: sim.NewWorld(1), Fabric: runtime.TransportFabric(tr),
	})
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
