package adversary

import (
	"slices"
	"sync"
	"testing"
	"time"

	"avmem/internal/agg"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/shuffle"
	"avmem/internal/sim"
)

func TestInflateRewritesClaims(t *testing.T) {
	b := Inflate{To: 0.98}
	cases := []any{
		ops.AnycastMsg{SenderAvail: 0.3},
		ops.MulticastMsg{SenderAvail: 0.3},
		&shuffle.Request{SenderAvail: 0.3},
		&shuffle.Reply{SenderAvail: 0.3},
	}
	for _, msg := range cases {
		d := b.Outbound("peer", msg)
		var got float64
		switch m := d.Msg.(type) {
		case ops.AnycastMsg:
			got = m.SenderAvail
		case ops.MulticastMsg:
			got = m.SenderAvail
		case *shuffle.Request:
			got = m.SenderAvail
		case *shuffle.Reply:
			got = m.SenderAvail
		}
		if got != 0.98 {
			t.Errorf("%T: claim %v, want 0.98", msg, got)
		}
		if d.Drop {
			t.Errorf("%T: inflate dropped the message", msg)
		}
	}
	// Non-claim traffic passes untouched.
	d := b.Outbound("peer", ops.DeliveredMsg{Hops: 2})
	if m, ok := d.Msg.(ops.DeliveredMsg); !ok || m.Hops != 2 {
		t.Errorf("unrelated message rewritten: %#v", d.Msg)
	}
}

func TestEclipsePoisonsShuffleTraffic(t *testing.T) {
	colluders := []ids.NodeID{"adv1", "adv2", "adv3", "self"}
	b := NewEclipse("self", colluders, 7)
	honest := []shuffle.Entry{{ID: "h1", Age: 3}, {ID: "h2", Age: 1}, {ID: "h3"}}
	d := b.Outbound("victim", &shuffle.Reply{Entries: slices.Clone(honest)})
	reply := d.Msg.(*shuffle.Reply)
	if len(reply.Entries) == 0 || reply.Entries[0].ID != "self" {
		t.Fatalf("poisoned reply does not lead with self: %v", reply.Entries)
	}
	isColluder := map[ids.NodeID]bool{"adv1": true, "adv2": true, "adv3": true, "self": true}
	for _, e := range reply.Entries {
		if !isColluder[e.ID] {
			t.Errorf("poisoned reply contains non-colluder %s", e.ID)
		}
		if e.ID == "victim" {
			t.Errorf("poisoned reply targets the recipient itself")
		}
		if e.Age != 0 {
			t.Errorf("poisoned entry %s has age %d, want 0 (maximally fresh)", e.ID, e.Age)
		}
	}
	// Determinism per seed.
	b2 := NewEclipse("self", colluders, 7)
	d2 := b2.Outbound("victim", &shuffle.Reply{Entries: slices.Clone(honest)})
	r2 := d2.Msg.(*shuffle.Reply)
	if len(r2.Entries) != len(reply.Entries) {
		t.Fatalf("same seed produced different poison: %v vs %v", reply.Entries, r2.Entries)
	}
	for i := range r2.Entries {
		if r2.Entries[i].ID != reply.Entries[i].ID {
			t.Fatalf("same seed produced different poison order")
		}
	}
}

func TestSelectiveForwardDropsOnlyRelays(t *testing.T) {
	b := NewSelectiveForward("self", 1.0, 1) // always drop relays
	own := ops.AnycastMsg{ID: ops.MsgID{Origin: "self", Seq: 1}}
	if d := b.Outbound("peer", own); d.Drop {
		t.Fatal("own operation dropped")
	}
	relay := ops.AnycastMsg{ID: ops.MsgID{Origin: "other", Seq: 1}}
	d := b.Outbound("peer", relay)
	if !d.Drop || !d.FakeAck {
		t.Fatalf("relay not black-holed: %+v", d)
	}
	if d2 := b.Outbound("peer", &shuffle.Request{}); d2.Drop {
		t.Fatal("shuffle traffic dropped by selective forwarding")
	}
}

func TestFreeRideIgnoresShuffleRequests(t *testing.T) {
	b := FreeRide{}
	if b.Inbound("peer", &shuffle.Request{}) {
		t.Fatal("free-rider answered a shuffle request")
	}
	if !b.Inbound("peer", &shuffle.Reply{}) || !b.Inbound("peer", ops.AnycastMsg{}) {
		t.Fatal("free-rider dropped non-request traffic")
	}
}

func TestMixSwitchGatesBehaviors(t *testing.T) {
	sw := NewSwitch(false)
	m := NewMix(sw, Inflate{To: 0.98}, FreeRide{})
	relay := ops.AnycastMsg{SenderAvail: 0.3}
	if d := m.Outbound("peer", relay); d.Msg.(ops.AnycastMsg).SenderAvail != 0.3 {
		t.Fatal("dormant mix rewrote traffic")
	}
	if !m.Inbound("peer", &shuffle.Request{}) {
		t.Fatal("dormant mix dropped inbound traffic")
	}
	if m.Engaged() {
		t.Fatal("dormant mix reported engagement")
	}
	sw.Set(true)
	if d := m.Outbound("peer", relay); d.Msg.(ops.AnycastMsg).SenderAvail != 0.98 {
		t.Fatal("armed mix did not rewrite traffic")
	}
	if m.Inbound("peer", &shuffle.Request{}) {
		t.Fatal("armed free-riding mix answered a request")
	}
	if !m.Engaged() {
		t.Fatal("armed mix did not report engagement")
	}
}

// TestWrapInterceptsEnv drives a wrapped virtual Env end to end: sends
// pass through the behavior, fake acks arrive asynchronously, and the
// registered handler is filtered.
func TestWrapInterceptsEnv(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, nil, nil, 0)
	if err := net.Bind([]ids.NodeID{"adv", "peer"}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	env, err := runtime.NewVirtual(runtime.VirtualConfig{
		Self: ids.NodeID("adv").Addr(), Scheduler: w, Fabric: runtime.NetFabric(net), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(true)
	wrapped := Wrap(env, NewMix(sw,
		NewSelectiveForward("adv", 1.0, 4), Inflate{To: 0.9}))

	// A peer records what actually crosses the fabric.
	peer := ids.NodeID("peer").Addr()
	var got []any
	peerEnv, err := runtime.NewVirtual(runtime.VirtualConfig{
		Self: peer, Scheduler: w, Fabric: runtime.NetFabric(net), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := peerEnv.Register(func(from ids.Addr, msg any) { got = append(got, msg) }); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Register(func(from ids.Addr, msg any) {}); err != nil {
		t.Fatal(err)
	}

	// A relayed operation is black-holed with a fake ack.
	acked := false
	wrapped.SendCall(peer, ops.AnycastMsg{ID: ops.MsgID{Origin: "other", Seq: 1}}, func(ok bool) {
		acked = ok
	})
	// An own operation crosses, with its claim inflated.
	wrapped.Send(peer, ops.AnycastMsg{ID: ops.MsgID{Origin: "adv", Seq: 1}, SenderAvail: 0.2})
	w.Run(time.Second)

	if !acked {
		t.Fatal("black-holed SendCall did not fake an ack")
	}
	if len(got) != 1 {
		t.Fatalf("peer received %d messages, want 1 (the own operation)", len(got))
	}
	if m := got[0].(ops.AnycastMsg); m.SenderAvail != 0.9 {
		t.Fatalf("claim not inflated in flight: %v", m.SenderAvail)
	}

	// Wrap preserves the Stopper contract.
	if _, ok := wrapped.(runtime.Stopper); !ok {
		t.Fatal("wrapped env lost the Stopper contract")
	}
	// Nil behavior is the identity.
	if Wrap(env, nil) != runtime.Env(env) {
		t.Fatal("Wrap(env, nil) is not the identity")
	}
}

// TestDroppedNackOnlySendQueuesNothing: a relay that black-holes a
// nack-only send with a fake ack owes its caller nothing — a success is
// never reported to it — so the drop queues no event and allocates
// nothing. Without the fake ack the nack still arrives, asynchronously.
func TestDroppedNackOnlySendQueuesNothing(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, nil, nil, 0)
	if err := net.Bind([]ids.NodeID{"adv", "peer"}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	env, err := runtime.NewVirtual(runtime.VirtualConfig{
		Self: ids.NodeID("adv").Addr(), Scheduler: w, Fabric: runtime.NetFabric(net), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	peer := ids.NodeID("peer").Addr()
	var relayed any = ops.AggMsg{ID: ops.MsgID{Origin: "other", Seq: 1}}
	nacks := 0
	onNack := func() { nacks++ }

	blackHole := Wrap(env, NewSelectiveForward("adv", 1.0, 4))
	blackHole.SendNack(peer, relayed, onNack)
	if w.Pending() != 0 {
		t.Fatalf("dropped nack-only send with a fake ack queued %d events, want 0", w.Pending())
	}
	if got := testing.AllocsPerRun(100, func() { blackHole.SendNack(peer, relayed, onNack) }); got != 0 {
		t.Errorf("dropped nack-only send allocates %.1f times, want 0", got)
	}

	silent := Wrap(env, dropAll{})
	silent.SendNack(peer, relayed, onNack)
	if nacks != 0 || w.Pending() != 1 {
		t.Fatalf("drop without a fake ack: %d nacks before the run, %d queued; want 0 and 1", nacks, w.Pending())
	}
	w.RunAll(0)
	if nacks != 1 {
		t.Fatalf("drop without a fake ack nacked %d times, want 1", nacks)
	}
}

// TestRefusedInboundIsRecycled: an exchange message the behavior
// refuses never reaches the node, and the interceptor, its last holder,
// recycles it (its entries emptied for the next offer); what it lets
// through is the handler's to consume.
func TestRefusedInboundIsRecycled(t *testing.T) {
	w := sim.NewWorld(1)
	net := sim.NewNetwork(w, nil, nil, 0)
	if err := net.Bind([]ids.NodeID{"adv", "peer"}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	env, err := runtime.NewVirtual(runtime.VirtualConfig{
		Self: ids.NodeID("adv").Addr(), Scheduler: w, Fabric: runtime.NetFabric(net), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var handled []any
	if err := Wrap(env, FreeRide{}).Register(func(_ ids.Addr, msg any) { handled = append(handled, msg) }); err != nil {
		t.Fatal(err)
	}
	req := &shuffle.Request{Entries: []shuffle.Entry{{ID: "x"}}, SenderAvail: 0.5}
	reply := &shuffle.Reply{Entries: []shuffle.Entry{{ID: "y"}}, SenderAvail: 0.5}
	net.Send("peer", "adv", req)
	net.Send("peer", "adv", reply)
	w.RunAll(0)
	if len(handled) != 1 || handled[0] != reply {
		t.Fatalf("the node was handed %v, want only the reply", handled)
	}
	if len(req.Entries) != 0 || req.SenderAvail != 0 {
		t.Errorf("the refused request was not recycled: %+v", req)
	}
	if len(reply.Entries) != 1 || reply.SenderAvail != 0.5 {
		t.Errorf("the delivered reply was touched before its handler: %+v", reply)
	}
}

// dropAll drops every outbound message without faking an ack.
type dropAll struct{}

func (dropAll) Name() string                            { return "drop-all" }
func (dropAll) Outbound(_ ids.NodeID, msg any) Decision { return Decision{Msg: msg, Drop: true} }
func (dropAll) Inbound(ids.NodeID, any) bool            { return true }

func TestProfileBuild(t *testing.T) {
	if _, err := (Profile{}).Build("x", nil, 1, nil); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := (Profile{InflateTo: 1.5}).Build("x", nil, 1, nil); err == nil {
		t.Fatal("out-of-range InflateTo accepted")
	}
	b, err := Profile{InflateTo: 0.9, Eclipse: true, DropRate: 0.5, FreeRide: true}.
		Build("x", []ids.NodeID{"x", "y"}, 1, NewSwitch(true))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "mix(inflate+eclipse+selective-forward+free-ride)" {
		t.Fatalf("unexpected mix name %q", b.Name())
	}
}

// TestMixComposesAggBehaviors: the three aggregation attacks compose
// in one Mix behind the runtime Switch — dormant they are identities,
// armed the lie and the mangle stack on outbound partials and the
// forge reacts to observed trees with a fabricated origin-addressed
// result (carrying no binding token).
func TestMixComposesAggBehaviors(t *testing.T) {
	sw := NewSwitch(false)
	m := NewMix(sw, AggLie{Value: 100}, AggMangle{}, NewAggForge("adv"))

	var reply agg.Partial
	reply.Observe(0.5, 1)
	reply.Observe(0.7, 2)
	treeMsg := ops.AggMsg{ID: ops.MsgID{Origin: "initiator", Seq: 9}, Depth: 1}

	// Dormant: partials pass untouched, nothing is fabricated.
	if d := m.Outbound("parent", ops.AggReplyMsg{ID: treeMsg.ID, Partial: reply}); d.Msg.(ops.AggReplyMsg).Partial != reply {
		t.Fatal("dormant mix rewrote a partial")
	}
	if fabs := m.React("peer", treeMsg); len(fabs) != 0 {
		t.Fatalf("dormant mix fabricated %v", fabs)
	}
	if m.Engaged() {
		t.Fatal("dormant mix reported engagement")
	}

	sw.Set(true)
	// Armed: the lie rewrites the own contribution to 100, then the
	// mangle scales the (already lied) running sum tenfold.
	d := m.Outbound("parent", ops.AggReplyMsg{ID: treeMsg.ID, Partial: reply})
	got := d.Msg.(ops.AggReplyMsg).Partial
	if got.N != reply.N || got.Min != 100 || got.Max != 100 || got.Sum != 100*float64(reply.N)*aggMangleFactor {
		t.Fatalf("lie+mangle partial = %+v", got)
	}
	// Declines carry no partial and stay untouched.
	if d := m.Outbound("parent", ops.AggReplyMsg{ID: treeMsg.ID, Decline: true}); d.Msg.(ops.AggReplyMsg).Partial.N != 0 {
		t.Fatal("decline rewritten")
	}

	// Armed: an observed tree is raced with one forged result to the
	// origin, exactly once per operation, never for own operations.
	fabs := m.React("peer", treeMsg)
	if len(fabs) != 1 {
		t.Fatalf("React produced %d fabrications, want 1", len(fabs))
	}
	forged, ok := fabs[0].Msg.(ops.AggResultMsg)
	if fabs[0].To != "initiator" || !ok {
		t.Fatalf("fabrication %+v not an origin-addressed result", fabs[0])
	}
	if forged.Token != 0 {
		t.Fatalf("forged result carries token %d — the forger cannot know it", forged.Token)
	}
	if forged.Result.N == 0 || forged.Result.Min < 0 || forged.Result.Max > 1 {
		t.Fatalf("forged result %+v is not plausible", forged.Result)
	}
	if again := m.React("peer", treeMsg); len(again) != 0 {
		t.Fatalf("duplicate tree copy forged again: %v", again)
	}
	own := ops.AggMsg{ID: ops.MsgID{Origin: "adv", Seq: 1}}
	if fabs := m.React("peer", own); len(fabs) != 0 {
		t.Fatalf("forged own operation: %v", fabs)
	}
	if !m.Engaged() {
		t.Fatal("armed mix did not report engagement")
	}
}

// TestMixAggBehaviorsRaceClean hammers the armed/dormant switch while
// other goroutines pump partials and tree observations through the
// mix — the contract `go test -race` checks on the new attack paths.
func TestMixAggBehaviorsRaceClean(t *testing.T) {
	sw := NewSwitch(false)
	m := NewMix(sw, AggLie{Value: 100}, AggMangle{}, NewAggForge("adv"))
	var wg, toggler sync.WaitGroup
	stop := make(chan struct{})
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				sw.Set(i%2 == 0)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p agg.Partial
			p.Observe(0.5, 1)
			for i := 0; i < 500; i++ {
				id := ops.MsgID{Origin: "initiator", Seq: uint64(g*500 + i)}
				m.Outbound("parent", ops.AggReplyMsg{ID: id, Partial: p})
				m.React("peer", ops.AggMsg{ID: id, Depth: 1})
				m.Inbound("peer", ops.AggMsg{ID: id, Depth: 1})
				m.Engaged()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	toggler.Wait()
}

// TestProfileBuildAggBehaviors: the spec-level profile flags map to
// the three attack behaviors in the mix.
func TestProfileBuildAggBehaviors(t *testing.T) {
	b, err := Profile{AggLie: true, AggMangle: true, AggForge: true}.
		Build("x", nil, 1, NewSwitch(true))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "mix(agg-lie+agg-mangle+agg-forge)" {
		t.Fatalf("unexpected mix name %q", b.Name())
	}
	if _, ok := b.(Reactor); !ok {
		t.Fatal("profile mix lost the Reactor contract")
	}
}
