package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"avmem/internal/ids"
)

// refSendCall is the closure-based SendCall the value events replaced,
// kept here as the reference the differential test compares against: it
// draws both latencies at send time and schedules the attempt and the
// verdict through After.
func refSendCall(n *Network, from, to ids.NodeID, msg any, onResult func(ok bool)) {
	n.stats.Sent++
	out := n.latency.Sample(n.world.Rand())
	back := n.latency.Sample(n.world.Rand())
	n.world.After(out, func() {
		h := n.handlerFor(to.Addr())
		if h == nil {
			n.stats.Dropped++
			if onResult != nil {
				n.world.After(n.ackTimeout-out, func() { onResult(false) })
			}
			return
		}
		n.stats.Delivered++
		h(from.Addr(), msg)
		if onResult != nil {
			n.world.After(back, func() { onResult(true) })
		}
	})
}

// coarseLatency draws from the paper's [20ms, 80ms] in 10 ms steps, so
// events collide on timestamps all the time and their order rests on
// sequence numbers alone.
type coarseLatency struct{}

func (coarseLatency) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(20+10*rng.Intn(7)) * time.Millisecond
}

// callTranscript drives one scripted mix of acknowledged sends through
// call and returns everything an observer can see: the firing
// transcript, the network counters, and the next draw of the world RNG —
// and, last, how many events the world fired.
func callTranscript(t *testing.T, call func(n *Network, from, to ids.NodeID, msg any, onResult func(bool))) ([]string, NetworkStats, int64, int) {
	t.Helper()
	w := NewWorld(11)
	hosts := []ids.NodeID{"h0", "h1", "h2", "h3", "h4", "h5"}
	up := map[ids.NodeID]bool{"h0": true, "h1": true, "h2": true, "h3": true, "h4": true, "h5": true}
	// h5 stays unregistered; "loose" lives outside the bound universe.
	net := boundNet(t, w, coarseLatency{}, 0, hosts, func(i int) bool { return up[hosts[i]] })
	var log []string
	note := func(kind string, from, to ids.NodeID) {
		log = append(log, fmt.Sprintf("%v %s %s->%s", w.Now(), kind, from, to))
	}
	result := func(from, to ids.NodeID) func(bool) {
		return func(ok bool) {
			if ok {
				note("ack", from, to)
			} else {
				note("nack", from, to)
			}
		}
	}
	for _, id := range hosts[:5] {
		id := id
		net.Register(id, func(from ids.NodeID, msg any) {
			note("deliver", from, id)
			if msg == "relay" {
				// A handler that itself calls on, before its own ack is
				// scheduled.
				call(net, id, "h3", "leaf", result(id, "h3"))
			}
		})
	}
	for i := 0; i < 60; i++ {
		from, to := hosts[i%5], hosts[(i+i/6)%6]
		at := time.Duration(i%7) * 15 * time.Millisecond
		switch i % 6 {
		case 0: // ack, or nack after ackTimeout when to is the unregistered h5
			w.At(at, func() { call(net, from, to, "plain", result(from, to)) })
		case 1: // nil callback: delivered or dropped, no verdict event
			w.At(at, func() { call(net, from, to, "quiet", nil) })
		case 2: // target outside the bound universe: nack
			w.At(at, func() { call(net, from, "loose", "plain", result(from, "loose")) })
		case 3: // handler sends on
			w.At(at, func() { call(net, from, "h2", "relay", result(from, "h2")) })
		case 4: // callback sends on, through both primitives
			w.At(at, func() {
				call(net, from, to, "plain", func(ok bool) {
					result(from, to)(ok)
					net.Send(from, "h1", "after")
					call(net, from, "h4", "chained", result(from, "h4"))
				})
			})
		case 5: // plain sends share the queue and the RNG
			w.At(at, func() { net.Send(from, to, "send") })
		}
	}
	// h4 is offline for a stretch: calls in flight across the edge find it
	// gone at delivery time and nack.
	w.At(70*time.Millisecond, func() { up["h4"] = false })
	w.At(150*time.Millisecond, func() { up["h4"] = true })
	events := w.Run(time.Second)
	if w.Pending() != 0 {
		t.Fatalf("%d events still queued", w.Pending())
	}
	return log, net.Stats(), w.Rand().Int63(), events
}

// TestSendCallMatchesClosureReference pins the claim the value-event
// SendCall rests on: it consumes RNG draws and sequence numbers at
// exactly the points the closure version did, so the schedule, the
// counters and the RNG state are indistinguishable.
func TestSendCallMatchesClosureReference(t *testing.T) {
	wantLog, wantStats, wantRand, _ := callTranscript(t, refSendCall)
	gotLog, gotStats, gotRand, _ := callTranscript(t, (*Network).SendCall)
	kinds := map[string]bool{}
	for _, line := range wantLog {
		var at, kind string
		fmt.Sscan(line, &at, &kind)
		kinds[kind] = true
	}
	if !kinds["ack"] || !kinds["nack"] || !kinds["deliver"] || wantStats.Dropped == 0 {
		t.Fatalf("script does not reach every path: kinds %v stats %+v", kinds, wantStats)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		for i := range wantLog {
			if i >= len(gotLog) || gotLog[i] != wantLog[i] {
				t.Fatalf("transcripts diverge at line %d: got %q, want %q (lens %d / %d)",
					i, append(gotLog, "<end>")[i], wantLog[i], len(gotLog), len(wantLog))
			}
		}
		t.Fatalf("transcript has %d extra lines", len(gotLog)-len(wantLog))
	}
	if gotStats != wantStats {
		t.Errorf("stats %+v, want %+v", gotStats, wantStats)
	}
	if gotRand != wantRand {
		t.Errorf("world RNG state diverged")
	}

	// The nack-only shape: SendNackAddr is SendCall with its acks
	// ignored, one event fewer per ack.
	acks := 0
	refNack := func(n *Network, from, to ids.NodeID, msg any, onResult func(bool)) {
		if onResult == nil {
			n.SendCall(from, to, msg, nil)
			return
		}
		n.SendCall(from, to, msg, func(ok bool) {
			if ok {
				acks++
				return
			}
			onResult(false)
		})
	}
	sendNack := func(n *Network, from, to ids.NodeID, msg any, onResult func(bool)) {
		var onNack func()
		if onResult != nil {
			onNack = func() { onResult(false) }
		}
		n.SendNackAddr(from.Addr(), to.Addr(), msg, onNack)
	}
	wantLog, wantStats, wantRand, wantEvents := callTranscript(t, refNack)
	gotLog, gotStats, gotRand, gotEvents := callTranscript(t, sendNack)
	if acks == 0 || len(wantLog) == 0 {
		t.Fatalf("nack-only script: %d acks ignored, %d lines", acks, len(wantLog))
	}
	if !reflect.DeepEqual(gotLog, wantLog) || gotStats != wantStats || gotRand != wantRand {
		t.Fatalf("SendNackAddr diverges from SendCall with acks ignored:\n got %q %+v\nwant %q %+v", gotLog, gotStats, wantLog, wantStats)
	}
	if gotEvents != wantEvents-acks {
		t.Errorf("SendNackAddr fired %d events, want %d (SendCall's %d less its %d acks)", gotEvents, wantEvents-acks, wantEvents, acks)
	}
}

// TestSendNackFilesNoAck: a nack-only send to an online target is one
// event, its handler running at the instant SendCall's would; to an
// offline target its nack fires at SendCall's nack instant.
func TestSendNackFilesNoAck(t *testing.T) {
	for _, online := range []bool{true, false} {
		// run sends one message from a to b and reports when b's handler
		// ran, when a failure verdict arrived (-1: never) and how many
		// events fired.
		run := func(nackOnly bool) (handled, nacked time.Duration, events int) {
			w := NewWorld(3)
			net := boundNet(t, w, nil, 0, ab, func(int) bool { return online })
			handled, nacked = -1, -1
			net.Register("b", func(ids.NodeID, any) { handled = w.Now() })
			if nackOnly {
				net.SendNackAddr(ids.NodeID("a").Addr(), ids.NodeID("b").Addr(), "m", func() { nacked = w.Now() })
			} else {
				net.SendCall("a", "b", "m", func(ok bool) {
					if !ok {
						nacked = w.Now()
					}
				})
			}
			return handled, nacked, w.RunAll(0)
		}
		callHandled, callNacked, callEvents := run(false)
		handled, nacked, events := run(true)
		if handled != callHandled || nacked != callNacked {
			t.Errorf("online=%v: handler at %v, nack at %v; SendCall's at %v and %v", online, handled, nacked, callHandled, callNacked)
		}
		if want := map[bool]int{true: 1, false: 2}[online]; events != want || callEvents != 2 {
			t.Errorf("online=%v: SendNackAddr fired %d events (want %d), SendCall %d (want 2)", online, events, want, callEvents)
		}
		if online == (handled < 0) || online == (nacked >= 0) {
			t.Errorf("online=%v: handled at %v, nacked at %v", online, handled, nacked)
		}
	}
}

// TestSendPathsDoNotAllocate checks the steady state of both send
// primitives: once the slab and the key chunks have grown to the
// workload's depth, a send, its delivery and its verdict allocate
// nothing.
func TestSendPathsDoNotAllocate(t *testing.T) {
	w := NewWorld(1)
	hosts := []ids.NodeID{"a", "b", "c", "d", "e", "f", "g", "h"}
	net := boundNet(t, w, nil, 0, hosts, nil)
	for _, id := range hosts[:7] { // "h" unregistered: the nack path
		net.Register(id, func(ids.NodeID, any) {})
	}
	var msg any = "payload"
	acked := 0
	onResult := func(ok bool) {
		if ok {
			acked++
		}
	}
	batch := func(send func(from, to ids.NodeID)) func() {
		return func() {
			for i := 0; i < 64; i++ {
				send(hosts[i%8], hosts[(i*3+1)%8])
			}
			w.RunAll(0)
		}
	}
	nacked := 0
	onNack := func() { nacked++ }
	sends := batch(func(from, to ids.NodeID) { net.Send(from, to, msg) })
	calls := batch(func(from, to ids.NodeID) { net.SendCall(from, to, msg, onResult) })
	nacks := batch(func(from, to ids.NodeID) { net.SendNackAddr(from.Addr(), to.Addr(), msg, onNack) })
	sends()
	calls()
	nacks()
	if got := testing.AllocsPerRun(50, sends); got != 0 {
		t.Errorf("Send allocates %.1f times per 64-send batch", got)
	}
	if got := testing.AllocsPerRun(50, calls); got != 0 {
		t.Errorf("SendCall allocates %.1f times per 64-call batch", got)
	}
	if got := testing.AllocsPerRun(50, nacks); got != 0 {
		t.Errorf("SendNackAddr allocates %.1f times per 64-send batch", got)
	}
	if acked == 0 || nacked == 0 {
		t.Fatalf("%d calls acknowledged, %d nack-only sends nacked; want both > 0", acked, nacked)
	}
}
