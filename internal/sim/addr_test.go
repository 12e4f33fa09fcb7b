package sim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"avmem/internal/ids"
)

// addrNet is a bound network of five hosts (host 3 offline) whose
// handlers log what they were handed.
type addrNet struct {
	w     *World
	net   *Network
	hosts []ids.NodeID
	log   []string
}

func newAddrNet(t *testing.T) *addrNet {
	t.Helper()
	a := &addrNet{w: NewWorld(1), hosts: []ids.NodeID{"h0", "h1", "h2", "h3", "h4"}}
	a.net = boundNet(t, a.w, FixedLatency(time.Millisecond), 0, a.hosts, func(i int) bool { return i != 3 })
	for i, id := range a.hosts {
		id := id
		a.register(i, func(from ids.Addr, msg any) {
			a.log = append(a.log, fmt.Sprintf("%s<-%s/%d:%v", id, from.ID(), from.Index(), msg))
		})
	}
	return a
}

func (a *addrNet) register(i int, h AddrHandler) {
	if err := a.net.RegisterAddr(a.at(i), h); err != nil {
		panic(err)
	}
}

func (a *addrNet) run() []string {
	a.w.RunAll(0)
	out := a.log
	a.log = nil
	return out
}

func (a *addrNet) at(i int) ids.Addr { return ids.AddrAt(a.hosts[i], int32(i)) }

// TestForgedMemoLosesToTheIdentifier: whatever a memo claims, a message
// reaches the handler of the identifier it is addressed to, its fate
// follows that identifier's liveness, the handler sees a sender memo only
// if it verified, and every memo that did not is counted.
func TestForgedMemoLosesToTheIdentifier(t *testing.T) {
	a := newAddrNet(t)
	honest, h1 := a.at(0), a.hosts[1]

	// Index of another host, out of range, and the largest there is.
	for _, forged := range []ids.Addr{ids.AddrAt(h1, 2), ids.AddrAt(h1, 99), ids.AddrAt(h1, 1<<31-1)} {
		before := a.net.AddrMemoStats()
		a.net.SendAddr(honest, forged, "send")
		acked := false
		a.net.SendCallAddr(honest, forged, "call", func(ok bool) { acked = ok })
		got := a.run()
		if want := []string{"h1<-h0/0:send", "h1<-h0/0:call"}; fmt.Sprint(got) != fmt.Sprint(want) || !acked {
			t.Errorf("to=%v/%d: delivered %v (acked %v), want %v", forged.ID(), forged.Index(), got, acked, want)
		}
		if d := a.net.AddrMemoStats(); d.Mismatch-before.Mismatch != 2 || d.Hit-before.Hit != 2 {
			t.Errorf("two forged targets and two honest senders counted as %+v -> %+v", before, d)
		}
	}

	// Liveness is the identifier's: h3 is offline, h2 is not.
	nacked := false
	a.net.SendCallAddr(honest, ids.AddrAt("h3", 2), "to-offline", func(ok bool) { nacked = !ok })
	a.net.SendAddr(honest, ids.AddrAt("h2", 3), "to-online")
	if got := a.run(); fmt.Sprint(got) != "[h2<-h0/0:to-online]" || !nacked {
		t.Errorf("delivered %v (nacked %v): a forged memo moved a message between an online and an offline host", got, nacked)
	}

	// A forged sender memo is stripped, not handed on.
	before := a.net.AddrMemoStats()
	a.net.SendAddr(ids.AddrAt("h0", 4), a.at(1), "forged-from")
	a.net.SendAddr(ids.NodeID("h0").Addr(), a.at(1), "bare-from")
	a.net.SendAddr(ids.AddrAt("stranger", 1), ids.NodeID("h1").Addr(), "outsider")
	if got, want := a.run(), "[h1<-h0/-1:forged-from h1<-h0/-1:bare-from h1<-stranger/-1:outsider]"; fmt.Sprint(got) != want {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if d := a.net.AddrMemoStats(); d.Mismatch-before.Mismatch != 2 || d.Absent-before.Absent < 1 {
		t.Errorf("forged and absent sender memos counted as %+v -> %+v", before, d)
	}
}

// TestVerifiedMemoProbesNoMap: with memos that verify, Send, SendCall,
// deliver and attempt run on the dense tables alone — the test takes the
// identifier map away after binding and everything still arrives,
// allocating nothing.
func TestVerifiedMemoProbesNoMap(t *testing.T) {
	a := newAddrNet(t)
	a.net.idx = nil
	acks := 0
	onResult := func(ok bool) {
		if ok {
			acks++
		}
	}
	var msg any = "m"
	batch := func() {
		for i := 0; i < 20; i++ {
			a.net.SendAddr(a.at(i%5), a.at((i+1)%5), msg)
			a.net.SendCallAddr(a.at(i%5), a.at((i+2)%5), msg, onResult)
		}
		a.w.RunAll(0)
		a.log = a.log[:0]
	}
	batch()
	if s, m := a.net.Stats(), a.net.AddrMemoStats(); s.Delivered != 32 || s.Dropped != 8 || acks != 16 || m.Absent+m.Mismatch != 0 {
		t.Fatalf("stats %+v, %d acks, memos %+v; want 32 delivered, 8 dropped at the offline host", s, acks, m)
	}
	for i := range a.hosts { // quiet handlers: what is left is the fabric's own
		a.register(i, func(ids.Addr, any) {})
	}
	if got := testing.AllocsPerRun(20, batch); got != 0 {
		t.Errorf("%v allocations per batch of memo'd sends and calls", got)
	}
}

// TestSendBeforeBindAndIdentifierAdapters: the identifier-typed Register,
// Send and SendCall the benchmark harness compiles against are the same
// fabric — once the universe is bound, a handler registered either way
// hears a message sent either way. Before Bind there is no universe: a
// registration is refused and a send drops.
func TestSendBeforeBindAndIdentifierAdapters(t *testing.T) {
	w := NewWorld(1)
	net := NewNetwork(w, FixedLatency(time.Millisecond), nil, 0)
	var got []string
	idHandler := func(from ids.NodeID, msg any) { got = append(got, fmt.Sprint("id:", from, msg)) }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register before Bind was admitted")
			}
		}()
		net.Register("h1", idHandler)
	}()
	net.Send("h0", "h1", "before")
	w.RunAll(0)
	if s := net.Stats(); s.Dropped != 1 || len(got) != 0 {
		t.Fatalf("a send before Bind was not dropped: %+v, %v", s, got)
	}
	if err := net.Bind([]ids.NodeID{"h0", "h1", "h2"}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	net.Register("h1", idHandler)
	if err := net.RegisterAddr(ids.NodeID("h2").Addr(), func(from ids.Addr, msg any) {
		got = append(got, fmt.Sprint("addr:", from.ID(), from.Index(), msg))
	}); err != nil {
		t.Fatal(err)
	}
	net.SendAddr(ids.AddrAt("h0", 0), ids.AddrAt("h1", 1), "memo-to-id-handler")
	net.SendCall("h0", "h2", "id-to-addr-handler", nil)
	net.SendAddr(ids.AddrAt("h0", 0), ids.AddrAt("h2", 2), "memo")
	w.RunAll(0)
	want := "[id:h0memo-to-id-handler addr:h0-1id-to-addr-handler addr:h00memo]"
	if fmt.Sprint(got) != want {
		t.Errorf("got %v\nwant %v", got, want)
	}
	net.Register("h1", nil)
	net.Send("h0", "h1", "gone")
	w.RunAll(0)
	if s := net.Stats(); s.Dropped != 2 {
		t.Errorf("Register(nil) left the handler in place: %+v", s)
	}
}

// TestPayloadSize: both address memos ride in what was padding, so a slab
// slot is no larger than before they were carried.
func TestPayloadSize(t *testing.T) {
	if got := unsafe.Sizeof(payload{}); got != 96 {
		t.Errorf("payload is %d bytes, want 96", got)
	}
}
