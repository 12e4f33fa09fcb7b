package transport

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
)

func sampleAnycast() ops.AnycastMsg {
	return ops.AnycastMsg{
		ID:             ops.MsgID{Origin: "10.0.0.1:4000", Seq: 7},
		Target:         ops.Target{Lo: 0.85, Hi: 0.95},
		AnycastOptions: ops.AnycastOptions{Policy: ops.RetriedGreedy, Flavor: core.HSVS, TTL: 6, Retry: 8},
		Hops:           2,
		SentAt:         1500 * time.Millisecond,
	}
}

func sampleMulticast() ops.MulticastMsg {
	return ops.MulticastMsg{
		ID:     ops.MsgID{Origin: "10.0.0.2:4000", Seq: 3},
		Target: ops.Target{Lo: 0.2, Hi: 1},
		Spec: ops.MulticastSpec{
			Mode: ops.Gossip, Flavor: core.HSVS,
			Fanout: 5, Rounds: 2, Period: time.Second,
		},
		SentAt: time.Second,
	}
}

func TestCodecRoundTripAnycast(t *testing.T) {
	in := sampleAnycast()
	env, err := Encode("sender", in)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindAnycast || env.From != "sender" {
		t.Fatalf("envelope = %+v", env)
	}
	out, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(ops.AnycastMsg)
	if !ok {
		t.Fatalf("decoded type %T", out)
	}
	if got != in {
		t.Errorf("round trip changed message:\n in %+v\nout %+v", in, got)
	}
}

func TestCodecRoundTripAnycastWithMulticastSpec(t *testing.T) {
	in := sampleAnycast()
	spec := ops.MulticastSpec{Mode: ops.Flood, Flavor: core.VSOnly}
	in.Multicast = &spec
	env, err := Encode("sender", in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(ops.AnycastMsg)
	if got.Multicast == nil || *got.Multicast != spec {
		t.Errorf("multicast spec lost: %+v", got.Multicast)
	}
}

func TestCodecRoundTripMulticast(t *testing.T) {
	in := sampleMulticast()
	env, err := Encode("sender", in)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindMulticast {
		t.Fatalf("kind = %q", env.Kind)
	}
	out, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(ops.MulticastMsg); got != in {
		t.Errorf("round trip changed message:\n in %+v\nout %+v", in, got)
	}
}

func TestCodecRejectsUnknown(t *testing.T) {
	if _, err := Encode("s", 42); err == nil {
		t.Error("want error for unsupported type")
	}
	if _, err := Decode(Envelope{Kind: "bogus"}); err == nil {
		t.Error("want error for unknown kind")
	}
	if _, err := Decode(Envelope{Kind: KindAnycast, Body: []byte("{bad")}); err == nil {
		t.Error("want error for bad body")
	}
}

// fabric opens one of the two live transports for a contract case and
// hands out addresses free on it: the first one a case asks for is where
// it listens, the rest only send or stay dead.
type fabric struct {
	open func() Transport
	addr func() ids.NodeID
}

// lastAddr numbers the memory fabric's addresses so no two cases share one.
var lastAddr atomic.Int32

// freeLoopbackAddr returns a loopback address on a port the kernel has
// just reported free: it listens on port 0, reads the port and closes.
// A fixed port inside the ephemeral range (32768–60999 on Linux) can be
// held at any time by an outbound connection's local end.
func freeLoopbackAddr() ids.NodeID {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("no free loopback port: %v", err))
	}
	defer l.Close()
	return ids.NodeID(l.Addr().String())
}

// The contract cases below run on both fabrics. memory is Memnet on its
// built-in wall clock — what avmem.NewMemoryTransport hands out — with a
// short AckTimeout so nacks arrive quickly; tcp is real loopback sockets.
var (
	memory = fabric{
		open: func() Transport { return NewMemnet(MemnetConfig{AckTimeout: 20 * time.Millisecond}) },
		addr: func() ids.NodeID { return ids.NodeID(fmt.Sprintf("n%d", lastAddr.Add(1))) },
	}
	tcp = fabric{
		open: func() Transport { return NewTCP(200*time.Millisecond, time.Second) },
		addr: freeLoopbackAddr,
	}
)

// callResult runs one SendCall and returns its verdict.
func callResult(t *testing.T, tr Transport, from, to ids.NodeID) bool {
	t.Helper()
	result := make(chan bool, 1)
	tr.SendCall(from, to, sampleAnycast(), func(ok bool) { result <- ok })
	select {
	case ok := <-result:
		return ok
	case <-time.After(5 * time.Second):
		t.Fatal("SendCall never reported")
		return false
	}
}

// testDelivery: a Send reaches the registered handler intact and names
// its sender.
func testDelivery(t *testing.T, f fabric) {
	tr := f.open()
	defer tr.Close()
	self, peer := f.addr(), f.addr()
	type delivery struct {
		from ids.NodeID
		msg  any
	}
	received := make(chan delivery, 1)
	if err := tr.Register(self, func(from ids.NodeID, msg any) { received <- delivery{from, msg} }); err != nil {
		t.Fatal(err)
	}
	tr.Send(peer, self, sampleAnycast())
	select {
	case d := <-received:
		if got, ok := d.msg.(ops.AnycastMsg); !ok || got != sampleAnycast() || d.from != peer {
			t.Errorf("delivered %+v from %q, want the sample anycast from %q", d.msg, d.from, peer)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
}

// testSendCall: a call is acknowledged once the handler has the message,
// and nacked when nothing listens at the target.
func testSendCall(t *testing.T, f fabric) {
	tr := f.open()
	defer tr.Close()
	self, peer := f.addr(), f.addr()
	received := make(chan any, 1)
	if err := tr.Register(self, func(from ids.NodeID, msg any) { received <- msg }); err != nil {
		t.Fatal(err)
	}
	if !callResult(t, tr, peer, self) {
		t.Fatal("want ack for registered target")
	}
	select {
	case <-received:
	case <-time.After(2 * time.Second):
		t.Fatal("acknowledged message never dispatched")
	}
	if callResult(t, tr, peer, f.addr()) {
		t.Error("want nack for a target that never registered")
	}
}

// testUnregister: a target that registered and left nacks.
func testUnregister(t *testing.T, f fabric) {
	tr := f.open()
	defer tr.Close()
	self, peer := f.addr(), f.addr()
	if err := tr.Register(self, func(ids.NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(self)
	if callResult(t, tr, peer, self) {
		t.Error("want nack after unregister")
	}
}

// testClosed: a closed transport runs no handler and still answers a
// SendCall, with false.
func testClosed(t *testing.T, f fabric) {
	tr := f.open()
	self, peer := f.addr(), f.addr()
	if err := tr.Register(self, func(ids.NodeID, any) { t.Error("handler ran after Close") }); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Send(peer, self, sampleAnycast())
	expectExactlyOnceFailure(t, tr, peer, self)
}

func TestMemoryDelivery(t *testing.T)             { testDelivery(t, memory) }
func TestTCPDelivery(t *testing.T)                { testDelivery(t, tcp) }
func TestMemorySendCall(t *testing.T)             { testSendCall(t, memory) }
func TestTCPUnreachable(t *testing.T)             { testSendCall(t, tcp) }
func TestMemoryUnregister(t *testing.T)           { testUnregister(t, memory) }
func TestTCPUnregisterStopsListener(t *testing.T) { testUnregister(t, tcp) }
func TestMemoryClosed(t *testing.T)               { testClosed(t, memory) }
func TestTCPClosed(t *testing.T)                  { testClosed(t, tcp) }

// TestMemoryLatency: the wall-clock memnet really waits out its latency
// model (TCP has none to test).
func TestMemoryLatency(t *testing.T) {
	m := NewMemnet(MemnetConfig{Latency: UniformLatencyFn(20*time.Millisecond, 30*time.Millisecond)})
	defer m.Close()
	if err := m.Register("b", func(ids.NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if !callResult(t, m, "a", "b") {
		t.Fatal("want ack")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("round trip took %v, want >= 2 x 20ms latency", elapsed)
	}
}

func TestTCPRegisterValidation(t *testing.T) {
	tr := NewTCP(0, 0)
	defer tr.Close()
	if err := tr.Register(tcp.addr(), nil); err == nil {
		t.Error("want error for nil handler")
	}
	if err := tr.Register("not-an-address", func(ids.NodeID, any) {}); err == nil {
		t.Error("want error for bad address")
	}
}
