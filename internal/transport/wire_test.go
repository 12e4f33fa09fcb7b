package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"avmem/internal/agg"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/shuffle"
)

// wireSamples is one valid message of every kind the wire carries.
func wireSamples() []any {
	return []any{
		sampleAnycast(),
		sampleMulticast(),
		ops.DeliveredMsg{ID: ops.MsgID{Origin: "10.0.0.1:4000", Seq: 9}, Hops: 3},
		&shuffle.Request{Entries: []shuffle.Entry{{ID: "10.0.0.3:4000", Age: 2}}, SenderAvail: 0.4},
		&shuffle.Reply{Entries: []shuffle.Entry{{ID: "10.0.0.4:4000"}}, SenderAvail: 0.7},
		ops.AggMsg{ID: ops.MsgID{Origin: "10.0.0.6:4000", Seq: 5},
			Spec:  ops.AggregateSpec{Op: agg.Avg, Band: ops.Band{Lo: 0.2, Hi: 0.6}, Flavor: core.VSOnly, Salt: 77},
			Depth: 1, SentAt: time.Second, SenderAvail: 0.4},
		ops.AggReplyMsg{ID: ops.MsgID{Origin: "10.0.0.6:4000", Seq: 5},
			Partial: agg.Partial{N: 3, Sum: 1.25, Min: 0.25, Max: 0.55, Depth: 2}, SenderAvail: 0.3},
		ops.AggResultMsg{ID: ops.MsgID{Origin: "10.0.0.6:4000", Seq: 5},
			Result: agg.Partial{N: 7, Sum: 2.5, Min: 0.2, Max: 0.58, Depth: 3}, Token: 0xfeedface, SentAt: time.Second, SenderAvail: 0.5},
	}
}

// rangecastSample is a range-cast as it crosses the wire: a multicast
// whose target is half-open, with a payload and a dissemination depth.
func rangecastSample() ops.MulticastMsg {
	return ops.MulticastMsg{ID: ops.MsgID{Origin: "10.0.0.5:4000", Seq: 4}, Target: ops.Target{Lo: 0.5, Hi: 1},
		Spec:  ops.MulticastSpec{Mode: ops.Flood, Flavor: core.HSVS, HalfOpen: true, Payload: "upgrade v2"},
		Depth: 2, SentAt: 3 * time.Second, SenderAvail: 0.8}
}

// TestCodecRoundTripsEveryKind: every kind the wire carries — one sample
// each — encodes under its own kind and decodes to an identical message.
// What the live router actually sends is pinned against this codec in
// internal/node (TestEveryRouterMessageCrossesTheWire).
func TestCodecRoundTripsEveryKind(t *testing.T) {
	kinds := map[string]bool{}
	for _, msg := range wireSamples() {
		env, err := Encode("10.0.0.9:4000", msg)
		if err != nil {
			t.Errorf("%T: %v", msg, err)
			continue
		}
		if kinds[env.Kind] {
			t.Errorf("%T: kind %q already taken", msg, env.Kind)
		}
		kinds[env.Kind] = true
		back, err := Decode(env)
		if err != nil || !reflect.DeepEqual(back, msg) {
			t.Errorf("%s: round trip gave %+v (%v), want %+v", env.Kind, back, err, msg)
		}
	}
	if len(kinds) != 8 {
		t.Errorf("%d kinds on the wire, want 8", len(kinds))
	}
}

// frame encodes msg from sender as it goes on the wire.
func frame(t testing.TB, from ids.NodeID, msg any) []byte {
	t.Helper()
	env, err := Encode(from, msg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame length-prefixes an arbitrary body.
func rawFrame(body string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// TestWireCarriesNoMemo: an address memo is a hint between parties that
// share a host table; the wire has no such table and no such field. The
// envelope is (from, kind, body), the sender of a memo'd address goes out
// as its identifier, and a peer that writes a "memo" key into its frame
// gets it ignored: what comes off the wire is an identifier.
func TestWireCarriesNoMemo(t *testing.T) {
	var fields []string
	for i, typ := 0, reflect.TypeOf(Envelope{}); i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if got := strings.Join(fields, ","); got != "From,Kind,Body" {
		t.Fatalf("Envelope fields are %s: an address memo (or anything else) must not ride the wire", got)
	}
	sender := ids.AddrAt("10.0.0.1:4000", 7)
	wire := frame(t, sender.ID(), sampleAnycast())
	if bytes.Contains(wire, []byte("memo")) || bytes.Contains(wire, []byte("idx")) {
		t.Fatalf("frame mentions a memo: %s", wire[4:])
	}
	env, err := readFrame(bytes.NewReader(wire))
	if err != nil || env.From != sender.ID() {
		t.Fatalf("round trip: from %q, %v", env.From, err)
	}
	forged := rawFrame(`{"from":"10.0.0.1:4000","memo":7,"idx1":8,"kind":"delivered","body":{"ID":{"Origin":"o","Seq":1}}}`)
	env, err = readFrame(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := Decode(env); err != nil || env.From.Addr().Index() != -1 || msg.(ops.DeliveredMsg).ID.Seq != 1 {
		t.Fatalf("forged memo key: from %v (memo %d), msg %v, %v", env.From, env.From.Addr().Index(), msg, err)
	}
}

// FuzzReadFrame feeds the frame decoder what a peer controls — the bytes
// of a connection. Whatever they are, readFrame and Decode return an
// error or a well-formed message without panicking, never read a body
// longer than maxFrame, and a message that decodes survives a second trip
// through the codec.
func FuzzReadFrame(f *testing.F) {
	for _, msg := range wireSamples() {
		f.Add(frame(f, "10.0.0.9:4000", msg))
	}
	f.Add([]byte{0, 0, 0, 0})                                         // zero length
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))             // longer than a frame may be
	f.Add(append(binary.BigEndian.AppendUint32(nil, 64), "{\"fr"...)) // truncated body
	f.Add(rawFrame(`{"from":"a:1","memo":3,"kind":"anycast","body":{}}`))
	f.Add(rawFrame(`{"from":"a:1","kind":"anycast","body":[]}`))
	f.Add(rawFrame(`{"from":"a:1","kind":"nonsense","body":{}}`))
	f.Add(frame(f, "10.0.0.9:4000", rangecastSample()))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readFrame(bufio.NewReader(bytes.NewReader(data))) // as TCP.serve reads a connection
		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); (n == 0 || n > maxFrame) && err == nil {
				t.Fatalf("frame length %d accepted", n)
			}
		}
		if err != nil {
			return
		}
		if len(env.Body) > maxFrame {
			t.Fatalf("body of %d bytes out of a %d-byte frame", len(env.Body), maxFrame)
		}
		msg, err := Decode(env)
		if err != nil {
			return
		}
		again, err := Encode(env.From, msg)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", msg, err)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, again); err != nil {
			// Re-marshalling can grow a frame past the limit (escapes); the
			// limit holding on the way out is the point.
			return
		}
		back, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame does not read back: %v", err)
		}
		msg2, err := Decode(back)
		if err != nil || back.From != env.From || back.Kind != env.Kind {
			t.Fatalf("second trip: %v / %q %q vs %q %q", err, back.From, back.Kind, env.From, env.Kind)
		}
		a, _ := json.Marshal(msg)
		b, _ := json.Marshal(msg2)
		if !bytes.Equal(a, b) {
			t.Fatalf("message changed on its second trip:\n%s\n%s", a, b)
		}
	})
}
