package transport

import (
	"reflect"
	"testing"
	"time"

	"avmem/internal/agg"
	"avmem/internal/core"
	"avmem/internal/ops"
)

// fullOpsSamples is one message of each ops kind with every field set;
// the anycast carries both stage-two specs.
func fullOpsSamples() []any {
	id := ops.MsgID{Origin: "10.0.0.1:4000", Seq: 7}
	mc := ops.MulticastSpec{Mode: ops.Gossip, Flavor: core.VSOnly, Fanout: 5, Rounds: 2,
		Period: time.Second, HalfOpen: true, Payload: "upgrade v2"}
	ag := ops.AggregateSpec{Op: agg.Avg, Band: ops.Band{Lo: 0.25, Hi: 0.75}, Flavor: core.HSOnly, Token: 0xfeedface, Salt: 77}
	part := agg.Partial{N: 3, Sum: 1.25, Min: 0.25, Max: 0.5, Depth: 2}
	// The anycast options are set by field, not in the literal, so the
	// sample reads the same whether or not the message nests them.
	ac := ops.AnycastMsg{ID: id, Target: ops.Target{Lo: 0.5, Hi: 0.875},
		Hops: 2, SentAt: 1500 * time.Millisecond, SenderAvail: 0.625, Multicast: &mc, Aggregate: &ag}
	ac.Policy, ac.Flavor, ac.TTL, ac.Retry = ops.RetriedGreedy, core.HSVS, 6, 3
	return []any{
		ac,
		ops.MulticastMsg{ID: id, Target: ops.Target{Lo: 0.5, Hi: 1}, Spec: mc, SentAt: time.Second, SenderAvail: 0.75, Depth: 4},
		ops.DeliveredMsg{ID: id, Hops: 3, SentAt: 2 * time.Second},
		ops.AggMsg{ID: id, Spec: ag, Depth: 1, SentAt: time.Second, SenderAvail: 0.375},
		ops.AggReplyMsg{ID: id, Partial: part, Decline: true, SenderAvail: 0.25},
		ops.AggResultMsg{ID: id, Result: part, Token: 0xfeedface, SentAt: time.Second, SenderAvail: 0.5},
	}
}

// opsWireBodies is the JSON body of each fullOpsSamples message.
var opsWireBodies = map[string]string{
	"anycast":    `{"ID":{"Origin":"10.0.0.1:4000","Seq":7},"Target":{"Lo":0.5,"Hi":0.875},"Policy":2,"Flavor":3,"TTL":6,"Retry":3,"Hops":2,"SentAt":1500000000,"SenderAvail":0.625,"Multicast":{"Mode":2,"Flavor":2,"Fanout":5,"Rounds":2,"Period":1000000000,"HalfOpen":true,"Payload":"upgrade v2"},"Aggregate":{"Op":5,"Band":{"Lo":0.25,"Hi":0.75},"Flavor":1,"Token":4277009102,"Salt":77}}`,
	"multicast":  `{"ID":{"Origin":"10.0.0.1:4000","Seq":7},"Target":{"Lo":0.5,"Hi":1},"Spec":{"Mode":2,"Flavor":2,"Fanout":5,"Rounds":2,"Period":1000000000,"HalfOpen":true,"Payload":"upgrade v2"},"SentAt":1000000000,"SenderAvail":0.75,"Depth":4}`,
	"delivered":  `{"ID":{"Origin":"10.0.0.1:4000","Seq":7},"Hops":3,"SentAt":2000000000}`,
	"agg":        `{"ID":{"Origin":"10.0.0.1:4000","Seq":7},"Spec":{"Op":5,"Band":{"Lo":0.25,"Hi":0.75},"Flavor":1,"Token":4277009102,"Salt":77},"Depth":1,"SentAt":1000000000,"SenderAvail":0.375}`,
	"agg-reply":  `{"ID":{"Origin":"10.0.0.1:4000","Seq":7},"Partial":{"N":3,"Sum":1.25,"Min":0.25,"Max":0.5,"Depth":2},"Decline":true,"SenderAvail":0.25}`,
	"agg-result": `{"ID":{"Origin":"10.0.0.1:4000","Seq":7},"Result":{"N":3,"Sum":1.25,"Min":0.25,"Max":0.5,"Depth":2},"Token":4277009102,"SentAt":1000000000,"SenderAvail":0.5}`,
}

// TestOpsWireBodies pins the JSON body of each ops kind, key for key, as
// a peer of another build reads it: a nested or renamed key would still
// round-trip (TestCodecRoundTripsEveryKind) and yet break every running
// peer. Each pinned body also decodes back to its sample.
func TestOpsWireBodies(t *testing.T) {
	for _, msg := range fullOpsSamples() {
		env, err := Encode("10.0.0.9:4000", msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if got := string(env.Body); got != opsWireBodies[env.Kind] {
			t.Errorf("%s body:\n got %s\nwant %s", env.Kind, got, opsWireBodies[env.Kind])
		}
		env.Body = []byte(opsWireBodies[env.Kind])
		if back, err := Decode(env); err != nil || !reflect.DeepEqual(back, msg) {
			t.Errorf("%s: pinned body decodes to %+v (%v), want %+v", env.Kind, back, err, msg)
		}
	}
}
