// Package transport carries AVMEM operation messages between live
// nodes. Two implementations are provided: Memnet, the in-process
// network of tests, examples and single-process clusters, and a TCP
// transport for real deployments.
//
// Neither simulation engine uses this package: both deploy their nodes
// on internal/sim's virtual-time network. Both expose the same send
// semantics so internal/ops runs unchanged on either.
//
// Architecture: DESIGN.md §11 (live runtime) and §6 (the Runtime/Env
// contract).
package transport

import (
	"encoding/json"
	"fmt"

	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/shuffle"
)

// Handler consumes a message delivered to a node.
type Handler func(from ids.NodeID, msg any)

// Transport moves operation messages between nodes.
type Transport interface {
	// Register binds self to the transport and installs its message
	// handler. It must be called before Send.
	Register(self ids.NodeID, h Handler) error
	// Send delivers msg to the target, best effort.
	Send(from, to ids.NodeID, msg any)
	// SendCall delivers msg and reports the outcome: true once the
	// target acknowledged, false when it was unreachable.
	SendCall(from, to ids.NodeID, msg any, onResult func(ok bool))
	// Unregister removes self from the transport.
	Unregister(self ids.NodeID)
	// Close releases transport resources.
	Close() error
}

// Envelope is the wire representation of one message.
type Envelope struct {
	From ids.NodeID      `json:"from"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// Message kinds on the wire.
const (
	KindAnycast        = "anycast"
	KindMulticast      = "multicast"
	KindDelivered      = "delivered"
	KindAgg            = "agg"
	KindAggReply       = "agg-reply"
	KindAggResult      = "agg-result"
	KindShuffleRequest = "shuffle-request"
	KindShuffleReply   = "shuffle-reply"
)

// Encode wraps an operation message into an Envelope.
func Encode(from ids.NodeID, msg any) (Envelope, error) {
	var kind string
	switch msg.(type) {
	case ops.AnycastMsg:
		kind = KindAnycast
	case ops.MulticastMsg:
		kind = KindMulticast
	case ops.DeliveredMsg:
		kind = KindDelivered
	case ops.AggMsg:
		kind = KindAgg
	case ops.AggReplyMsg:
		kind = KindAggReply
	case ops.AggResultMsg:
		kind = KindAggResult
	case *shuffle.Request:
		kind = KindShuffleRequest
	case *shuffle.Reply:
		kind = KindShuffleReply
	default:
		return Envelope{}, fmt.Errorf("transport: unsupported message type %T", msg)
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return Envelope{}, fmt.Errorf("transport: encoding %s: %w", kind, err)
	}
	return Envelope{From: from, Kind: kind, Body: body}, nil
}

// Decode unwraps an Envelope back into an operation message.
func Decode(env Envelope) (any, error) {
	switch env.Kind {
	case KindAnycast:
		return decode[ops.AnycastMsg](env)
	case KindMulticast:
		return decode[ops.MulticastMsg](env)
	case KindDelivered:
		return decode[ops.DeliveredMsg](env)
	case KindAgg:
		return decode[ops.AggMsg](env)
	case KindAggReply:
		return decode[ops.AggReplyMsg](env)
	case KindAggResult:
		return decode[ops.AggResultMsg](env)
	case KindShuffleRequest:
		return decodeRef[shuffle.Request](env)
	case KindShuffleReply:
		return decodeRef[shuffle.Reply](env)
	default:
		return nil, fmt.Errorf("transport: unknown message kind %q", env.Kind)
	}
}

// decode unmarshals an envelope's body as a message of type M.
func decode[M any](env Envelope) (any, error) {
	var m M
	if err := json.Unmarshal(env.Body, &m); err != nil {
		return nil, fmt.Errorf("transport: decoding %s: %w", env.Kind, err)
	}
	return m, nil
}

// decodeRef is decode for a message that travels by pointer (the
// shuffle exchange messages).
func decodeRef[M any](env Envelope) (any, error) {
	m := new(M)
	if err := json.Unmarshal(env.Body, m); err != nil {
		return nil, fmt.Errorf("transport: decoding %s: %w", env.Kind, err)
	}
	return m, nil
}
