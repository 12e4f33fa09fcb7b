package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"avmem/internal/ids"
)

// TCP is the deployable transport: each node listens on its NodeID's
// host:port; messages are length-prefixed JSON envelopes; SendCall
// waits for a one-byte acknowledgment. Connections are per-message —
// simple, stateless, and adequate for management-plane traffic rates
// (AVMEM operations are occasional, not a data plane).
//
// TCP is safe for concurrent use.
type TCP struct {
	dialTimeout time.Duration
	ackTimeout  time.Duration

	mu        sync.Mutex
	listeners map[ids.NodeID]net.Listener
	wg        sync.WaitGroup
	closed    bool
}

var _ Transport = (*TCP)(nil)

// maxFrame bounds a wire frame; operation messages are tiny, so this
// mostly guards against garbage.
const maxFrame = 1 << 20

// NewTCP creates the TCP transport. Zero timeouts default to 2 s dial
// and 5 s acknowledgment.
func NewTCP(dialTimeout, ackTimeout time.Duration) *TCP {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if ackTimeout <= 0 {
		ackTimeout = 5 * time.Second
	}
	return &TCP{
		dialTimeout: dialTimeout,
		ackTimeout:  ackTimeout,
		listeners:   make(map[ids.NodeID]net.Listener, 4),
	}
}

// Register implements Transport: it binds a listener on self
// (interpreted as a host:port address) and serves inbound messages to
// h, one goroutine per connection.
func (t *TCP) Register(self ids.NodeID, h Handler) error {
	if h == nil {
		return errors.New("transport: nil handler")
	}
	ln, err := net.Listen("tcp", self.String())
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", self, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return errors.New("transport: closed")
	}
	t.listeners[self] = ln
	t.wg.Add(1)
	t.mu.Unlock()

	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serve(conn, h)
			}()
		}
	}()
	return nil
}

// serve handles one inbound connection: read a frame, dispatch, ack.
func (t *TCP) serve(conn net.Conn, h Handler) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(t.ackTimeout))
	env, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		return
	}
	msg, err := Decode(env)
	if err != nil {
		return
	}
	// Acknowledge before dispatching: receipt is what the sender's
	// failure detector needs to know, and the handler may take a while.
	_ = conn.SetWriteDeadline(time.Now().Add(t.ackTimeout))
	if _, err := conn.Write([]byte{1}); err != nil {
		return
	}
	h(env.From, msg)
}

// Unregister implements Transport.
func (t *TCP) Unregister(self ids.NodeID) {
	t.mu.Lock()
	ln, ok := t.listeners[self]
	delete(t.listeners, self)
	t.mu.Unlock()
	if ok {
		ln.Close()
	}
}

// Close implements Transport: stops all listeners and waits for served
// connections to finish.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	for id, ln := range t.listeners {
		ln.Close()
		delete(t.listeners, id)
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// send dials, writes one frame, and optionally waits for the ack byte.
func (t *TCP) send(from, to ids.NodeID, msg any, wantAck bool) bool {
	env, err := Encode(from, msg)
	if err != nil {
		return false
	}
	conn, err := net.DialTimeout("tcp", to.String(), t.dialTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(t.ackTimeout))
	if err := writeFrame(conn, env); err != nil {
		return false
	}
	if !wantAck {
		return true
	}
	_ = conn.SetReadDeadline(time.Now().Add(t.ackTimeout))
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return false
	}
	return ack[0] == 1
}

// admit counts one send goroutine for Close to wait on. It checks closed
// and calls Add under t.mu, so no Add at counter zero runs concurrently
// with Close's Wait; once closed it reports false and counts nothing.
func (t *TCP) admit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.wg.Add(1)
	return true
}

// Send implements Transport. A Send after Close drops.
func (t *TCP) Send(from, to ids.NodeID, msg any) {
	if !t.admit() {
		return
	}
	go func() {
		defer t.wg.Done()
		t.send(from, to, msg, false)
	}()
}

// SendCall implements Transport. A SendCall after Close reports false,
// once, on another goroutine.
func (t *TCP) SendCall(from, to ids.NodeID, msg any, onResult func(ok bool)) {
	if !t.admit() {
		if onResult != nil {
			go onResult(false)
		}
		return
	}
	go func() {
		defer t.wg.Done()
		ok := t.send(from, to, msg, true)
		if onResult != nil {
			onResult(ok)
		}
	}()
}

// writeFrame emits a 4-byte big-endian length followed by the JSON
// envelope.
func writeFrame(w io.Writer, env Envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if len(body) > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", len(body))
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readFrame parses one length-prefixed JSON envelope.
func readFrame(r io.Reader) (Envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrame {
		return Envelope{}, fmt.Errorf("transport: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Envelope{}, err
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return Envelope{}, fmt.Errorf("transport: bad envelope: %w", err)
	}
	return env, nil
}
