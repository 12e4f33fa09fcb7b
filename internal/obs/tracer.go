package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one causal step of a management operation: a message hop, a
// delivery, a partial-aggregate merge. Timestamps are virtual (the
// simulated clock), never wall time, so traces from the same seed are
// identical run to run.
type Span struct {
	At   time.Duration `json:"at"`   // virtual time of the step
	Op   string        `json:"op"`   // operation id (origin#seq)
	Kind string        `json:"kind"` // anycast | multicast | rangecast | aggregate
	Ev   string        `json:"ev"`   // init | hop | deliver | result | reply | decline | spam
	Hop  int           `json:"hop"`  // hop count or tree depth at this step
	Src  string        `json:"src"`  // sending node ("" at initiation)
	Dst  string        `json:"dst"`  // node recording the step
}

// Tracer collects Spans into a bounded ring buffer. Recording is
// cheap (one mutex acquisition, no allocation beyond the ring slot)
// and safe for concurrent use; a nil Tracer no-ops, which is the
// disabled fast path. When more than cap spans are recorded the
// oldest are dropped — Dropped reports how many.
type Tracer struct {
	mu      sync.Mutex
	ring    []Span
	next    int // ring write cursor
	n       int // spans currently held (≤ len(ring))
	dropped int64
}

// DefaultTraceCap is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCap = 1 << 18

// NewTracer returns a tracer holding at most cap spans.
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Tracer{ring: make([]Span, cap)}
}

// Record appends one span, evicting the oldest if the ring is full.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Dropped returns how many spans were evicted from a full ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the held spans in deterministic order: by virtual
// time, then op id, then event fields. Sorting here (rather than
// relying on arrival order) keeps exports byte-identical even when
// several recorders (live nodes, the worlds of a RunMany sweep) raced
// to record.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, 0, t.n)
	if t.n == len(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.n]...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Ev != b.Ev {
			return a.Ev < b.Ev
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out
}

// WriteJSONL writes the snapshot as JSON Lines, one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format
// (catapult "JSON Array Format" inside an object container), the
// subset Perfetto renders: async begin (b) / instant (n) / end (e)
// events grouped by id share one per-op track.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds on the virtual-time axis
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	ID    string            `json:"id"`
	Scope string            `json:"scope,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the snapshot in Chrome trace-event format.
// Each operation becomes one async track (keyed by op id): a begin
// event at its first span, an instant event per intermediate span, and
// an end event at its last span. Load the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing; the time axis is virtual
// time in microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Snapshot()
	first := make(map[string]int, 64)
	last := make(map[string]int, 64)
	for i, s := range spans {
		if _, ok := first[s.Op]; !ok {
			first[s.Op] = i
		}
		last[s.Op] = i
	}
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		ph := "n"
		switch {
		case first[s.Op] == i && last[s.Op] == i:
			// Single-span op: emit begin and end at the same ts so the
			// track still renders.
			ph = "b"
		case first[s.Op] == i:
			ph = "b"
		case last[s.Op] == i:
			ph = "e"
		}
		ev := chromeEvent{
			Name:  s.Kind + "/" + s.Op,
			Cat:   s.Kind,
			Phase: ph,
			TS:    float64(s.At) / float64(time.Microsecond),
			PID:   1,
			TID:   1,
			ID:    s.Op,
			Args: map[string]string{
				"ev":  s.Ev,
				"hop": fmt.Sprint(s.Hop),
				"src": s.Src,
				"dst": s.Dst,
			},
		}
		events = append(events, ev)
		if first[s.Op] == i && last[s.Op] == i {
			end := ev
			end.Phase = "e"
			events = append(events, end)
		}
	}
	container := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayUnit: "ms"}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(container); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace checks that r holds a structurally valid Chrome
// trace-event file: a JSON object with a traceEvents array whose every
// entry carries a name, a phase, and a numeric ts. Returns the event
// count. This is the minimal schema gate CI runs over emitted traces.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var container struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&container); err != nil {
		return 0, fmt.Errorf("parse trace container: %w", err)
	}
	if container.TraceEvents == nil {
		return 0, fmt.Errorf("missing traceEvents array")
	}
	for i, ev := range container.TraceEvents {
		if _, ok := ev["name"].(string); !ok {
			return 0, fmt.Errorf("event %d: missing name", i)
		}
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			return 0, fmt.Errorf("event %d: missing ph", i)
		}
		if _, ok := ev["ts"].(float64); !ok {
			return 0, fmt.Errorf("event %d: missing numeric ts", i)
		}
	}
	return len(container.TraceEvents), nil
}
