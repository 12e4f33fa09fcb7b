// Package trace models host churn traces: per-host uptime sampled at
// fixed epochs, the shape of the Overnet measurement data (Bhagwan et
// al., IPTPS 2003) the paper injects into its simulator — a fixed
// population of 1442 hosts probed every 20 minutes for 7 days.
//
// The package provides the trace container with availability queries
// (raw and exponentially aged), a text codec so real traces can be
// loaded and synthetic ones archived, and a synthetic generator that
// reproduces the published Overnet availability statistics (see the
// default-fleet table in DESIGN.md §8 for the substitution argument).
package trace

import (
	"fmt"
	"math/bits"
	"time"

	"avmem/internal/ids"
)

// DefaultEpoch is the probing interval of the Overnet traces.
const DefaultEpoch = 20 * time.Minute

// Overnet trace dimensions used throughout the paper's evaluation.
const (
	OvernetHosts  = 1442
	OvernetDays   = 7
	OvernetEpochs = OvernetDays * 24 * 3 // 20-minute epochs
)

// Trace is an immutable-by-convention uptime matrix: Up(h, e) reports
// whether host h was online during epoch e. Uptime is stored as packed
// bitsets, ~90 KB for the full Overnet dimensions.
type Trace struct {
	hosts  []ids.NodeID
	index  map[ids.NodeID]int
	epochs int
	epoch  time.Duration
	words  int // uint64 words per host row
	bits   []uint64
}

// New creates an all-offline trace for the given hosts and epoch count.
// epoch <= 0 selects DefaultEpoch. It returns an error on duplicate or
// nil host IDs or non-positive epochs.
func New(hosts []ids.NodeID, epochs int, epoch time.Duration) (*Trace, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("trace: no hosts")
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("trace: epochs must be positive, got %d", epochs)
	}
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	index := make(map[ids.NodeID]int, len(hosts))
	for i, h := range hosts {
		if h.IsNil() {
			return nil, fmt.Errorf("trace: nil host id at index %d", i)
		}
		if _, dup := index[h]; dup {
			return nil, fmt.Errorf("trace: duplicate host id %q", h)
		}
		index[h] = i
	}
	words := (epochs + 63) / 64
	t := &Trace{
		hosts:  append([]ids.NodeID(nil), hosts...),
		index:  index,
		epochs: epochs,
		epoch:  epoch,
		words:  words,
		bits:   make([]uint64, words*len(hosts)),
	}
	return t, nil
}

// Hosts returns the number of hosts in the trace.
func (t *Trace) Hosts() int { return len(t.hosts) }

// Epochs returns the number of epochs in the trace.
func (t *Trace) Epochs() int { return t.epochs }

// EpochLength returns the duration of one epoch.
func (t *Trace) EpochLength() time.Duration { return t.epoch }

// Duration returns the total wall-clock span of the trace.
func (t *Trace) Duration() time.Duration { return time.Duration(t.epochs) * t.epoch }

// HostID returns the NodeID of host index h.
func (t *Trace) HostID(h int) ids.NodeID { return t.hosts[h] }

// HostIndex returns the index for a NodeID, or -1 if unknown.
func (t *Trace) HostIndex(id ids.NodeID) int {
	if i, ok := t.index[id]; ok {
		return i
	}
	return -1
}

// HostIDs returns a copy of all host identifiers in index order.
func (t *Trace) HostIDs() []ids.NodeID {
	return append([]ids.NodeID(nil), t.hosts...)
}

// SetUp marks host h online (up=true) or offline during epoch e.
func (t *Trace) SetUp(h, e int, up bool) {
	t.checkBounds(h, e)
	w := h*t.words + e/64
	mask := uint64(1) << uint(e%64)
	if up {
		t.bits[w] |= mask
	} else {
		t.bits[w] &^= mask
	}
}

// Up reports whether host h was online during epoch e.
func (t *Trace) Up(h, e int) bool {
	t.checkBounds(h, e)
	return t.bits[h*t.words+e/64]&(uint64(1)<<uint(e%64)) != 0
}

// EpochAt maps an instant (time since trace start) to an epoch index,
// clamped into [0, Epochs-1].
func (t *Trace) EpochAt(at time.Duration) int {
	if at < 0 {
		return 0
	}
	e := int(at / t.epoch)
	if e >= t.epochs {
		e = t.epochs - 1
	}
	return e
}

// UpAt reports whether host h is online at the given instant.
func (t *Trace) UpAt(h int, at time.Duration) bool { return t.Up(h, t.EpochAt(at)) }

// UpAtIndex is the hot-path liveness probe: like UpAt but tolerant of
// out-of-range host indexes (reported offline instead of panicking), so
// deployment-wide liveness checks — executed once per node per delivery,
// tick, and ping — are a pure bitset read with no map lookups. Index h
// is the host's row in this trace (HostIndex / HostID order).
func (t *Trace) UpAtIndex(h int, at time.Duration) bool {
	if h < 0 || h >= len(t.hosts) {
		return false
	}
	return t.Up(h, t.EpochAt(at))
}

// OnlineCount returns how many hosts are online during epoch e: one
// word read per host.
func (t *Trace) OnlineCount(e int) int {
	t.checkBounds(0, e)
	n := 0
	for w := e / 64; w < len(t.bits); w += t.words {
		n += int(t.bits[w] >> uint(e%64) & 1)
	}
	return n
}

// OnlineHosts returns the indices of hosts online during epoch e.
func (t *Trace) OnlineHosts(e int) []int {
	t.checkBounds(0, e)
	out := make([]int, 0, len(t.hosts)/2)
	for h, w := 0, e/64; w < len(t.bits); h, w = h+1, w+t.words {
		if t.bits[w]>>uint(e%64)&1 != 0 {
			out = append(out, h)
		}
	}
	return out
}

// upCount returns how many of epochs 0..to host h was online, with
// 0 <= to < Epochs: a popcount of the row words up to to's, that last
// word masked to it.
func (t *Trace) upCount(h, to int) int {
	row := t.bits[h*t.words : (h+1)*t.words]
	hi := to / 64
	n := bits.OnesCount64(row[hi] & (^uint64(0) >> uint(63-to%64)))
	for _, w := range row[:hi] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Availability returns host h's long-term availability measured from
// epoch 0 through epoch upto inclusive: the fraction of those epochs the
// host was online. This is the "raw" availability the paper's
// monitoring service reports.
func (t *Trace) Availability(h, upto int) float64 {
	t.checkBounds(h, 0)
	if upto < 0 {
		return 0
	}
	if upto >= t.epochs {
		upto = t.epochs - 1
	}
	return float64(t.upCount(h, upto)) / float64(upto+1)
}

// Availabilities returns every host's long-term availability through
// epoch upto, indexed by host.
func (t *Trace) Availabilities(upto int) []float64 {
	out := make([]float64, len(t.hosts))
	for h := range t.hosts {
		out[h] = t.Availability(h, upto)
	}
	return out
}

// MeanOnline returns the mean number of online hosts per epoch across
// the whole trace — an estimator for the paper's stable system size N*.
// It popcounts the whole bitset: bits past the last epoch of a row are
// never set.
func (t *Trace) MeanOnline() float64 {
	var sum int
	for _, w := range t.bits {
		sum += bits.OnesCount64(w)
	}
	return float64(sum) / float64(t.epochs)
}

func (t *Trace) checkBounds(h, e int) {
	if h < 0 || h >= len(t.hosts) {
		panic(fmt.Sprintf("trace: host index %d out of range [0,%d)", h, len(t.hosts)))
	}
	if e < 0 || e >= t.epochs {
		panic(fmt.Sprintf("trace: epoch %d out of range [0,%d)", e, t.epochs))
	}
}

// SmoothedAvailability returns the add-one (Laplace) estimate of host
// h's long-term availability through epoch upto: (up+1)/(n+2). This is
// what a monitoring service should report: early in a host's lifetime
// the raw ratio sits at the degenerate extremes (exactly 0.0 or 1.0 for
// hosts that have been always-off or always-on so far), where no
// population mass lives; the smoothed estimator keeps reports inside
// the calibrated range and converges to the raw ratio as epochs
// accumulate.
func (t *Trace) SmoothedAvailability(h, upto int) float64 {
	t.checkBounds(h, 0)
	if upto < 0 {
		return 0.5 // no observations: uninformative prior
	}
	if upto >= t.epochs {
		upto = t.epochs - 1
	}
	return float64(t.upCount(h, upto)+1) / float64(upto+3)
}

// SmoothedAvailabilities returns every host's smoothed availability
// through epoch upto, indexed by host.
func (t *Trace) SmoothedAvailabilities(upto int) []float64 {
	out := make([]float64, len(t.hosts))
	for h := range t.hosts {
		out[h] = t.SmoothedAvailability(h, upto)
	}
	return out
}
