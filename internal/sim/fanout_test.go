package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"avmem/internal/ids"
)

// refSend is SendAddr as k sends of a fan-out would be without delivery
// bodies: one closure event per send, drawing the same latency and
// taking the same push rank, delivering through the same memo checks.
func refSend(n *Network, from, to ids.Addr, msg any) {
	n.stats.Sent++
	w := n.world
	w.At(w.now+n.latency.Sample(w.Rand()), func() { n.deliver(from, to, msg) })
}

// fanMsg is a fan-out program's message: the id both worlds know it by,
// and the sender a relaying handler sends it on from. The slice makes its
// dynamic type uncomparable, so == on two boxes of it would panic.
type fanMsg struct {
	id   int
	from ids.Addr
	path []int
}

// tenthsLatency draws 0, 10, 20 or 30 ms: zero-latency copies fire at
// their send instant, and the rest tie with each other and with the
// 10 ms-multiple ring timers of a fan-out program.
type tenthsLatency struct{}

func (tenthsLatency) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Intn(4)) * 10 * time.Millisecond
}

// fanHosts is a fan-out program's universe; fanAddrs are the addresses
// its sends draw from: every host under its own memo, then a memo-less
// one, wrong memos (another host's slot, a slot past the universe) and
// an identifier outside the universe, memo-less and under a host's memo.
var (
	fanHosts = []ids.NodeID{"h0", "h1", "h2", "h3", "h4", "h5"}
	fanAddrs = []ids.Addr{
		ids.AddrAt("h0", 0), ids.AddrAt("h1", 1), ids.AddrAt("h2", 2),
		ids.AddrAt("h3", 3), ids.AddrAt("h4", 4), ids.AddrAt("h5", 5),
		ids.NodeID("h1").Addr(), ids.AddrAt("h2", 3), ids.AddrAt("h3", 40),
		ids.NodeID("loose").Addr(), ids.AddrAt("loose", 0),
	}
)

// fanTranscript is what a fan-out program lets an observer see.
type fanTranscript struct {
	log    []string
	stats  NetworkStats
	memo   AddrMemoStats
	rand   int64
	shared uint64
}

// fanOutTranscript runs the fan-out program ops on a fresh world whose
// sends all go through send, and returns what it observed. Two-byte
// instructions: a fan-out — k sends of one boxed message (a struct or a
// pointer) from one sender at one instant, now and then a different
// message or sender among them; a Run to a horizon; a host going offline or coming
// back; a handler unregistered or registered again; a periodic timer
// (10–30 ms, six runs) that logs each run and fans out on every other
// one; or a bounded RunAll. A handler that receives an even id sends the
// same box on from its sender, at most twice per id: at zero latency
// that send follows the firing of the copy it answers with no push
// between them. h5 starts unregistered. The world's push ranks start at
// rank.
func fanOutTranscript(t *testing.T, send func(n *Network, from, to ids.Addr, msg any), ops []byte, rank uint32) fanTranscript {
	t.Helper()
	w := NewWorld(3)
	w.events.rank = rank
	up := make([]bool, len(fanHosts))
	for i := range up {
		up[i] = true
	}
	n := boundNet(t, w, tenthsLatency{}, 0, fanHosts, func(i int) bool { return up[i] })
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", w.Now())+fmt.Sprintf(format, args...))
	}
	nextID := 0
	box := func(from ids.Addr, pointer bool) any {
		nextID++
		if pointer {
			return &fanMsg{id: nextID, from: from}
		}
		return fanMsg{id: nextID, from: from, path: []int{nextID}}
	}
	relays := map[int]int{}
	handler := func(i int) AddrHandler {
		return func(from ids.Addr, msg any) {
			var m *fanMsg
			switch v := msg.(type) {
			case fanMsg:
				m = &v
			case *fanMsg:
				m = v
			}
			note("h%d<-%s/%d #%d", i, from.ID(), from.Index(), m.id)
			if m.id%2 == 0 && relays[m.id] < 2 {
				relays[m.id]++
				send(n, m.from, fanAddrs[(i+m.id+relays[m.id])%len(fanAddrs)], msg)
			}
		}
	}
	registered := make([]bool, len(fanHosts))
	setHandler := func(i int, on bool) {
		registered[i] = on
		var h AddrHandler
		if on {
			h = handler(i)
		}
		if err := n.RegisterAddr(ids.AddrAt(fanHosts[i], int32(i)), h); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fanHosts[:5] {
		setHandler(i, true)
	}
	fanOut := func(r *rand.Rand) {
		from := fanAddrs[r.Intn(len(fanAddrs))]
		msg := box(from, r.Intn(2) == 0)
		for k := 1 + r.Intn(8); k > 0; k-- {
			f, m := from, msg
			switch r.Intn(8) {
			case 0:
				m = box(from, r.Intn(2) == 0)
			case 1:
				f = fanAddrs[r.Intn(len(fanAddrs))]
			}
			send(n, f, fanAddrs[r.Intn(len(fanAddrs))], m)
		}
	}
	timers := 0
	for len(ops) >= 2 {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		switch op % 4 {
		case 0, 1:
			fanOut(rand.New(rand.NewSource(int64(op)<<8 | int64(arg))))
		case 2:
			note("run %d", w.Run(w.Now()+time.Duration(arg%8)*5*time.Millisecond))
		case 3:
			h := int(arg>>2) % len(fanHosts)
			switch arg % 4 {
			case 0:
				up[h] = !up[h]
			case 1:
				setHandler(h, !registered[h])
			case 2:
				timers++
				me, runs := timers, 0
				r := rand.New(rand.NewSource(int64(arg)))
				period := time.Duration(1+h%3) * 10 * time.Millisecond
				if err := w.Every(0, period, func() bool { return runs >= 6 }, func() {
					runs++
					note("timer %d", me)
					if runs%2 == 1 {
						fanOut(r)
					}
				}); err != nil {
					t.Fatal(err)
				}
			case 3:
				note("runall %d", w.RunAll(h+1))
			}
		}
		note("pending %d", w.Pending())
	}
	note("drain %d", w.RunAll(0))
	return fanTranscript{log: log, stats: n.Stats(), memo: n.AddrMemoStats(), rand: w.Rand().Int63(), shared: n.shared}
}

// checkFanOut runs ops through SendAddr and through refSend, with push
// ranks from 0 and with ranks that wrap around after the eighth push, and
// fails when anything observable differs; it returns SendAddr's
// transcript from rank 0.
func checkFanOut(t *testing.T, ops []byte) fanTranscript {
	t.Helper()
	var first fanTranscript
	for _, rank := range []uint32{0, math.MaxUint32 - 7} {
		want := fanOutTranscript(t, refSend, ops, rank)
		got := fanOutTranscript(t, (*Network).SendAddr, ops, rank)
		if !reflect.DeepEqual(got.log, want.log) {
			for i := range want.log {
				if i >= len(got.log) || got.log[i] != want.log[i] {
					t.Fatalf("program %x from rank %d: transcripts diverge at line %d: got %q, want %q",
						ops, rank, i, append(got.log, "<end>")[i], want.log[i])
				}
			}
			t.Fatalf("program %x from rank %d: transcript has %d extra lines", ops, rank, len(got.log)-len(want.log))
		}
		if got.stats != want.stats || got.memo != want.memo || got.rand != want.rand {
			t.Fatalf("program %x from rank %d: stats %+v memos %+v rng %d, want %+v %+v %d",
				ops, rank, got.stats, got.memo, got.rand, want.stats, want.memo, want.rand)
		}
		if rank == 0 {
			first = got
		}
	}
	return first
}

// fanOutSeeds are programs that reach each shape on purpose: fan-outs
// at instants where zero-latency copies fire and their handlers send
// again, timers tied with copies, hosts offline and unregistered.
var fanOutSeeds = [][]byte{
	{0, 1, 0, 2, 2, 7, 0, 3, 2, 2, 2, 7},
	{3, 0x02, 0, 9, 2, 2, 0, 10, 1, 11, 2, 4, 0, 12, 2, 7},
	{3, 0x06, 3, 0x0a, 0, 0x21, 3, 0x00, 2, 2, 0, 0x22, 3, 0x05, 2, 6, 1, 0x40, 3, 0x0b},
	{0, 0x30, 0, 0x31, 0, 0x32, 3, 0x14, 3, 0x11, 2, 1, 0, 0x33, 2, 3, 3, 0x04, 0, 0x34},
}

// TestFanOutMatchesIndependentSends is FuzzFanOut over its seeds and
// 300 random programs, checking that the programs reach the delivery
// body's edges: copies shared, drops, wrong memos.
func TestFanOutMatchesIndependentSends(t *testing.T) {
	var shared uint64
	var stats NetworkStats
	var memo AddrMemoStats
	progs := append([][]byte(nil), fanOutSeeds...)
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		p := make([]byte, 2*(1+rng.Intn(24)))
		rng.Read(p)
		progs = append(progs, p)
	}
	for _, p := range progs {
		got := checkFanOut(t, p)
		shared += got.shared
		stats.Sent += got.stats.Sent
		stats.Dropped += got.stats.Dropped
		memo.Mismatch += got.memo.Mismatch
	}
	if shared == 0 || shared >= uint64(stats.Sent) || stats.Dropped == 0 || memo.Mismatch == 0 {
		t.Fatalf("programs shared %d of %d copies, dropped %d, saw %d wrong memos", shared, stats.Sent, stats.Dropped, memo.Mismatch)
	}
}

// FuzzFanOut checks a fan-out against k independent sends: the same
// fire order and handler arguments, NetworkStats, AddrMemoStats and
// world RNG state (fanOutTranscript), with push ranks from 0 and
// wrapping around (checkFanOut).
func FuzzFanOut(f *testing.F) {
	for _, p := range fanOutSeeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			return
		}
		checkFanOut(t, ops)
	})
}

// TestDeliveryBodyReleasedByLastCopy: a fan-out of five copies to
// verified targets takes one slab slot, which stays held while any copy
// is queued and returns to the free list, zeroed, with the last one. A
// memo-less target starts a body of its own, and so does a send of the
// same box once the clock has moved, its body still held.
func TestDeliveryBodyReleasedByLastCopy(t *testing.T) {
	w := NewWorld(1)
	hosts := []ids.NodeID{"a", "b", "c", "d", "e", "f"}
	n := boundNet(t, w, UniformLatency{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond}, 0, hosts, nil)
	got := 0
	for _, id := range hosts {
		n.Register(id, func(ids.NodeID, any) { got++ })
	}
	var msg any = fanMsg{id: 1}
	from := ids.AddrAt("a", 0)
	for i := 1; i < len(hosts); i++ {
		n.SendAddr(from, ids.AddrAt(hosts[i], int32(i)), msg)
	}
	if w.events.slots != 1 || n.shared != 4 || w.Pending() != 5 {
		t.Fatalf("5 copies took %d slots, %d shared, %d pending; want 1, 4, 5", w.events.slots, n.shared, w.Pending())
	}
	body := w.events.at(0)
	for fired := 1; w.Pending() > 0; fired++ {
		w.RunAll(1)
		held := w.Pending() > 0
		if inFree := len(w.events.free) == 1 && w.events.free[0] == 0; inFree == held {
			t.Fatalf("after copy %d (%d queued): slot free %v", fired, w.Pending(), inFree)
		}
		if held && int(body.copies) != w.Pending() {
			t.Fatalf("after copy %d: body counts %d copies, %d queued", fired, body.copies, w.Pending())
		}
	}
	if got != 5 || !reflect.ValueOf(*body).IsZero() {
		t.Fatalf("%d delivered, released body %+v", got, *body)
	}
	n.SendAddr(from, ids.AddrAt("b", 1), msg)
	n.SendAddr(from, ids.NodeID("c").Addr(), msg)
	if w.events.slots != 2 || n.shared != 4 {
		t.Fatalf("a memo-less copy joined a body: %d slots, %d shared", w.events.slots, n.shared)
	}
	n.SendAddr(from, ids.AddrAt("d", 3), msg)
	w.RunAll(1)
	n.SendAddr(from, ids.AddrAt("e", 4), msg)
	if w.events.slots != 3 || n.shared != 5 {
		t.Fatalf("a later instant joined a body: %d slots, %d shared", w.events.slots, n.shared)
	}
	w.RunAll(0)
	if got != 9 || len(w.events.free) != 3 {
		t.Fatalf("%d delivered, %d slots free", got, len(w.events.free))
	}
}

// TestZeroLatencyBodyFiredStartsAnother: at zero latency a body's only
// copy fires at its send instant; a handler that sends the same box on
// from the same sender, with nothing pushed in between, starts a new
// body instead of joining the released slot — also a nil message from
// the zero address, which the zeroed slot itself would match.
func TestZeroLatencyBodyFiredStartsAnother(t *testing.T) {
	for _, send := range []struct {
		from ids.Addr
		msg  any
	}{{ids.AddrAt("a", 0), &fanMsg{id: 1}}, {ids.Addr{}, nil}} {
		w := NewWorld(1)
		n := boundNet(t, w, FixedLatency(0), 0, []ids.NodeID{"a", "b", "c"}, nil)
		var got []string
		n.Register("b", func(ids.NodeID, any) {
			got = append(got, "b")
			n.SendAddr(send.from, ids.AddrAt("c", 2), send.msg)
		})
		n.Register("c", func(ids.NodeID, any) { got = append(got, fmt.Sprintf("c@%v", w.Now())) })
		w.At(time.Millisecond, func() { n.SendAddr(send.from, ids.AddrAt("b", 1), send.msg) })
		w.RunAll(0)
		if !reflect.DeepEqual(got, []string{"b", "c@1ms"}) || n.shared != 0 {
			t.Fatalf("%v from %q: delivered %v, %d shared; want [b c@1ms], 0", send.msg, send.from.ID(), got, n.shared)
		}
	}
}

// TestDeliveryBodyCopyLimit: a body counts at most math.MaxUint16
// copies; the next copy of the fan-out starts a new body.
func TestDeliveryBodyCopyLimit(t *testing.T) {
	w := NewWorld(1)
	n := boundNet(t, w, nil, 0, ab, nil)
	got := 0
	n.Register("b", func(ids.NodeID, any) { got++ })
	var msg any = &fanMsg{id: 1}
	const sends = math.MaxUint16 + 1
	for range sends {
		n.SendAddr(ids.AddrAt("a", 0), ids.AddrAt("b", 1), msg)
	}
	if w.events.slots != 2 || n.shared != sends-2 {
		t.Fatalf("%d copies took %d slots, %d shared; want 2, %d", sends, w.events.slots, n.shared, sends-2)
	}
	w.RunAll(0)
	if got != sends || len(w.events.free) != 2 {
		t.Fatalf("%d of %d delivered, %d slots free", got, sends, len(w.events.free))
	}
}
