package agg

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

// modelAgg is one Open in the map model: the value it was opened with,
// the partial it should conclude with, and its convergence accounting.
// nack is the decline callback the station returned for it, and late
// how many of its children were still outstanding when it concluded:
// the nacks a transport may still deliver through that callback.
type modelAgg struct {
	val         int
	acc         Partial
	outstanding int
	expected    bool
	deadline    time.Duration
	serial      int // order of the Open, which orders equal deadlines
	concluded   int
	nack        func()
	late        int
}

// conclusion is one call of a station's conclude.
type conclusion struct {
	id  int
	val int
	p   Partial
	at  time.Duration
}

// stationModel is the plain-map reference a Station is checked against:
// no recycled records, no timers, just the rules.
type stationModel struct {
	open  map[int]*modelAgg
	all   []*modelAgg
	want  []conclusion
	opens int
}

func (m *stationModel) conclude(id int, a *modelAgg, at time.Duration) {
	a.late = max(a.outstanding, 0)
	delete(m.open, id)
	a.concluded++
	m.want = append(m.want, conclusion{id: id, val: a.val, p: a.acc, at: at})
}

func (m *stationModel) account(id int, a *modelAgg, now time.Duration) {
	if a.expected && a.outstanding <= 0 {
		m.conclude(id, a, now)
	}
}

// advance concludes, in deadline then Open order, every open aggregation
// whose deadline falls within [now, end].
func (m *stationModel) advance(end time.Duration) {
	var due []int
	for id, a := range m.open {
		if a.deadline <= end {
			due = append(due, id)
		}
	}
	slices.SortFunc(due, func(x, y int) int {
		if c := cmp.Compare(m.open[x].deadline, m.open[y].deadline); c != 0 {
			return c
		}
		return cmp.Compare(m.open[x].serial, m.open[y].serial)
	})
	for _, id := range due {
		a := m.open[id]
		m.conclude(id, a, a.deadline)
	}
}

// FuzzStationSchedule drives a Station and the map model through the
// same schedule of Opens, Expects, Absorbs, Declines, lookups, clock
// advances and transport nacks, four bytes per step. Every Open must
// conclude exactly once — at convergence, or at its deadline — with its
// own value and exactly the partials it absorbed, and a recycled record
// must never show an earlier tree's value. A nack goes through the
// decline callback an earlier Open returned, whenever the transport
// could still send one: for a child of an open tree, or, after a
// deadline conclusion, for a child that was still outstanding. It must
// count for that tree while it is open and be a no-op once it
// concluded, however often its record has been reused since.
func FuzzStationSchedule(f *testing.F) {
	// op byte: 0 Open, 1 Expect, 2 Absorb, 3 Decline, 4 advance, 5 Lookup,
	// 6 nack (the second byte picks the Open).
	f.Add([]byte{0, 1, 3, 40, 3, 1, 0, 0, 1, 1, 1, 0})                                                     // a nack before Expect
	f.Add([]byte{0, 1, 3, 40, 1, 1, 0, 0, 3, 1, 0, 0, 2, 1, 9, 9})                                         // a decline and a partial after conclusion
	f.Add([]byte{0, 5, 0, 10, 0, 5, 4, 200, 5, 5, 0, 0, 1, 5, 0, 0})                                       // a duplicate Open
	f.Add([]byte{0, 1, 0, 40, 1, 1, 1, 0, 4, 0, 100, 0, 0, 2, 6, 90, 5, 2, 0, 0, 2, 2, 50, 3, 1, 2, 1, 0}) // reuse after a deadline
	f.Add([]byte{0, 1, 0, 40, 1, 1, 2, 0, 4, 0, 100, 0, 0, 2, 0, 50, 1, 2, 1, 0, 6, 0, 0, 0, 6, 1, 0, 0})  // nack after a deadline conclusion, then record reuse
	f.Add([]byte{0, 1, 0, 40, 6, 0, 0, 0, 1, 1, 3, 0, 6, 0, 0, 0, 3, 1, 0, 0, 6, 0, 0, 0, 4, 0, 100, 0})   // nacks before Expect (ignored), then until convergence
	f.Fuzz(func(t *testing.T, prog []byte) {
		clk := &fakeClock{}
		var got []conclusion
		s, err := NewStation(clk.After, nil, func(id int, v *int, p Partial) {
			got = append(got, conclusion{id: id, val: *v, p: p, at: clk.now})
		})
		if err != nil {
			t.Fatal(err)
		}
		m := &stationModel{open: map[int]*modelAgg{}}
		for i := 0; i+4 <= len(prog); i += 4 {
			op, id, b, c := prog[i]%7, int(prog[i+1]%32), prog[i+2], prog[i+3]
			switch op {
			case 0:
				depth := int(b % 12)
				local := float64(c) / 255
				contribute := b&0x80 == 0
				val := 1000 + m.opens
				timers := len(clk.queue)
				nack := s.Open(id, depth, local, contribute, val)
				opened := nack != nil
				if wantOpen := m.open[id] == nil; opened != wantOpen {
					t.Fatalf("step %d: Open(%d) = %v, want %v", i/4, id, opened, wantOpen)
				}
				if !opened {
					if len(clk.queue) != timers {
						t.Fatalf("step %d: a refused Open armed a timer", i/4)
					}
					continue
				}
				if len(clk.queue) != timers+1 {
					t.Fatalf("step %d: Open armed %d timers, want 1", i/4, len(clk.queue)-timers)
				}
				a := &modelAgg{val: val, serial: m.opens, deadline: clk.now + time.Duration(max(MaxDepth-depth, 0)+1)*Wave, nack: nack}
				if contribute {
					a.acc.Observe(local, depth)
				}
				m.opens++
				m.open[id] = a
				m.all = append(m.all, a)
			case 1:
				s.Expect(id, int(b%4))
				if a := m.open[id]; a != nil && !a.expected {
					a.expected = true
					a.outstanding += int(b % 4)
					m.account(id, a, clk.now)
				}
			case 2:
				var q Partial
				for k := 0; k <= int(c%3); k++ {
					q.Observe(float64(b)/255+float64(k)/8, int(c%10))
				}
				s.Absorb(id, q)
				if a := m.open[id]; a != nil {
					a.acc.Merge(q)
					a.outstanding--
					m.account(id, a, clk.now)
				}
			case 3:
				s.Decline(id)
				if a := m.open[id]; a != nil {
					a.outstanding--
					m.account(id, a, clk.now)
				}
			case 4:
				d := time.Duration(b) * 100 * time.Millisecond
				m.advance(clk.now + d)
				clk.advance(d)
			case 5:
				v, ok := s.Lookup(id)
				a := m.open[id]
				if ok != (a != nil) || ok && *v != a.val {
					t.Fatalf("step %d: Lookup(%d) = %v, %v; model open: %v", i/4, id, ok, v, a)
				}
			case 6:
				if len(m.all) == 0 {
					continue
				}
				a := m.all[int(prog[i+1])%len(m.all)]
				switch {
				case a.concluded == 0 && a.expected && a.outstanding > 0:
					a.nack()
					a.outstanding--
					m.account(m.idOf(a), a, clk.now)
				case a.concluded > 0 && a.late > 0:
					a.nack() // a late nack: the tree it was for is over
					a.late--
				}
			}
			checkConclusions(t, i/4, got, m.want)
			if s.Pending() != len(m.open) {
				t.Fatalf("step %d: Pending = %d, model has %d open", i/4, s.Pending(), len(m.open))
			}
		}
		// Past every deadline, every Open has concluded exactly once.
		m.advance(clk.now + (MaxDepth+2)*Wave)
		clk.advance((MaxDepth + 2) * Wave)
		checkConclusions(t, len(prog)/4, got, m.want)
		for _, a := range m.all {
			if a.concluded != 1 {
				t.Fatalf("Open with value %d concluded %d times", a.val, a.concluded)
			}
		}
		if s.Pending() != 0 || len(clk.queue) != 0 {
			t.Fatalf("after every deadline: %d pending, %d timers queued", s.Pending(), len(clk.queue))
		}
	})
}

// idOf returns the id a is open under.
func (m *stationModel) idOf(a *modelAgg) int {
	for id, b := range m.open {
		if b == a {
			return id
		}
	}
	panic("agg: modelAgg not open")
}

func checkConclusions(t *testing.T, step int, got, want []conclusion) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %d conclusions, model has %d (got %+v, want %+v)", step, len(got), len(want), got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("step %d: conclusion %d = %+v, model %+v", step, k, got[k], want[k])
		}
	}
}
