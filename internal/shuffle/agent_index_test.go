package shuffle_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avmem/internal/ids"
	"avmem/internal/shuffle"
	"avmem/internal/stats"
	"avmem/internal/transport"
)

// agentPair is one host run three times from one seed: an agent that
// knows the host-index universe, one that only ever sees identifiers, and
// the reference model below. The index is an addressing choice, so after
// any schedule all three must hold the same view, have produced the same
// messages and be about to draw the same random number.
type agentPair struct {
	id        ids.NodeID
	idx, byID *shuffle.Agent
	ref       *refAgent
	// lastWords is each agent's memo as the last judge left it, by
	// occupant: a Tick changes no occupant, so it must change no word.
	lastWords [2]map[ids.NodeID]uint64
}

// refAgent is the agent at its plainest — rows of entries, a partial
// Fisher–Yates over a fresh index slice on a splitmix64 stream, a string
// scan per duplicate check, a full oldest-entry scan per eviction, ages
// clamped into [0, MaxAge] on receipt and saturating there — kept as the
// executable definition of what Agent's column view, index compares and
// victim cursor must reproduce, RNG draw for RNG draw.
type refAgent struct {
	self       ids.NodeID
	cap, shufL int
	rng        *rand.Rand
	entries    []shuffle.Entry
}

func (a *refAgent) seed(peers []ids.NodeID) {
	for _, p := range peers {
		a.add(shuffle.Entry{ID: p})
	}
}

func (a *refAgent) oldest() int {
	oldest := 0
	for i := 1; i < len(a.entries); i++ {
		if a.entries[i].Age > a.entries[oldest].Age {
			oldest = i
		}
	}
	return oldest
}

func (a *refAgent) tick() (ids.NodeID, []shuffle.Entry, bool) {
	if len(a.entries) == 0 {
		return ids.Nil, nil, false
	}
	for i := range a.entries {
		a.entries[i].Age = min(a.entries[i].Age+1, shuffle.MaxAge)
	}
	o := a.oldest()
	peer := a.entries[o].ID
	a.entries = append(a.entries[:o], a.entries[o+1:]...)
	return peer, append(a.sample(a.shufL-1), shuffle.Entry{ID: a.self}), true
}

func (a *refAgent) handleRequest(received []shuffle.Entry) []shuffle.Entry {
	out := a.sample(a.shufL)
	a.merge(received)
	return out
}

func (a *refAgent) sample(n int) []shuffle.Entry {
	if n <= 0 || len(a.entries) == 0 {
		return nil
	}
	m := len(a.entries)
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	var out []shuffle.Entry
	for i := 0; i < min(n, m); i++ {
		j := i + a.rng.Intn(m-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, a.entries[idx[i]])
	}
	return out
}

func (a *refAgent) merge(received []shuffle.Entry) {
	for _, e := range received {
		e.Age = min(max(e.Age, 0), shuffle.MaxAge)
		a.add(e)
	}
}

func (a *refAgent) add(e shuffle.Entry) {
	if e.ID == a.self || e.ID.IsNil() {
		return
	}
	for _, have := range a.entries {
		if have.ID == e.ID {
			return
		}
	}
	if len(a.entries) < a.cap {
		a.entries = append(a.entries, e)
		return
	}
	if o := a.oldest(); a.entries[o].Age >= e.Age {
		a.entries[o] = e
	}
}

const (
	agentUniverse = 40
	agentHosts    = 30 // universe[agentHosts:] never run an agent
	agentOutside  = 4
	agentView     = 7
	agentLen      = 4
)

type agentDiff struct {
	t        *testing.T
	universe []ids.NodeID
	outside  []ids.NodeID
	index    map[ids.NodeID]int
	pairs    []*agentPair
	up       []bool
	// pick(n) makes the schedule's choices in [0, n): a seeded stream in
	// the tests, the input bytes under fuzzing.
	pick func(n int) int
	// held are replies in flight that land after later steps.
	held []heldReply
	// words maps every serial the test wrote into an agent's memo word to
	// the occupant it was written for; memoRng picks the slots.
	words   map[uint64]ids.NodeID
	memoRng *rand.Rand
}

// heldReply is one exchange's reply on all three copies of the responder,
// on its way back to initiator p.
type heldReply struct {
	p, q           *agentPair
	replyI, replyB *shuffle.Reply
	replyR         []shuffle.Entry
}

func newAgentDiff(t *testing.T, seed int64, pick func(n int) int) *agentDiff {
	t.Helper()
	d := &agentDiff{t: t, index: map[ids.NodeID]int{}, pick: pick,
		words: map[uint64]ids.NodeID{}, memoRng: rand.New(rand.NewSource(seed ^ 0x3e30))}
	for i := 0; i < agentUniverse; i++ {
		d.universe = append(d.universe, ids.Synthetic(i))
		d.index[d.universe[i]] = i
	}
	for i := 0; i < agentOutside; i++ {
		d.outside = append(d.outside, ids.Synthetic(7000+i))
	}
	indexOf := func(id ids.NodeID) int {
		if i, ok := d.index[id]; ok {
			return i
		}
		return -1
	}
	for i := 0; i < agentHosts; i++ {
		p := &agentPair{id: d.universe[i], ref: &refAgent{self: d.universe[i], cap: agentView, shufL: agentLen,
			rng: rand.New(stats.NewSplitMix64(seed + int64(i) + 1))}}
		for _, a := range []**shuffle.Agent{&p.idx, &p.byID} {
			var err error
			if *a, err = shuffle.NewAgent(p.id, agentView, agentLen, seed+int64(i)+1); err != nil {
				t.Fatal(err)
			}
		}
		seeds := []ids.NodeID{d.universe[(i+1)%agentHosts], d.universe[(i+5)%agentHosts], d.outside[i%agentOutside]}
		// Either order must work: entries seeded before the universe is
		// known are resolved when it arrives.
		if i%2 == 0 {
			p.idx.UseIndex(d.universe, indexOf)
		}
		p.idx.Seed(seeds)
		p.byID.Seed(seeds)
		p.ref.seed(seeds)
		if i%2 != 0 {
			p.idx.UseIndex(d.universe, indexOf)
		}
		d.pairs = append(d.pairs, p)
		d.up = append(d.up, true)
	}
	return d
}

// rewrite is one drawn tampering of a message in flight; apply performs
// it on either side's copy of the entries, so both agents of the
// receiving pair see the same identifiers and ages — while the indexed
// side's entries additionally carry whatever memos survive the rewrite.
type rewrite struct {
	kind            int
	a, ageA         int
	receiver, from  ids.NodeID
	relabel, stray  ids.NodeID
	outsider, known ids.NodeID
}

// extremeAges are the ages a peer can put on the wire that no honest
// agent ever holds: each must be clamped on arrival, or the entry would
// never be picked as partner nor evicted.
var extremeAges = []int{math.MaxInt, math.MinInt, -1 << 40, 1 << 40, shuffle.MaxAge - 1, shuffle.MaxAge, shuffle.MaxAge + 1}

func (d *agentDiff) drawRewrite(receiver, from ids.NodeID) rewrite {
	rw := rewrite{
		kind:     d.pick(6),
		a:        d.pick(agentLen),
		ageA:     d.pick(9) - 2,
		receiver: receiver,
		from:     from,
		relabel:  d.universe[d.pick(agentUniverse)],
		stray:    d.universe[agentHosts+d.pick(agentUniverse-agentHosts)],
		outsider: d.outside[d.pick(agentOutside)],
		known:    d.universe[d.pick(agentHosts)],
	}
	if d.pick(4) == 0 {
		rw.ageA = extremeAges[d.pick(len(extremeAges))]
	}
	return rw
}

func (rw rewrite) apply(t *testing.T, from ids.NodeID, msg any) []shuffle.Entry {
	t.Helper()
	entries := entriesOf(msg)
	switch rw.kind {
	case 0, 1:
		return entries // in-process delivery: memos travel untouched
	case 2:
		// A JSON hop (the TCP transport): every memo is gone on arrival.
		env, err := transport.Encode(from, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := transport.Decode(env)
		if err != nil {
			t.Fatal(err)
		}
		out := entriesOf(back)
		for _, e := range out {
			if e.Idx1() != 0 {
				t.Fatalf("entry %v kept memo %d across the wire", e.ID, e.Idx1())
			}
		}
		return out
	}
	// An adversary-built offer: the honest entries plus everything a merge
	// must refuse or survive.
	out := append([]shuffle.Entry(nil), entries...)
	out = append(out,
		shuffle.Entry{ID: rw.outsider, Age: rw.ageA}, // outside the universe
		shuffle.Entry{ID: ids.Nil, Age: 1},
		shuffle.Entry{ID: rw.stray},                  // in the universe, runs no agent
		shuffle.Entry{ID: rw.receiver},               // the receiver itself
		shuffle.Entry{ID: rw.from},                   // a self-advertising sender
		shuffle.Entry{ID: rw.known, Age: rw.ageA},    // built from scratch: no memo
		shuffle.Entry{ID: rw.outsider, Age: rw.ageA}, // a duplicate without an index
	)
	if len(entries) > 0 {
		// A real entry copied and re-labelled: on the indexed side its memo
		// now names a different host than its identifier does.
		forged := entries[rw.a%len(entries)]
		forged.ID = rw.relabel
		out = append(out, forged, entries[0]) // and a duplicate, memo and all
	}
	return out
}

func entriesOf(msg any) []shuffle.Entry {
	switch m := msg.(type) {
	case *shuffle.Request:
		return m.Entries
	case *shuffle.Reply:
		return m.Entries
	}
	return nil
}

// sameEntries compares what the protocol can observe: identifiers and
// ages, in order.
func sameEntries(a, b []shuffle.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Age != b[i].Age {
			return false
		}
	}
	return true
}

func (d *agentDiff) checkPair(step int, p *agentPair) {
	d.t.Helper()
	si, sb := p.idx.Snapshot(), p.byID.Snapshot()
	if !sameEntries(si, sb) || !sameEntries(si, p.ref.entries) {
		d.t.Fatalf("step %d: %v views diverge\n indexed    %v\n identifier %v\n reference  %v",
			step, p.id, si, sb, p.ref.entries)
	}
	// The invariant the int32 compares rest on: a memo is present exactly
	// when the universe knows the identifier, and names it.
	for _, e := range si {
		want, known := d.index[e.ID]
		if !known {
			want = -1
		}
		if int(e.Idx1()) != want+1 {
			d.t.Fatalf("step %d: %v holds %v with memo %d, universe says %d", step, p.id, e.ID, e.Idx1(), want)
		}
	}
	for _, e := range sb {
		if e.Idx1() != 0 {
			d.t.Fatalf("step %d: identifier-only %v trusted a foreign memo on %v", step, p.id, e.ID)
		}
	}
	for which, a := range []*shuffle.Agent{p.idx, p.byID} {
		var saw []ids.NodeID
		a.Discover(d.judge(step, p, which, false, &saw))
		d.checkOffered(step, p, which, saw, ids.Nil)
	}
}

// judge plays the owner's discovery on one agent of a pair (0 indexed,
// 1 identifier-only): an indexed agent codes every identifier the
// universe knows by its index and the rest as strays; every non-zero memo
// word still sits beside the occupant the test wrote it for — the agent
// zeroes a word when its slot changes hands and moves it when the
// occupant moves, the removed partner's included — and, inside a tick,
// is the word the last judge left there. It then writes a few fresh words
// for later steps to carry, and reports the candidates it saw.
func (d *agentDiff) judge(step int, p *agentPair, which int, inTick bool, saw *[]ids.NodeID) func(codes []int32, memo []uint64, strays []ids.NodeID) int {
	return func(codes []int32, memo []uint64, strays []ids.NodeID) int {
		d.t.Helper()
		last := p.lastWords[which]
		p.lastWords[which] = map[ids.NodeID]uint64{}
		if len(memo) != len(codes) {
			d.t.Fatalf("step %d: %v agent %d: %d codes, %d words", step, p.id, which, len(codes), len(memo))
		}
		for k, code := range codes {
			id, idx := ids.Nil, -1
			if code >= 0 {
				id, idx = d.universe[code], int(code)
			} else {
				id = strays[^code]
			}
			if known, ok := d.index[id]; which == 0 && ok && idx != known {
				d.t.Fatalf("step %d: %v offers %v as code %d, universe says %d", step, p.id, id, code, known)
			}
			if which == 1 && code >= 0 {
				d.t.Fatalf("step %d: identifier-only %v slot %d: coded %v as %d", step, p.id, k, id, code)
			}
			if w := memo[k]; w != 0 && d.words[w] != id {
				d.t.Fatalf("step %d: %v agent %d slot %d: word %d written for %v sits beside %v",
					step, p.id, which, k, w, d.words[w], id)
			}
			if inTick && memo[k] != last[id] {
				d.t.Fatalf("step %d: %v agent %d: the tick turned the word beside %v from %d into %d",
					step, p.id, which, id, last[id], memo[k])
			}
			if d.memoRng.Intn(3) == 0 {
				serial := uint64(len(d.words) + 1)
				d.words[serial] = id
				memo[k] = serial
			}
			p.lastWords[which][id] = memo[k]
			*saw = append(*saw, id)
		}
		return len(codes)
	}
}

// checkOffered pins what a judge is offered: the view in order, then the
// partner when the judge ran inside the tick that removed it.
func (d *agentDiff) checkOffered(step int, p *agentPair, which int, saw []ids.NodeID, partner ids.NodeID) {
	d.t.Helper()
	var want []ids.NodeID
	for _, e := range []*shuffle.Agent{p.idx, p.byID}[which].Snapshot() {
		want = append(want, e.ID)
	}
	if !partner.IsNil() {
		want = append(want, partner)
	}
	if !slices.Equal(saw, want) {
		d.t.Fatalf("step %d: %v agent %d was offered %v, want view + partner %v", step, p.id, which, saw, want)
	}
}

// exchange runs one shuffle round initiated by pair i on all three
// copies. Every message is handed to the handler that consumes it, as a
// node does, so the agents' pooled messages recycle through the round.
func (d *agentDiff) exchange(step, i int) {
	p := d.pairs[i]
	d.checkPair(step, p) // records the words the tick must carry
	// An emptied view re-seeds inside the tick, before the judge runs.
	seeds := []ids.NodeID{d.universe[d.pick(agentHosts)], d.outside[d.pick(agentOutside)]}
	var sawI, sawB []ids.NodeID
	toI, reqI, okI := p.idx.TickDiscover(seeds, d.judge(step, p, 0, true, &sawI))
	toB, reqB, okB := p.byID.TickDiscover(seeds, d.judge(step, p, 1, true, &sawB))
	peerI, peerB := toI.ID(), toB.ID()
	// The indexed agent addresses its partner with the memo it holds for
	// it; the identifier-only agent has none to give.
	if want, known := d.index[peerI]; known && toI.Index() != int32(want) || !known && toI.Index() >= 0 || toB.Index() >= 0 {
		d.t.Fatalf("step %d: %v addressed its partner as %v / %v, universe index %d", step, p.id, toI, toB, want)
	}
	peerR, reqR, okR := p.ref.tick()
	if !okR {
		p.ref.seed(seeds)
	}
	if okI != okB || peerI != peerB || okI != okR || peerI != peerR || (reqI == nil) != !okI || (reqB == nil) != !okB {
		d.t.Fatalf("step %d: %v ticks diverge: (%v,%v) vs (%v,%v) vs reference (%v,%v)",
			step, p.id, peerI, okI, peerB, okB, peerR, okR)
	}
	// The removed partner stays on offer, its memo word with it.
	d.checkOffered(step, p, 0, sawI, peerI)
	d.checkOffered(step, p, 1, sawB, peerB)
	if !okI {
		return
	}
	if !sameEntries(reqI.Entries, reqB.Entries) || !sameEntries(reqI.Entries, reqR) {
		d.t.Fatalf("step %d: %v requests diverge: %v vs %v vs reference %v", step, p.id, reqI.Entries, reqB.Entries, reqR)
	}
	// What makes arrival a compare instead of a lookup: everything an
	// indexed agent offers, its fresh self-entry included, carries its memo.
	for _, e := range reqI.Entries {
		if want, known := d.index[e.ID]; known && int(e.Idx1()) != want+1 {
			d.t.Fatalf("step %d: %v offered %v with memo %d, want %d", step, p.id, e.ID, e.Idx1(), want+1)
		}
	}
	want, known := d.index[peerI]
	if !known || want >= agentHosts || !d.up[want] || d.pick(10) == 0 {
		return // outsider, stray, churned-out partner or lost: the request is garbage
	}
	q := d.pairs[want]
	rw := d.drawRewrite(q.id, p.id)
	reqI.Entries = rw.apply(d.t, p.id, reqI)
	reqB.Entries = rw.apply(d.t, p.id, reqB)
	replyI := q.idx.HandleRequest(p.id, reqI)
	replyB := q.byID.HandleRequest(p.id, reqB)
	replyR := q.ref.handleRequest(rw.apply(d.t, p.id, &shuffle.Request{Entries: reqR}))
	if !sameEntries(replyI.Entries, replyB.Entries) || !sameEntries(replyI.Entries, replyR) {
		d.t.Fatalf("step %d: %v replies diverge: %v vs %v vs reference %v",
			step, q.id, replyI.Entries, replyB.Entries, replyR)
	}
	d.checkPair(step, q)
	r := heldReply{p: p, q: q, replyI: replyI, replyB: replyB, replyR: replyR}
	switch d.pick(8) {
	case 0: // reply lost
	case 1: // in flight past later steps
		d.held = append(d.held, r)
	default:
		d.deliver(step, r)
	}
}

// deliver hands one reply to the initiator's three copies, unless the
// initiator has churned out meanwhile.
func (d *agentDiff) deliver(step int, r heldReply) {
	if !d.up[slices.Index(d.pairs, r.p)] {
		return
	}
	rw := d.drawRewrite(r.p.id, r.q.id)
	r.replyI.Entries = rw.apply(d.t, r.q.id, r.replyI)
	r.replyB.Entries = rw.apply(d.t, r.q.id, r.replyB)
	r.p.idx.HandleReply(r.q.id, r.replyI)
	r.p.byID.HandleReply(r.q.id, r.replyB)
	r.p.ref.merge(rw.apply(d.t, r.q.id, &shuffle.Reply{Entries: r.replyR}))
	d.checkPair(step, r.p)
}

// step applies one schedule operation: churn, a held reply landing, or
// an exchange initiated by an online host.
func (d *agentDiff) step(step int) {
	switch op := d.pick(25); {
	case op == 0:
		h := d.pick(agentHosts)
		d.up[h] = !d.up[h]
	case op == 1 && len(d.held) > 0:
		k := d.pick(len(d.held))
		r := d.held[k]
		d.held = slices.Delete(d.held, k, k+1)
		d.deliver(step, r)
	default:
		if i := d.pick(agentHosts); d.up[i] {
			d.exchange(step, i)
		}
	}
	d.checkStrays(step)
}

// checkStrays bounds every agent's stray table by its view (plus the
// partner a tick holds): slots freed by departing strays are reused, so
// a peer streaming outsiders cannot grow it.
func (d *agentDiff) checkStrays(step int) {
	d.t.Helper()
	for _, p := range d.pairs {
		for which, a := range []*shuffle.Agent{p.idx, p.byID} {
			if n := a.StrayTableLen(); n > agentView+1 {
				d.t.Fatalf("step %d: %v agent %d holds a stray table of %d slots, view %d", step, p.id, which, n, agentView)
			}
		}
	}
}

// finish checks every pair once more and requires the three copies of
// each host to be about to draw the same random number.
func (d *agentDiff) finish(step int) {
	d.t.Helper()
	d.checkStrays(step)
	for _, p := range d.pairs {
		d.checkPair(step, p)
		if a, b, r := p.idx.NextDraw(), p.byID.NextDraw(), p.ref.rng.Int63(); a != b || a != r {
			d.t.Fatalf("%v RNG streams diverged: %d vs %d vs reference %d", p.id, a, b, r)
		}
	}
}

// TestAgentIndexedMatchesIdentifierOnly is the differential test for
// UseIndex: indexed and identifier-only agents (and the reference model
// they both replaced) from one seed, driven
// through Seed/TickDiscover/HandleRequest/HandleReply with churned
// partners, lost and late replies, and tampered messages — entries that
// lost their memo over a JSON hop, entries outside the universe, nil
// identifiers, self-advertising senders, duplicates, extreme ages, and an
// entry re-labelled with another identifier while keeping its memo —
// must agree on every view, request, reply and on the next RNG draw.
func TestAgentIndexedMatchesIdentifierOnly(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := newAgentDiff(t, seed, rand.New(rand.NewSource(seed)).Intn)
		for _, p := range d.pairs {
			d.checkPair(-1, p)
		}
		for step := 0; step < 4000; step++ {
			d.step(step)
		}
		d.finish(4000)
	}
}

// FuzzAgentSchedule drives the agentPair harness through a schedule
// decoded from the input: byte 0 seeds the agents, and every later byte
// answers one choice of the schedule — churn, exchanges whose request or
// reply is dropped, replies that land after later ticks, and rewrites
// that carry extreme ages. The oracle is the differential check after
// every handler call. Seed corpus: testdata/fuzz/FuzzAgentSchedule.
//
// The third seed rewrites every message with outsiders: each of its
// bytes is 3, 4 or 5 mod 6, so wherever the schedule reads one as a
// rewrite kind (pick(6)) it draws an adversary-built offer, and every
// agent keeps receiving identifiers outside the universe — strays that
// must reuse their table's freed slots.
func FuzzAgentSchedule(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{2, 1, 0, 200, 7, 1, 1, 3, 4, 0, 3, 1, 9, 9, 1, 0, 2, 5})
	outsiders := []byte{3}
	for i := range 1200 {
		outsiders = append(outsiders, byte(6*(i*37%42)+3+i%3))
	}
	f.Add(outsiders)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		choices := data[1:min(len(data), 4096)]
		d := newAgentDiff(t, int64(data[0]), func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			b := choices[0]
			choices = choices[1:]
			return int(b) % n
		})
		for step := 0; len(choices) > 0; step++ {
			d.step(step)
		}
		d.finish(-1)
	})
}

// TestAgentRelabelledEntryIsReResolved pins the one place the agent must
// not behave like Cyclon: a received memo that disagrees with the
// identifier next to it loses. An entry for A re-labelled B (memo still
// naming A) must enter the view as B — with B's index — and must not be
// mistaken for a duplicate of the A already there.
func TestAgentRelabelledEntryIsReResolved(t *testing.T) {
	universe := []ids.NodeID{"self", "a", "b", "c"}
	indexOf := func(id ids.NodeID) int {
		for i, u := range universe {
			if u == id {
				return i
			}
		}
		return -1
	}
	src, err := shuffle.NewAgent("c", 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src.UseIndex(universe, indexOf)
	src.Seed([]ids.NodeID{"a"})
	genuine := src.Snapshot()[0]
	if genuine.ID != "a" || genuine.Idx1() != 2 {
		t.Fatalf("source entry = %+v, want a with memo 2", genuine)
	}
	forged := genuine
	forged.ID = "b"

	dst, err := shuffle.NewAgent("self", 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst.UseIndex(universe, indexOf)
	dst.Seed([]ids.NodeID{"a"})
	dst.HandleReply("c", &shuffle.Reply{Entries: []shuffle.Entry{forged}})
	view := dst.Snapshot()
	if len(view) != 2 || view[0].ID != "a" || view[1].ID != "b" {
		t.Fatalf("view = %+v, want [a b]", view)
	}
	if view[1].Idx1() != 3 {
		t.Fatalf("re-labelled entry kept memo %d, want b's 3", view[1].Idx1())
	}
}

// TestAgentWithoutUniverseIgnoresMemos: an agent that was never given a
// universe cannot check a memo, so it must drop every one it receives and
// keep comparing identifiers — a memo-carrying copy of a peer it already
// holds is still a duplicate.
func TestAgentWithoutUniverseIgnoresMemos(t *testing.T) {
	universe := []ids.NodeID{"self", "a"}
	src, err := shuffle.NewAgent("a", 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src.UseIndex(universe, func(id ids.NodeID) int {
		if id == "a" {
			return 1
		}
		return -1
	})
	src.Seed([]ids.NodeID{"x"})
	_, req, ok := src.Tick() // shuffleLen 2, one-entry view: just the self-entry
	if !ok || len(req.Entries) != 1 || req.Entries[0].ID != "a" || req.Entries[0].Idx1() != 2 {
		t.Fatalf("request = %+v, want a's self-entry with memo 2", req.Entries)
	}
	dst, err := shuffle.NewAgent("self", 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst.Seed([]ids.NodeID{"a"})
	dst.HandleRequest("a", req)
	if view := dst.Snapshot(); len(view) != 1 || view[0].ID != "a" || view[0].Idx1() != 0 {
		t.Fatalf("view = %+v, want the single memo-less a", view)
	}
}
