package shuffle

import "avmem/internal/ids"

// Test-only windows into Agent and Entry for the external-package
// differential tests (agent_index_test.go imports internal/transport,
// which imports this package).

// Snapshot returns a copy of the agent's entries, ages and memos included.
func (a *Agent) Snapshot() []Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Entry, len(a.peers))
	for k := range out {
		out[k] = Entry{ID: a.peers[k], Age: int(a.ages[k]), idx1: a.idx1[k]}
	}
	return out
}

// NextDraw consumes and returns the agent's next RNG draw.
func (a *Agent) NextDraw() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rng.Int63()
}

// Idx1 exposes the entry's index memo (host index plus one; 0 = none).
func (e Entry) Idx1() int32 { return e.idx1 }

// Discover runs judge over the view as it stands, outside a tick (no
// partner on offer): how the tests read and write memo words between
// protocol steps.
func (a *Agent) Discover(judge func(codes []int32, memo []uint64, strays []ids.NodeID) int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.judgeLocked(len(a.peers), judge)
}

// MaxAge is the bound received ages are clamped to and ageing saturates at.
const MaxAge = maxAge
