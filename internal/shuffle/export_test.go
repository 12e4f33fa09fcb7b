package shuffle

import "avmem/internal/ids"

// Test-only windows into Agent and Entry for the external-package
// differential tests (agent_index_test.go imports internal/transport,
// which imports this package).

// Snapshot returns a copy of the agent's entries, ages and memos included.
func (a *Agent) Snapshot() []Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Entry, len(a.codes))
	for k := range out {
		out[k] = a.entry(k)
	}
	return out
}

// StrayTableLen returns the length of the agent's stray table, free
// slots included.
func (a *Agent) StrayTableLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.strays)
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
	return judge(a.codes, a.memo, a.strays)
}

// MaxAge is the bound received ages are clamped to and ageing saturates at.
const MaxAge = maxAge
