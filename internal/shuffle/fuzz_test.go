package shuffle

import "testing"

// FuzzCyclonSchedule drives the packed Cyclon — on a host index and on
// identifiers alone — and the reference model through a schedule decoded
// from the input: byte 0 seeds the services and the rewriting Tap, byte 1
// picks whether UseIndex precedes the first joins, and every later byte
// answers one choice of diffHarness.step (operation, identifier, seed
// count, ...). The Tap is where entries built outside Cyclon enter it —
// never-joined strays, identifiers outside the universe, nil
// identifiers, negative ages, duplicates carrying a memo — so the target
// covers that boundary; the oracle is the differential check after every
// step. Seed corpus: testdata/fuzz/FuzzCyclonSchedule.
func FuzzCyclonSchedule(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 0, 2, 7, 9, 5, 5, 5, 1, 3, 5, 0, 5, 1, 5, 2, 4, 5, 6})
	f.Add([]byte{2, 1, 19, 0, 1, 19, 1, 1, 2, 3, 19, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		h := newDiffHarness(t, int64(data[0]), data[1]&1 == 0)
		choices := data[2:min(len(data), 4096)]
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			b := choices[0]
			choices = choices[1:]
			return int(b) % n
		}
		h.check(-1)
		for step := 0; len(choices) > 0; step++ {
			h.step(pick)
			h.check(step)
		}
	})
}
