package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// goldenReports pins the SHA-256 of Result.WriteReport for two checked-in
// scenarios on the sim backend at their spec seed: mixed-workload covers
// the honest maintenance + operations path, eclipse-attack the audit and
// adversary shuffle-tap path. A pure performance change must leave both
// digests alone; a change that is *meant* to move a simulated outcome
// re-records them here, in the same commit, and says why.
var goldenReports = []struct {
	file, sha256 string
}{
	{"mixed-workload.json", "3856ab215933a031e34ff96495bf9563b4c357f0488a8dd56c9c91a6bce08e65"},
	{"eclipse-attack.json", "5a150a87ed4de52dd618c4dd519a172c1973824068149f3be4e775e29cddbbc8"},
}

// TestGoldenReports is the in-tree byte-identity tripwire: the
// out-of-module benchmark harness compares report_sha256 between two
// commits, this compares against digests recorded in the tree.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario worlds")
	}
	for _, g := range goldenReports {
		t.Run(g.file, func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("..", "..", "scenarios", g.file))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(spec, Options{Backend: BackendSim})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			res.WriteReport(h)
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 {
				t.Errorf("report digest %s, recorded %s — the run's answers changed", got, g.sha256)
			}
		})
	}
}
