package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// goldenReports pins the SHA-256 of Result.WriteReport for four checked-in
// scenarios at their spec seed, on both backends: mixed-workload covers
// the honest maintenance + operations path, eclipse-attack the audit and
// adversary path (the central shuffle tap on sim; poisoned shuffle
// messages through every node's agent on memnet), rangecast-storm and
// byzantine-census the range-cast path, honest and under Byzantine
// relays. A pure performance change must leave all eight digests alone; a
// change that is *meant* to move an outcome re-records them here, in the
// same commit, and says why.
var goldenReports = []struct {
	file    string
	backend string
	sha256  string
}{
	{"mixed-workload.json", BackendSim, "3856ab215933a031e34ff96495bf9563b4c357f0488a8dd56c9c91a6bce08e65"},
	{"eclipse-attack.json", BackendSim, "5a150a87ed4de52dd618c4dd519a172c1973824068149f3be4e775e29cddbbc8"},
	{"mixed-workload.json", BackendMemnet, "c566b7678d11b7b6166a7ee671d22f9fd5125695b16be522ad76cab01c645e34"},
	{"eclipse-attack.json", BackendMemnet, "a9520034f4d22526bffe2e83aebe62a48fe002e0d11a95eb03ce2b875d716d55"},
	{"rangecast-storm.json", BackendSim, "6aeaf184d3dfd2841bb240669d31cf1d9befa08cfa18a82dcb961aaab317d698"},
	{"byzantine-census.json", BackendSim, "10481c28dcda72a125eaa9a0e45667d29d49b955aff562eecc9d14e66dcd68ad"},
	{"rangecast-storm.json", BackendMemnet, "f948b330e7fa3cd6c7de47764ec796e01d81732d76fb21bdb99fabe17a2486dc"},
	{"byzantine-census.json", BackendMemnet, "7cc6ed389c28eb84b0f5384675cce44e95291bf09325ce2d72d2372f7c13e03d"},
}

// TestGoldenReports is the in-tree byte-identity tripwire: the
// out-of-module benchmark harness compares report_sha256 between two
// commits, this compares against digests recorded in the tree.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario worlds")
	}
	for _, g := range goldenReports {
		name := g.file // the sim rows keep their historical subtest names
		if g.backend != BackendSim {
			name = g.backend + "/" + g.file
		}
		t.Run(name, func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("..", "..", "scenarios", g.file))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(spec, Options{Backend: g.backend})
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
