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
// same commit, and says why. The four memnet rows were re-recorded when
// the live agents moved to partial Fisher–Yates sampling on splitmix64
// streams, which changes every node's random draws.
var goldenReports = []struct {
	file    string
	backend string
	sha256  string
}{
	{"mixed-workload.json", BackendSim, "3856ab215933a031e34ff96495bf9563b4c357f0488a8dd56c9c91a6bce08e65"},
	{"eclipse-attack.json", BackendSim, "5a150a87ed4de52dd618c4dd519a172c1973824068149f3be4e775e29cddbbc8"},
	{"mixed-workload.json", BackendMemnet, "af0d86d3b566bbcafd4e2631c08e8a827d387b23c3795ef4c58c3265d6b5d052"},
	{"eclipse-attack.json", BackendMemnet, "50c8aa498ecd8054c0388e12b034c9a18f68d95bc973e67a0c6207fe3779850b"},
	{"rangecast-storm.json", BackendSim, "6aeaf184d3dfd2841bb240669d31cf1d9befa08cfa18a82dcb961aaab317d698"},
	{"byzantine-census.json", BackendSim, "10481c28dcda72a125eaa9a0e45667d29d49b955aff562eecc9d14e66dcd68ad"},
	{"rangecast-storm.json", BackendMemnet, "0cbf615e4633a86f17e24de8da95424dd7fe132fec0a41508e40477df2577ae9"},
	{"byzantine-census.json", BackendMemnet, "fad5d15a53709a4519c496f75729147bd6d018bffb134089ec1e2c511ad44363"},
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
