package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// goldenReports pins the SHA-256 of Result.WriteReport for every
// top-level scenarios/*.json and every scenarios/examples/*.json at its
// spec seed, on both backends, keyed by backend and then path under
// scenarios/. A report ends in its PASS or FAIL lines, so an example's
// digest also pins that its claims hold. Between them the files cover
// the honest maintenance + operations path, churn storms, monitor
// degradation, the audit and adversary paths (the central shuffle tap on
// sim; poisoned shuffle messages through every node's agent on memnet)
// and the range-cast path, honest and under Byzantine relays. A pure
// performance or structural change must leave every digest alone; a
// change that is *meant* to move an outcome re-records them here, in the
// same commit, and says why. The memnet rows of mixed-workload,
// eclipse-attack, rangecast-storm and byzantine-census were re-recorded
// when the live agents moved to partial Fisher–Yates sampling on
// splitmix64 streams, which changes every node's random draws. Both
// byzantine-census rows (and the two selective-forward rows below) were
// re-recorded when an origin that joins its own tree as a member kept
// vetting that tree's root result: a lying root there was accepted
// before.
var goldenReports = map[string]map[string]string{
	BackendSim: {
		"availability-census.json":    "cae22c24b341692dfb4610658e62213b39ca1db76287e2a834676c8fcea49346",
		"availability-inflation.json": "99469825fc683cc7052e531858c1506a77932c22dcaa2081b3efab2794f5104c",
		"byzantine-census.json":       "d1a57027ef13d9fd5ac5cb2478eea937b97f8e4d58791e08c6cc2572597945d9",
		"churn-storm.json":            "0d32fe7240aea7f07e2a70de1497b6e1dec36647f49212babeab28ff6425b533",
		"eclipse-attack.json":         "5a150a87ed4de52dd618c4dd519a172c1973824068149f3be4e775e29cddbbc8",
		"mixed-workload.json":         "3856ab215933a031e34ff96495bf9563b4c357f0488a8dd56c9c91a6bce08e65",
		"monitor-degradation.json":    "02500f5188743dff94ffed33f574ec4d455d6f21e0a2b22f0995650fcf2be58c",
		"rangecast-storm.json":        "6aeaf184d3dfd2841bb240669d31cf1d9befa08cfa18a82dcb961aaab317d698",
		"selfish-attack.json":         "6d63bab2f543e08ee4ee73b8fb4c3ed45d7f1ae09e17a22ec16a08de49d22647",
		"examples/fingerprint.json":   "39b67cf7251cfaae8d7a0ff86b76ec9761bb63b8f92799de3359c6015284f3ec",
		"examples/quickstart.json":    "5f3a160ca5f21fd6bb4a81638acc987d48ee2de8de0e7a13a0377500e3119918",
		"examples/supernode.json":     "cdaba87857b727f005cfe46bca0f01433d9918cc888d1f5da28aedb23d834dc6",
	},
	BackendMemnet: {
		"availability-census.json":    "82f5aaa792c6a693f7992b21a63520d7b2c40602ed76b596981a7e7e71e961fa",
		"availability-inflation.json": "3ab5c4f26dbce9648c45eaf18c1b4af70d3ae4101c8bf7853c20bf25bb29ebd0",
		"byzantine-census.json":       "4cc1bfa2d216269df0d45e50ecbee23e08b0d9ea8c59ed781b637b4daa0c1e6c",
		"churn-storm.json":            "0dfa25f9fa3159921bfdddb58a6470107f38c03c855c4db8146c08fd06ce09dd",
		"eclipse-attack.json":         "50c8aa498ecd8054c0388e12b034c9a18f68d95bc973e67a0c6207fe3779850b",
		"mixed-workload.json":         "af0d86d3b566bbcafd4e2631c08e8a827d387b23c3795ef4c58c3265d6b5d052",
		"monitor-degradation.json":    "44b66593b7dcfd4f854133caa3814aff4d947b9c221fe1926d014cc60d0940fa",
		"rangecast-storm.json":        "0cbf615e4633a86f17e24de8da95424dd7fe132fec0a41508e40477df2577ae9",
		"selfish-attack.json":         "189a99f66357f600ab63e2634b0285fd709f38bb0db38c224c97adfce800e123",
		"examples/fingerprint.json":   "0f72a0f2fe58868675891552b0a33018d4dc53ddc2b368aea0bb751f3e14ec9a",
		"examples/quickstart.json":    "36850298db9d8f891b81dca8f326f12372390dcb5bb169c673a8511df6f4dbec",
		"examples/supernode.json":     "bc003b266bffa545b3c5753a3c4aadc231c2e945f743149554b4da54c2d37c0c",
	},
}

// distributedMonitorReports pins mixed-workload with
// fleet.distributed_monitor set. No checked-in file runs that monitor,
// and its ping overlay is the one time-0 periodic event a deployment
// schedules before any per-host install: the order the engines build in
// shows here first.
var distributedMonitorReports = map[string]string{
	BackendSim:    "95f5ac894314c45e424f779807d1a72f62ba51d273fb2198a5303634162ddbc0",
	BackendMemnet: "8a55e73a09a18e18eb796ed99980b929099be841900d02e772b8a245330bc63b",
}

// selectiveForwardReports pins byzantine-census with "selective-forward"
// added to its behavior mix. It is the one pinned run where aggregation
// trees cross relays that drop their requests, so the fake verdicts the
// dropping relays hand the tree fan-out show here first.
var selectiveForwardReports = map[string]string{
	BackendSim:    "29cfff1f914021dc8ed49a83d2092654690aefb4b58f05d24f990ade55953a6a",
	BackendMemnet: "0563385dd5af5b81cb24da0e20cb4ae12bdaf9ef227cf58af50e59c39673c757",
}

// TestGoldenReports is the in-tree byte-identity tripwire: the
// out-of-module benchmark harness compares report_sha256 between two
// commits, this compares against digests recorded in the tree. Rows come
// from globs of scenarios/*.json and scenarios/examples/*.json, so a new
// scenario file fails here until its digests are recorded.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario worlds")
	}
	dir := filepath.Join("..", "..", "scenarios")
	top, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob(filepath.Join(dir, "examples", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || len(examples) == 0 {
		t.Fatal("no scenario files found")
	}
	files := append(top, examples...)
	for _, backend := range []string{BackendSim, BackendMemnet} {
		for _, path := range files {
			rel, _ := filepath.Rel(dir, path) // cannot fail: the globs put path under dir
			file := filepath.ToSlash(rel)
			t.Run(goldenName(backend, file), func(t *testing.T) {
				want, ok := goldenReports[backend][file]
				if !ok {
					t.Fatalf("no recorded digest for %s on %s", file, backend)
				}
				spec, err := LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, spec, backend, want)
			})
		}
		t.Run(goldenName(backend, "mixed-workload.json+distributed-monitor"), func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("..", "..", "scenarios", "mixed-workload.json"))
			if err != nil {
				t.Fatal(err)
			}
			spec.Fleet.DistributedMonitor = true
			checkDigest(t, spec, backend, distributedMonitorReports[backend])
		})
		t.Run(goldenName(backend, "byzantine-census.json+selective-forward"), func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("..", "..", "scenarios", "byzantine-census.json"))
			if err != nil {
				t.Fatal(err)
			}
			spec.Adversaries.Behaviors = append(spec.Adversaries.Behaviors, "selective-forward")
			checkDigest(t, spec, backend, selectiveForwardReports[backend])
		})
	}
}

// goldenName is a row's subtest name: the sim rows keep their historical
// names, the other backend's are prefixed with it.
func goldenName(backend, file string) string {
	if backend == BackendSim {
		return file
	}
	return backend + "/" + file
}

// checkDigest runs spec on backend and compares its report digest.
func checkDigest(t *testing.T, spec *Spec, backend, want string) {
	t.Helper()
	res, err := Run(spec, Options{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	res.WriteReport(h)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("report digest %s, recorded %s — the run's answers changed", got, want)
	}
}
