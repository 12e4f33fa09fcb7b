package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avmem/internal/trace"
)

// TestLabelledBatchMatchesTotal: a labelled event's metrics are reported
// a second time under "<label>/", and with one labelled batch in the run
// every one of them equals the run's total.
func TestLabelledBatchMatchesTotal(t *testing.T) {
	spec := tinySpec()
	spec.Events[1].Label = "supernodes"
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	labelled := 0
	for name, v := range res.Metrics {
		metric, ok := strings.CutPrefix(name, "supernodes/")
		if !ok {
			continue
		}
		labelled++
		if total, ok := res.Metrics[metric]; !ok || total != v {
			t.Errorf("%s = %v, total %s = %v (present %v)", name, v, metric, total, ok)
		}
	}
	if labelled < 5 { // delivery, drop, hops, mean and p90 latency
		t.Errorf("%d labelled metrics, want every anycast metric: %v", labelled, res.Metrics)
	}
}

// TestSharedLabelAccumulatesLikeOne: two anycast batches under one label,
// with an unlabelled multicast batch between them, report under the
// label exactly what the run reports in total for anycasts (the only
// anycast batches there are) — and the label carries nothing of the
// multicast it did not tag.
func TestSharedLabelAccumulatesLikeOne(t *testing.T) {
	spec := tinySpec()
	anycast := *spec.Events[1].AnycastBatch
	spec.Events = []Event{
		{At: dur("0s"), Label: "a", AnycastBatch: &anycast},
		{At: dur("2m"), MulticastBatch: &MulticastBatch{Count: 4, BandHi: 1.01, TargetLo: 0.3, TargetHi: 1}},
		{At: dur("4m"), Label: "a", AnycastBatch: &anycast},
	}
	spec.Assertions = []Assertion{{Metric: "a/anycast_delivery_rate", Min: f(0.5)}}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("labelled assertion failed: %v", res.Failures)
	}
	for _, m := range []string{"anycast_delivery_rate", "anycast_mean_hops", "anycast_mean_latency_ms", "anycast_p90_latency_ms"} {
		if got, want := res.Metrics["a/"+m], res.Metrics[m]; got != want {
			t.Errorf("a/%s = %v, the run's two batches together %v", m, got, want)
		}
	}
	if _, ok := res.Metrics["a/multicast_reliability"]; ok {
		t.Error("the label reports a multicast it did not tag")
	}
	if _, ok := res.Metrics["multicast_reliability"]; !ok {
		t.Error("the unlabelled multicast is missing from the totals")
	}
}

// TestValidateRejectsUnknownLabel: an assertion on a label no event
// carries is a spec error pinned to the assertion's line, as is a
// label that could not be told apart from its metric.
func TestValidateRejectsUnknownLabel(t *testing.T) {
	src := `{
  "name": "labels",
  "events": [
    {"at": "0s", "label": "probe", "attack": {"cushion": 0}},
    {"at": "1m", "label": "a/b", "attack": {"cushion": 0}}
  ],
  "assertions": [
    {"metric": "probe/attack_accept_rate", "max": 0.5},
    {"metric": "prob/attack_accept_rate", "max": 0.5},
    {"metric": "probe/vibes", "max": 0.5}
  ]
}`
	path := filepath.Join(t.TempDir(), "labels.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, problems := LoadFileAll(path)
	var got []string
	for _, p := range problems {
		got = append(got, p.String())
	}
	want := []string{
		`line 5: events[1].label: "a/b": a label may not contain '/'`,
		`line 9: assertions[1].metric: unknown label "prob" (no event carries it)`,
		`line 10: assertions[2].metric: unknown metric "probe/vibes"`,
	}
	if len(got) != len(want) {
		t.Fatalf("problems %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("problem %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestRunFromArchivedTrace: a fleet loaded from an archive of the trace
// a spec would generate runs to the same report, byte for byte, and a
// missing archive fails the run with an error naming it.
func TestRunFromArchivedTrace(t *testing.T) {
	spec := tinySpec()
	gen := trace.DefaultGenConfig(spec.Seed)
	gen.Hosts = spec.Fleet.Hosts
	gen.Epochs = int(spec.Fleet.Days * 24 * 3)
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	digest := func(s *Spec) string {
		t.Helper()
		res, err := Run(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		res.WriteReport(h)
		return hex.EncodeToString(h.Sum(nil))
	}
	generated := digest(spec)
	archived := tinySpec()
	archived.Fleet.Trace = path
	if got := digest(archived); got != generated {
		t.Errorf("archived-trace report %s, generated %s", got, generated)
	}

	archived.Fleet.Trace = filepath.Join(t.TempDir(), "missing.trace")
	if _, err := Run(archived, Options{}); err == nil || !strings.Contains(err.Error(), archived.Fleet.Trace) {
		t.Errorf("missing trace: error %v, want one naming %s", err, archived.Fleet.Trace)
	}
}

// TestOverlayProbeOnBothBackends: the overlay probe reads Figures 2–4
// off either engine, and its metrics say what their names promise.
func TestOverlayProbeOnBothBackends(t *testing.T) {
	for _, backend := range []string{BackendSim, BackendMemnet} {
		spec := tinySpec()
		spec.Fleet.Hosts = 200
		spec.Events = []Event{{At: dur("0s"), Label: "fig2-4", OverlayProbe: &OverlayProbe{}}}
		spec.Assertions = []Assertion{{Metric: "fig2-4/vs_indegree_spread", Min: f(1)}}
		res, err := Run(spec, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Errorf("%s: %v", backend, res.Failures)
		}
		m := res.Metrics
		// The probe ran at the instant the run ended: no median sliver can
		// exceed the largest membership list then.
		if hs, vs, max := m["hs_median_sliver_size"], m["vs_median_sliver_size"], m["max_sliver_size"]; hs <= 0 || vs <= 0 || hs > max || vs > max {
			t.Errorf("%s: median slivers HS %v VS %v against a largest membership of %v", backend, hs, vs, max)
		}
		// A world this small saturates the predicate, so the ratio need
		// not be sublinear here (Fig 3 is asserted at 1442 hosts).
		if r := m["hs_sublinearity_ratio"]; !(r > 0) {
			t.Errorf("%s: HS sublinearity ratio %v", backend, r)
		}
		if !strings.Contains(res.EventLog[0], "VS-in-links") {
			t.Errorf("%s: probe log line has no decile table: %s", backend, res.EventLog[0])
		}
	}
}

// TestRandomOverlayMatchesDegree: fleet.overlay "random" swaps the paper
// predicate for the consistent random overlay of Figure 10, whose degree
// is availability-independent and far below AVMEM's.
func TestRandomOverlayMatchesDegree(t *testing.T) {
	spec := &Spec{Name: "random", Seed: 10, Fleet: Fleet{Hosts: 220, Days: 2, ProtocolPeriod: dur("2m")}}
	degrees := map[string]float64{}
	for _, overlay := range []string{"", "random"} {
		spec.Fleet.Overlay = overlay
		w, err := buildDeployment(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.RunFor(6 * time.Hour)
		degrees[overlay] = w.MeanDegree()
		if overlay == "" {
			continue
		}
		if degrees[overlay] <= 2 {
			t.Errorf("random overlay mean degree = %v, too sparse", degrees[overlay])
		}
		// Under the uniform predicate, HS/VS classification still happens
		// but acceptance is availability-independent: degree must not
		// correlate strongly with availability. Compare low vs high halves.
		var lo, hi, nLo, nHi float64
		for _, id := range w.OnlineHosts() {
			d := float64(w.Membership(id).Size())
			if w.TrueAvailability(id) < 0.5 {
				lo, nLo = lo+d, nLo+1
			} else {
				hi, nHi = hi+d, nHi+1
			}
		}
		if nLo > 5 && nHi > 5 {
			if ratio := (hi / nHi) / (lo / nLo); ratio < 0.4 || ratio > 2.5 {
				t.Errorf("random overlay degree correlates with availability: ratio %v", ratio)
			}
		}
	}
	if degrees["random"] >= degrees[""] {
		t.Errorf("random overlay degree %v, AVMEM %v: the 2·ln N* baseline should be the sparser", degrees["random"], degrees[""])
	}
}
