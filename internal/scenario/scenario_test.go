package scenario

import (
	"errors"
	"strings"
	"testing"
)

// tinySpec returns a fast-but-real scenario: 120 hosts, short warmup,
// one churn burst and one anycast batch.
func tinySpec() *Spec {
	return &Spec{
		Name: "tiny",
		Seed: 1,
		Fleet: Fleet{
			Hosts:          120,
			Days:           1,
			ProtocolPeriod: dur("2m"),
		},
		Warmup: dur("2h"),
		Events: []Event{
			{At: dur("0s"), ChurnBurst: &ChurnBurst{Fraction: 0.3, Duration: dur("20m")}},
			// BandHi deliberately omitted: zero means "no upper bound".
			{At: dur("2m"), AnycastBatch: &AnycastBatch{
				Count:    10,
				TargetLo: 0.5, TargetHi: 1,
			}},
		},
		Assertions: []Assertion{
			{Metric: "anycast_delivery_rate", Min: f(0.5)},
			{Metric: "mean_sliver_size", Min: f(1)},
		},
	}
}

func dur(s string) Duration {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"` + s + `"`)); err != nil {
		panic(err)
	}
	return d
}

func f(v float64) *float64 { return &v }

func TestRunTinyScenario(t *testing.T) {
	res, err := Run(tinySpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("tiny scenario failed: %v", res.Failures)
	}
	for _, want := range []string{"anycast_delivery_rate", "mean_sliver_size", "online_fraction", "max_sliver_size"} {
		if _, ok := res.Metrics[want]; !ok {
			t.Errorf("metric %q missing: %v", want, res.Metrics)
		}
	}
	if len(res.EventLog) != 2 {
		t.Errorf("event log has %d entries, want 2: %v", len(res.EventLog), res.EventLog)
	}
}

func TestRunReportsAssertionFailure(t *testing.T) {
	spec := tinySpec()
	spec.Assertions = []Assertion{{Metric: "anycast_delivery_rate", Min: f(1.1)}}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("impossible assertion passed")
	}
	if !strings.Contains(res.Failures[0], "anycast_delivery_rate") {
		t.Errorf("failure message %q does not name the metric", res.Failures[0])
	}
}

func TestRunFailsAssertionOnMissingMetric(t *testing.T) {
	spec := tinySpec()
	spec.Assertions = []Assertion{{Metric: "multicast_reliability", Min: f(0.5)}}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("assertion on an unproduced metric passed")
	}
	if !strings.Contains(res.Failures[0], "no event produced") {
		t.Errorf("failure message %q does not explain the missing metric", res.Failures[0])
	}
}

func TestRunMulticastAndAttackEvents(t *testing.T) {
	spec := tinySpec()
	spec.Events = []Event{
		{At: dur("0s"), Attack: &Attack{Cushion: 0.1}},
		{At: dur("1m"), MonitorNoise: &MonitorNoise{Error: 0.05, Staleness: dur("10m")}},
		{At: dur("2m"), MulticastBatch: &MulticastBatch{
			Count:  5,
			BandLo: 0, BandHi: 1.01,
			TargetLo: 0.3, TargetHi: 1,
			Mode: "gossip", Fanout: 5, Rounds: 2, Period: dur("1s"),
		}},
	}
	spec.Assertions = nil
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"attack_accept_rate", "legit_reject_rate", "multicast_reliability", "multicast_spam_ratio"} {
		if _, ok := res.Metrics[want]; !ok {
			t.Errorf("metric %q missing after its event ran: %v", want, res.Metrics)
		}
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"not json", `{`},
		{"unknown field", `{"name":"x","bogus":1,"events":[{"at":"0s","attack":{"cushion":0}}]}`},
		{"missing name", `{"seed":1,"events":[{"at":"0s","attack":{"cushion":0}}]}`},
		{"no events", `{"name":"x"}`},
		{"numeric duration", `{"name":"x","warmup":300,"events":[{"at":"0s","attack":{"cushion":0}}]}`},
		{"two actions", `{"name":"x","events":[{"at":"0s","attack":{"cushion":0},"churn_burst":{"fraction":0.5,"duration":"5m"}}]}`},
		{"no action", `{"name":"x","events":[{"at":"0s"}]}`},
		{"bad fraction", `{"name":"x","events":[{"at":"0s","churn_burst":{"fraction":1.5,"duration":"5m"}}]}`},
		{"bad target", `{"name":"x","events":[{"at":"0s","anycast_batch":{"count":5,"target_lo":0.9,"target_hi":0.1}}]}`},
		{"bad policy", `{"name":"x","events":[{"at":"0s","anycast_batch":{"count":5,"target_lo":0.1,"target_hi":0.9,"policy":"psychic"}}]}`},
		{"retry missing", `{"name":"x","events":[{"at":"0s","anycast_batch":{"count":5,"target_lo":0.1,"target_hi":0.9,"policy":"retried-greedy"}}]}`},
		{"bad mode", `{"name":"x","events":[{"at":"0s","multicast_batch":{"count":5,"target_lo":0.1,"target_hi":0.9,"mode":"telepathy"}}]}`},
		{"inverted band", `{"name":"x","events":[{"at":"0s","anycast_batch":{"count":5,"band_lo":0.8,"band_hi":0.2,"target_lo":0.1,"target_hi":0.9}}]}`},
		{"band_lo out of range", `{"name":"x","events":[{"at":"0s","multicast_batch":{"count":5,"band_lo":1.5,"target_lo":0.1,"target_hi":0.9}}]}`},
		{"events out of order", `{"name":"x","events":[{"at":"5m","attack":{"cushion":0}},{"at":"1m","attack":{"cushion":0}}]}`},
		{"unknown metric", `{"name":"x","events":[{"at":"0s","attack":{"cushion":0}}],"assertions":[{"metric":"vibes","min":1}]}`},
		{"assertion without bound", `{"name":"x","events":[{"at":"0s","attack":{"cushion":0}}],"assertions":[{"metric":"attack_accept_rate"}]}`},
		{"min above max", `{"name":"x","events":[{"at":"0s","attack":{"cushion":0}}],"assertions":[{"metric":"attack_accept_rate","min":0.9,"max":0.1}]}`},
		{"tiny fleet", `{"name":"x","fleet":{"hosts":3},"events":[{"at":"0s","attack":{"cushion":0}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.json)); err == nil {
				t.Errorf("accepted malformed scenario: %s", tc.json)
			}
		})
	}
}

func TestLoadReportsKeyAndLine(t *testing.T) {
	// A typo'd key must fail with the offending key name and its line.
	src := `{
  "name": "x",
  "fleet": {
    "hostss": 120
  },
  "events": [{"at":"0s","attack":{"cushion":0}}]
}`
	_, err := Load(strings.NewReader(src))
	if err == nil {
		t.Fatal("typo'd key accepted")
	}
	if !strings.Contains(err.Error(), `"hostss"`) {
		t.Errorf("error %q does not name the offending key", err)
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not locate line 4", err)
	}
}

func TestLoadLocatesKeyNotValue(t *testing.T) {
	// The typo'd key's text also appears earlier as a string value; the
	// reported line must be the key's, not the value's.
	src := `{
  "name": "hostss",
  "fleet": {
    "hostss": 120
  },
  "events": [{"at":"0s","attack":{"cushion":0}}]
}`
	_, err := Load(strings.NewReader(src))
	if err == nil {
		t.Fatal("typo'd key accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not locate the key on line 4", err)
	}
}

func TestLoadLocatesShadowedKey(t *testing.T) {
	// The unknown field shares its name with a legitimate key earlier
	// in the file; the later (offending) occurrence must win.
	src := `{
  "name": "x",
  "fleet": {
    "name": "y"
  },
  "events": [{"at":"0s","attack":{"cushion":0}}]
}`
	_, err := Load(strings.NewReader(src))
	if err == nil {
		t.Fatal("typo'd key accepted")
	}
	if !strings.Contains(err.Error(), `"name"`) {
		t.Errorf("error %q does not name the offending key", err)
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not locate the shadowed key on line 4", err)
	}
}

func TestLoadReportsTypeErrorLine(t *testing.T) {
	src := `{
  "name": "x",
  "seed": "not-a-number",
  "events": [{"at":"0s","attack":{"cushion":0}}]
}`
	_, err := Load(strings.NewReader(src))
	if err == nil {
		t.Fatal("mistyped value accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not locate line 3", err)
	}
}

// TestLoadRejectsTimeOverflow: a warm-up plus an event offset past the
// end of virtual time (int64 nanoseconds) is rejected at load, naming the
// event's at, instead of wrapping the run's clock around. The largest
// sum that fits is accepted.
func TestLoadRejectsTimeOverflow(t *testing.T) {
	spec := func(at string) string {
		return `{"name":"x","warmup":"2000000h","events":[{"at":"1h","attack":{"cushion":0}},{"at":"` + at + `","attack":{"cushion":0}}]}`
	}
	_, err := Load(strings.NewReader(spec("1000000h")))
	if !errors.Is(err, ErrTimeOverflow) || !strings.Contains(err.Error(), "events[1].at") {
		t.Fatalf("overflowing spec: error %v, want ErrTimeOverflow naming events[1].at", err)
	}
	if _, err := Load(strings.NewReader(spec("500000h"))); err != nil {
		t.Fatalf("spec ending at 2500000h rejected: %v", err)
	}
}

func TestLoadAcceptsMinimalValid(t *testing.T) {
	spec, err := Load(strings.NewReader(
		`{"name":"ok","events":[{"at":"0s","attack":{"cushion":0.1}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "ok" || len(spec.Events) != 1 {
		t.Errorf("parsed spec wrong: %+v", spec)
	}
}

func TestEvaluateBounds(t *testing.T) {
	metrics := map[string]float64{"attack_accept_rate": 0.2}
	if fails := evaluate([]Assertion{{Metric: "attack_accept_rate", Min: f(0.1), Max: f(0.3)}}, metrics); len(fails) != 0 {
		t.Errorf("in-bounds value failed: %v", fails)
	}
	if fails := evaluate([]Assertion{{Metric: "attack_accept_rate", Min: f(0.25)}}, metrics); len(fails) != 1 {
		t.Errorf("below-min value passed: %v", fails)
	}
	if fails := evaluate([]Assertion{{Metric: "attack_accept_rate", Max: f(0.15)}}, metrics); len(fails) != 1 {
		t.Errorf("above-max value passed: %v", fails)
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := dur("90m")
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Errorf("round trip %v != %v", back, d)
	}
}
