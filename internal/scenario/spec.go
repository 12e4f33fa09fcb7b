// Package scenario is the declarative scenario engine, the one way to
// describe an experiment: a JSON scenario spec describes a fleet (hosts,
// churn trace, predicate parameters), a timed event sequence (churn
// bursts, attack and overlay probes, monitor-noise ramps, workload
// batches), and a set of assertions over the metrics the run produces
// (delivery rate, multicast reliability, spam, sliver-size bounds). The
// engine builds a deployment with the internal/exp engine, fires the
// events in order on the virtual clock, and evaluates the assertions.
// An event's label groups its metrics apart from the run's totals, so
// one spec can carry every series of a figure.
//
// cmd/avmemsim exposes it as `avmemsim run <scenario.json>` and
// `avmemsim validate <scenario.json>`; checked-in examples live under
// scenarios/, and the paper's §4 figures under scenarios/paper/.
//
// Architecture: DESIGN.md §9 (deployment engines and the scenario
// layer); the README carries a spec cheat sheet.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"avmem/internal/adversary"
	"avmem/internal/agg"
	"avmem/internal/audit"
	"avmem/internal/avdist"
	"avmem/internal/core"
	"avmem/internal/exp"
	"avmem/internal/ops"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("90s", "20m", "8h") so scenario files stay readable.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf(`durations are strings like "20m": %w`, err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Spec is one complete declarative scenario.
type Spec struct {
	// Name identifies the scenario in reports.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Seed drives all randomness (trace, latencies, initiator picks).
	Seed int64 `json:"seed"`
	// Fleet describes the deployment under test.
	Fleet Fleet `json:"fleet"`
	// Adversaries optionally makes a fraction of the fleet misbehave
	// (Byzantine behaviors injected under the Runtime/Env contract).
	Adversaries *AdversariesSpec `json:"adversaries,omitempty"`
	// Warmup runs before the first event (the paper warms up 24h).
	Warmup Duration `json:"warmup"`
	// Events fire in order at virtual times relative to warmup end.
	Events []Event `json:"events"`
	// Assertions are evaluated after the last event.
	Assertions []Assertion `json:"assertions"`
}

// Fleet describes the deployment: population, churn, predicate, and
// defense parameters. Zero values take the engine defaults.
type Fleet struct {
	// Hosts is the population size (default 1442, the Overnet trace).
	Hosts int `json:"hosts"`
	// Days is the churn-trace length (default 7).
	Days float64 `json:"days,omitempty"`
	// Trace optionally loads an archived avmem-trace file instead of
	// synthesizing one (Hosts/Days are then ignored).
	Trace string `json:"trace,omitempty"`
	// Availability selects the long-term availability distribution the
	// synthesized churn trace draws hosts from: "overnet" (default),
	// "uniform", or "bimodal" (a Grid-like two-population shape).
	// Ignored when Trace is set.
	Availability string `json:"availability,omitempty"`
	// Epsilon, C1, C2 are the predicate parameters (defaults 0.1, 3, 3).
	Epsilon float64 `json:"epsilon,omitempty"`
	C1      float64 `json:"c1,omitempty"`
	C2      float64 `json:"c2,omitempty"`
	// ViewSize is the coarse-view bound v (default √N).
	ViewSize int `json:"view_size,omitempty"`
	// ProtocolPeriod is the discovery/shuffle period (default 1m).
	ProtocolPeriod Duration `json:"protocol_period,omitempty"`
	// RefreshPeriod is the refresh sub-protocol period (default 20m).
	RefreshPeriod Duration `json:"refresh_period,omitempty"`
	// VerifyInbound makes every node verify message senders (§4.1).
	VerifyInbound bool `json:"verify_inbound,omitempty"`
	// Cushion is the verification cushion (paper: 0 or 0.1).
	Cushion float64 `json:"cushion,omitempty"`
	// MonitorError/MonitorStaleness start the run with a degraded
	// monitor (monitor_noise events can change it later).
	MonitorError     float64  `json:"monitor_error,omitempty"`
	MonitorStaleness Duration `json:"monitor_staleness,omitempty"`
	// DistributedMonitor swaps the oracle for the AVMON-style overlay.
	DistributedMonitor bool `json:"distributed_monitor,omitempty"`
	// Audit enables the receiving-side audit layer on every node
	// (suspicion scores, hysteresis, blacklist/eviction). An empty
	// object takes the defaults.
	Audit *AuditSpec `json:"audit,omitempty"`
	// Overlay "random" replaces the paper predicate with the consistent
	// random overlay of the paper's Figure 10 baseline, 2·ln N* expected
	// neighbors (SCAMP/CYCLON-like O(log N) views).
	Overlay string `json:"overlay,omitempty"`
}

// AuditSpec tunes the audit layer (internal/audit). Zero fields take
// the audit defaults.
type AuditSpec struct {
	// ClaimTolerance is the allowed claimed-over-monitored availability
	// excess (default 0.25).
	ClaimTolerance float64 `json:"claim_tolerance,omitempty"`
	// ClaimWarmup suppresses claim evidence before this virtual time
	// (default 1h).
	ClaimWarmup Duration `json:"claim_warmup,omitempty"`
	// EvictThreshold is the suspicion score that evicts (default 3).
	EvictThreshold float64 `json:"evict_threshold,omitempty"`
	// HardWeight scores a provable violation (default: EvictThreshold —
	// hard evidence evicts at once).
	HardWeight float64 `json:"hard_weight,omitempty"`
	// SoftWeight scores a failed predicate recheck (default 0.2).
	SoftWeight float64 `json:"soft_weight,omitempty"`
	// Decay is subtracted per clean observation (default 0.05).
	Decay float64 `json:"decay,omitempty"`
	// RecheckCushion widens the predicate recheck (default 0.1).
	RecheckCushion float64 `json:"recheck_cushion,omitempty"`
}

// params maps the spec block to audit parameters.
func (a *AuditSpec) params() *audit.Params {
	if a == nil {
		return nil
	}
	return &audit.Params{
		ClaimTolerance: a.ClaimTolerance,
		ClaimWarmup:    a.ClaimWarmup.D(),
		EvictThreshold: a.EvictThreshold,
		HardWeight:     a.HardWeight,
		SoftWeight:     a.SoftWeight,
		Decay:          a.Decay,
		RecheckCushion: a.RecheckCushion,
	}
}

// AdversaryBehaviors enumerates the behavior names an adversaries block
// may mix, with a short description of each.
var AdversaryBehaviors = map[string]string{
	"inflate":           "lie about own availability in every membership/operation exchange (inflate_to)",
	"eclipse":           "poison coarse-view exchanges with the adversary cohort and self-entries",
	"selective-forward": "black-hole relayed operations with probability drop_rate, acknowledging receipt",
	"free-ride":         "ignore inbound shuffle requests (shirk membership duties)",
	"agg-lie":           "rewrite own aggregation partials/results to claim availability 100 for every contributor",
	"agg-mangle":        "corrupt relayed aggregation partials (scale the running sum tenfold)",
	"agg-forge":         "race every observed aggregation tree with a plausible forged result sent straight to the origin",
}

// AdversariesSpec describes the Byzantine cohort: how much of the
// population misbehaves, which availability band it is drawn from, and
// the behavior mix every member runs. Onset/offset are driven by
// adversary events.
type AdversariesSpec struct {
	// Fraction of the population that misbehaves, (0, 0.5].
	Fraction float64 `json:"fraction"`
	// BandLo/BandHi restrict cohort selection by long-term availability
	// (zero band_hi = no upper bound).
	BandLo float64 `json:"band_lo,omitempty"`
	BandHi float64 `json:"band_hi,omitempty"`
	// Behaviors is the mix (see AdversaryBehaviors).
	Behaviors []string `json:"behaviors"`
	// InflateTo is the claimed availability of the inflate behavior
	// (default 0.98).
	InflateTo float64 `json:"inflate_to,omitempty"`
	// DropRate is the selective-forward drop probability (default 0.5).
	DropRate float64 `json:"drop_rate,omitempty"`
	// ActiveAtStart arms the behaviors from the beginning (including
	// warmup); otherwise an adversary onset event activates them.
	ActiveAtStart bool `json:"active_at_start,omitempty"`
}

// config maps the spec block to the deployment engines' adversary
// configuration.
func (a *AdversariesSpec) config() *exp.AdversaryConfig {
	if a == nil {
		return nil
	}
	prof := adversary.Profile{}
	for _, b := range a.Behaviors {
		switch b {
		case "inflate":
			prof.InflateTo = a.InflateTo
			if prof.InflateTo == 0 {
				prof.InflateTo = 0.98
			}
		case "eclipse":
			prof.Eclipse = true
		case "selective-forward":
			prof.DropRate = a.DropRate
			if prof.DropRate == 0 {
				prof.DropRate = 0.5
			}
		case "free-ride":
			prof.FreeRide = true
		case "agg-lie":
			prof.AggLie = true
		case "agg-mangle":
			prof.AggMangle = true
		case "agg-forge":
			prof.AggForge = true
		}
	}
	return &exp.AdversaryConfig{
		Fraction:      a.Fraction,
		BandLo:        a.BandLo,
		BandHi:        a.BandHi,
		Profile:       prof,
		ActiveAtStart: a.ActiveAtStart,
	}
}

// Event is one timed action. Exactly one of the action fields is set.
type Event struct {
	// At is the earliest firing time, relative to warmup end. Events
	// fire in list order; an event whose At has already passed (because
	// an earlier batch consumed virtual time) fires immediately.
	At Duration `json:"at"`
	// Label, when set, also reports the event's workload or probe
	// metrics as "<label>/<metric>"; events sharing a label accumulate
	// together, as one batch would.
	Label          string          `json:"label,omitempty"`
	ChurnBurst     *ChurnBurst     `json:"churn_burst,omitempty"`
	Attack         *Attack         `json:"attack,omitempty"`
	MonitorNoise   *MonitorNoise   `json:"monitor_noise,omitempty"`
	AnycastBatch   *AnycastBatch   `json:"anycast_batch,omitempty"`
	MulticastBatch *MulticastBatch `json:"multicast_batch,omitempty"`
	Rangecast      *RangecastBatch `json:"rangecast,omitempty"`
	Aggregate      *AggregateBatch `json:"aggregate,omitempty"`
	Adversary      *AdversaryEvent `json:"adversary,omitempty"`
	BiasProbe      *BiasProbe      `json:"bias_probe,omitempty"`
	OverlayProbe   *OverlayProbe   `json:"overlay_probe,omitempty"`
}

// AdversaryEvent arms (onset) or disarms (offset) the Byzantine
// cohort's behaviors; requires an adversaries block.
type AdversaryEvent struct {
	Active bool `json:"active"`
}

// BiasProbe snapshots the adversary cohort's over-representation in
// honest nodes' coarse views and membership lists (the eclipse-success
// measure); the last probe's values become the overlay_bias and
// overlay_adversary_share metrics.
type BiasProbe struct{}

// OverlayProbe snapshots the overlay's shape (the paper's Figures 2–4):
// median sliver sizes, the horizontal sliver's sublinear growth in its
// candidate count, and the spread of vertical-sliver in-degree across
// availability deciles. The last probe's values become the metrics.
type OverlayProbe struct{}

// ChurnBurst forces a fraction of the online population offline for a
// fixed duration — a correlated failure (power event, partition) on top
// of the trace's organic churn.
type ChurnBurst struct {
	// Fraction of the (band-filtered) online nodes to take down, (0,1].
	Fraction float64 `json:"fraction"`
	// Duration of the outage.
	Duration Duration `json:"duration"`
	// BandLo/BandHi optionally restrict the burst to nodes in an
	// availability band (both zero means everyone).
	BandLo float64 `json:"band_lo,omitempty"`
	BandHi float64 `json:"band_hi,omitempty"`
}

// Attack probes the §4.1 defense at the current instant: every online
// node plays the selfish flooder against non-neighbors, and every
// legitimate neighbor pair is re-verified, yielding the
// attack_accept_rate and legit_reject_rate metrics.
type Attack struct {
	// Cushion is the verification cushion used by the probe.
	Cushion float64 `json:"cushion"`
}

// MonitorNoise rewraps the monitoring service with a new error
// half-width and staleness from this point on (zero both restores the
// clean service) — a monitor-degradation ramp when used in stages.
type MonitorNoise struct {
	Error     float64  `json:"error"`
	Staleness Duration `json:"staleness"`
}

// AnycastBatch initiates Count anycasts from initiators in an
// availability band toward a target interval.
type AnycastBatch struct {
	Count int `json:"count"`
	// BandLo/BandHi bound the initiator's true availability.
	BandLo float64 `json:"band_lo"`
	BandHi float64 `json:"band_hi"`
	// TargetLo/TargetHi is the addressed availability interval.
	TargetLo float64 `json:"target_lo"`
	TargetHi float64 `json:"target_hi"`
	// Policy is greedy (default), retried-greedy, or annealing.
	Policy string `json:"policy,omitempty"`
	// Flavor is hsvs (default), hs, or vs.
	Flavor string `json:"flavor,omitempty"`
	// TTL defaults to the paper's 6.
	TTL int `json:"ttl,omitempty"`
	// Retry is the retried-greedy budget (required for that policy).
	Retry int `json:"retry,omitempty"`
	// Gap spaces initiations (default 2s); Settle drains in-flight
	// messages after the batch (default 30s).
	Gap    Duration `json:"gap,omitempty"`
	Settle Duration `json:"settle,omitempty"`
}

// MulticastBatch initiates Count multicasts from initiators in an
// availability band toward a target interval.
type MulticastBatch struct {
	Count    int     `json:"count"`
	BandLo   float64 `json:"band_lo"`
	BandHi   float64 `json:"band_hi"`
	TargetLo float64 `json:"target_lo"`
	TargetHi float64 `json:"target_hi"`
	// Mode is flood (default) or gossip.
	Mode string `json:"mode,omitempty"`
	// Flavor is hsvs (default), hs, or vs.
	Flavor string `json:"flavor,omitempty"`
	// Fanout/Rounds/Period parameterize gossip (defaults 5/2/1s).
	Fanout int      `json:"fanout,omitempty"`
	Rounds int      `json:"rounds,omitempty"`
	Period Duration `json:"period,omitempty"`
	Gap    Duration `json:"gap,omitempty"`
	Settle Duration `json:"settle,omitempty"`
}

// RangecastBatch initiates Count range-casts from initiators in an
// availability band: each delivers Payload to every node whose
// availability lies in the half-open band [target_lo, target_hi) — a
// target_hi of 1 closes the top end. An empty band (target_lo ==
// target_hi below 1) is legal and completes with zero coverage.
type RangecastBatch struct {
	Count int `json:"count"`
	// BandLo/BandHi bound the initiator's true availability.
	BandLo float64 `json:"band_lo"`
	BandHi float64 `json:"band_hi"`
	// TargetLo/TargetHi is the addressed half-open availability band.
	TargetLo float64 `json:"target_lo"`
	TargetHi float64 `json:"target_hi"`
	// Payload is the management payload delivered to every band member.
	Payload string `json:"payload,omitempty"`
	// Flavor is hsvs (default), hs, or vs.
	Flavor string `json:"flavor,omitempty"`
	// Gap spaces initiations (default 5s); Settle drains in-flight
	// messages after the batch (default 30s).
	Gap    Duration `json:"gap,omitempty"`
	Settle Duration `json:"settle,omitempty"`
}

// AggregateBatch initiates Count in-overlay aggregations from
// initiators in an availability band: each computes Op over the
// node-local values (availability claims) of every node in the
// half-open band [target_lo, target_hi), with per-hop partial
// combining on the way back to the initiator.
type AggregateBatch struct {
	Count int `json:"count"`
	// Op is count (default), sum, min, max, or avg.
	Op string `json:"op,omitempty"`
	// BandLo/BandHi bound the initiator's true availability.
	BandLo float64 `json:"band_lo"`
	BandHi float64 `json:"band_hi"`
	// TargetLo/TargetHi is the aggregated half-open availability band.
	TargetLo float64 `json:"target_lo"`
	TargetHi float64 `json:"target_hi"`
	// Flavor is hsvs (default), hs, or vs.
	Flavor string `json:"flavor,omitempty"`
	// Redundancy is the number of independent disjoint aggregation
	// trees per operation (0 or 1 = single tree; max 8). The origin
	// accepts the cross-tree median and reports disagreement as
	// agg_divergence.
	Redundancy int `json:"redundancy,omitempty"`
	// Gap spaces initiations (default 10s — past tree convergence);
	// Settle drains stragglers after the batch (default 30s).
	Gap    Duration `json:"gap,omitempty"`
	Settle Duration `json:"settle,omitempty"`
}

// Assertion bounds one metric of the finished run. At least one of
// Min/Max is set.
type Assertion struct {
	// Metric names one of the Metrics the engine produces.
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// Metrics enumerates every metric name an assertion may reference,
// with a short description of how it is computed.
var Metrics = map[string]string{
	"anycast_delivery_rate":   "delivered fraction across all anycast batches",
	"anycast_drop_rate":       "fraction of anycasts lost inside the overlay (retry exhaustion or silent drop)",
	"anycast_mean_hops":       "mean hop count of delivered anycasts",
	"anycast_mean_latency_ms": "mean delivery latency of delivered anycasts (ms)",
	"anycast_p90_latency_ms":  "90th-percentile delivery latency of delivered anycasts (ms, reservoir estimate)",
	"multicast_reliability":   "mean delivered/eligible across all multicasts",
	"multicast_spam_ratio":    "mean out-of-range receptions per eligible node",
	"attack_accept_rate":      "worst per-probe fraction of non-neighbors accepting a selfish flood",
	"legit_reject_rate":       "worst per-probe fraction of legitimate neighbor messages rejected",
	"mean_sliver_size":        "mean total membership-list size across online nodes at run end",
	"max_sliver_size":         "largest total membership-list size across online nodes at run end",
	"mean_degree":             "alias of mean_sliver_size (the paper's mean degree)",
	"online_fraction":         "fraction of the population online at run end",

	"rangecast_coverage":    "mean delivered/eligible across all range-casts",
	"rangecast_spam_ratio":  "mean out-of-band receptions per eligible node across all range-casts",
	"agg_accuracy":          "mean result-vs-ground-truth accuracy across all aggregations (1 = exact)",
	"agg_coverage":          "mean contributing fraction of the eligible in-band population",
	"agg_completion_rate":   "fraction of aggregations whose result reached the initiator",
	"agg_mean_hops":         "mean tree depth (hop radius) of completed aggregations",
	"agg_divergence":        "mean fraction of redundant trees disagreeing with the accepted (median) result",
	"agg_rejected_partials": "aggregation partials dropped by the PDF sanity checks across all batches",
	"agg_forgery_rejected":  "aggregation results refused by token/sender binding across all batches",
	"agg_forgery_accepted":  "unbound aggregation results accepted past the binding tripwire (should be 0)",

	"adversary_fraction":        "configured adversary cohort as a fraction of the population",
	"audit_eviction_rate":       "fraction of engaged adversaries (sent traffic while armed) evicted by at least one honest node",
	"audit_false_positive_rate": "fraction of honest nodes evicted by at least one honest node at run end",
	"audit_mean_detection_s":    "mean seconds from adversary onset to first honest eviction, over detected adversaries",
	"overlay_bias":              "last bias probe: adversary coarse-view share over population share (1 = unbiased)",
	"overlay_adversary_share":   "last bias probe: adversary share of honest nodes' coarse views",

	"hs_median_sliver_size": "last overlay probe: median horizontal-sliver size across online nodes (Fig 2b)",
	"vs_median_sliver_size": "last overlay probe: median vertical-sliver size across online nodes (Fig 2c)",
	"hs_sublinearity_ratio": "last overlay probe: HS size growth over candidate-count growth, densest vs sparsest quartile (Fig 3; < 1 is sublinear)",
	"vs_indegree_spread":    "last overlay probe: largest over smallest mean incoming VS references per online node across availability deciles (Fig 4; 1 = uniform)",
}

// Load parses and validates a scenario spec from r. Unknown fields are
// rejected — a typo'd key fails `avmemsim validate` with the offending
// key and its line instead of silently running a different experiment.
func Load(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", locate(data, dec, err))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// locate pins a JSON decoding failure to a line and column. Type and
// syntax errors carry their own offsets; unknown-field rejections (the
// DisallowUnknownFields errors) carry only the key name in the error
// text, so the key itself is looked up in the source.
func locate(data []byte, dec *json.Decoder, err error) error {
	offset := dec.InputOffset()
	var typeErr *json.UnmarshalTypeError
	var synErr *json.SyntaxError
	switch {
	case errors.As(err, &typeErr):
		offset = typeErr.Offset
	case errors.As(err, &synErr):
		offset = synErr.Offset
	default:
		if key, ok := unknownFieldKey(err); ok {
			// The decoder has consumed input at least up to the offending
			// key, so the right occurrence is the last one before offset.
			if i := keyOffset(data[:offset], key); i >= 0 {
				offset = int64(i) + 1
			} else if i := keyOffset(data, key); i >= 0 {
				offset = int64(i) + 1
			}
		}
	}
	if offset <= 0 || offset > int64(len(data)) {
		return err
	}
	line, col := 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("line %d:%d: %w", line, col, err)
}

// keyOffset finds the byte offset of the last `"key"` in data used as
// an object key — the quoted text followed by a colon — so neither an
// identical string *value* nor an earlier legitimate key of the same
// name wins. Falls back to the last quoted occurrence, then -1.
func keyOffset(data []byte, key string) int {
	quoted := []byte(`"` + key + `"`)
	lastKey, lastAny := -1, -1
	for from := 0; from < len(data); {
		i := bytes.Index(data[from:], quoted)
		if i < 0 {
			break
		}
		i += from
		lastAny = i
		rest := bytes.TrimLeft(data[i+len(quoted):], " \t\r\n")
		if len(rest) > 0 && rest[0] == ':' {
			lastKey = i
		}
		from = i + len(quoted)
	}
	if lastKey >= 0 {
		return lastKey
	}
	return lastAny
}

// unknownFieldKey extracts the key name from an encoding/json
// DisallowUnknownFields error ("json: unknown field \"...\"").
func unknownFieldKey(err error) (string, bool) {
	const prefix = `json: unknown field "`
	msg := err.Error()
	i := strings.Index(msg, prefix)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(prefix):]
	j := strings.LastIndex(rest, `"`)
	if j <= 0 {
		return "", false
	}
	return rest[:j], true
}

// LoadFileAll parses the scenario at path and returns every validation
// problem at once, each annotated with the source line of its key —
// the all-errors mode behind `avmemsim validate`. A file that cannot
// be read or decoded yields a single problem (decoding stops at the
// first malformed construct by nature); the spec is non-nil only when
// the file decoded.
func LoadFileAll(path string) (*Spec, []Problem) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, []Problem{{Msg: err.Error()}}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, []Problem{{Msg: fmt.Sprintf("parsing spec: %v", locate(data, dec, err))}}
	}
	ps := s.Problems()
	lines := keyLines(data)
	for i := range ps {
		ps[i].Line = lineForPath(lines, ps[i].Path)
	}
	return &s, ps
}

// lineForPath resolves a problem path to a source line, walking up the
// path (dropping trailing segments) until a key that exists in the
// file is found — a problem about a *missing* key is pinned to its
// nearest present ancestor.
func lineForPath(lines map[string]int, path string) int {
	for path != "" {
		if l, ok := lines[path]; ok {
			return l
		}
		i := strings.LastIndexAny(path, ".[")
		if i < 0 {
			return 0
		}
		path = path[:i]
	}
	return 0
}

// keyLines maps every object key's dotted path — and every array
// element's bracketed path — to its 1-based source line, by streaming
// the tokens once. Malformed input yields whatever prefix decoded.
func keyLines(data []byte) map[string]int {
	type frame struct {
		array     bool
		prefix    string
		index     int
		expectKey bool
		keyPath   string
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	offsets := make(map[string]int64, 64)
	var stack []frame
	childPrefix := func(t json.Delim) {
		stack = append(stack, frame{array: t == '[', expectKey: t == '{'})
	}
	complete := func() {
		if len(stack) == 0 {
			return
		}
		top := &stack[len(stack)-1]
		if top.array {
			top.index++
		} else {
			top.expectKey = true
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if len(stack) == 0 {
			if t, ok := tok.(json.Delim); ok && (t == '{' || t == '[') {
				childPrefix(t)
			}
			continue
		}
		top := &stack[len(stack)-1]
		if t, ok := tok.(json.Delim); ok {
			if t == '}' || t == ']' {
				stack = stack[:len(stack)-1]
				complete()
				continue
			}
			// A nested container begins: name it after its slot.
			prefix := top.keyPath
			if top.array {
				prefix = fmt.Sprintf("%s[%d]", top.prefix, top.index)
				offsets[prefix] = dec.InputOffset()
			}
			childPrefix(t)
			stack[len(stack)-1].prefix = prefix
			stack[len(stack)-1].keyPath = prefix
			continue
		}
		if top.array {
			complete()
			continue
		}
		if top.expectKey {
			key, _ := tok.(string)
			path := key
			if top.prefix != "" {
				path = top.prefix + "." + key
			}
			offsets[path] = dec.InputOffset()
			top.keyPath = path
			top.expectKey = false
			continue
		}
		complete()
	}
	lines := make(map[string]int, len(offsets))
	for path, off := range offsets {
		if off > int64(len(data)) {
			off = int64(len(data))
		}
		lines[path] = 1 + bytes.Count(data[:off], []byte{'\n'})
	}
	return lines
}

// LoadFile parses and validates the scenario spec at path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ErrTimeOverflow is wrapped by the validation error of a spec whose
// warm-up plus an event's offset does not fit in virtual time (int64
// nanoseconds, about 292 years).
var ErrTimeOverflow = errors.New("virtual time overflows")

// Problem is one validation failure, pinned to the offending key.
type Problem struct {
	// Path is the dotted key path, e.g. "events[2].churn_burst.fraction".
	Path string
	// Msg describes the failure.
	Msg string
	// Line is the key's 1-based source line when known (LoadFileAll),
	// zero otherwise (e.g. a missing required key).
	Line int
	// err, when set, is the error Msg renders, kept for Validate to wrap.
	err error
}

// String renders "path: msg", with a leading "line N: " when located.
func (p Problem) String() string {
	s := p.Msg
	if p.Path != "" {
		s = p.Path + ": " + s
	}
	if p.Line > 0 {
		s = fmt.Sprintf("line %d: %s", p.Line, s)
	}
	return s
}

// problems accumulates validation failures.
type problems struct{ list []Problem }

func (ps *problems) add(path, format string, args ...any) {
	ps.list = append(ps.list, Problem{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// addErr records a failure that Validate returns wrapped.
func (ps *problems) addErr(path string, err error) {
	ps.list = append(ps.list, Problem{Path: path, Msg: err.Error(), err: err})
}

// Validate checks the spec is well formed and every referenced enum,
// target, and metric exists; the first failure is returned as an error.
// It does not build the world. Problems returns all failures at once.
func (s *Spec) Validate() error {
	if ps := s.Problems(); len(ps) > 0 {
		if ps[0].err != nil {
			return fmt.Errorf("scenario: %s: %w", ps[0].Path, ps[0].err)
		}
		return fmt.Errorf("scenario: %s", ps[0])
	}
	return nil
}

// Problems checks the whole spec and returns every validation failure,
// each pinned to its key path — `avmemsim validate` reports them all
// instead of stopping at the first.
func (s *Spec) Problems() []Problem {
	ps := &problems{}
	if s.Name == "" {
		ps.add("name", "name is required")
	}
	if s.Fleet.Hosts < 0 || (s.Fleet.Trace == "" && s.Fleet.Hosts > 0 && s.Fleet.Hosts < 10) {
		ps.add("fleet.hosts", "must be 0 (default) or >= 10, got %d", s.Fleet.Hosts)
	}
	if s.Fleet.Days < 0 {
		ps.add("fleet.days", "must be non-negative, got %v", s.Fleet.Days)
	}
	if _, err := availabilityPDF(s.Fleet.Availability); err != nil {
		ps.add("fleet.availability", "%v", err)
	}
	if o := s.Fleet.Overlay; o != "" && o != "random" {
		ps.add("fleet.overlay", "unknown overlay %q (omit it for the AVMEM predicate, or \"random\")", o)
	}
	s.Fleet.Audit.problems(ps)
	s.Adversaries.problems(ps)
	if s.Warmup < 0 {
		ps.add("warmup", "must be non-negative, got %v", s.Warmup.D())
	}
	if len(s.Events) == 0 {
		ps.add("events", "at least one event is required")
	}
	prev := Duration(0)
	labels := map[string]bool{}
	for i := range s.Events {
		labels[s.Events[i].Label] = true
		path := fmt.Sprintf("events[%d]", i)
		s.Events[i].problems(ps, path, s.Adversaries != nil)
		if s.Events[i].At < prev {
			ps.add(path+".at", "%v is before event %d's %v (events must be time-ordered)",
				s.Events[i].At.D(), i-1, prev.D())
		}
		if s.Warmup >= 0 && s.Events[i].At > math.MaxInt64-s.Warmup {
			ps.addErr(path+".at", fmt.Errorf("%v after the %v warmup: %w",
				s.Events[i].At.D(), s.Warmup.D(), ErrTimeOverflow))
		}
		prev = s.Events[i].At
	}
	for i, a := range s.Assertions {
		path := fmt.Sprintf("assertions[%d]", i)
		label, metric, labelled := strings.Cut(a.Metric, "/")
		if !labelled {
			metric = label
		} else if !labels[label] || label == "" {
			ps.add(path+".metric", "unknown label %q (no event carries it)", label)
			continue
		}
		if _, ok := Metrics[metric]; !ok {
			ps.add(path+".metric", "unknown metric %q", a.Metric)
			continue
		}
		if a.Min == nil && a.Max == nil {
			ps.add(path, "%s: needs min and/or max", a.Metric)
		}
		if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
			ps.add(path, "%s: min %v > max %v", a.Metric, *a.Min, *a.Max)
		}
	}
	return ps.list
}

func (a *AuditSpec) problems(ps *problems) {
	if a == nil {
		return
	}
	const path = "fleet.audit"
	if a.ClaimTolerance < 0 || a.ClaimTolerance > 1 {
		ps.add(path+".claim_tolerance", "must be in [0,1], got %v", a.ClaimTolerance)
	}
	if a.EvictThreshold < 0 {
		ps.add(path+".evict_threshold", "must be non-negative, got %v", a.EvictThreshold)
	}
	if a.HardWeight < 0 || a.SoftWeight < 0 || a.Decay < 0 {
		ps.add(path, "weights must be non-negative, got hard %v soft %v decay %v",
			a.HardWeight, a.SoftWeight, a.Decay)
	}
	if a.RecheckCushion < 0 || a.RecheckCushion > 1 {
		ps.add(path+".recheck_cushion", "must be in [0,1], got %v", a.RecheckCushion)
	}
}

func (a *AdversariesSpec) problems(ps *problems) {
	if a == nil {
		return
	}
	const path = "adversaries"
	if a.Fraction <= 0 || a.Fraction > 0.5 {
		ps.add(path+".fraction", "must be in (0,0.5], got %v", a.Fraction)
	}
	if err := validateBand(a.BandLo, a.BandHi); err != nil {
		ps.add(path, "%v", err)
	}
	if len(a.Behaviors) == 0 {
		ps.add(path+".behaviors", "at least one behavior is required (inflate, eclipse, selective-forward, free-ride, agg-lie, agg-mangle, agg-forge)")
	}
	for i, b := range a.Behaviors {
		if _, ok := AdversaryBehaviors[b]; !ok {
			ps.add(fmt.Sprintf("%s.behaviors[%d]", path, i),
				"unknown behavior %q (inflate, eclipse, selective-forward, free-ride, agg-lie, agg-mangle, agg-forge)", b)
		}
	}
	if a.InflateTo < 0 || a.InflateTo > 1 {
		ps.add(path+".inflate_to", "must be in [0,1], got %v", a.InflateTo)
	}
	if a.DropRate < 0 || a.DropRate > 1 {
		ps.add(path+".drop_rate", "must be in [0,1], got %v", a.DropRate)
	}
}

func (e *Event) problems(ps *problems, path string, haveAdversaries bool) {
	if e.At < 0 {
		ps.add(path+".at", "must be non-negative, got %v", e.At.D())
	}
	if strings.Contains(e.Label, "/") {
		ps.add(path+".label", "%q: a label may not contain '/' (it separates the label from the metric)", e.Label)
	}
	n := 0
	if e.ChurnBurst != nil {
		n++
		if e.ChurnBurst.Fraction <= 0 || e.ChurnBurst.Fraction > 1 {
			ps.add(path+".churn_burst.fraction", "must be in (0,1], got %v", e.ChurnBurst.Fraction)
		}
		if e.ChurnBurst.Duration <= 0 {
			ps.add(path+".churn_burst.duration", "must be positive, got %v", e.ChurnBurst.Duration.D())
		}
	}
	if e.Attack != nil {
		n++
		if e.Attack.Cushion < 0 || e.Attack.Cushion > 1 {
			ps.add(path+".attack.cushion", "must be in [0,1], got %v", e.Attack.Cushion)
		}
	}
	if e.MonitorNoise != nil {
		n++
		if e.MonitorNoise.Error < 0 || e.MonitorNoise.Error > 1 {
			ps.add(path+".monitor_noise.error", "must be in [0,1], got %v", e.MonitorNoise.Error)
		}
		if e.MonitorNoise.Staleness < 0 {
			ps.add(path+".monitor_noise.staleness", "must be non-negative")
		}
	}
	if e.AnycastBatch != nil {
		n++
		if err := e.AnycastBatch.validate(); err != nil {
			ps.add(path+".anycast_batch", "%v", err)
		}
	}
	if e.MulticastBatch != nil {
		n++
		if err := e.MulticastBatch.validate(); err != nil {
			ps.add(path+".multicast_batch", "%v", err)
		}
	}
	if e.Rangecast != nil {
		n++
		if err := e.Rangecast.validate(); err != nil {
			ps.add(path+".rangecast", "%v", err)
		}
	}
	if e.Aggregate != nil {
		n++
		if err := e.Aggregate.validate(); err != nil {
			ps.add(path+".aggregate", "%v", err)
		}
	}
	if e.Adversary != nil {
		n++
		if !haveAdversaries {
			ps.add(path+".adversary", "requires an adversaries block")
		}
	}
	if e.BiasProbe != nil {
		n++
		if !haveAdversaries {
			ps.add(path+".bias_probe", "requires an adversaries block")
		}
	}
	if e.OverlayProbe != nil {
		n++
	}
	if n != 1 {
		ps.add(path, "exactly one action per event (churn_burst, attack, monitor_noise, anycast_batch, multicast_batch, rangecast, aggregate, adversary, bias_probe, overlay_probe), got %d", n)
	}
}

func (b *AnycastBatch) validate() error {
	if b.Count <= 0 {
		return fmt.Errorf("count must be positive, got %d", b.Count)
	}
	if err := validateBand(b.BandLo, b.BandHi); err != nil {
		return err
	}
	if err := b.target().Validate(); err != nil {
		return err
	}
	if _, err := parsePolicy(b.Policy); err != nil {
		return err
	}
	if _, err := parseFlavor(b.Flavor); err != nil {
		return err
	}
	if p, _ := parsePolicy(b.Policy); p == ops.RetriedGreedy && b.Retry <= 0 {
		return fmt.Errorf("retried-greedy needs a positive retry budget")
	}
	return nil
}

func (b *AnycastBatch) target() ops.Target {
	return ops.Target{Lo: b.TargetLo, Hi: b.TargetHi}
}

func (b *MulticastBatch) validate() error {
	if b.Count <= 0 {
		return fmt.Errorf("count must be positive, got %d", b.Count)
	}
	if err := validateBand(b.BandLo, b.BandHi); err != nil {
		return err
	}
	if err := b.target().Validate(); err != nil {
		return err
	}
	if _, err := parseMode(b.Mode); err != nil {
		return err
	}
	if _, err := parseFlavor(b.Flavor); err != nil {
		return err
	}
	return nil
}

func (b *MulticastBatch) target() ops.Target {
	return ops.Target{Lo: b.TargetLo, Hi: b.TargetHi}
}

func (b *RangecastBatch) validate() error {
	if b.Count <= 0 {
		return fmt.Errorf("count must be positive, got %d", b.Count)
	}
	if err := validateBand(b.BandLo, b.BandHi); err != nil {
		return err
	}
	if err := b.band().Validate(); err != nil {
		return err
	}
	if _, err := parseFlavor(b.Flavor); err != nil {
		return err
	}
	return nil
}

func (b *RangecastBatch) band() ops.Band {
	return ops.Band{Lo: b.TargetLo, Hi: b.TargetHi}
}

func (b *AggregateBatch) validate() error {
	if b.Count <= 0 {
		return fmt.Errorf("count must be positive, got %d", b.Count)
	}
	if _, err := parseOp(b.Op); err != nil {
		return err
	}
	if err := validateBand(b.BandLo, b.BandHi); err != nil {
		return err
	}
	if err := b.band().Validate(); err != nil {
		return err
	}
	if _, err := parseFlavor(b.Flavor); err != nil {
		return err
	}
	if b.Redundancy < 0 || b.Redundancy > 8 {
		return fmt.Errorf("redundancy must be in [0,8], got %d", b.Redundancy)
	}
	return nil
}

func (b *AggregateBatch) band() ops.Band {
	return ops.Band{Lo: b.TargetLo, Hi: b.TargetHi}
}

// validateBand checks an initiator availability band. A zero hi means
// "everyone at or above lo" (resolved to an inclusive upper bound at
// run time), mirroring churn_burst's band semantics; otherwise the band
// must be a non-empty sub-interval of [0, 1.01].
func validateBand(lo, hi float64) error {
	if lo < 0 || lo > 1 {
		return fmt.Errorf("band_lo must be in [0,1], got %v", lo)
	}
	if hi == 0 {
		return nil
	}
	if hi <= lo {
		return fmt.Errorf("band_hi %v must exceed band_lo %v (or be omitted for no upper bound)", hi, lo)
	}
	if hi > 1.01 {
		return fmt.Errorf("band_hi must be at most 1.01, got %v", hi)
	}
	return nil
}

// bandHi resolves a zero upper bound to 1.01, which includes every
// availability estimate (estimates are capped at 1).
func bandHi(hi float64) float64 {
	if hi == 0 {
		return 1.01
	}
	return hi
}

// availabilityPDF resolves a fleet.availability name to the trace
// generator's target distribution; nil means the generator default
// (Overnet). The bimodal shape fixes its modes at 0.2/0.9 with 40% of
// the mass in the high mode — a Grid-like population.
func availabilityPDF(name string) (*avdist.PDF, error) {
	switch name {
	case "", "overnet":
		return nil, nil
	case "uniform":
		return avdist.Uniform(avdist.DefaultBuckets), nil
	case "bimodal":
		return avdist.Bimodal(avdist.DefaultBuckets, 0.2, 0.9, 0.4)
	default:
		return nil, fmt.Errorf("unknown availability distribution %q (overnet, uniform, bimodal)", name)
	}
}

func parsePolicy(s string) (ops.Policy, error) {
	switch s {
	case "", "greedy":
		return ops.Greedy, nil
	case "retried-greedy":
		return ops.RetriedGreedy, nil
	case "annealing":
		return ops.Annealing, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (greedy, retried-greedy, annealing)", s)
	}
}

func parseFlavor(s string) (core.Flavor, error) {
	switch s {
	case "", "hsvs":
		return core.HSVS, nil
	case "hs":
		return core.HSOnly, nil
	case "vs":
		return core.VSOnly, nil
	default:
		return 0, fmt.Errorf("unknown flavor %q (hs, vs, hsvs)", s)
	}
}

func parseOp(s string) (agg.Op, error) {
	switch s {
	case "", "count":
		return agg.Count, nil
	case "sum":
		return agg.Sum, nil
	case "min":
		return agg.Min, nil
	case "max":
		return agg.Max, nil
	case "avg":
		return agg.Avg, nil
	default:
		return 0, fmt.Errorf("unknown op %q (count, sum, min, max, avg)", s)
	}
}

func parseMode(s string) (ops.Mode, error) {
	switch s {
	case "", "flood":
		return ops.Flood, nil
	case "gossip":
		return ops.Gossip, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (flood, gossip)", s)
	}
}
