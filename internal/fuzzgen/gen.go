// Package fuzzgen is the metamorphic scenario fuzzer: a seeded,
// deterministic generator that emits valid scenario.Spec values across
// the whole configuration space (fleet size, availability shape, churn
// and outage bursts, adversary mixes, audit knobs, every operation
// family, engine configs), an oracle layer that checks each generated
// world against the engines' metamorphic invariants (per-seed
// determinism, observability neutrality, serial/parallel RunMany
// agreement, sim/memnet shape agreement, semantic bounds), a
// delta-debugging shrinker that minimizes failing specs, and a budgeted
// campaign driver surfaced as `avmemsim fuzz` and gated in CI on every
// PR. Minimized failures are written to scenarios/fuzz-corpus/ where a
// regression suite replays them forever.
//
// Architecture: DESIGN.md §16 (generator grammar, invariant table,
// shrinker algorithm).
package fuzzgen

import (
	"fmt"
	"math/rand"
	"time"

	"avmem/internal/scenario"
)

// genSalt decorrelates the generator's RNG stream from the world seed
// the generated spec carries (which reuses the raw seed).
const genSalt = 0x5eedfa22

// GenOptions bounds the generator's configuration space. The zero
// value takes the defaults noted on each field.
type GenOptions struct {
	// MinHosts/MaxHosts bound the fleet size (defaults 50 and 2000).
	MinHosts, MaxHosts int
	// MaxEvents bounds the event-sequence length (default 8).
	MaxEvents int
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MinHosts <= 0 {
		o.MinHosts = 50
	}
	if o.MaxHosts <= 0 {
		o.MaxHosts = 2000
	}
	if o.MaxHosts < o.MinHosts {
		o.MaxHosts = o.MinHosts
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 8
	}
	return o
}

// Generate emits one valid scenario spec, fully determined by seed:
// the same seed always yields the identical spec, and the spec's own
// world seed is the generator seed (so a failure reproduces from the
// seed alone). Generated specs carry no assertions — judging is the
// oracle layer's job (Check).
func Generate(seed int64) *scenario.Spec { return GenerateOpts(seed, GenOptions{}) }

// GenerateOpts is Generate with explicit bounds.
func GenerateOpts(seed int64, o GenOptions) *scenario.Spec {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(seed ^ genSalt))
	s := &scenario.Spec{
		Name: fmt.Sprintf("fuzz-%d", seed),
		Seed: seed,
	}
	s.Fleet = genFleet(rng, o)
	if rng.Float64() < 0.45 {
		s.Adversaries = genAdversaries(rng)
	}
	// Short warmups keep the campaign's scenarios/second high; the
	// occasional long warmup still exercises the paper's regime.
	s.Warmup = pickDur(rng, "30m", "1h", "1h", "2h", "4h")
	s.Events = genEvents(rng, o, s.Adversaries != nil)
	s.Description = "generated by internal/fuzzgen; judged by metamorphic oracles, not assertions"
	return s
}

// genFleet draws the deployment block. Sizes are weighted toward the
// small end so a campaign completes many scenarios per budget, with a
// thin tail up to MaxHosts.
func genFleet(rng *rand.Rand, o GenOptions) scenario.Fleet {
	f := scenario.Fleet{Hosts: genHosts(rng, o)}
	f.Days = []float64{0.5, 0.5, 1, 1, 2}[rng.Intn(5)]
	f.Availability = []string{"", "", "overnet", "uniform", "bimodal"}[rng.Intn(5)]
	if rng.Float64() < 0.3 {
		f.Epsilon = quant(rng, 0.05, 0.25, 0.05)
	}
	if rng.Float64() < 0.2 {
		f.C1 = float64(2 + rng.Intn(3))
		f.C2 = float64(2 + rng.Intn(3))
	}
	if rng.Float64() < 0.2 {
		f.ViewSize = 8 + rng.Intn(40)
	}
	f.ProtocolPeriod = pickDur(rng, "1m", "2m", "2m", "5m")
	if rng.Float64() < 0.25 {
		f.RefreshPeriod = pickDur(rng, "10m", "20m", "30m")
	}
	if rng.Float64() < 0.35 {
		f.VerifyInbound = true
		f.Cushion = quant(rng, 0, 0.1, 0.05)
	}
	if rng.Float64() < 0.25 {
		f.MonitorError = quant(rng, 0.02, 0.1, 0.02)
		f.MonitorStaleness = pickDur(rng, "10m", "20m", "30m")
	}
	// The distributed monitor multiplies protocol traffic; keep it to
	// small fleets so it costs what a small scenario costs.
	if f.Hosts <= 200 && rng.Float64() < 0.15 {
		f.DistributedMonitor = true
	}
	if rng.Float64() < 0.4 {
		f.Audit = genAudit(rng)
	}
	return f
}

// genHosts draws the fleet size: mostly small worlds, a thin tail of
// big ones (60% of mass in the bottom size class).
func genHosts(rng *rand.Rand, o GenOptions) int {
	lo, hi := o.MinHosts, o.MaxHosts
	var n int
	switch r := rng.Float64(); {
	case r < 0.60:
		n = lo + rng.Intn(151) // 50..200 at the default bounds
	case r < 0.90:
		n = lo + 150 + rng.Intn(451) // 200..650
	default:
		n = lo + 550 + rng.Intn(1401) // 600..2000
	}
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// genAudit draws audit knobs inside the ranges where the layer's
// honest-false-positive contract is designed to hold (a threshold low
// enough for one soft recheck to evict would make FP bounds
// meaningless, not buggy).
func genAudit(rng *rand.Rand) *scenario.AuditSpec {
	a := &scenario.AuditSpec{}
	if rng.Float64() < 0.5 {
		return a // engine defaults
	}
	a.ClaimTolerance = quant(rng, 0.15, 0.4, 0.05)
	a.EvictThreshold = float64(2 + rng.Intn(3))
	a.SoftWeight = quant(rng, 0.1, 0.3, 0.1)
	a.Decay = quant(rng, 0.02, 0.1, 0.02)
	if rng.Float64() < 0.3 {
		a.RecheckCushion = quant(rng, 0.05, 0.2, 0.05)
	}
	return a
}

// behaviors is the full adversary catalogue the generator mixes from.
var behaviors = []string{
	"inflate", "eclipse", "selective-forward", "free-ride",
	"agg-lie", "agg-mangle", "agg-forge",
}

// genAdversaries draws the Byzantine cohort: a random non-empty subset
// of all seven behaviors. Cohort bands are left unrestricted — a
// random narrow band can select zero hosts, which is a config error,
// not a bug.
func genAdversaries(rng *rand.Rand) *scenario.AdversariesSpec {
	a := &scenario.AdversariesSpec{
		Fraction:      quant(rng, 0.05, 0.3, 0.05),
		ActiveAtStart: rng.Float64() < 0.5,
	}
	perm := rng.Perm(len(behaviors))
	n := 1 + rng.Intn(3)
	for _, i := range perm[:n] {
		a.Behaviors = append(a.Behaviors, behaviors[i])
	}
	if rng.Float64() < 0.5 {
		a.InflateTo = quant(rng, 0.5, 1, 0.1)
	}
	if rng.Float64() < 0.5 {
		a.DropRate = quant(rng, 0.1, 0.9, 0.2)
	}
	return a
}

// genEvents draws a time-ordered event sequence; every kind in the
// catalogue can appear, adversary/bias events only when a cohort
// exists.
func genEvents(rng *rand.Rand, o GenOptions, haveAdv bool) []scenario.Event {
	n := 1 + rng.Intn(o.MaxEvents)
	events := make([]scenario.Event, 0, n)
	at := time.Duration(0)
	armed := false
	for i := 0; i < n; i++ {
		e := scenario.Event{At: scenario.Duration(at)}
		switch k := rng.Intn(10); {
		case k == 0:
			e.ChurnBurst = genChurnBurst(rng)
		case k == 1:
			e.Attack = &scenario.Attack{Cushion: quant(rng, 0, 0.15, 0.05)}
		case k == 2:
			e.MonitorNoise = genMonitorNoise(rng)
		case k == 3:
			e.AnycastBatch = genAnycast(rng)
		case k == 4:
			e.MulticastBatch = genMulticast(rng)
		case k == 5:
			e.Rangecast = genRangecast(rng)
		case k <= 7:
			e.Aggregate = genAggregate(rng)
		case haveAdv && k == 8:
			e.Adversary = &scenario.AdversaryEvent{Active: !armed}
			armed = !armed
		case haveAdv:
			e.BiasProbe = &scenario.BiasProbe{}
		default:
			// No cohort: fall back to the workload that exercises the
			// most machinery.
			e.Aggregate = genAggregate(rng)
		}
		events = append(events, e)
		at += time.Duration(rng.Intn(8)) * time.Minute
	}
	return events
}

func genChurnBurst(rng *rand.Rand) *scenario.ChurnBurst {
	b := &scenario.ChurnBurst{
		Fraction: quant(rng, 0.1, 0.5, 0.1),
		Duration: pickDur(rng, "10m", "20m", "30m", "1h"),
	}
	if rng.Float64() < 0.3 {
		b.BandLo, b.BandHi = genInitBand(rng)
	}
	return b
}

func genMonitorNoise(rng *rand.Rand) *scenario.MonitorNoise {
	if rng.Float64() < 0.2 {
		return &scenario.MonitorNoise{} // restore the clean service
	}
	return &scenario.MonitorNoise{
		Error:     quant(rng, 0.02, 0.15, 0.02),
		Staleness: pickDur(rng, "5m", "10m", "20m", "30m"),
	}
}

func genAnycast(rng *rand.Rand) *scenario.AnycastBatch {
	b := &scenario.AnycastBatch{Count: 3 + rng.Intn(10)}
	b.BandLo, b.BandHi = genInitBand(rng)
	b.TargetLo, b.TargetHi = genTarget(rng)
	b.Policy = []string{"", "greedy", "retried-greedy", "annealing"}[rng.Intn(4)]
	if b.Policy == "retried-greedy" {
		b.Retry = 2 + rng.Intn(7)
	}
	b.Flavor = genFlavor(rng)
	if rng.Float64() < 0.3 {
		b.TTL = 4 + rng.Intn(5)
	}
	return b
}

func genMulticast(rng *rand.Rand) *scenario.MulticastBatch {
	b := &scenario.MulticastBatch{Count: 2 + rng.Intn(6)}
	b.BandLo, b.BandHi = genInitBand(rng)
	b.TargetLo, b.TargetHi = genTarget(rng)
	b.Flavor = genFlavor(rng)
	if rng.Float64() < 0.4 {
		b.Mode = "gossip"
		b.Fanout = 3 + rng.Intn(5)
		b.Rounds = 1 + rng.Intn(3)
	}
	return b
}

func genRangecast(rng *rand.Rand) *scenario.RangecastBatch {
	b := &scenario.RangecastBatch{Count: 2 + rng.Intn(6), Payload: "fuzz"}
	b.BandLo, b.BandHi = genInitBand(rng)
	b.TargetLo, b.TargetHi = genBand(rng)
	b.Flavor = genFlavor(rng)
	return b
}

func genAggregate(rng *rand.Rand) *scenario.AggregateBatch {
	b := &scenario.AggregateBatch{Count: 2 + rng.Intn(6)}
	b.Op = []string{"", "count", "sum", "min", "max", "avg"}[rng.Intn(6)]
	b.BandLo, b.BandHi = genInitBand(rng)
	b.TargetLo, b.TargetHi = genBand(rng)
	b.Flavor = genFlavor(rng)
	if rng.Float64() < 0.5 {
		b.Redundancy = 2 + rng.Intn(3)
	}
	return b
}

func genFlavor(rng *rand.Rand) string {
	return []string{"", "hsvs", "hs", "vs"}[rng.Intn(4)]
}

// genInitBand draws an initiator availability band: usually
// unrestricted (zero hi = no upper bound), sometimes a wide slice. An
// empty band is legal — initiation is skipped, the batch sends zero.
func genInitBand(rng *rand.Rand) (lo, hi float64) {
	switch rng.Intn(4) {
	case 0:
		return 0, 0
	case 1:
		return quant(rng, 0, 0.5, 0.1), 0
	default:
		lo = quant(rng, 0, 0.6, 0.1)
		return lo, lo + 0.4
	}
}

// genTarget draws a closed target interval ⊆ [0,1] for anycast and
// multicast.
func genTarget(rng *rand.Rand) (lo, hi float64) {
	lo = quant(rng, 0, 0.8, 0.05)
	width := quant(rng, 0.1, 0.4, 0.05)
	hi = lo + width
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// genBand draws a half-open band [lo, hi) for rangecast and aggregate:
// mostly non-empty, occasionally empty (lo == hi < 1, which must
// complete with zero coverage), occasionally top-closed at 1.
func genBand(rng *rand.Rand) (lo, hi float64) {
	lo = quant(rng, 0, 0.8, 0.05)
	switch rng.Intn(8) {
	case 0:
		return lo, lo // empty band
	case 1:
		return lo, 1 // top-closed
	default:
		hi = lo + quant(rng, 0.1, 0.5, 0.05)
		if hi > 1 {
			hi = 1
		}
		return lo, hi
	}
}

// quant draws a uniform value in [lo, hi] quantized to step, keeping
// generated JSON readable and float comparisons exact.
func quant(rng *rand.Rand, lo, hi, step float64) float64 {
	n := int((hi-lo)/step + 0.5)
	v := lo + float64(rng.Intn(n+1))*step
	// Round to the step's decimal grid: 0.30000000000000004 → 0.3.
	return float64(int(v*1e6+0.5)) / 1e6
}

// pickDur picks one of the given Go duration strings.
func pickDur(rng *rand.Rand, choices ...string) scenario.Duration {
	d, err := time.ParseDuration(choices[rng.Intn(len(choices))])
	if err != nil {
		panic(err) // fixed literals above
	}
	return scenario.Duration(d)
}
