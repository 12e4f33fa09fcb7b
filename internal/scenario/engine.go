package scenario

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"avmem/internal/agg"
	"avmem/internal/core"
	"avmem/internal/exp"
	"avmem/internal/ids"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/stats"
	"avmem/internal/trace"
)

// Backends name the execution engines a scenario can run on.
const (
	// BackendSim installs protocol state on every host of an
	// exp.Deployment, driven by the deployment's cohort ticks.
	BackendSim = exp.BackendSim
	// BackendMemnet installs a real node.Node agent on every host of an
	// exp.Deployment: the live runtime on the simulator's network,
	// executing on the same virtual clock.
	BackendMemnet = exp.BackendMemnet
)

// Options tunes a scenario run.
type Options struct {
	// Log receives progress lines as events fire (nil discards).
	Log io.Writer
	// Backend selects the execution engine: BackendSim (default) or
	// BackendMemnet. The same spec, events, and assertions run on both.
	Backend string
	// Shards and ShardThreads are ignored on both backends: a world has
	// one event queue and runs it serially (DESIGN.md §14).
	//
	// Deprecated: the fields exist only because the frozen benchmark
	// harness still sets them (for maint-10k-sim and its informational
	// par2 rep) and go when it stops. A value > 1 is noted on the "fleet
	// ready" log line.
	Shards, ShardThreads int
	// Metrics, when non-nil, instruments the deployment into this
	// registry (internal/obs). Determinism-neutral: the report and
	// event log are byte-identical with or without it; scenario-level
	// verdict gauges are published here at the end of the run.
	Metrics *obs.Registry
	// OpTrace, when non-nil, collects causal op spans fleet-wide.
	// Determinism-neutral like Metrics.
	OpTrace *obs.Tracer
}

// Result is the outcome of one scenario run.
type Result struct {
	Name string
	// Metrics holds every metric the run produced (see Metrics for the
	// full name space; workload metrics exist only if the corresponding
	// event kind ran).
	Metrics map[string]float64
	// EventLog records one line per fired event.
	EventLog []string
	// Failures lists violated assertions; empty means the run passed.
	Failures []string
}

// Passed reports whether every assertion held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// WriteReport renders the metrics and assertion verdicts to w.
func (r *Result) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "== scenario %q ==\n", r.Name)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-24s %.4f\n", name, r.Metrics[name])
	}
	if r.Passed() {
		fmt.Fprintf(w, "PASS: all assertions held\n")
		return
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
}

// Run builds the fleet, warms it up, fires the event sequence in order
// on the virtual clock, computes the final metrics, and evaluates the
// assertions. A violated assertion is reported in Result.Failures, not
// as an error; err is reserved for a scenario that cannot execute.
func Run(spec *Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}

	w, err := buildDeployment(spec, opts)
	if err != nil {
		return nil, err
	}
	defer w.Stop()
	ignored := ""
	if opts.Shards > 1 || opts.ShardThreads > 1 {
		ignored = fmt.Sprintf("; Shards=%d ShardThreads=%d ignored (one event queue, serial engine)", opts.Shards, opts.ShardThreads)
	}
	fmt.Fprintf(logw, "fleet ready (%s backend): %d hosts, N*=%.0f; warming up %v%s\n",
		backendName(opts.Backend), len(w.Hosts()), w.NStar, spec.Warmup.D(), ignored)
	w.RunFor(spec.Warmup.D())

	run := &runState{w: w, spec: spec, log: logw, base: w.Now(), labels: map[string]*tally{}}
	for i := range spec.Events {
		if err := run.fire(i, &spec.Events[i]); err != nil {
			return nil, err
		}
	}

	res := &Result{Name: spec.Name, Metrics: run.metrics(), EventLog: run.events}
	res.Failures = evaluate(spec.Assertions, res.Metrics)
	publishMetrics(opts.Metrics, res)
	if runtime.MemProfileRate == 1 {
		// A heap profile records every allocation (avmemsim run
		// -memprofile): collect while the deployment is reachable, so the
		// profile written after the run shows it in use.
		runtime.GC()
	}
	return res, nil
}

// publishMetrics mirrors the final scenario metrics — including the
// audit false-positive tripwire — into the obs registry as gauges, so
// a live /metrics scrape and the end-of-run dump carry the scenario
// verdict next to the engine counters. Names are prefixed with
// scenario_ to keep them clear of the layer instruments; the registry
// dump sorts, so the map order here is irrelevant to output stability.
func publishMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	for name, v := range res.Metrics {
		reg.Gauge("scenario_" + name).Set(v)
	}
	reg.Gauge("scenario_failed_assertions").Set(float64(len(res.Failures)))
}

// backendName resolves the default backend label.
func backendName(backend string) string {
	if backend == "" {
		return BackendSim
	}
	return backend
}

// buildDeployment assembles the fleet on the requested backend.
func buildDeployment(spec *Spec, opts Options) (*exp.Deployment, error) {
	var tr *trace.Trace
	if spec.Fleet.Trace != "" {
		f, err := os.Open(spec.Fleet.Trace)
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet trace: %w", err)
		}
		defer f.Close()
		tr, err = trace.Read(f)
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet trace: %w", err)
		}
	} else {
		gen := trace.DefaultGenConfig(spec.Seed)
		if spec.Fleet.Hosts > 0 {
			gen.Hosts = spec.Fleet.Hosts
		}
		if spec.Fleet.Days > 0 {
			gen.Epochs = int(spec.Fleet.Days * 24 * 3)
		}
		pdf, err := availabilityPDF(spec.Fleet.Availability)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		gen.PDF = pdf
		tr, err = trace.Generate(gen)
		if err != nil {
			return nil, fmt.Errorf("scenario: generating churn trace: %w", err)
		}
	}
	cfg := exp.WorldConfig{
		Seed:               spec.Seed,
		Trace:              tr,
		Epsilon:            spec.Fleet.Epsilon,
		C1:                 spec.Fleet.C1,
		C2:                 spec.Fleet.C2,
		ViewSize:           spec.Fleet.ViewSize,
		ProtocolPeriod:     spec.Fleet.ProtocolPeriod.D(),
		RefreshPeriod:      spec.Fleet.RefreshPeriod.D(),
		VerifyInbound:      spec.Fleet.VerifyInbound,
		Cushion:            spec.Fleet.Cushion,
		MonitorErr:         spec.Fleet.MonitorError,
		MonitorStaleness:   spec.Fleet.MonitorStaleness.D(),
		DistributedMonitor: spec.Fleet.DistributedMonitor,
		Audit:              spec.Fleet.Audit.params(),
		Adversary:          spec.Adversaries.config(),
		Metrics:            opts.Metrics,
		OpTrace:            opts.OpTrace,
	}
	if cfg.Adversary != nil {
		// Select the cohort by what the monitor reports when the attack
		// runs (post-warmup), not by end-of-trace availability.
		cfg.Adversary.SelectAt = spec.Warmup.D()
	}
	if spec.Fleet.Overlay == "random" {
		// The paper's Figure 10 baseline: SCAMP/CYCLON-like systems keep
		// O(log N) views, so the consistent random overlay is sized to
		// 2·ln N* expected neighbors.
		nStar := tr.MeanOnline()
		pred, err := core.RandomPredicate(cmp.Or(cfg.Epsilon, exp.DefaultEpsilon), 2*math.Log(nStar), nStar)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		cfg.Predicate = pred
	}
	d, err := exp.NewDeployment(opts.Backend, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return d, nil
}

// runState carries a run through its event sequence.
type runState struct {
	w    *exp.Deployment
	spec *Spec
	log  io.Writer
	// base is the virtual time at warmup end; event At times are
	// relative to it.
	base   time.Duration
	events []string

	// total accumulates every event's outcomes, labels[l] those of the
	// events labelled l.
	total  tally
	labels map[string]*tally

	// onset is the virtual time the adversaries were first armed
	// (detection latency baseline).
	onsetSet bool
	onset    time.Duration
}

// tally accumulates workload and probe outcomes: one event's, one
// label's, or the whole run's.
type tally struct {
	anySent, anyDelivered, anyDropped, anyHops int
	// anyLatency and anyLatQ summarize delivery latencies incrementally
	// (running moments + a bounded reservoir for quantiles) instead of
	// holding every sample for the whole run; an event keeps its own
	// samples in anyLatMs until it is folded.
	anyLatency stats.Accumulator
	anyLatQ    *stats.Reservoir
	anyLatMs   []float64

	mcCount               int
	mcReliability, mcSpam float64

	rcCount            int
	rcCoverage, rcSpam float64

	agSent, agDone                            int
	agAccuracy, agCoverage, agHops, agDiverge float64
	agRejected, agForgRej, agForgAcc          int

	attackProbes              int
	attackAccept, legitReject float64

	// bias and overlay hold the last probe of each kind.
	biasProbed, overlayProbed bool
	bias                      exp.BiasResult
	overlay                   overlayShape
}

// overlayShape is an overlay probe's summary of Figures 2–4.
type overlayShape struct {
	hsMedian, vsMedian, sublinearity, vsSpread float64
}

// fold adds one event's outcomes e to t; seed seeds t's latency
// reservoir.
func (t *tally) fold(e *tally, seed int64) {
	t.anySent += e.anySent
	t.anyDelivered += e.anyDelivered
	t.anyDropped += e.anyDropped
	t.anyHops += e.anyHops
	for _, ms := range e.anyLatMs {
		if t.anyLatQ == nil {
			t.anyLatQ = stats.NewReservoir(1024, seed)
		}
		t.anyLatency.Add(ms)
		t.anyLatQ.Add(ms)
	}
	t.mcCount += e.mcCount
	t.mcReliability += e.mcReliability
	t.mcSpam += e.mcSpam
	t.rcCount += e.rcCount
	t.rcCoverage += e.rcCoverage
	t.rcSpam += e.rcSpam
	t.agSent += e.agSent
	t.agDone += e.agDone
	t.agAccuracy += e.agAccuracy
	t.agCoverage += e.agCoverage
	t.agHops += e.agHops
	t.agDiverge += e.agDiverge
	t.agRejected += e.agRejected
	t.agForgRej += e.agForgRej
	t.agForgAcc += e.agForgAcc
	t.attackProbes += e.attackProbes
	t.attackAccept = math.Max(t.attackAccept, e.attackAccept)
	t.legitReject = math.Max(t.legitReject, e.legitReject)
	if e.biasProbed {
		t.biasProbed, t.bias = true, e.bias
	}
	if e.overlayProbed {
		t.overlayProbed, t.overlay = true, e.overlay
	}
}

func (r *runState) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.events = append(r.events, line)
	fmt.Fprintf(r.log, "[%8v] %s\n", r.w.Now()-r.base, line)
}

// fire advances virtual time to the event's At (when it is still in the
// future), applies the action, and folds its outcomes into the run's
// totals and its label's.
func (r *runState) fire(i int, e *Event) error {
	due := r.base + e.At.D()
	if now := r.w.Now(); due > now {
		r.w.RunFor(due - now)
	}
	var out tally
	var err error
	switch {
	case e.ChurnBurst != nil:
		err = r.churnBurst(e.ChurnBurst)
	case e.Attack != nil:
		err = r.attack(e.Attack, &out)
	case e.MonitorNoise != nil:
		err = r.monitorNoise(e.MonitorNoise)
	case e.AnycastBatch != nil:
		err = r.anycastBatch(e.AnycastBatch, &out)
	case e.MulticastBatch != nil, e.Rangecast != nil:
		err = r.dissemBatch(e, &out)
	case e.Aggregate != nil:
		err = r.aggregateBatch(e.Aggregate, &out)
	case e.Adversary != nil:
		err = r.adversaryEvent(e.Adversary)
	case e.BiasProbe != nil:
		r.biasProbe(&out)
	case e.OverlayProbe != nil:
		r.overlayProbe(&out)
	default:
		return fmt.Errorf("scenario: event %d has no action", i)
	}
	if err != nil {
		return err
	}
	r.total.fold(&out, r.spec.Seed)
	if e.Label != "" {
		if r.labels[e.Label] == nil {
			r.labels[e.Label] = &tally{}
		}
		r.labels[e.Label].fold(&out, r.spec.Seed)
	}
	return nil
}

// adversaryEvent arms (onset) or disarms (offset) the Byzantine cohort.
func (r *runState) adversaryEvent(a *AdversaryEvent) error {
	cohort := r.w.Adversaries()
	if len(cohort) == 0 {
		return fmt.Errorf("scenario: adversary event without an adversary cohort")
	}
	r.w.SetAdversariesActive(a.Active)
	if a.Active && !r.onsetSet {
		r.onsetSet = true
		r.onset = r.w.Now()
	}
	verb := "offset (behaviors disarmed)"
	if a.Active {
		verb = "onset (behaviors armed)"
	}
	r.logf("adversary %s: %d misbehaving nodes", verb, len(cohort))
	return nil
}

// biasProbe snapshots adversary over-representation in honest state.
func (r *runState) biasProbe(out *tally) {
	b := exp.OverlayBias(r.w)
	out.biasProbed, out.bias = true, b
	r.logf("bias probe: coarse-view share %.3f (population %.3f, bias %.2f), membership share %.3f",
		b.CoarseShare, b.PopulationShare, b.Bias, b.MembershipShare)
}

// overlayProbe snapshots the overlay's shape: Figures 2(b,c), 3 and 4.
func (r *runState) overlayProbe(out *tally) {
	snap := exp.SnapshotOverlay(r.w)
	deg := exp.ScanVSInDegree(r.w)
	out.overlayProbed = true
	out.overlay = overlayShape{
		hsMedian:     medianY(snap.HS),
		vsMedian:     medianY(snap.VS),
		sublinearity: exp.ScanHorizontalScaling(r.w).SublinearityRatio(),
		vsSpread:     deg.Spread(),
	}
	online := make([]float64, len(deg.Population))
	for i, n := range deg.Population {
		online[i] = float64(n)
	}
	o := out.overlay
	r.logf("overlay probe: %d online, HS median %.1f, VS median %.1f, HS sublinearity %.2f, VS in-degree spread %.2f%s",
		snap.OnlineCount, o.hsMedian, o.vsMedian, o.sublinearity, o.vsSpread,
		deciles("online HS-median VS-median VS-in-links", online, snap.HSMedian, snap.VSMedian, deg.PerBucket))
}

// medianY returns the median of the points' Y values.
func medianY(points []stats.ScatterPoint) float64 {
	ys := make([]float64, len(points))
	for i, p := range points {
		ys[i] = p.Y
	}
	return stats.Percentile(ys, 50)
}

// deciles renders per-availability-decile series as a table to follow a
// log line, one column per word of names ("-" marks an empty decile).
func deciles(names string, cols ...[]float64) string {
	series := make([]stats.Series, len(cols))
	for i, name := range strings.Fields(names) {
		series[i].Name = name
		for d, v := range cols[i] {
			series[i].Points = append(series[i].Points, stats.ScatterPoint{X: float64(d) / 10, Y: v})
		}
	}
	return "\n" + strings.TrimSuffix(stats.Table("avail", series...), "\n")
}

func (r *runState) churnBurst(b *ChurnBurst) error {
	online := r.w.InBand(b.BandLo, bandHi(b.BandHi))
	k := int(float64(len(online))*b.Fraction + 0.5)
	if k > len(online) {
		k = len(online)
	}
	until := r.w.Now() + b.Duration.D()
	perm := r.w.Rand.Perm(len(online))
	for _, idx := range perm[:k] {
		r.w.ForceOffline(r.w.Hosts()[online[idx]], until)
	}
	r.logf("churn burst: forced %d/%d online nodes offline for %v", k, len(online), b.Duration.D())
	return nil
}

func (r *runState) attack(a *Attack, out *tally) error {
	flood := exp.FloodingAttack(r.w, a.Cushion)
	reject := exp.LegitimateRejection(r.w, a.Cushion)
	out.attackProbes = 1
	out.attackAccept, out.legitReject = flood.Overall, reject.Overall
	r.logf("attack probe (cushion %.2f): accept %.3f, legit-reject %.3f%s",
		a.Cushion, flood.Overall, reject.Overall,
		deciles("accept legit-reject", flood.PerBucket, reject.PerBucket))
	return nil
}

func (r *runState) monitorNoise(n *MonitorNoise) error {
	if err := r.w.SetMonitorNoise(n.Error, n.Staleness.D()); err != nil {
		return fmt.Errorf("scenario: monitor_noise: %w", err)
	}
	r.logf("monitor noise set: error ±%.2f, staleness %v", n.Error, n.Staleness.D())
	return nil
}

// batch is the loop every workload event runs: count times, pick an
// initiator whose true availability lies in [lo, hi), initiate one
// operation there (initiate freezes the operation's ground truth first),
// and let gap pass; after the last, let settle pass once. It returns the
// initiated operations, whose records the caller folds into its tally.
func (r *runState) batch(count int, lo, hi float64, gap, settle time.Duration,
	initiate func(from ids.NodeID) (ops.MsgID, error)) ([]ops.MsgID, error) {
	sent := make([]ops.MsgID, 0, count)
	for i := 0; i < count; i++ {
		from, ok := r.w.PickInitiator(lo, bandHi(hi))
		if !ok {
			continue
		}
		id, err := initiate(from)
		if err != nil {
			return nil, err
		}
		sent = append(sent, id)
		r.w.RunFor(gap)
	}
	r.w.RunFor(settle)
	return sent, nil
}

// weighted returns a batch's mean of sum over n, weighted back by n: the
// form every per-operation mean takes before it joins a tally.
func weighted(sum float64, n int) float64 { return mean(sum, n) * float64(n) }

// mean returns sum/n, or 0 for an empty batch.
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (r *runState) anycastBatch(b *AnycastBatch, out *tally) error {
	policy, _ := parsePolicy(b.Policy)
	flavor, _ := parseFlavor(b.Flavor)
	opts := ops.AnycastOptions{Policy: policy, Flavor: flavor, TTL: cmp.Or(b.TTL, 6), Retry: b.Retry}
	target := b.target()
	sent, err := r.batch(b.Count, b.BandLo, b.BandHi, cmp.Or(b.Gap.D(), 2*time.Second), cmp.Or(b.Settle.D(), 30*time.Second),
		func(from ids.NodeID) (ops.MsgID, error) { return r.w.Anycast(from, target, opts) })
	if err != nil {
		return fmt.Errorf("scenario: anycast_batch: %w", err)
	}
	ttlExpired := 0
	for _, id := range sent {
		rec, ok := r.w.Collector.Anycast(id)
		if !ok {
			continue
		}
		out.anySent++
		switch rec.Outcome {
		case ops.OutcomeDelivered:
			out.anyDelivered++
			out.anyHops += rec.Hops
			out.anyLatMs = append(out.anyLatMs, float64(rec.Latency.Milliseconds()))
		case ops.OutcomeTTLExpired:
			ttlExpired++
		default: // retries exhausted, or lost without a verdict
			out.anyDropped++
		}
	}
	r.logf("anycast batch: %d sent to %v, %.2f delivered (%d ttl-expired, %d dropped)",
		out.anySent, target, mean(float64(out.anyDelivered), out.anySent), ttlExpired, out.anyDropped)
	return nil
}

// dissemBatch runs a multicast_batch or a rangecast event. Both initiate
// Deployment.Multicast — a range-cast's target is half-open and carries
// its payload — and both fold the same MulticastRecord fields. Each keeps
// its own eligible population (the closed target's, or the band's), its
// metric names and its log line.
func (r *runState) dissemBatch(e *Event, out *tally) error {
	opts := ops.MulticastOptions{Anycast: ops.DefaultAnycastOptions(), MulticastSpec: ops.MulticastSpec{Mode: ops.Flood}}
	var (
		kind        string
		count       int
		lo, hi      float64
		gap, settle Duration
		flavor      string
		target      ops.Target
		eligible    func() int
	)
	if b := e.MulticastBatch; b != nil {
		kind, count, lo, hi, gap, settle, flavor = "multicast_batch", b.Count, b.BandLo, b.BandHi, b.Gap, b.Settle, b.Flavor
		opts.Mode, _ = parseMode(b.Mode)
		opts.Fanout, opts.Rounds, opts.Period = b.Fanout, b.Rounds, b.Period.D()
		if opts.Mode == ops.Gossip {
			// The paper's gossip: fanout 5, Ng = 2 rounds, a 1 s period.
			opts.Fanout, opts.Rounds, opts.Period = cmp.Or(opts.Fanout, 5), cmp.Or(opts.Rounds, 2), cmp.Or(opts.Period, time.Second)
		}
		target = b.target()
		eligible = func() int { return r.w.EligibleFor(target) }
	} else {
		b := e.Rangecast
		kind, count, lo, hi, gap, settle, flavor = "rangecast", b.Count, b.BandLo, b.BandHi, b.Gap, b.Settle, b.Flavor
		opts.HalfOpen, opts.Payload = true, b.Payload
		band := b.band()
		target = band.Target()
		eligible = func() int { return len(bandEligible(r.w, band)) }
	}
	opts.Flavor, _ = parseFlavor(flavor)
	sent, err := r.batch(count, lo, hi, cmp.Or(gap.D(), 5*time.Second), cmp.Or(settle.D(), 30*time.Second),
		func(from ids.NodeID) (ops.MsgID, error) {
			opts.Eligible = eligible()
			return r.w.Multicast(from, target, opts)
		})
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", kind, err)
	}
	n := 0
	var reach, spam float64
	var lastMs []float64 // last-delivery latency of each multicast that delivered (Fig 11)
	for _, id := range sent {
		r.w.Collector.ReadMulticast(id, func(rec *ops.MulticastRecord) {
			n++
			reach += rec.Reliability()
			spam += rec.SpamRatio()
			if len(rec.Delivered) > 0 {
				lastMs = append(lastMs, float64(rec.WorstLatency().Milliseconds()))
			}
		})
	}
	if opts.HalfOpen {
		out.rcCount, out.rcCoverage, out.rcSpam = n, weighted(reach, n), weighted(spam, n)
		r.logf("rangecast batch: %d sent to %v, coverage %.2f, spam %.2f",
			n, e.Rangecast.band(), mean(reach, n), mean(spam, n))
		return nil
	}
	out.mcCount, out.mcReliability, out.mcSpam = n, weighted(reach, n), weighted(spam, n)
	r.logf("multicast batch: %d sent to %v (%s), reliability %.2f, spam %.2f, last delivery p50 %.0f ms, max %.0f ms",
		n, target, opts.Mode, mean(reach, n), mean(spam, n),
		stats.Percentile(lastMs, 50), stats.Percentile(lastMs, 100))
	return nil
}

func (r *runState) aggregateBatch(b *AggregateBatch, out *tally) error {
	op, _ := parseOp(b.Op)
	flavor, _ := parseFlavor(b.Flavor)
	opts := ops.AggregateOptions{Anycast: ops.DefaultAnycastOptions(), Flavor: flavor, Redundancy: b.Redundancy}
	band := b.band()
	col := r.w.Collector
	rej0, forgRej0, forgAcc0 := col.AggCounters()
	// An aggregation converges within MaxDepth+1 waves; the default gap
	// spaces initiations past that so trees do not stack up.
	sent, err := r.batch(b.Count, b.BandLo, b.BandHi, cmp.Or(b.Gap.D(), 10*time.Second), cmp.Or(b.Settle.D(), 30*time.Second),
		func(from ids.NodeID) (ops.MsgID, error) {
			// Ground truth frozen at initiation: accuracy measures what the
			// overlay lost, not what churn changed underneath it.
			opts.Eligible, opts.Truth = groundTruth(r.w, op, band)
			return r.w.Aggregate(from, op, band.Lo, band.Hi, opts)
		})
	if err != nil {
		return fmt.Errorf("scenario: aggregate: %w", err)
	}
	var accuracy, coverage, divergence float64
	depth := 0
	for _, id := range sent {
		rec, ok := col.Aggregate(id)
		if !ok {
			continue
		}
		out.agSent++
		accuracy += rec.Accuracy()
		coverage += rec.Coverage()
		if rec.Done {
			out.agDone++
			depth += rec.TreeDepth()
			divergence += rec.Divergence
		}
	}
	rej1, forgRej1, forgAcc1 := col.AggCounters()
	out.agRejected, out.agForgRej, out.agForgAcc = rej1-rej0, forgRej1-forgRej0, forgAcc1-forgAcc0
	out.agAccuracy, out.agCoverage = weighted(accuracy, out.agSent), weighted(coverage, out.agSent)
	out.agHops, out.agDiverge = weighted(float64(depth), out.agDone), weighted(divergence, out.agDone)
	r.logf("aggregate batch: %d %v over %v, accuracy %.3f, coverage %.2f, done %d, divergence %.3f, rejected %d, forged %d/%d",
		out.agSent, op, band, mean(accuracy, out.agSent), mean(coverage, out.agSent), out.agDone,
		mean(divergence, out.agDone), out.agRejected, out.agForgAcc, out.agForgAcc+out.agForgRej)
	return nil
}

// bandEligible returns the host indexes of the online nodes whose true
// availability lies in the half-open band — the ground-truth population
// range-cast coverage and aggregation accuracy are measured against — in
// the deployment's reused buffer.
func bandEligible(w *exp.Deployment, b ops.Band) []int {
	hi := b.Hi
	if hi >= 1 {
		// The band closes its top end at 1; InBand is half-open, so
		// stretch past every capped estimate.
		hi = 1.01
	}
	return w.InBand(b.Lo, hi)
}

// groundTruth computes the true aggregate over the online in-band
// population at the current instant — what a perfect census would
// report. The returned eligible count doubles as the coverage
// denominator.
func groundTruth(w *exp.Deployment, op agg.Op, b ops.Band) (eligible int, truth float64) {
	var p agg.Partial
	for _, h := range bandEligible(w, b) {
		p.Observe(w.TrueAvailabilityAt(h), 0)
	}
	return p.N, p.Value(op)
}

// metrics computes the final metric map: the run's workload and probe
// metrics, each label's under "<label>/", and an end-of-run overlay
// snapshot.
func (r *runState) metrics() map[string]float64 {
	m := make(map[string]float64, len(Metrics))
	r.total.metrics(m, "")
	for label, t := range r.labels {
		t.metrics(m, label+"/")
	}
	if n := len(r.w.Adversaries()); n > 0 {
		if hosts := len(r.w.Hosts()); hosts > 0 {
			m["adversary_fraction"] = float64(n) / float64(hosts)
		}
		if r.w.AuditTrail() != nil {
			stats := exp.EvictionReport(r.w, r.onset)
			m["audit_eviction_rate"] = stats.DetectionRate()
			m["audit_false_positive_rate"] = stats.FalsePositiveRate()
			if stats.Detected > 0 {
				m["audit_mean_detection_s"] = stats.MeanDetection.Seconds()
			}
		}
	}
	// One pass over the host universe with incremental moments — no
	// O(hosts) online-snapshot slice even at 100k hosts.
	var sliver stats.Accumulator
	for _, id := range r.w.Hosts() {
		if !r.w.Online(id) {
			continue
		}
		size := 0
		if mm := r.w.Membership(id); mm != nil {
			size = mm.Size()
		}
		sliver.Add(float64(size))
	}
	if sliver.Count() > 0 {
		m["mean_sliver_size"] = sliver.Mean()
		m["mean_degree"] = m["mean_sliver_size"]
		m["max_sliver_size"] = sliver.Max()
	} else {
		m["max_sliver_size"] = 0
	}
	if hosts := len(r.w.Hosts()); hosts > 0 {
		m["online_fraction"] = float64(sliver.Count()) / float64(hosts)
	}
	return m
}

// metrics writes the tally's workload and probe metrics into m, each
// name behind prefix.
func (t *tally) metrics(m map[string]float64, prefix string) {
	set := func(name string, v float64) { m[prefix+name] = v }
	if t.anySent > 0 {
		set("anycast_delivery_rate", float64(t.anyDelivered)/float64(t.anySent))
		set("anycast_drop_rate", float64(t.anyDropped)/float64(t.anySent))
	}
	if t.anyDelivered > 0 {
		set("anycast_mean_hops", float64(t.anyHops)/float64(t.anyDelivered))
	}
	if t.anyLatency.Count() > 0 {
		set("anycast_mean_latency_ms", t.anyLatency.Mean())
		set("anycast_p90_latency_ms", t.anyLatQ.Percentile(90))
	}
	if t.mcCount > 0 {
		set("multicast_reliability", t.mcReliability/float64(t.mcCount))
		set("multicast_spam_ratio", t.mcSpam/float64(t.mcCount))
	}
	if t.rcCount > 0 {
		set("rangecast_coverage", t.rcCoverage/float64(t.rcCount))
		set("rangecast_spam_ratio", t.rcSpam/float64(t.rcCount))
	}
	if t.agSent > 0 {
		set("agg_accuracy", t.agAccuracy/float64(t.agSent))
		set("agg_coverage", t.agCoverage/float64(t.agSent))
		set("agg_completion_rate", float64(t.agDone)/float64(t.agSent))
		set("agg_rejected_partials", float64(t.agRejected))
		set("agg_forgery_rejected", float64(t.agForgRej))
		set("agg_forgery_accepted", float64(t.agForgAcc))
	}
	if t.agDone > 0 {
		set("agg_mean_hops", t.agHops/float64(t.agDone))
		set("agg_divergence", t.agDiverge/float64(t.agDone))
	}
	if t.attackProbes > 0 {
		set("attack_accept_rate", t.attackAccept)
		set("legit_reject_rate", t.legitReject)
	}
	if t.biasProbed {
		set("overlay_bias", t.bias.Bias)
		set("overlay_adversary_share", t.bias.CoarseShare)
	}
	if t.overlayProbed {
		set("hs_median_sliver_size", t.overlay.hsMedian)
		set("vs_median_sliver_size", t.overlay.vsMedian)
		set("hs_sublinearity_ratio", t.overlay.sublinearity)
		set("vs_indegree_spread", t.overlay.vsSpread)
	}
}

// evaluate checks every assertion against the produced metrics.
func evaluate(assertions []Assertion, metrics map[string]float64) []string {
	var failures []string
	for _, a := range assertions {
		v, ok := metrics[a.Metric]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s: no event produced this metric (add the matching workload/probe event)", a.Metric))
			continue
		}
		if a.Min != nil && v < *a.Min {
			failures = append(failures, fmt.Sprintf("%s = %.4f, want >= %v", a.Metric, v, *a.Min))
		}
		if a.Max != nil && v > *a.Max {
			failures = append(failures, fmt.Sprintf("%s = %.4f, want <= %v", a.Metric, v, *a.Max))
		}
	}
	return failures
}
