package scenario

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"avmem/internal/exp"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/stats"
	"avmem/internal/trace"
)

// Backends name the execution engines a scenario can run on.
const (
	// BackendSim is the virtual-time simulator (exp.World): protocol
	// logic driven by the deployment engine's cohort ticks.
	BackendSim = exp.BackendSim
	// BackendMemnet is the live runtime (exp.Cluster): real node.Node
	// agents on a deterministic, seedable in-process memnet, executing
	// on the same virtual clock.
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
	// Backends that own resources (the memnet cluster's nodes and
	// fabric) expose Stop; tear them down when the run ends.
	if c, ok := w.(interface{ Stop() }); ok {
		defer c.Stop()
	}
	ignored := ""
	if opts.Shards > 1 || opts.ShardThreads > 1 {
		ignored = fmt.Sprintf("; Shards=%d ShardThreads=%d ignored (one event queue, serial engine)", opts.Shards, opts.ShardThreads)
	}
	fmt.Fprintf(logw, "fleet ready (%s backend): %d hosts, N*=%.0f; warming up %v%s\n",
		backendName(opts.Backend), len(w.Hosts()), w.StableSize(), spec.Warmup.D(), ignored)
	w.Warmup(spec.Warmup.D())

	run := &runState{w: w, spec: spec, log: logw, base: w.Now()}
	for i := range spec.Events {
		if err := run.fire(i, &spec.Events[i]); err != nil {
			return nil, err
		}
	}

	res := &Result{Name: spec.Name, Metrics: run.metrics(), EventLog: run.events}
	res.Failures = evaluate(spec.Assertions, res.Metrics)
	publishMetrics(opts.Metrics, res)
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
func buildDeployment(spec *Spec, opts Options) (exp.Deployment, error) {
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
	d, err := exp.NewDeployment(opts.Backend, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return d, nil
}

// runState accumulates workload outcomes across the event sequence.
type runState struct {
	w    exp.Deployment
	spec *Spec
	log  io.Writer
	// base is the virtual time at warmup end; event At times are
	// relative to it.
	base   time.Duration
	events []string

	anySent, anyDelivered, anyDropped int
	anyHops                           int
	anyBatches                        int
	// anyLatency and anyLatQ summarize delivery latencies incrementally
	// (running moments + a bounded reservoir for quantiles) instead of
	// holding every sample for the whole run.
	anyLatency stats.Accumulator
	anyLatQ    *stats.Reservoir

	mcCount       int
	mcReliability float64
	mcSpam        float64

	rcCount    int
	rcCoverage float64
	rcSpam     float64

	agSent     int
	agDone     int
	agAccuracy float64
	agCoverage float64
	agHops     float64
	agDiverge  float64
	agRejected int
	agForgRej  int
	agForgAcc  int

	attackProbes int
	attackAccept float64
	legitReject  float64

	// onset is the virtual time the adversaries were first armed
	// (detection latency baseline); bias holds the last bias probe.
	onsetSet   bool
	onset      time.Duration
	biasProbed bool
	bias       exp.BiasResult
}

func (r *runState) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.events = append(r.events, line)
	fmt.Fprintf(r.log, "[%8v] %s\n", r.w.Now()-r.base, line)
}

// fire advances virtual time to the event's At (when it is still in the
// future) and applies the action.
func (r *runState) fire(i int, e *Event) error {
	due := r.base + e.At.D()
	if now := r.w.Now(); due > now {
		r.w.RunFor(due - now)
	}
	switch {
	case e.ChurnBurst != nil:
		return r.churnBurst(e.ChurnBurst)
	case e.Attack != nil:
		return r.attack(e.Attack)
	case e.MonitorNoise != nil:
		return r.monitorNoise(e.MonitorNoise)
	case e.AnycastBatch != nil:
		return r.anycastBatch(e.AnycastBatch)
	case e.MulticastBatch != nil:
		return r.multicastBatch(e.MulticastBatch)
	case e.Rangecast != nil:
		return r.rangecastBatch(e.Rangecast)
	case e.Aggregate != nil:
		return r.aggregateBatch(e.Aggregate)
	case e.Adversary != nil:
		return r.adversaryEvent(e.Adversary)
	case e.BiasProbe != nil:
		return r.biasProbe()
	}
	return fmt.Errorf("scenario: event %d has no action", i)
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
func (r *runState) biasProbe() error {
	r.bias = exp.OverlayBias(r.w)
	r.biasProbed = true
	r.logf("bias probe: coarse-view share %.3f (population %.3f, bias %.2f), membership share %.3f",
		r.bias.CoarseShare, r.bias.PopulationShare, r.bias.Bias, r.bias.MembershipShare)
	return nil
}

func (r *runState) churnBurst(b *ChurnBurst) error {
	online := r.w.OnlineInBand(b.BandLo, bandHi(b.BandHi))
	k := int(float64(len(online))*b.Fraction + 0.5)
	if k > len(online) {
		k = len(online)
	}
	until := r.w.Now() + b.Duration.D()
	perm := r.w.Rand().Perm(len(online))
	for _, idx := range perm[:k] {
		r.w.ForceOffline(online[idx], until)
	}
	r.logf("churn burst: forced %d/%d online nodes offline for %v", k, len(online), b.Duration.D())
	return nil
}

func (r *runState) attack(a *Attack) error {
	flood := exp.FloodingAttack(r.w, a.Cushion)
	reject := exp.LegitimateRejection(r.w, a.Cushion)
	r.attackProbes++
	if flood.Overall > r.attackAccept {
		r.attackAccept = flood.Overall
	}
	if reject.Overall > r.legitReject {
		r.legitReject = reject.Overall
	}
	r.logf("attack probe (cushion %.2f): accept %.3f, legit-reject %.3f",
		a.Cushion, flood.Overall, reject.Overall)
	return nil
}

func (r *runState) monitorNoise(n *MonitorNoise) error {
	if err := r.w.SetMonitorNoise(n.Error, n.Staleness.D()); err != nil {
		return fmt.Errorf("scenario: monitor_noise: %w", err)
	}
	r.logf("monitor noise set: error ±%.2f, staleness %v", n.Error, n.Staleness.D())
	return nil
}

func (r *runState) anycastBatch(b *AnycastBatch) error {
	policy, _ := parsePolicy(b.Policy)
	flavor, _ := parseFlavor(b.Flavor)
	ttl := b.TTL
	if ttl == 0 {
		ttl = 6
	}
	spec := exp.AnycastSpec{
		Name:   "scenario",
		BandLo: b.BandLo, BandHi: bandHi(b.BandHi),
		Target: b.target(),
		Opts:   ops.AnycastOptions{Policy: policy, Flavor: flavor, TTL: ttl, Retry: b.Retry},
		Runs:   1, PerRun: b.Count,
		Gap: b.Gap.D(), Settle: b.Settle.D(),
	}
	res, err := exp.RunAnycasts(r.w, spec)
	if err != nil {
		return fmt.Errorf("scenario: anycast_batch: %w", err)
	}
	r.anyBatches++
	r.anySent += res.Sent
	r.anyDelivered += res.Delivered
	r.anyDropped += res.RetryExpired + res.Pending
	for h, n := range res.HopsHist {
		r.anyHops += h * n
	}
	if r.anyLatQ == nil {
		r.anyLatQ = stats.NewReservoir(1024, r.spec.Seed)
	}
	for _, l := range res.Latencies {
		ms := float64(l.Milliseconds())
		r.anyLatency.Add(ms)
		r.anyLatQ.Add(ms)
	}
	r.logf("anycast batch: %d sent to %v, %.2f delivered (%d ttl-expired, %d dropped)",
		res.Sent, spec.Target, res.FractionDelivered(), res.TTLExpired, res.RetryExpired+res.Pending)
	return nil
}

func (r *runState) multicastBatch(b *MulticastBatch) error {
	mode, _ := parseMode(b.Mode)
	flavor, _ := parseFlavor(b.Flavor)
	spec := exp.MulticastSpec{
		Name:   "scenario",
		BandLo: b.BandLo, BandHi: bandHi(b.BandHi),
		Target: b.target(),
		Mode:   mode, Flavor: flavor,
		Fanout: b.Fanout, Rounds: b.Rounds, Period: b.Period.D(),
		Runs: 1, PerRun: b.Count,
		Gap: b.Gap.D(), Settle: b.Settle.D(),
	}
	res, err := exp.RunMulticasts(r.w, spec)
	if err != nil {
		return fmt.Errorf("scenario: multicast_batch: %w", err)
	}
	r.mcCount += res.Sent
	r.mcReliability += res.MeanReliability() * float64(res.Sent)
	r.mcSpam += res.MeanSpamRatio() * float64(res.Sent)
	r.logf("multicast batch: %d sent to %v (%s), reliability %.2f, spam %.2f",
		res.Sent, spec.Target, mode, res.MeanReliability(), res.MeanSpamRatio())
	return nil
}

func (r *runState) rangecastBatch(b *RangecastBatch) error {
	flavor, _ := parseFlavor(b.Flavor)
	spec := exp.RangecastSpec{
		Name:   "scenario",
		BandLo: b.BandLo, BandHi: bandHi(b.BandHi),
		Band:    b.band(),
		Payload: b.Payload,
		Flavor:  flavor,
		Runs:    1, PerRun: b.Count,
		Gap: b.Gap.D(), Settle: b.Settle.D(),
	}
	res, err := exp.RunRangecasts(r.w, spec)
	if err != nil {
		return fmt.Errorf("scenario: rangecast: %w", err)
	}
	r.rcCount += res.Sent
	r.rcCoverage += res.MeanCoverage() * float64(res.Sent)
	r.rcSpam += res.MeanSpamRatio() * float64(res.Sent)
	r.logf("rangecast batch: %d sent to %v, coverage %.2f, spam %.2f",
		res.Sent, spec.Band, res.MeanCoverage(), res.MeanSpamRatio())
	return nil
}

func (r *runState) aggregateBatch(b *AggregateBatch) error {
	op, _ := parseOp(b.Op)
	flavor, _ := parseFlavor(b.Flavor)
	spec := exp.AggregateSpec{
		Name:   "scenario",
		BandLo: b.BandLo, BandHi: bandHi(b.BandHi),
		Band:       b.band(),
		Op:         op,
		Flavor:     flavor,
		Redundancy: b.Redundancy,
		Runs:       1, PerRun: b.Count,
		Gap: b.Gap.D(), Settle: b.Settle.D(),
	}
	res, err := exp.RunAggregates(r.w, spec)
	if err != nil {
		return fmt.Errorf("scenario: aggregate: %w", err)
	}
	r.agSent += res.Sent
	r.agDone += res.Done
	r.agAccuracy += res.MeanAccuracy() * float64(res.Sent)
	r.agCoverage += res.MeanCoverage() * float64(res.Sent)
	r.agHops += res.MeanDepth() * float64(res.Done)
	r.agDiverge += res.MeanDivergence() * float64(res.Done)
	r.agRejected += res.RejectedPartials
	r.agForgRej += res.ForgeryRejected
	r.agForgAcc += res.ForgeryAccepted
	r.logf("aggregate batch: %d %v over %v, accuracy %.3f, coverage %.2f, done %d, divergence %.3f, rejected %d, forged %d/%d",
		res.Sent, op, spec.Band, res.MeanAccuracy(), res.MeanCoverage(), res.Done,
		res.MeanDivergence(), res.RejectedPartials, res.ForgeryAccepted, res.ForgeryAccepted+res.ForgeryRejected)
	return nil
}

// metrics computes the final metric map: workload aggregates plus an
// end-of-run overlay snapshot.
func (r *runState) metrics() map[string]float64 {
	m := make(map[string]float64, len(Metrics))
	if r.anySent > 0 {
		m["anycast_delivery_rate"] = float64(r.anyDelivered) / float64(r.anySent)
		m["anycast_drop_rate"] = float64(r.anyDropped) / float64(r.anySent)
	}
	if r.anyDelivered > 0 {
		m["anycast_mean_hops"] = float64(r.anyHops) / float64(r.anyDelivered)
	}
	if r.anyLatency.Count() > 0 {
		m["anycast_mean_latency_ms"] = r.anyLatency.Mean()
		m["anycast_p90_latency_ms"] = r.anyLatQ.Percentile(90)
	}
	if r.mcCount > 0 {
		m["multicast_reliability"] = r.mcReliability / float64(r.mcCount)
		m["multicast_spam_ratio"] = r.mcSpam / float64(r.mcCount)
	}
	if r.rcCount > 0 {
		m["rangecast_coverage"] = r.rcCoverage / float64(r.rcCount)
		m["rangecast_spam_ratio"] = r.rcSpam / float64(r.rcCount)
	}
	if r.agSent > 0 {
		m["agg_accuracy"] = r.agAccuracy / float64(r.agSent)
		m["agg_coverage"] = r.agCoverage / float64(r.agSent)
		m["agg_completion_rate"] = float64(r.agDone) / float64(r.agSent)
		m["agg_rejected_partials"] = float64(r.agRejected)
		m["agg_forgery_rejected"] = float64(r.agForgRej)
		m["agg_forgery_accepted"] = float64(r.agForgAcc)
	}
	if r.agDone > 0 {
		m["agg_mean_hops"] = r.agHops / float64(r.agDone)
		m["agg_divergence"] = r.agDiverge / float64(r.agDone)
	}
	if r.attackProbes > 0 {
		m["attack_accept_rate"] = r.attackAccept
		m["legit_reject_rate"] = r.legitReject
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
	if r.biasProbed {
		m["overlay_bias"] = r.bias.Bias
		m["overlay_adversary_share"] = r.bias.CoarseShare
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
