package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"avmem/internal/agg"
	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/obs"
	"avmem/internal/shuffle"
	"avmem/internal/sim"
	"avmem/internal/trace"
	"avmem/internal/transport"
)

// The kernels time single layers through their exported functions, at
// the sizes of the maint-2k workload: 2000 hosts, coarse view √N = 45,
// shuffle length v/4 = 11. They are workload-independent; what each one
// should move end to end is tabulated in README.md.
const (
	kernelHosts      = 2000
	kernelView       = 45
	kernelShuffleLen = 11
)

// kernel is one layer microbenchmark. build prepares its state and
// returns the loop body; run(n) performs n iterations, each of which is
// per operations of the reported unit.
type kernel struct {
	name  string
	unit  string // "ns" or "ms" per operation
	build func(fx *fixture) (run func(n int), per int, err error)
}

// fixture is the state the kernels share: one 2000-host, one-day churn
// trace and a clock parked in the middle of it.
type fixture struct {
	tr    *trace.Trace
	hosts []ids.NodeID
	now   time.Duration
}

func newFixture() (*fixture, error) {
	tr, err := trace.Generate(kernelTraceConfig())
	if err != nil {
		return nil, err
	}
	return &fixture{tr: tr, hosts: tr.HostIDs(), now: 8 * time.Hour}, nil
}

func kernelTraceConfig() trace.GenConfig {
	gen := trace.DefaultGenConfig(1)
	gen.Hosts = kernelHosts
	gen.Epochs = 24 * 3 // one day of 20-minute epochs
	return gen
}

// sink keeps the compiler from discarding a kernel's results.
var sink float64

// membership builds host 0's membership the way exp.World wires it:
// index-keyed pair cache, indexed oracle, epoch-stable rejection cache.
func (fx *fixture) membership() (*core.Membership, error) {
	clock := func() time.Duration { return fx.now }
	oracle, err := avmon.NewOracle(fx.tr, clock)
	if err != nil {
		return nil, err
	}
	pred, err := core.PaperPredicate(0.1, 3, 3, fx.tr.MeanOnline(), avdist.Overnet(0))
	if err != nil {
		return nil, err
	}
	pairs, err := ids.NewPairIndexCache(fx.hosts, 0)
	if err != nil {
		return nil, err
	}
	return core.NewMembership(fx.hosts[0], core.Config{
		Predicate:    pred,
		Monitor:      oracle,
		Clock:        clock,
		PairIdx:      pairs,
		SelfIdx:      0,
		MonitorIdx:   oracle,
		MonitorEpoch: func() (int, bool) { return fx.tr.EpochAt(fx.now), true },
	})
}

// allIdx returns every host index but 0, parallel to hosts[1:].
func (fx *fixture) allIdx() []int32 {
	idxs := make([]int32, len(fx.hosts)-1)
	for i := range idxs {
		idxs[i] = int32(i + 1)
	}
	return idxs
}

var kernels = []kernel{
	{"ids.pair_hash_ns", "ns", func(fx *fixture) (func(int), int, error) {
		h := fx.hosts
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += ids.PairHash(h[i%len(h)], h[(i*7+1)%len(h)])
			}
		}, 1, nil
	}},
	{"ids.pair_index_hit_ns", "ns", func(fx *fixture) (func(int), int, error) {
		c, err := ids.NewPairIndexCache(fx.hosts, 0)
		if err != nil {
			return nil, 0, err
		}
		const pairs = 1 << 14
		N := int32(len(fx.hosts))
		for i := int32(0); i < pairs; i++ {
			c.Pair(i%N, (i*7+1)%N)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				k := int32(i % pairs)
				sink += c.Pair(k%N, (k*7+1)%N)
			}
		}, 1, nil
	}},
	{"ids.hash_cache_hit_ns", "ns", func(fx *fixture) (func(int), int, error) {
		c := ids.NewHashCache(0)
		const pairs = 1 << 14
		h := fx.hosts
		for i := 0; i < pairs; i++ {
			c.Pair(h[i%len(h)], h[(i*7+1)%len(h)])
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				k := i % pairs
				sink += c.Pair(h[k%len(h)], h[(k*7+1)%len(h)])
			}
		}, 1, nil
	}},
	{"core.discover_idx_ns_per_cand", "ns", func(fx *fixture) (func(int), int, error) {
		// Steady state of a converged overlay: every candidate of the
		// rotating coarse views is already a neighbor or already in the
		// epoch's rejection cache.
		m, err := fx.membership()
		if err != nil {
			return nil, 0, err
		}
		rng := rand.New(rand.NewSource(1))
		const views = 4
		cands := make([][]ids.NodeID, views)
		idxs := make([][]int32, views)
		for v := range cands {
			for _, h := range rng.Perm(len(fx.hosts) - 1)[:kernelView] {
				cands[v] = append(cands[v], fx.hosts[h+1])
				idxs[v] = append(idxs[v], int32(h+1))
			}
			m.DiscoverIdx(cands[v], idxs[v])
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += float64(m.DiscoverIdx(cands[i%views], idxs[i%views]))
			}
		}, kernelView, nil
	}},
	{"core.refresh_ns_per_neighbor", "ns", func(fx *fixture) (func(int), int, error) {
		m, err := fx.membership()
		if err != nil {
			return nil, 0, err
		}
		m.DiscoverIdx(fx.hosts[1:], fx.allIdx())
		if m.Size() == 0 {
			return nil, 0, fmt.Errorf("membership admitted nobody")
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += float64(m.Refresh())
			}
		}, m.Size(), nil
	}},
	{"core.neighbors_view_ns", "ns", func(fx *fixture) (func(int), int, error) {
		m, err := fx.membership()
		if err != nil {
			return nil, 0, err
		}
		m.DiscoverIdx(fx.hosts[1:], fx.allIdx())
		flavors := []core.Flavor{core.HSOnly, core.VSOnly, core.HSVS}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += float64(len(m.Neighbors(flavors[i%len(flavors)])))
			}
		}, 1, nil
	}},
	{"shuffle.cyclon_tick_ns", "ns", func(fx *fixture) (func(int), int, error) {
		rng := rand.New(rand.NewSource(1))
		c, err := shuffle.NewCyclon(kernelView, kernelShuffleLen, nil, rng)
		if err != nil {
			return nil, 0, err
		}
		c.UseIndex(fx.tr.HostIndex, func(int) bool { return true })
		N := len(fx.hosts)
		for i, id := range fx.hosts {
			seeds := make([]ids.NodeID, 5)
			for j := range seeds {
				seeds[j] = fx.hosts[(i+1+rng.Intn(N-1))%N]
			}
			c.Join(id, seeds)
		}
		for round := 0; round < 50; round++ { // fill the views
			for i := 0; i < N; i++ {
				c.TickIdx(i)
			}
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				c.TickIdx(i % N)
			}
		}, 1, nil
	}},
	{"shuffle.agent_exchange_ns", "ns", func(fx *fixture) (func(int), int, error) {
		// One full live exchange: initiator Tick, responder
		// HandleRequest, initiator HandleReply.
		rng := rand.New(rand.NewSource(1))
		N := len(fx.hosts)
		agents := make([]*shuffle.Agent, N)
		for i, id := range fx.hosts {
			a, err := shuffle.NewAgent(id, kernelView, kernelShuffleLen, int64(i+1))
			if err != nil {
				return nil, 0, err
			}
			seeds := make([]ids.NodeID, kernelView)
			for j := range seeds {
				seeds[j] = fx.hosts[(i+1+rng.Intn(N-1))%N]
			}
			a.Seed(seeds)
			agents[i] = a
		}
		exchange := func(i int) {
			a := agents[i%N]
			peer, req, ok := a.Tick()
			if !ok {
				return
			}
			reply := agents[fx.tr.HostIndex(peer)].HandleRequest(fx.hosts[i%N], req)
			a.HandleReply(peer, reply)
		}
		for i := 0; i < 10*N; i++ {
			exchange(i)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				exchange(i)
			}
		}, 1, nil
	}},
	{"sim.event_ns", "ns", func(fx *fixture) (func(int), int, error) {
		// Schedule + pop + fire with 2000 timers pending: every fired
		// event reschedules itself one period later.
		w := sim.NewWorld(1)
		for i := 0; i < kernelHosts; i++ {
			var tick func()
			tick = func() { w.After(2*time.Minute, tick) }
			w.After(time.Duration(i)*time.Millisecond, tick)
		}
		return func(n int) { w.RunAll(n) }, 1, nil
	}},
	{"sim.sendcall_ns", "ns", func(fx *fixture) (func(int), int, error) {
		w := sim.NewWorld(1)
		net := sim.NewNetwork(w, nil, nil, 0)
		net.Bind(fx.hosts, func(int) bool { return true })
		return sendCallLoop(fx, w, net.Register, net.SendCall), 1, nil
	}},
	{"transport.memnet_sendcall_ns", "ns", func(fx *fixture) (func(int), int, error) {
		w := sim.NewWorld(1)
		net := transport.NewMemnet(transport.MemnetConfig{
			After:   w.After,
			Seed:    1,
			Latency: transport.UniformLatencyFn(20*time.Millisecond, 80*time.Millisecond),
		})
		register := func(id ids.NodeID, h sim.Handler) {
			// Memnet.Register only ever returns nil.
			_ = net.Register(id, transport.Handler(h))
		}
		return sendCallLoop(fx, w, register, net.SendCall), 1, nil
	}},
	{"agg.partial_merge_ns", "ns", func(fx *fixture) (func(int), int, error) {
		parts := make([]agg.Partial, 64)
		for i := range parts {
			parts[i].Observe(float64(i)/64, i%6)
		}
		return func(n int) {
			var p agg.Partial
			for i := 0; i < n; i++ {
				p.Merge(parts[i%len(parts)])
			}
			sink += p.Sum
		}, 1, nil
	}},
	{"avmon.oracle_idx_ns", "ns", func(fx *fixture) (func(int), int, error) {
		o, err := avmon.NewOracle(fx.tr, func() time.Duration { return fx.now })
		if err != nil {
			return nil, 0, err
		}
		N := len(fx.hosts)
		return func(n int) {
			for i := 0; i < n; i++ {
				a, _ := o.AvailabilityIdx(i % N)
				sink += a
			}
		}, 1, nil
	}},
	{"trace.generate_ms_2k", "ms", func(fx *fixture) (func(int), int, error) {
		return func(n int) {
			for i := 0; i < n; i++ {
				tr, err := trace.Generate(kernelTraceConfig())
				if err != nil {
					panic(err) // the same config built the fixture
				}
				sink += tr.MeanOnline()
			}
		}, 1, nil
	}},
	{"obs.counter_inc_ns", "ns", func(fx *fixture) (func(int), int, error) {
		c := obs.NewRegistry().Counter("bench_total")
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}, 1, nil
	}},
	{"obs.span_record_ns", "ns", func(fx *fixture) (func(int), int, error) {
		t := obs.NewTracer(0)
		span := obs.Span{Op: "n0001#1", Kind: "anycast", Ev: "hop", Hop: 2, Src: "n0001", Dst: "n0002"}
		return func(n int) {
			for i := 0; i < n; i++ {
				span.At = time.Duration(i)
				t.Record(span)
			}
		}, 1, nil
	}},
}

// sendCallLoop is the body shared by the two fabric kernels: batches of
// acknowledged sends between registered hosts, drained on the virtual
// clock, so one operation is a SendCall plus its delivery and ack
// events.
func sendCallLoop(fx *fixture, w *sim.World, register func(ids.NodeID, sim.Handler),
	sendCall func(from, to ids.NodeID, msg any, onResult func(bool))) func(int) {
	for _, id := range fx.hosts {
		register(id, func(ids.NodeID, any) {})
	}
	h := fx.hosts
	acked := 0
	onResult := func(ok bool) {
		if ok {
			acked++
		}
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			sendCall(h[i%len(h)], h[(i*7+1)%len(h)], i, onResult)
			if i%1024 == 1023 {
				w.RunAll(0)
			}
		}
		w.RunAll(0)
		sink += float64(acked)
	}
}

// runKernels times every kernel: samples runs of at least minSample
// each, median reported. Returns metric name -> value in the kernel's
// unit.
func runKernels(samples int, minSample time.Duration) (map[string]float64, error) {
	fx, err := newFixture()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(kernels))
	for _, k := range kernels {
		run, per, err := k.build(fx)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		// Size n so one sample lasts minSample, from a doubling probe.
		n := 1
		for {
			start := time.Now()
			run(n)
			if d := time.Since(start); d >= minSample/4 || n >= 1<<30 {
				if d < minSample {
					n = int(math.Ceil(float64(n) * float64(minSample) / float64(d+1)))
				}
				break
			}
			n *= 2
		}
		perOp := make([]float64, samples)
		for s := range perOp {
			start := time.Now()
			run(n)
			perOp[s] = float64(time.Since(start).Nanoseconds()) / float64(n) / float64(per)
		}
		v := median(perOp)
		if k.unit == "ms" {
			v /= 1e6
		}
		out[k.name] = v
	}
	return out, nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
