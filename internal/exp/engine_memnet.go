package exp

import (
	"fmt"
	"math/rand"
	"time"

	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/node"
	"avmem/internal/runtime"
	"avmem/internal/sim"
)

// This file is the memnet engine's per-host install: every host runs a
// real node.Node agent — the live runtime with its CYCLON shuffle agent,
// per-node timers, and Env-level messaging — bound to a virtual-time Env
// over the deployment's simulated network. Only the fabric is simulated;
// the node code is the one a deployment ships. Where the sim engine
// answers "what does the protocol do", this one answers "what does the
// shipped node binary do", reproducibly per seed: the nodes are the fully
// locked concurrent implementation, run single-threaded on the virtual
// clock.

// installMemnet builds a node on every host and schedules their
// staggered starts within the first protocol period. Nodes run in Seeds
// mode: each bootstraps from a few random peers and fills its coarse
// view through live CYCLON exchanges, the deployed-agent story.
func (d *Deployment) installMemnet(pred *core.Predicate) error {
	cfg := d.Cfg
	// Every node is handed the host-index universe the sim engine's
	// memberships run on: the shared host table, the trace's identifier
	// resolver, the monitor's epoch that scopes discovery's slot memos, and
	// the deployment's discovery, flood-path and inbound-message counters.
	universe := &node.Universe{Pairs: d.PairIdx, IndexOf: d.Trace.HostIndex, MonitorEpoch: d.mon.epoch,
		Discovery: &d.discovery, Flood: &d.flood, Inbound: &d.inbound}
	bandCensus := d.bandCensus
	fabric := runtime.NetFabric(d.Net)
	d.nodes = make([]*node.Node, len(d.hosts))
	for h, id := range d.hosts {
		h := h
		// The env RNG (annealing draws) gets a distinct stream from the
		// node's agent RNG, mirroring the live path's Seed+1 offset.
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			Self:      ids.AddrAt(id, int32(h)),
			Scheduler: d.Sim,
			Fabric:    fabric,
			Online:    func() bool { return d.onlineAt(h) },
			Seed:      nodeSeed(cfg.Seed, h) + 1,
		})
		if err != nil {
			return err
		}
		n, err := node.New(node.Config{
			Self:           id,
			Predicate:      pred,
			Monitor:        d.Monitor,
			Seeds:          pickSeeds(d.Rand, d.hosts, id, 4),
			ViewSize:       cfg.ViewSize,
			ShuffleLen:     cfg.ShuffleLen,
			Env:            env,
			Collector:      d.Collector,
			Hashes:         d.Hashes,
			ProtocolPeriod: cfg.ProtocolPeriod,
			RefreshPeriod:  cfg.RefreshPeriod,
			VerifyInbound:  cfg.VerifyInbound,
			Cushion:        cfg.Cushion,
			Seed:           nodeSeed(cfg.Seed, h),
			Behavior:       d.adv.behavior(h),
			Audit:          cfg.Audit,
			AuditTrail:     d.trail,
			AuditObs:       d.auditIns,
			BandCensus:     bandCensus,
			OpTrace:        cfg.OpTrace,
			Universe:       universe,
		})
		if err != nil {
			return err
		}
		d.nodes[h], d.members[h], d.initiators[h] = n, n.Membership(), n
		// Stagger node starts across the first protocol period — the
		// live counterpart of the sim engine's per-node driver offsets.
		offset := time.Duration(d.Rand.Int63n(int64(cfg.ProtocolPeriod)))
		d.Sim.After(offset, func() {
			// Registration on the simulated network cannot fail; a failure
			// here would be a wiring bug, not an operational condition.
			if err := n.Start(); err != nil {
				panic(fmt.Sprintf("exp: starting memnet node: %v", err))
			}
		})
	}
	return nil
}

// privateLatency samples model from a stream of its own, ignoring the
// world RNG sim.Network hands it, so the memnet engine's message
// latencies and the world's own draws (start offsets, bootstrap seeds,
// initiator picks) never interleave in one stream.
type privateLatency struct {
	model sim.LatencyModel
	rng   *rand.Rand
}

// Sample implements sim.LatencyModel.
func (l privateLatency) Sample(*rand.Rand) time.Duration { return l.model.Sample(l.rng) }
