// Live cluster: run real AVMEM nodes — goroutines, wall-clock timers,
// and an in-memory transport with simulated latency — instead of the
// virtual-time simulator. The same program works over TCP by swapping
// the transport (see cmd/avmemnode for the TCP daemon). It exits 1
// unless the anycast is delivered.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"avmem"
)

func main() {
	const n = 40
	rng := rand.New(rand.NewSource(3))

	// Availabilities come from the Overnet-like model; in a real
	// deployment a crawler would have measured them.
	pdf := avmem.OvernetPDF()
	monitor := avmem.StaticMonitor{}
	peers := make([]avmem.NodeID, n)
	nStar := 0.0
	for i := range peers {
		peers[i] = avmem.NodeID(fmt.Sprintf("10.0.0.%d:4000", i+1))
		av := pdf.Sample(rng)
		monitor[peers[i]] = av
		nStar += av
	}
	pred, err := avmem.NewPaperPredicate(0.1, 3, 3, nStar, pdf)
	if err != nil {
		log.Fatal(err)
	}

	tr := avmem.NewMemoryTransport(5*time.Millisecond, 20*time.Millisecond)
	defer tr.Close()

	peerSource := avmem.PeerFunc(func(self avmem.NodeID) []avmem.NodeID {
		out := make([]avmem.NodeID, 0, n-1)
		for _, p := range peers {
			if p != self {
				out = append(out, p)
			}
		}
		return out
	})

	fmt.Printf("starting %d live nodes (N*=%.1f)...\n", n, nStar)
	nodes := make([]*avmem.Node, 0, n)
	for _, id := range peers {
		node, err := avmem.NewNode(avmem.NodeConfig{
			Self:           id,
			Predicate:      pred,
			Monitor:        monitor,
			Peers:          peerSource,
			Transport:      tr,
			ProtocolPeriod: 100 * time.Millisecond, // accelerated for the demo
			RefreshPeriod:  2 * time.Second,
			VerifyInbound:  true,
			Cushion:        0.1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := node.Start(); err != nil {
			log.Fatal(err)
		}
		defer node.Stop()
		nodes = append(nodes, node)
	}

	// Let discovery run a few periods.
	time.Sleep(time.Second)
	var totalHS, totalVS int
	for _, node := range nodes {
		hs, vs := node.SliverSizes()
		totalHS += hs
		totalVS += vs
	}
	fmt.Printf("after 1s: mean HS %.1f, mean VS %.1f per node\n",
		float64(totalHS)/n, float64(totalVS)/n)

	// A low-availability node locates a high-availability one.
	var initiator *avmem.Node
	for _, node := range nodes {
		if monitor[node.Self()] < 0.3 {
			initiator = node
			break
		}
	}
	if initiator == nil {
		initiator = nodes[0]
	}
	target, err := avmem.NewThreshold(0.8)
	if err != nil {
		log.Fatal(err)
	}
	id, err := initiator.Anycast(target, avmem.AnycastOptions{
		Policy: avmem.RetriedGreedy,
		Flavor: avmem.HSVS,
		TTL:    6,
		Retry:  8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %s (av %.2f) anycasts to %s...\n",
		initiator.Self(), monitor[initiator.Self()], target)

	deadline := time.After(5 * time.Second)
	for {
		rec, ok := initiator.AnycastResult(id)
		if ok && rec.Outcome != avmem.OutcomePending {
			fmt.Printf("outcome: %v after %d hops in %v\n",
				rec.Outcome, rec.Hops, rec.Latency.Round(time.Millisecond))
			if rec.Outcome != avmem.OutcomeDelivered {
				os.Exit(1)
			}
			return
		}
		select {
		case <-deadline:
			fmt.Println("outcome: still pending after 5s")
			os.Exit(1)
		case <-time.After(20 * time.Millisecond):
		}
	}
}
