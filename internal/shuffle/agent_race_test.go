package shuffle_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avmem/internal/ids"
	"avmem/internal/shuffle"
	"avmem/internal/transport"
)

// TestAgentConcurrentSafety runs agents from many goroutines at once;
// run it under -race. One agent takes ticks, merges, view reads and
// discovery passes from eight goroutines. Then six agents exchange
// pooled messages over a wall-clock Memnet, their handlers discarding
// every tenth arrival as lost in flight: every message a handler
// consumes goes back to the pools while other goroutines are drawing
// from them, so two live messages sharing an entry slice would show as
// a race, or as an offer that does not end with its sender's self-entry.
func TestAgentConcurrentSafety(t *testing.T) {
	t.Run("one agent", oneAgentUnderContention)
	t.Run("memnet", agentsOverMemnet)
}

func oneAgentUnderContention(t *testing.T) {
	a, err := shuffle.NewAgent("self", 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]ids.NodeID, 32)
	for i := range peers {
		peers[i] = ids.Synthetic(i + 1)
	}
	a.Seed(peers)
	// Indexed, so the race detector also sees the resolver, the scratch
	// permutation and the view's columns under concurrent callers.
	a.UseIndex(peers, func(id ids.NodeID) int { return slices.Index(peers, id) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch g % 4 {
				case 0:
					// The partner a tick removes must reach the round's judge
					// whatever merges the other goroutines squeeze in: the
					// tick and the verdict are one critical section.
					var offered ids.NodeID
					peer, _, ok := a.TickDiscover(nil, func(codes []int32, memo []uint64, strays []ids.NodeID) int {
						if k := len(codes) - 1; k < 0 {
							offered = ids.Nil
						} else if c := codes[k]; c >= 0 {
							offered = peers[c]
						} else {
							offered = strays[^c]
						}
						return 0
					})
					if ok && offered != peer.ID() {
						t.Errorf("tick removed partner %v, the judge's last candidate was %v", peer, offered)
					}
				case 1:
					req := shuffle.NewRequest()
					req.Entries = append(req.Entries, shuffle.Entry{ID: ids.Synthetic(i)})
					a.HandleRequest("x", req)
				case 2:
					reply := shuffle.NewReply()
					reply.Entries = append(reply.Entries, shuffle.Entry{ID: ids.Synthetic(i + 500)})
					a.HandleReply("y", reply)
				default:
					a.View()
					// Discovery rewrites memo words under the agent's lock
					// while ticks and merges shift and zero them.
					a.Discover(func(codes []int32, memo []uint64, strays []ids.NodeID) int {
						for k := range memo {
							memo[k] = uint64(i + 1)
						}
						return len(codes) + len(strays)
					})
				}
			}
		}(g)
	}
	wg.Wait()
}

func agentsOverMemnet(t *testing.T) {
	const n, rounds = 6, 150
	all := make([]ids.NodeID, n)
	for i := range all {
		all[i] = ids.Synthetic(i)
	}
	net := transport.NewMemnet(transport.MemnetConfig{
		Seed:    1,
		Latency: transport.UniformLatencyFn(0, 200*time.Microsecond),
	})
	// Every tenth arrival, across all agents, is lost before its handler
	// sees it: exchanges die mid-flight in both directions.
	var arrivals atomic.Int64
	lost := func() bool { return arrivals.Add(1)%10 == 0 }
	agents := make([]*shuffle.Agent, n)
	for i, id := range all {
		a, err := shuffle.NewAgent(id, 4, 3, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // indexed and identifier-only agents mixed
			a.UseIndex(all, func(id ids.NodeID) int { return slices.Index(all, id) })
		}
		a.Seed([]ids.NodeID{all[(i+1)%n], all[(i+2)%n]})
		agents[i] = a
		self := id
		if err := net.Register(self, func(from ids.NodeID, msg any) {
			if lost() {
				return
			}
			switch m := msg.(type) {
			case *shuffle.Request:
				if k := len(m.Entries); k == 0 || m.Entries[k-1].ID != from {
					t.Errorf("%v: request from %v ends with %v, not its sender's self-entry", self, from, m.Entries)
				}
				net.Send(self, from, a.HandleRequest(from, m))
			case *shuffle.Reply:
				// An honest responder never offers itself.
				for _, e := range m.Entries {
					if e.ID == from {
						t.Errorf("%v: reply from %v offers its sender: %v", self, from, m.Entries)
					}
				}
				a.HandleReply(from, m)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if peer, req, ok := a.Tick(); ok {
					net.Send(all[i], peer, req)
				} else {
					a.Seed([]ids.NodeID{all[(i+1)%n]})
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	// Close waits for every delivery in flight; replies sent after it are
	// dropped.
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	for i, a := range agents {
		view := a.View()
		if len(view) > 4 {
			t.Errorf("%v: view %v exceeds its bound", all[i], view)
		}
		for k, id := range view {
			if id == all[i] || !slices.Contains(all, id) || slices.Contains(view[k+1:], id) {
				t.Errorf("%v: view %v holds itself, a stranger or a duplicate", all[i], view)
			}
		}
	}
	if s := net.Stats(); s.Delivered < n*rounds/2 {
		t.Fatalf("memnet delivered %d of %d messages", s.Delivered, s.Sent)
	}
}
