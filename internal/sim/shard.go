package sim

import (
	"fmt"
	"time"
)

// shardedQueue partitions the event queue across n per-shard 4-ary
// heaps. Delivery events whose target is named by host index land in the
// heap of the shard that owns that host (hostShard = host mod n) — a
// cross-shard send is nothing more than a push into the destination
// shard's heap, which doubles as that shard's deterministic inbox.
// Closure events (timers, drivers) have no host affinity and are spread
// round-robin by sequence number.
//
// The scheduler advances all shards in lockstep under the shared
// virtual clock: each step is a tournament over the shard heads that
// selects the globally minimal (at, seq) key. Because seq is assigned
// from one world-global counter at scheduling time, that key is a total
// order over all events, and the merged pop sequence is *identical* to
// a single global heap's — for any shard count, including one. That is
// the whole determinism argument: shard placement only decides which
// heap holds an event, never when it fires, so a (trace, seed) pair
// produces bit-identical output for shards ∈ {1, 2, 8, …} and the
// unsharded engine alike. See DESIGN.md §14.
//
// What sharding buys is structural, not scheduling-related: each heap
// holds ~1/n of the queue, so push/pop sift depth shrinks and the hot
// top levels of every heap stay cache-resident even at 100k-host queue
// sizes where one global heap's upper tree thrashes. The tournament
// costs an n-way scan of the shard heads per pop, so small n (4–16)
// is the useful range.
type shardedQueue struct {
	shards []eventHeap
}

// push places the event in its shard: a delivery or delivery attempt
// whose target address carries a host-index memo (p.to1) by that index,
// everything else round-robin by sequence number. The memo is used as
// given — it is only verified when the event fires — which is fine:
// placement is a pure function of the event, so it is reproducible, and
// it does not even need to be for determinism (see the type comment);
// any placement, a forged memo's included, yields the same merged order.
func (q *shardedQueue) push(at time.Duration, seq uint64, p *payload) {
	n := uint64(len(q.shards))
	var i uint64
	if p.to1 > 0 {
		i = uint64(p.to1-1) % n
	} else {
		i = seq % n
	}
	q.shards[i].push(at, seq, p)
}

// next returns the index of the shard whose head carries the globally
// minimal (at, seq) key, or -1 when every shard is empty.
func (q *shardedQueue) next() int {
	best := -1
	for i := range q.shards {
		keys := q.shards[i].keys
		if len(keys) == 0 {
			continue
		}
		if best < 0 || keys[0].before(&q.shards[best].keys[0]) {
			best = i
		}
	}
	return best
}

// pending counts queued events across all shards.
func (q *shardedQueue) pending() int {
	n := 0
	for i := range q.shards {
		n += len(q.shards[i].keys)
	}
	return n
}

// SetShards switches the world between the single global event heap
// (n <= 1) and a sharded queue of n per-shard heaps. Already-queued
// events migrate to the new layout; because the merged order is the
// global (at, seq) order either way, switching never changes what the
// world executes — only the shape of the queue. Typically called once,
// right after NewWorld, before the deployment schedules anything.
func (w *World) SetShards(n int) error {
	if n > maxShards {
		return fmt.Errorf("sim: shard count %d exceeds max %d", n, maxShards)
	}
	old := w.events.drain(nil)
	if w.sh != nil {
		for i := range w.sh.shards {
			old = w.sh.shards[i].drain(old)
		}
	}
	if n <= 1 {
		w.sh = nil
		for i := range old {
			w.events.push(old[i].at, old[i].seq, &old[i].payload)
		}
		return nil
	}
	w.sh = &shardedQueue{shards: make([]eventHeap, n)}
	for i := range old {
		w.sh.push(old[i].at, old[i].seq, &old[i].payload)
	}
	return nil
}

// maxShards bounds the tournament width: beyond this the n-way head
// scan per pop costs more than the shallower sifts save.
const maxShards = 64

// Shards reports the configured shard count (1 = single global heap).
func (w *World) Shards() int {
	if w.sh == nil {
		return 1
	}
	return len(w.sh.shards)
}

// runSharded is Run over the sharded queue: pop the tournament winner,
// fire, repeat — the merged (at, seq) order.
func (w *World) runSharded(until time.Duration) int {
	n := 0
	for {
		s := w.sh.next()
		if s < 0 || w.sh.shards[s].keys[0].at > until {
			break
		}
		k := w.sh.shards[s].pop()
		w.now = k.at
		w.sh.shards[s].fire(k.slot, w.nets)
		n++
		if w.obs != nil {
			w.obs.step(w.now)
		}
	}
	if w.obs != nil {
		w.obs.flush(w.now)
	}
	return n
}

// runAllSharded is RunAll over the sharded queue.
func (w *World) runAllSharded(maxEvents int) int {
	n := 0
	for {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		s := w.sh.next()
		if s < 0 {
			break
		}
		k := w.sh.shards[s].pop()
		w.now = k.at
		w.sh.shards[s].fire(k.slot, w.nets)
		n++
		if w.obs != nil {
			w.obs.step(w.now)
		}
	}
	if w.obs != nil {
		w.obs.flush(w.now)
	}
	return n
}
