package device

import (
	"context"
	"math/rand"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/microbench"
)

// refEvent and refQueue are the reference for eventQueue: a binary
// min-heap holding one event per push, ordered by (t, issued, seq)
// with seq counting pushes. This is the queue the simulator ran
// before its keys were bucketed.
type refEvent struct {
	t      float64
	issued int64
	seq    int64
	warp   *simWarp
}

func (e *refEvent) before(o *refEvent) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.issued != o.issued {
		return e.issued < o.issued
	}
	return e.seq < o.seq
}

type refQueue []refEvent

func (q *refQueue) push(e refEvent) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

func (q *refQueue) pop() refEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top
}

// TestEventQueueMatchesReference drives eventQueue and the reference
// heap with the same random pushes and pops and requires every pop to
// return the same warp at the same cycle. Issued counts come from a
// small range and push times from a few offsets of the last popped
// cycle, zero included, so keys collide, drained keys are pushed
// again and pushes land on the cycle being popped. The simulator
// itself never pushes at the current cycle.
func TestEventQueueMatchesReference(t *testing.T) {
	offsets := []float64{0, 0.5, 1, 2, 4}
	for seed := int64(1); seed <= 200; seed++ {
		driveAgainstReference(t, seed, func(rng *rand.Rand, now float64) key {
			issued := int64(rng.Intn(3))
			return key{now + offsets[rng.Intn(len(offsets))], issued}
		})
	}
}

// TestEventQueueIndexCollisions is the same differential drive, but
// every push takes one of four keys that share one index slot, so a
// push often finds its slot naming another key's bucket, a drained
// bucket, or a bucket since reused for another key, and one key often
// has two live buckets; random keys share a slot only now and then.
func TestEventQueueIndexCollisions(t *testing.T) {
	var keys []key
	bySlot := map[uint8][]key{}
	for c := 0; len(keys) == 0; c++ {
		for issued := int64(0); issued < 3; issued++ {
			k := key{float64(c) / 2, issued}
			s := k.slot()
			bySlot[s] = append(bySlot[s], k)
			if len(bySlot[s]) == 4 {
				keys = bySlot[s]
				break
			}
		}
	}
	t.Logf("keys sharing slot %d: %v", keys[0].slot(), keys)
	for seed := int64(1); seed <= 200; seed++ {
		driveAgainstReference(t, seed, func(rng *rand.Rand, _ float64) key {
			return keys[rng.Intn(len(keys))]
		})
	}
}

// driveAgainstReference runs one seed of the differential drive,
// taking each push's key from next. Picking a queued warp pops, so
// about half the warps stay queued. After the drain every bucket
// must be back on the free list.
func driveAgainstReference(t *testing.T, seed int64, next func(rng *rand.Rand, now float64) key) {
	t.Helper()
	const nwarps, ops = 48, 20000
	rng := rand.New(rand.NewSource(seed))
	warps := make([]*simWarp, nwarps)
	slot := map[*simWarp]int{}
	for i := range warps {
		warps[i] = &simWarp{}
		slot[warps[i]] = i
	}
	queued := make([]bool, nwarps)
	q := newEventQueue(4)
	var ref refQueue
	var seq, pops int64
	now := 0.0
	pop := func(op int) {
		if len(q.heap) == 0 {
			t.Fatalf("seed %d, op %d: queue empty, reference holds %d events", seed, op, len(ref))
		}
		want := ref.pop()
		w, at := q.pop()
		pops++
		if w != want.warp || at != want.t {
			t.Fatalf("seed %d, op %d: pop = warp %d at %g, reference warp %d at %g",
				seed, op, slot[w], at, slot[want.warp], want.t)
		}
		queued[slot[w]] = false
		now = at
	}
	for op := 0; op < ops; op++ {
		i := rng.Intn(nwarps)
		if queued[i] {
			pop(op)
			continue
		}
		w := warps[i]
		k := next(rng, now)
		w.issued = k.issued
		seq++
		q.push(w, k.t)
		ref.push(refEvent{t: k.t, issued: w.issued, seq: seq, warp: w})
		queued[i] = true
	}
	for len(ref) > 0 {
		pop(ops)
	}
	if len(q.heap) != 0 || len(q.free) != len(q.buckets) || q.pops != pops {
		t.Fatalf("seed %d: drained queue has %d keys and %d of %d buckets free, %d pops counted of %d",
			seed, len(q.heap), len(q.free), len(q.buckets), q.pops, pops)
	}
}

// TestGlobalStreamBucketWork pins the queue work of a §4.3 global-
// memory stream on the full chip. Nearly every event there is a warp
// re-queued behind a busy functional unit, and the warps that lose
// the unit at one cycle share the key of its free cycle, so the queue
// must make at most one bucket per ten issued warp instructions. The
// pop count is logged as the baseline for work that cuts re-queues.
func TestGlobalStreamBucketWork(t *testing.T) {
	const grid, block, memBytes = 192, 256, 1 << 22
	prog, err := microbench.GlobalStream(9, grid*block, memBytes)
	if err != nil {
		t.Fatal(err)
	}
	l := barra.Launch{Prog: prog, Grid: grid, Block: block}
	s, err := simulate(context.Background(), gpu.GTX285(), l, barra.NewMemory(memBytes), 0)
	if err != nil {
		t.Fatal(err)
	}
	instrs := s.res.WarpInstrs
	t.Logf("warp instructions %d, pops %d (%.1f per instruction), buckets %d (%.3f per instruction)",
		instrs, s.queue.pops, float64(s.queue.pops)/float64(instrs),
		s.queue.made, float64(s.queue.made)/float64(instrs))
	if got := float64(s.queue.made) / float64(instrs); got > 0.1 {
		t.Errorf("%d buckets for %d warp instructions = %.3f per instruction, want at most 0.1",
			s.queue.made, instrs, got)
	}
}
