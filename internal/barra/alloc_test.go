package barra

// Allocation-regression tests: steady-state block execution — the
// per-instruction data path through Warp.Step, the bank and coalesce
// simulators, half-warp gathering and stats collection — must not
// allocate. A future PR that reintroduces hot-path garbage (a fresh
// slice per access, a copied instruction per step) fails here long
// before it shows up on a profile.

import (
	"testing"
	"time"

	"gpuperf/internal/bank"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
	"gpuperf/internal/obs"
)

// allocProbeKernel touches every hot path: ALU work, a divergent
// forward branch, shared stores/loads (with bank conflicts via the
// ×2 stride), a shared ALU operand, a barrier, and strided global
// loads/stores (imperfect coalescing).
func allocProbeKernel() *isa.Program {
	b := kbuild.New("alloc-probe")
	b.SharedBytes(4096)
	tid, flat, ntid, cta := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	saddr, v, gaddr, acc := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)

	// Divergent forward branch: odd lanes skip one add.
	b.AndImm(v, tid, 1)
	b.ISetpImm(isa.P0, isa.CmpNE, v, 0)
	br := b.BraIf(isa.P0, false)
	b.IAddImm(tid, tid, 0) // fall-through work for even lanes
	b.SetTarget(br, b.Pos())

	// Shared store/load at a conflicted ×2 word stride.
	b.ShlImm(saddr, tid, 3)
	b.Sst(saddr, tid)
	b.Bar()
	b.Sld(v, saddr)

	// Shared ALU operand (broadcast read of s[0]).
	b.FMadS(acc, v, 0, v)

	// Global round trip at a 2-word lane stride: two 128 B segments
	// per half-warp, so the coalescer forms multiple transactions.
	b.ShlImm(gaddr, flat, 3)
	b.Gld(acc, gaddr)
	b.Gst(gaddr, v)
	b.Exit()
	return b.MustProgram()
}

// newAllocCtx assembles a runContext the way Run does.
func newAllocCtx(t testing.TB) *runContext {
	t.Helper()
	c := cfg()
	prog := allocProbeKernel()
	l := Launch{Prog: prog, Grid: 4, Block: 128}
	if err := l.Validate(c); err != nil {
		t.Fatal(err)
	}
	bsim, err := bank.ForGPU(c)
	if err != nil {
		t.Fatal(err)
	}
	csim, err := coalesce.ForGPU(c)
	if err != nil {
		t.Fatal(err)
	}
	segs := []int{c.MinSegmentBytes}
	ctx := &runContext{
		cfg:      c,
		launch:   l,
		code:     Predecode(l.Prog),
		mem:      NewMemory(1 << 20),
		banks:    bsim,
		coal:     []*coalesce.Sim{csim},
		segs:     segs,
		stats:    &statsCollector{segs: segs},
		maxInstr: 1 << 40,
	}
	ctx.budget.Store(ctx.maxInstr)
	return ctx
}

// liveBlock runs block 0's live pass on w into bs, without a fold.
func liveBlock(t testing.TB, w *worker, bs *blockStats) {
	if err := w.initBlock(0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.schedule(bs, false); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateZeroAllocs: re-running a block's live pass on a
// warmed worker into a caller-owned stats shard performs zero heap
// allocations — the engine's per-instruction path (step, masks, bank
// conflicts, coalescing, hookless stats accounting) is
// allocation-free.
func TestSteadyStateZeroAllocs(t *testing.T) {
	ctx := newAllocCtx(t)
	w := &worker{ctx: ctx}
	bs := ctx.stats.shard()
	liveBlock(t, w, bs) // warm-up: builds arenas
	avg := testing.AllocsPerRun(50, func() { liveBlock(t, w, bs) })
	if avg != 0 {
		t.Fatalf("steady-state block execution allocates %.1f times per block; want 0", avg)
	}
}

// TestSteadyStateCollectorAllocs: a worker's whole per-block step —
// reset its block shard, run the block, fold the shard into its
// running sum, check the barrier count — allocates nothing once the
// worker is warm, with or without the race detector.
func TestSteadyStateCollectorAllocs(t *testing.T) {
	ctx := newAllocCtx(t)
	w := newWorker(ctx)
	if err := w.block(0); err != nil { // warm-up: builds arenas and the shards' stages
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.block(0); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("a worker's per-block step allocates %.1f times per block; want 0", avg)
	}
}

// TestSteadyStateZeroAllocsWithMetrics: the telemetry the service
// layer hangs off the engine seam — an obs counter bumped and a
// latency histogram observed per block — must not reintroduce
// hot-path garbage. This pins "metrics enabled" to the same zero
// allocations per block as the bare engine.
func TestSteadyStateZeroAllocsWithMetrics(t *testing.T) {
	ctx := newAllocCtx(t)
	w := &worker{ctx: ctx}
	bs := ctx.stats.shard()
	liveBlock(t, w, bs) // warm-up: builds arenas
	reg := obs.NewRegistry()
	blocks := reg.NewCounter("test_blocks_total", "")
	lat := reg.NewHistogram("test_block_seconds", "", obs.DefLatencyBuckets)
	avg := testing.AllocsPerRun(50, func() {
		start := time.Now()
		liveBlock(t, w, bs)
		blocks.Inc()
		lat.Observe(time.Since(start).Seconds())
	})
	if avg != 0 {
		t.Fatalf("block execution with metrics allocates %.1f times per block; want 0", avg)
	}
}

// TestReplayHitAllocs: a replay hit — a block whose lean pass matches
// a class already simulated, folded into the worker's running sum —
// stays allocation-free too. Block 0 misses and becomes the class
// canonical; block 1 then hits on every iteration.
func TestReplayHitAllocs(t *testing.T) {
	ctx := newAllocCtx(t)
	ctx.replay = newReplayState(ctx.launch.Prog, nil, ctx.cfg.MaxSegmentBytes)
	w := newWorker(ctx)
	hit := func() {
		if err := w.block(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.block(0); err != nil { // miss: builds arenas and the class
		t.Fatal(err)
	}
	hit() // warm-up: grows the undo log
	avg := testing.AllocsPerRun(200, hit)
	if n := len(ctx.replay.classes); n != 1 {
		t.Fatalf("engine found %d classes; want 1, block 1 replaying block 0's", n)
	}
	if avg != 0 {
		t.Fatalf("a replay hit allocates %.1f times per block; want 0", avg)
	}
}
