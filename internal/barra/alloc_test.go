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
		mem:      NewMemory(1 << 20),
		banks:    bsim,
		coal:     []*coalesce.Sim{csim},
		segs:     segs,
		stats:    newStatsCollector(l, nil, segs),
		maxInstr: 1 << 40,
	}
	ctx.budget.Store(ctx.maxInstr)
	return ctx
}

// TestSteadyStateZeroAllocs: re-running a block on a warmed worker
// into a caller-owned stats shard performs zero heap allocations —
// the engine's per-instruction path (step, masks, bank conflicts,
// coalescing, hookless stats accounting) is allocation-free. The
// shard is reused across iterations, so the pin does not depend on
// sync.Pool (which drops items at random under the race detector).
func TestSteadyStateZeroAllocs(t *testing.T) {
	ctx := newAllocCtx(t)
	w := &worker{ctx: ctx}
	bs := ctx.stats.shard()
	if _, err := w.runBlock(0, bs); err != nil { // warm-up: builds arenas
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := w.runBlock(0, bs); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state block execution allocates %.1f times per block; want 0", avg)
	}
}

// TestSteadyStateCollectorAllocs: with each block's shard taken from
// the pool and recycled through merge (as Run's steady state across
// launches does), execution stays allocation-free. AllocsPerRun
// divides the total by the run count and truncates, so over 200 runs
// a stray refill after a GC sheds the pool still reads 0, while one
// allocation per block reads 1. Under the race detector sync.Pool
// drops a quarter of its puts, and each drop costs a shard refill, so
// there the bound stays at 1.
func TestSteadyStateCollectorAllocs(t *testing.T) {
	ctx := newAllocCtx(t)
	sc := ctx.stats
	w := &worker{ctx: ctx}
	bs := sc.shard()
	nb, err := w.runBlock(0, bs)
	if err != nil {
		t.Fatal(err)
	}
	sc.merge(0, bs, nb) // seeds the shard pool
	avg := testing.AllocsPerRun(200, func() {
		bs := sc.shard()
		nb, err := w.runBlock(0, bs)
		if err != nil {
			t.Fatal(err)
		}
		sc.merge(0, bs, nb)
	})
	bound := 0.0
	if raceEnabled {
		bound = 1
	}
	if avg > bound {
		t.Fatalf("steady-state execution with pooled stats shards allocates %.1f times per block; want at most %.0f", avg, bound)
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
	if _, err := w.runBlock(0, bs); err != nil { // warm-up: builds arenas
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	blocks := reg.NewCounter("test_blocks_total", "")
	lat := reg.NewHistogram("test_block_seconds", "", obs.DefLatencyBuckets)
	avg := testing.AllocsPerRun(50, func() {
		start := time.Now()
		if _, err := w.runBlock(0, bs); err != nil {
			t.Fatal(err)
		}
		blocks.Inc()
		lat.Observe(time.Since(start).Seconds())
	})
	if avg != 0 {
		t.Fatalf("block execution with metrics allocates %.1f times per block; want 0", avg)
	}
}

// TestReplayHitAllocs: a replay hit — a block whose lean pass matches
// a class already simulated — stays allocation-free too. Block 0
// misses and becomes the class canonical; block 1 then hits on every
// iteration. Each hit takes its variant shard from sync.Pool, which
// under the race detector drops a quarter of what it is given back;
// over 200 hits those refills (two allocations each) stay well below
// the one allocation per hit that AllocsPerRun's integer average
// would report.
func TestReplayHitAllocs(t *testing.T) {
	ctx := newAllocCtx(t)
	ctx.replay = newReplayState(ctx.launch.Prog, nil, ctx.cfg.MaxSegmentBytes)
	w := &worker{ctx: ctx}
	bs := ctx.stats.shard()
	hit := func() {
		if _, err := w.runBlockEngine(1, bs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.runBlockEngine(0, bs); err != nil { // miss: builds arenas and the class
		t.Fatal(err)
	}
	hit() // warm-up: grows the undo log
	avg := testing.AllocsPerRun(200, hit)
	if w.engMisses != 1 || w.engHits != 202 {
		t.Fatalf("engine saw %d misses and %d hits; want 1 and 202", w.engMisses, w.engHits)
	}
	if avg != 0 {
		t.Fatalf("a replay hit allocates %.1f times per block; want 0", avg)
	}
}
