package device

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// chainKernel: a straight-line dependent chain of n instructions of
// the given op — the instruction-pipeline microbenchmark shape
// (straight-line so loop bookkeeping does not dilute the measured
// class, exactly why the paper generates binaries directly).
func chainKernel(op isa.Opcode, n int) *isa.Program {
	b := kbuild.New("chain")
	x := b.Reg()
	if isa.IsDouble(op) {
		x = b.RegPair()
	}
	b.MovF(x, 1.0)
	for i := 0; i < n; i++ {
		switch {
		case op == isa.OpFMAD:
			b.FMad(x, x, x, x)
		case op == isa.OpFMUL:
			b.FMul(x, x, x)
		case isa.ClassOf(op) == isa.ClassIII:
			b.Unary(op, x, x)
		case op == isa.OpDFMA:
			b.DFma(x, x, x, x)
		default:
			b.FAdd(x, x, x)
		}
	}
	b.Exit()
	return b.MustProgram()
}

// smallGPU is a 3-SM (one cluster) GTX 285 slice: per-SM behaviour
// is identical and tests run 10x faster. Peak helpers scale with the
// SM count, so throughput comparisons stay valid.
func smallGPU() gpu.Config {
	c := gpu.GTX285()
	c.NumSMs = 3
	return c
}

func launchWarps(t *testing.T, cfg gpu.Config, prog *isa.Program, warpsPerSM int) Result {
	t.Helper()
	// One block per SM with warpsPerSM warps (≤16 per block on CC
	// 1.3 would need 512 threads; warpsPerSM ≤ 16 here).
	l := barra.Launch{Prog: prog, Grid: cfg.NumSMs, Block: warpsPerSM * gpu.WarpSize}
	mem := barra.NewMemory(1 << 16)
	r, err := Run(cfg, l, mem)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestInstructionThroughputSaturation reproduces the shape of paper
// Fig. 2 (left) for Type II: throughput grows with warp count and
// saturates around 6 warps near the theoretical peak.
func TestInstructionThroughputSaturation(t *testing.T) {
	cfg := smallGPU()
	prog := chainKernel(isa.OpFMAD, 512)
	var tp [17]float64
	for w := 1; w <= 16; w *= 2 {
		r := launchWarps(t, cfg, prog, w)
		tp[w] = r.InstrThroughput()
	}
	if !(tp[1] < tp[2] && tp[2] < tp[4]) {
		t.Errorf("throughput not increasing: 1w=%.2g 2w=%.2g 4w=%.2g", tp[1], tp[2], tp[4])
	}
	peak := cfg.PeakInstrThroughput(8)
	if tp[8] < 0.7*peak {
		t.Errorf("8 warps = %.3g instr/s, want ≥70%% of peak %.3g", tp[8], peak)
	}
	if tp[16] > 1.02*peak {
		t.Errorf("16 warps = %.3g exceeds peak %.3g", tp[16], peak)
	}
	// 1 warp is latency-bound at roughly occ/latency of peak.
	if tp[1] > 0.4*peak {
		t.Errorf("1 warp suspiciously fast: %.3g vs peak %.3g", tp[1], peak)
	}
}

// TestClassThroughputOrdering: at saturation, class throughput
// follows Table 1's unit counts.
func TestClassThroughputOrdering(t *testing.T) {
	cfg := smallGPU()
	ops := []struct {
		op   isa.Opcode
		frac float64 // expected peak fraction of class units
	}{
		{isa.OpFMUL, 10.0 / 8}, // relative to ClassII peak
		{isa.OpFMAD, 1},
		{isa.OpSIN, 4.0 / 8},
		{isa.OpDFMA, 1.0 / 8},
	}
	base := 0.0
	var got []float64
	for _, o := range ops {
		// The loop overhead (3 ClassII instructions per iteration)
		// dilutes pure-op throughput; use the per-class issue count.
		r := launchWarps(t, cfg, chainKernel(o.op, 256), 12)
		cls := isa.ClassOf(o.op)
		classInstr := float64(r.ByClass[cls])
		tp := classInstr / r.Seconds
		got = append(got, tp)
		if o.op == isa.OpFMAD {
			base = tp
		}
	}
	_ = base
	if !(got[0] > got[1] && got[1] > got[2] && got[2] > got[3]) {
		t.Errorf("class throughput ordering violated: %v", got)
	}
}

// smemKernel: each thread copies words between shared regions —
// the shared-memory microbenchmark shape. The copy pairs are
// unrolled so bookkeeping does not throttle the memory pipeline.
func smemKernel(iters uint32, strideWords uint32) *isa.Program {
	const unroll = 16
	b := kbuild.New("smemcopy")
	b.SharedBytes(16 * 1024)
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.IMulImm(addr, tid, 4*strideWords)
	b.AndImm(addr, addr, 8191) // stay in the first 8 KB
	b.Loop(ctr, iters, func() {
		for i := 0; i < unroll; i++ {
			b.Sld(v, addr)
			b.Sst(addr, v)
		}
	})
	b.Exit()
	return b.MustProgram()
}

// TestSharedBandwidthSaturation reproduces Fig. 2 (right): bandwidth
// rises with warps and approaches ~80% of the 1420 GB/s peak.
func TestSharedBandwidthSaturation(t *testing.T) {
	cfg := smallGPU()
	prog := smemKernel(60, 1)
	var bw [17]float64
	for w := 1; w <= 16; w *= 2 {
		r := launchWarps(t, cfg, prog, w)
		bw[w] = r.SharedBandwidth() / 1e9
	}
	if !(bw[1] < bw[2] && bw[2] < bw[4] && bw[4] < bw[8]) {
		t.Errorf("shared bandwidth not rising: %v", bw)
	}
	peak := cfg.PeakSharedBandwidth() / 1e9
	if bw[16] < 0.5*peak {
		t.Errorf("16 warps: %.0f GB/s, want ≥50%% of %.0f", bw[16], peak)
	}
	if bw[16] > peak*1.01 {
		t.Errorf("16 warps: %.0f GB/s exceeds peak %.0f", bw[16], peak)
	}
	// Shared memory needs more warps than the ALU to saturate:
	// at 4 warps it should still be clearly below 90% of its
	// 16-warp value.
	if bw[4] > 0.9*bw[16] {
		t.Errorf("shared memory saturates too early: 4w=%.0f vs 16w=%.0f", bw[4], bw[16])
	}
}

// TestBankConflictsSlowSharedMemory: a stride-8 copy (8-way
// conflicts) must deliver roughly 1/8 the conflict-free bandwidth.
func TestBankConflictsSlowSharedMemory(t *testing.T) {
	cfg := smallGPU()
	free := launchWarps(t, cfg, smemKernel(50, 1), 8)
	conf := launchWarps(t, cfg, smemKernel(50, 8), 8)
	ratio := free.SharedBandwidth() / conf.SharedBandwidth()
	if ratio < 5 || ratio > 11 {
		t.Errorf("8-way conflict slowdown = %.1fx, want ≈8x", ratio)
	}
}

// gmemKernel: each thread streams transPerThread independent
// coalesced loads — the global-memory synthetic benchmark shape.
// Loads are independent (no consumer), as in a bandwidth benchmark.
func gmemKernel(transPerThread uint32) *isa.Program {
	const unroll = 4
	b := kbuild.New("gstream")
	tid := b.Reg()
	ntid := b.Reg()
	cta := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(addr, cta, ntid, tid)
	b.ShlImm(addr, addr, 2)
	iters := transPerThread / unroll
	if iters == 0 {
		iters = 1
	}
	b.Loop(ctr, iters, func() {
		for i := 0; i < unroll; i++ {
			b.AndImm(addr, addr, (1<<22)-1)
			b.Gld(v, addr)
			b.IAddImm(addr, addr, 512*4) // stride past the warp front
		}
	})
	b.Exit()
	return b.MustProgram()
}

// TestGlobalBandwidthScaling reproduces Fig. 3's qualitative shape:
// bandwidth grows with block count and saturates below the
// theoretical peak; more transactions per thread saturate earlier.
func TestGlobalBandwidthScaling(t *testing.T) {
	cfg := gpu.GTX285()
	prog := gmemKernel(32)
	mem := barra.NewMemory(1 << 22)
	bwAt := func(blocks int) float64 {
		r, err := Run(cfg, barra.Launch{Prog: prog, Grid: blocks, Block: 128}, mem)
		if err != nil {
			t.Fatal(err)
		}
		return r.GlobalBandwidth() / 1e9
	}
	b1, b10, b60 := bwAt(1), bwAt(10), bwAt(60)
	peak := cfg.PeakGlobalBandwidth() / 1e9
	if !(b1 < b10 && b10 < b60*1.2) {
		t.Errorf("global bandwidth not rising: 1=%.1f 10=%.1f 60=%.1f", b1, b10, b60)
	}
	if b60 < 0.5*peak || b60 > peak*1.001 {
		t.Errorf("60 blocks: %.1f GB/s vs peak %.1f", b60, peak)
	}
}

// TestClusterSawtooth: 31 blocks load one cluster with an extra
// block, so 40 blocks (a multiple of 10 clusters... 40 = 4 waves of
// 10) finish disproportionately faster than 31.
func TestClusterSawtooth(t *testing.T) {
	cfg := gpu.GTX285()
	prog := gmemKernel(96)
	mem := barra.NewMemory(1 << 22)
	timeAt := func(blocks int) float64 {
		r, err := Run(cfg, barra.Launch{Prog: prog, Grid: blocks, Block: 256}, mem)
		if err != nil {
			t.Fatal(err)
		}
		return r.Seconds
	}
	t30, t31 := timeAt(30), timeAt(31)
	// One leftover block forces a second wave on one SM: the run
	// gets measurably longer even though work grew only 3%.
	if t31 < t30*1.2 {
		t.Errorf("no leftover-block penalty: 30 blocks %.3gs, 31 blocks %.3gs", t30, t31)
	}
}

// TestDominantComponent: a pure-ALU kernel is instruction-bound; a
// streaming kernel is global-bound; a conflicted shared kernel is
// shared-bound.
func TestDominantComponent(t *testing.T) {
	cfg := smallGPU()
	alu := launchWarps(t, cfg, chainKernel(isa.OpFMAD, 256), 8)
	if alu.DominantComponent() != "instruction" {
		t.Errorf("ALU kernel dominated by %s", alu.DominantComponent())
	}
	sh := launchWarps(t, cfg, smemKernel(50, 8), 8)
	if sh.DominantComponent() != "shared" {
		t.Errorf("conflicted shared kernel dominated by %s", sh.DominantComponent())
	}
	// Global dominance needs the real SM:cluster ratio (the 3-SM
	// slice keeps the full DRAM, so nothing can be memory-bound on
	// it); use the full chip with a small per-thread load count.
	mem := barra.NewMemory(1 << 22)
	r, err := Run(gpu.GTX285(), barra.Launch{Prog: gmemKernel(32), Grid: 60, Block: 128}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if r.DominantComponent() != "global" {
		t.Errorf("streaming kernel dominated by %s", r.DominantComponent())
	}
}

// TestDeterminism: identical runs give identical cycle counts.
func TestDeterminism(t *testing.T) {
	cfg := gpu.GTX285()
	prog := smemKernel(20, 2)
	l := barra.Launch{Prog: prog, Grid: 45, Block: 128}
	r1, err := Run(cfg, l, barra.NewMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, l, barra.NewMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.WarpInstrs != r2.WarpInstrs {
		t.Errorf("non-deterministic: %v vs %v cycles", r1.Cycles, r2.Cycles)
	}
}

// TestBarrierSerializesStages: with one block per SM, time with a
// barrier between two chains is at least the sum of the parts.
func TestBarrierSerializesStages(t *testing.T) {
	cfg := gpu.GTX285()
	mk := func(withBar bool) *isa.Program {
		b := kbuild.New("bar")
		x := b.Reg()
		ctr := b.Reg()
		b.MovF(x, 1)
		b.Loop(ctr, 100, func() { b.FMad(x, x, x, x) })
		if withBar {
			b.Bar()
		}
		ctr2 := b.Reg()
		b.Loop(ctr2, 100, func() { b.FMad(x, x, x, x) })
		b.Exit()
		return b.MustProgram()
	}
	mem := barra.NewMemory(1 << 12)
	rNo, err := Run(cfg, barra.Launch{Prog: mk(false), Grid: 30, Block: 64}, mem)
	if err != nil {
		t.Fatal(err)
	}
	rBar, err := Run(cfg, barra.Launch{Prog: mk(true), Grid: 30, Block: 64}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if rBar.Cycles < rNo.Cycles {
		t.Errorf("barrier made kernel faster: %v vs %v", rBar.Cycles, rNo.Cycles)
	}
}

// TestRunContextCancelled: the event loop observes a dead context
// and aborts instead of simulating to completion.
func TestRunContextCancelled(t *testing.T) {
	prog := chainKernel(isa.OpFMAD, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, gpu.GTX285(), barra.Launch{Prog: prog, Grid: 30, Block: 256}, barra.NewMemory(4096))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := gpu.GTX285()
	prog := chainKernel(isa.OpFMAD, 4)
	if _, err := Run(cfg, barra.Launch{Prog: prog, Grid: 0, Block: 32}, barra.NewMemory(64)); err == nil {
		t.Error("bad launch accepted")
	}
	if _, err := Run(cfg, barra.Launch{Prog: prog, Grid: 1, Block: 32}, nil); err == nil {
		t.Error("nil memory accepted")
	}
	bad := cfg
	bad.NumSMs = 0
	if _, err := Run(bad, barra.Launch{Prog: prog, Grid: 1, Block: 32}, barra.NewMemory(64)); err == nil {
		t.Error("invalid config accepted")
	}
	// Valid, but the warp branches past the exit and off the end.
	b := kbuild.New("falloff")
	br := b.Bra()
	b.Exit()
	b.SetTarget(br, b.Pos())
	r := b.Reg()
	b.IAddImm(r, r, 1)
	_, err := Run(cfg, barra.Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, barra.NewMemory(64))
	if err == nil || !strings.Contains(err.Error(), "pc 3 out of range") {
		t.Errorf("program running past its last instruction: got %v, want pc 3 out of range", err)
	}
}

func TestRunBudgetStopsRunaway(t *testing.T) {
	b := kbuild.New("forever")
	br := b.Bra()
	b.SetTarget(br, 0)
	b.Exit()
	_, err := RunBudget(context.Background(), gpu.GTX285(), barra.Launch{Prog: b.MustProgram(), Grid: 1, Block: 32},
		barra.NewMemory(64), 5000)
	if err == nil {
		t.Fatal("runaway kernel not stopped")
	}
}

// TestEarlyReleaseHelpsTailHeavyKernels: a kernel whose warps finish
// at very different times benefits when blocks release resources
// early (the paper's §5.2 block-scheduling improvement).
func TestEarlyReleaseHelpsTailHeavyKernels(t *testing.T) {
	// One warp runs a long chain; the other 3 exit immediately.
	b := kbuild.New("tail")
	b.SharedBytes(9000) // one block per SM
	tid := b.Reg()
	x := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ISetpImm(isa.P0, isa.CmpGE, tid, 32)
	skip := b.BraIf(isa.P0, false)
	b.MovF(x, 1)
	b.Loop(ctr, 200, func() { b.FMad(x, x, x, x) })
	end := b.Pos()
	b.SetTarget(skip, end)
	b.Exit()
	prog := b.MustProgram()

	cfg := smallGPU()
	l := barra.Launch{Prog: prog, Grid: 12, Block: 128}
	base, err := Run(cfg, l, barra.NewMemory(64))
	if err != nil {
		t.Fatal(err)
	}
	early := cfg
	early.EarlyRelease = true
	fast, err := Run(early, l, barra.NewMemory(64))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles > base.Cycles {
		t.Errorf("early release slower: %v vs %v cycles", fast.Cycles, base.Cycles)
	}
}

// TestEarlyReleaseUniformKernel: a block hands its slot to exactly one
// successor. In a kernel where every warp runs the same chain, no warp
// exits early, so EarlyRelease must leave the run time alone.
func TestEarlyReleaseUniformKernel(t *testing.T) {
	b := kbuild.New("uniform")
	b.SharedBytes(9000) // one block per SM
	x := b.Reg()
	ctr := b.Reg()
	b.MovF(x, 1)
	b.Loop(ctr, 100, func() { b.FMad(x, x, x, x) })
	b.Exit()
	l := barra.Launch{Prog: b.MustProgram(), Grid: 24, Block: 128}
	cfg := smallGPU()
	base, err := Run(cfg, l, barra.NewMemory(64))
	if err != nil {
		t.Fatal(err)
	}
	cfg.EarlyRelease = true
	early, err := Run(cfg, l, barra.NewMemory(64))
	if err != nil {
		t.Fatal(err)
	}
	if r := base.Cycles / early.Cycles; r > 1.01 || r < 0.99 {
		t.Errorf("EarlyRelease changed a uniform kernel's time %.3fx (%v vs %v cycles)", r, base.Cycles, early.Cycles)
	}
}

// TestStoreHeavyKernelAccountsBandwidth: global stores consume
// cluster bandwidth without blocking the warp.
func TestStoreHeavyKernelAccountsBandwidth(t *testing.T) {
	b := kbuild.New("stores")
	tid := b.Reg()
	ntid := b.Reg()
	cta := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(addr, cta, ntid, tid)
	b.ShlImm(addr, addr, 2)
	b.MovImm(v, 7)
	b.Loop(ctr, 16, func() {
		b.AndImm(addr, addr, (1<<20)-1)
		b.Gst(addr, v)
		b.IAddImm(addr, addr, 512*4)
	})
	b.Exit()
	r, err := Run(gpu.GTX285(), barra.Launch{Prog: b.MustProgram(), Grid: 30, Block: 128}, barra.NewMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(30 * 128 * 16 * 4) // fully coalesced
	if r.GlobalBytes != wantBytes {
		t.Errorf("store traffic %d bytes, want %d", r.GlobalBytes, wantBytes)
	}
	if r.BusyGlobal <= 0 {
		t.Error("stores consumed no global bandwidth")
	}
}

// TestDispatchRefill: with more blocks than resident slots, all
// blocks complete and later blocks extend the runtime roughly
// linearly.
func TestDispatchRefill(t *testing.T) {
	cfg := smallGPU()
	prog := chainKernel(isa.OpFMAD, 128)
	timeFor := func(grid int) float64 {
		r, err := Run(cfg, barra.Launch{Prog: prog, Grid: grid, Block: 512}, barra.NewMemory(64))
		if err != nil {
			t.Fatal(err)
		}
		if got := int(r.WarpInstrs) / 16 / 130; got != grid {
			t.Fatalf("grid %d: executed %d block-equivalents", grid, got)
		}
		return r.Seconds
	}
	// Block = 512 threads → occupancy 2 blocks/SM on 3 SMs = 6
	// resident; 18 blocks = 3 sequential waves.
	oneWave := timeFor(6)
	threeWaves := timeFor(18)
	if threeWaves < 2.4*oneWave || threeWaves > 3.6*oneWave {
		t.Errorf("3 waves took %.3gx one wave, want ≈3x", threeWaves/oneWave)
	}
}

// TestSmemOperandTiming: MAD with a shared-memory operand charges
// the shared pipeline (BusyShared > 0) even with no explicit loads.
func TestSmemOperandTiming(t *testing.T) {
	b := kbuild.New("smemop")
	b.SharedBytes(64)
	x := b.Reg()
	addr := b.Reg()
	b.MovF(x, 2)
	b.MovImm(addr, 0)
	b.Sst(addr, x)
	for i := 0; i < 32; i++ {
		b.FMadS(x, x, 0, x)
	}
	b.Exit()
	r, err := Run(smallGPU(), barra.Launch{Prog: b.MustProgram(), Grid: 3, Block: 64}, barra.NewMemory(64))
	if err != nil {
		t.Fatal(err)
	}
	// 1 store + 32 operand reads per warp, 2 half-warps each.
	if r.BusyShared < float64(3*2*33*2*2)*0.9 {
		t.Errorf("BusyShared = %v, want ≈%v", r.BusyShared, 3*2*33*2*2)
	}
}

func TestUtilizationAndReport(t *testing.T) {
	r := launchWarps(t, smallGPU(), chainKernel(isa.OpFMAD, 256), 8)
	i, s, g := r.Utilization()
	if i < 0.5 || i > 1.0 {
		t.Errorf("ALU utilization = %v, want high", i)
	}
	if s != 0 || g != 0 {
		t.Errorf("memory utilization nonzero for pure-ALU kernel: %v %v", s, g)
	}
	rep := r.Report()
	for _, want := range []string{"time", "utilization", "instruction-dominated", "occupancy"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	var zero Result
	if i, s, g := zero.Utilization(); i != 0 || s != 0 || g != 0 {
		t.Error("zero result has nonzero utilization")
	}
}
