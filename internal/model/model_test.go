package model

import (
	"strings"
	"sync"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/device"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
	"gpuperf/internal/microbench"
	"gpuperf/internal/timing"
)

var (
	calMu   sync.Mutex
	calMemo *timing.Calibration
)

func cal(t *testing.T) *timing.Calibration {
	t.Helper()
	calMu.Lock()
	defer calMu.Unlock()
	if calMemo == nil {
		c, err := timing.Calibrate(gpu.GTX285())
		if err != nil {
			t.Fatal(err)
		}
		calMemo = c
	}
	return calMemo
}

// aluKernel is a dense FMAD kernel (instruction-bound).
func aluKernel(t *testing.T) *isa.Program {
	t.Helper()
	p, err := microbench.InstrChain(isa.OpFMAD, 256)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// conflictedSharedKernel copies shared memory at stride 8 (8-way
// conflicts, shared-bound).
func conflictedSharedKernel(t *testing.T) *isa.Program {
	t.Helper()
	p, err := microbench.SharedCopy(24, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// streamKernel loads global memory (global-bound).
func streamKernel(t *testing.T, threads int) *isa.Program {
	t.Helper()
	p, err := microbench.GlobalStream(32, threads, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runStats executes the launch functionally and returns its stats.
func runStats(t *testing.T, c *timing.Calibration, l barra.Launch, memBytes int) *barra.Stats {
	t.Helper()
	stats, err := barra.Run(c.Config(), l, barra.NewMemory(memBytes), nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// predict runs the launch functionally on fresh memory, then the
// model — the paper's Fig. 1 workflow in one call.
func predict(t *testing.T, c *timing.Calibration, l barra.Launch, memBytes int) *Estimate {
	t.Helper()
	est, err := Analyze(c, l, runStats(t, c, l, memBytes))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// predictAndMeasure runs the full workflow plus the device
// simulator and returns both.
func predictAndMeasure(t *testing.T, c *timing.Calibration, l barra.Launch, memBytes int) (*Estimate, device.Result) {
	t.Helper()
	est := predict(t, c, l, memBytes)
	meas, err := device.Run(c.Config(), l, barra.NewMemory(memBytes))
	if err != nil {
		t.Fatal(err)
	}
	return est, meas
}

// TestBottleneckIdentification: the model's bottleneck verdict must
// match the device simulator's observed dominant component on three
// archetypal kernels.
func TestBottleneckIdentification(t *testing.T) {
	c := cal(t)
	cases := []struct {
		name string
		l    barra.Launch
		mem  int
		want Component
	}{
		{"alu", barra.Launch{Prog: aluKernel(t), Grid: 60, Block: 256}, 4096, CompInstruction},
		{"shared", barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}, 4096, CompShared},
		{"global", barra.Launch{Prog: streamKernel(t, 60*128), Grid: 60, Block: 128}, 1 << 22, CompGlobal},
	}
	for _, cse := range cases {
		est, meas := predictAndMeasure(t, c, cse.l, cse.mem)
		if est.Bottleneck != cse.want {
			t.Errorf("%s: model bottleneck = %s, want %s (components %v)", cse.name, est.Bottleneck, cse.want, est.Component)
		}
		wantObserved := map[Component]string{
			CompInstruction: "instruction", CompShared: "shared", CompGlobal: "global",
		}[cse.want]
		if got := meas.DominantComponent(); got != wantObserved {
			t.Errorf("%s: device dominant = %s, want %s", cse.name, got, wantObserved)
		}
	}
}

// TestPredictionAccuracy: the paper claims 5-15%; we assert the
// model's total-time prediction is within 25% of the device
// simulator on the three archetypes (our bar allows for the
// simulator's latency tails that the throughput model ignores).
func TestPredictionAccuracy(t *testing.T) {
	c := cal(t)
	cases := []struct {
		name string
		l    barra.Launch
		mem  int
	}{
		{"alu", barra.Launch{Prog: aluKernel(t), Grid: 60, Block: 256}, 4096},
		{"shared", barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}, 4096},
		{"global", barra.Launch{Prog: streamKernel(t, 60*128), Grid: 60, Block: 128}, 1 << 22},
	}
	for _, cse := range cases {
		est, meas := predictAndMeasure(t, c, cse.l, cse.mem)
		if err := est.CompareError(meas.Seconds); err > 0.25 {
			t.Errorf("%s: prediction %.4g ms vs measured %.4g ms (%.0f%% error)",
				cse.name, est.TotalSeconds*1e3, meas.Seconds*1e3, err*100)
		}
	}
}

// TestStageSerialization: a one-block-per-SM kernel with a barrier
// between a shared phase and an ALU phase must be analyzed as
// serialized stages with different bottlenecks.
func TestStageSerialization(t *testing.T) {
	c := cal(t)
	b := kbuild.New("twophase")
	b.SharedBytes(16 * 1024) // force one block per SM
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	x := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 5) // stride 8 words: 8-way conflicts
	b.AndImm(addr, addr, 4095)
	b.Loop(ctr, 40, func() {
		b.Sld(v, addr)
		b.Sst(addr, v)
	})
	b.Bar()
	b.MovF(x, 1)
	for i := 0; i < 300; i++ {
		b.FMad(x, x, x, x)
	}
	b.Exit()
	l := barra.Launch{Prog: b.MustProgram(), Grid: 30, Block: 128}
	est := predict(t, c, l, 4096)
	if !est.Serialized {
		t.Fatal("16 KB block not serialized (should be one block/SM)")
	}
	if len(est.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(est.Stages))
	}
	if est.Stages[0].Bottleneck != CompShared {
		t.Errorf("stage 0 bottleneck = %s, want shared", est.Stages[0].Bottleneck)
	}
	if est.Stages[1].Bottleneck != CompInstruction {
		t.Errorf("stage 1 bottleneck = %s, want instruction", est.Stages[1].Bottleneck)
	}
	// Serialized total = sum of stage maxima.
	want := est.Stages[0].Times.Max() + est.Stages[1].Times.Max()
	if est.TotalSeconds != want {
		t.Errorf("serialized total %.4g != sum of stage maxima %.4g", est.TotalSeconds, want)
	}
}

// TestOverlappedTotal: with multiple resident blocks the total is
// the whole-program bottleneck component, not the stage sum.
func TestOverlappedTotal(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: aluKernel(t), Grid: 60, Block: 256}
	est := predict(t, c, l, 4096)
	if est.Serialized {
		t.Fatal("small kernel serialized unexpectedly")
	}
	if est.TotalSeconds != est.Component.Max() {
		t.Errorf("overlapped total %v != component max %v", est.TotalSeconds, est.Component.Max())
	}
}

// TestDiagnostics: density, conflicts and causes surface correctly.
func TestDiagnostics(t *testing.T) {
	c := cal(t)
	// Conflicted shared kernel: factor ≈ 8, shared-bound.
	l := barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}
	est := predict(t, c, l, 4096)
	if est.BankConflictFactor < 7 || est.BankConflictFactor > 9 {
		t.Errorf("conflict factor = %.2f, want ≈8", est.BankConflictFactor)
	}
	causes := strings.Join(est.Causes(), "; ")
	if !strings.Contains(causes, "bank conflicts") {
		t.Errorf("causes missing bank conflicts: %s", causes)
	}

	// Dense ALU kernel: high density.
	l2 := barra.Launch{Prog: aluKernel(t), Grid: 60, Block: 256}
	est2 := predict(t, c, l2, 4096)
	if est2.Density < 0.9 {
		t.Errorf("FMAD chain density = %.2f, want ≈1", est2.Density)
	}
}

// TestWarpDeration: a kernel whose second stage idles 3 of 4 warps
// must see reduced stage parallelism (the CR mechanism).
func TestWarpDeration(t *testing.T) {
	c := cal(t)
	b := kbuild.New("shrink")
	b.SharedBytes(16 * 1024) // one block per SM
	tid := b.Reg()
	x := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.MovF(x, 1)
	b.Loop(ctr, 16, func() { b.FMad(x, x, x, x) })
	b.Bar()
	// Stage 1: only warp 0 works (tid < 32 predicated ALU).
	b.ISetpImm(isa.P0, isa.CmpGE, tid, 32)
	skip := b.BraIf(isa.P0, false)
	ctr2 := b.Reg()
	b.Loop(ctr2, 16, func() { b.FMad(x, x, x, x) })
	end := b.Pos()
	b.SetTarget(skip, end)
	b.Exit()
	l := barra.Launch{Prog: b.MustProgram(), Grid: 30, Block: 128}
	est := predict(t, c, l, 4096)
	if len(est.Stages) != 2 {
		t.Fatalf("stages = %d", len(est.Stages))
	}
	if est.Stages[0].Warps != 4 {
		t.Errorf("stage 0 warps = %d, want 4", est.Stages[0].Warps)
	}
	if est.Stages[1].Warps != 1 {
		t.Errorf("stage 1 warps = %d, want 1", est.Stages[1].Warps)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: aluKernel(t), Grid: 1, Block: 32}
	if _, err := Analyze(nil, l, &barra.Stats{}); err == nil {
		t.Error("nil calibration accepted")
	}
	if _, err := Analyze(c, l, nil); err == nil {
		t.Error("nil stats accepted")
	}
	if _, err := Analyze(c, barra.Launch{Prog: nil, Grid: 1, Block: 32}, &barra.Stats{}); err == nil {
		t.Error("nil program accepted")
	}
}

func TestTimesHelpers(t *testing.T) {
	tm := Times{1, 3, 2}
	if tm.Bottleneck() != CompShared || tm.Second() != CompGlobal || tm.Max() != 3 {
		t.Errorf("helpers wrong: %v %v %v", tm.Bottleneck(), tm.Second(), tm.Max())
	}
	tm2 := Times{5, 0, 0}
	if tm2.Bottleneck() != CompInstruction || tm2.Second() != CompShared {
		t.Errorf("degenerate helpers wrong")
	}
	tm.Add(tm2)
	if tm[CompInstruction] != 6 {
		t.Errorf("Add wrong: %v", tm)
	}
	if CompGlobal.String() != "global memory" || Component(9).String() == "" {
		t.Error("String() wrong")
	}
	if (&Estimate{TotalSeconds: 2}).GFLOPS(4e9) != 2 {
		t.Error("GFLOPS wrong")
	}
	e := &Estimate{TotalSeconds: 1.1}
	if err := e.CompareError(1.0); err < 0.099 || err > 0.101 {
		t.Errorf("CompareError = %v", err)
	}
}

// TestOverlapBracket: the device-simulator time must fall inside the
// model's [overlapped, fully-serial] prediction interval on all
// three archetypes — the paper's future-work item 4 expressed as a
// testable bound.
func TestOverlapBracket(t *testing.T) {
	c := cal(t)
	cases := []struct {
		name string
		l    barra.Launch
		mem  int
	}{
		{"alu", barra.Launch{Prog: aluKernel(t), Grid: 60, Block: 256}, 4096},
		{"shared", barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}, 4096},
		{"global", barra.Launch{Prog: streamKernel(t, 60*128), Grid: 60, Block: 128}, 1 << 22},
	}
	for _, cse := range cases {
		est, meas := predictAndMeasure(t, c, cse.l, cse.mem)
		if est.UpperBoundSeconds < est.TotalSeconds {
			t.Fatalf("%s: upper bound below prediction", cse.name)
		}
		lo, hi := est.TotalSeconds*0.75, est.UpperBoundSeconds*1.25
		if meas.Seconds < lo || meas.Seconds > hi {
			t.Errorf("%s: measured %.4g ms outside [%.4g, %.4g]",
				cse.name, meas.Seconds*1e3, lo*1e3, hi*1e3)
		}
	}
}

// --- Counterfactual overrides (AnalyzeWith) ---

// divergentKernel splits every warp into odd/even paths that each run
// their own FMAD chain — half the lanes idle through each side.
func divergentKernel(t *testing.T) *isa.Program {
	t.Helper()
	b := kbuild.New("divergent")
	tid, v, acc := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.MovImm(acc, 0)
	b.AndImm(v, tid, 1)
	b.ISetpImm(isa.P0, isa.CmpNE, v, 0)
	br := b.BraIf(isa.P0, false)
	for i := 0; i < 64; i++ { // even lanes
		b.FMad(acc, acc, acc, acc)
	}
	join := b.Bra()
	b.SetTarget(br, b.Pos())
	for i := 0; i < 64; i++ { // odd lanes
		b.FMad(acc, acc, acc, acc)
	}
	b.SetTarget(join, b.Pos())
	b.Exit()
	return b.MustProgram()
}

// stridedGlobalKernel loads global words at a two-word lane stride,
// so every transaction carries 50% useful bytes.
func stridedGlobalKernel(t *testing.T) *isa.Program {
	t.Helper()
	b := kbuild.New("strided-global")
	tid, ntid, cta, flat, addr, v := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)
	b.ShlImm(addr, flat, 3) // ×8: two-word stride
	for i := uint32(0); i < 16; i++ {
		b.GldOff(v, addr, i*4096)
	}
	b.Exit()
	return b.MustProgram()
}

// TestAnalyzeWithZeroMatchesAnalyze: the zero Overrides reproduce the
// factual analysis bit for bit.
func TestAnalyzeWithZeroMatchesAnalyze(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}
	stats := runStats(t, c, l, 4096)
	plain, err := Analyze(c, l, stats)
	if err != nil {
		t.Fatal(err)
	}
	with, err := AnalyzeWith(c, l, stats, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalSeconds != with.TotalSeconds || plain.Component != with.Component {
		t.Errorf("zero overrides drifted: %+v vs %+v", plain.Component, with.Component)
	}
}

// TestConflictFreeSharedOverride: removing bank conflicts shrinks the
// shared component by the measured conflict factor.
func TestConflictFreeSharedOverride(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}
	stats := runStats(t, c, l, 4096)
	factor := stats.BankConflictFactor()
	if factor < 2 {
		t.Fatalf("conflicted kernel has factor %.2f, want ≥ 2", factor)
	}
	base, err := Analyze(c, l, stats)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := AnalyzeWith(c, l, stats, Overrides{ConflictFreeShared: true})
	if err != nil {
		t.Fatal(err)
	}
	got := base.Component[CompShared] / ideal.Component[CompShared]
	if got < factor*0.95 || got > factor*1.05 {
		t.Errorf("shared time shrank %.2fx, want the conflict factor %.2fx", got, factor)
	}
	if ideal.Component[CompInstruction] != base.Component[CompInstruction] {
		t.Error("conflict-free override leaked into the instruction component")
	}
}

// TestPerfectCoalescingOverride: a half-useful access pattern halves
// its global component under perfect coalescing.
func TestPerfectCoalescingOverride(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: stridedGlobalKernel(t), Grid: 60, Block: 128}
	stats := runStats(t, c, l, 1<<20)
	eff := stats.CoalescingEfficiency()
	if eff > 0.6 {
		t.Fatalf("strided kernel coalesces at %.2f, want ≤ 0.6", eff)
	}
	base, err := Analyze(c, l, stats)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := AnalyzeWith(c, l, stats, Overrides{PerfectCoalescing: true})
	if err != nil {
		t.Fatal(err)
	}
	got := ideal.Component[CompGlobal] / base.Component[CompGlobal]
	if got < eff*0.95 || got > eff*1.05 {
		t.Errorf("global time scaled %.2fx, want the coalescing efficiency %.2f", got, eff)
	}
}

// TestNoDivergenceOverride: packing the two half-empty paths of a
// divergent kernel roughly halves its diverged instruction work.
func TestNoDivergenceOverride(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: divergentKernel(t), Grid: 60, Block: 256}
	stats := runStats(t, c, l, 4096)
	if stats.Total.DivergentInstrs() == 0 {
		t.Fatal("kernel did not diverge")
	}
	if over := stats.DivergenceOverhead(); over < 0.2 {
		t.Fatalf("divergence overhead %.2f, want ≥ 0.2", over)
	}
	base, err := Analyze(c, l, stats)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := AnalyzeWith(c, l, stats, Overrides{NoDivergence: true})
	if err != nil {
		t.Fatal(err)
	}
	got := ideal.Component[CompInstruction] / base.Component[CompInstruction]
	want := 1 - stats.DivergenceOverhead()
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("instruction time scaled %.2fx, want ≈ %.2fx (1 − overhead)", got, want)
	}
}

// TestResidentBlocksOverride: forcing occupancy down to one resident
// block serializes the stages; forcing it up raises the assumed
// warp-level parallelism but never past the architectural ceilings.
func TestResidentBlocksOverride(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}
	stats := runStats(t, c, l, 4096)
	one, err := AnalyzeWith(c, l, stats, Overrides{ResidentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Occupancy.Blocks != 1 || !one.Serialized {
		t.Errorf("ResidentBlocks=1: got %d blocks, serialized=%v", one.Occupancy.Blocks, one.Serialized)
	}
	big, err := AnalyzeWith(c, l, stats, Overrides{ResidentBlocks: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if w := big.Occupancy.ActiveWarps; w > cfg.MaxWarpsPerSM {
		t.Errorf("override exceeded the warp ceiling: %d > %d", w, cfg.MaxWarpsPerSM)
	}
	if big.Occupancy.Blocks*l.Block > cfg.MaxThreadsPerSM {
		t.Errorf("override exceeded the thread ceiling: %d blocks × %d threads", big.Occupancy.Blocks, l.Block)
	}
}

// TestOverlappedEstimate: a serialized estimate recombined with its
// stages overlapped takes the whole-program bottleneck, never more
// than the staged sum, and keeps every component time.
func TestOverlappedEstimate(t *testing.T) {
	c := cal(t)
	l := barra.Launch{Prog: conflictedSharedKernel(t), Grid: 60, Block: 256}
	stats := runStats(t, c, l, 4096)
	serial, err := AnalyzeWith(c, l, stats, Overrides{ResidentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	overlap := serial.Overlapped()
	if !serial.Serialized || overlap.Serialized {
		t.Errorf("serialized %v, recombined %v; want true, false", serial.Serialized, overlap.Serialized)
	}
	if overlap.TotalSeconds > serial.TotalSeconds {
		t.Errorf("ideal overlap %.4g ms exceeds the serialized %.4g ms",
			overlap.TotalSeconds*1e3, serial.TotalSeconds*1e3)
	}
	if overlap.TotalSeconds != overlap.Component.Max() {
		t.Errorf("ideal overlap should be the component max")
	}
	if overlap.Component != serial.Component || overlap.UpperBoundSeconds != serial.UpperBoundSeconds {
		t.Errorf("recombination moved the component times or the upper bound")
	}
}
