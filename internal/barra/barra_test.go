package barra

import (
	"math"
	"testing"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

func cfg() gpu.Config { return gpu.GTX285() }

// scaleKernel: out[i] = in[i]*2 + 1 for i < n, one thread per element.
func scaleKernel(t *testing.T, inBase, outBase, n uint32) *isa.Program {
	t.Helper()
	b := kbuild.New("scale")
	tid := b.Reg()
	flat := b.Reg()
	addr := b.Reg()
	x := b.Reg()
	two := b.Reg()
	one := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(flat, isa.SRCtaid)
	b.IMulImm(flat, flat, 0) // placeholder; recompute below
	b.S2R(flat, isa.SRCtaid)
	ntid := b.Reg()
	b.S2R(ntid, isa.SRNtid)
	b.IMad(flat, flat, ntid, tid)
	b.ISetpImm(isa.P0, isa.CmpLT, flat, n)
	b.MovF(two, 2)
	b.MovF(one, 1)
	b.ShlImm(addr, flat, 2)
	b.IAddImm(addr, addr, inBase)
	ld := b.Pos()
	b.Gld(x, addr)
	b.Guarded(ld, isa.P0, false)
	b.FMad(x, x, two, one)
	b.ShlImm(addr, flat, 2)
	b.IAddImm(addr, addr, outBase)
	stIdx := b.Pos()
	b.Gst(addr, x)
	b.Guarded(stIdx, isa.P0, false)
	b.Exit()
	return b.MustProgram()
}

func TestFunctionalCorrectness(t *testing.T) {
	const n = 1000 // deliberately not a multiple of the block size
	mem := NewMemory(1 << 16)
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i) * 0.25
	}
	inBase, outBase := uint32(0), uint32(4096*4)
	if err := mem.WriteFloats(inBase, in); err != nil {
		t.Fatal(err)
	}
	prog := scaleKernel(t, inBase, outBase, n)
	stats, err := Run(cfg(), Launch{Prog: prog, Grid: 8, Block: 128}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mem.ReadFloats(outBase, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		want := in[i]*2 + 1
		if got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	// 1024 threads launched, 1000 active: useful bytes = 1000·4 per
	// direction.
	if stats.Total.GlobalUsefulBytes != 2*1000*4 {
		t.Errorf("useful bytes = %d", stats.Total.GlobalUsefulBytes)
	}
	// Sequential access is perfectly coalesced.
	if e := stats.CoalescingEfficiency(); e < 0.95 {
		t.Errorf("coalescing efficiency = %v", e)
	}
	if stats.Total.FMADs != int64(8*128/32) {
		t.Errorf("FMAD warp instructions = %d", stats.Total.FMADs)
	}
}

func TestSpecialRegisters(t *testing.T) {
	// Store every special register's value and check lane 37 of
	// block 2 (warp 1, lane 5).
	b := kbuild.New("sregs")
	v := b.Reg()
	addr := b.Reg()
	flat := b.Reg()
	ntid := b.Reg()
	tid := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(flat, isa.SRCtaid)
	b.IMad(flat, flat, ntid, tid)
	b.ShlImm(addr, flat, 2)
	b.S2R(v, isa.SRWarp)
	b.IMulImm(v, v, 1000)
	lane := b.Reg()
	b.S2R(lane, isa.SRLane)
	b.IAdd(v, v, lane)
	b.Gst(addr, v)
	b.Exit()
	mem := NewMemory(1 << 12)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 3, Block: 64}, mem, nil); err != nil {
		t.Fatal(err)
	}
	// Global thread 2*64+37 = 165; warp within block = 1, lane 5.
	got, err := mem.Load32(165 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1005 {
		t.Errorf("thread 165 wrote %d, want 1005", got)
	}
}

// TestBarrierStages: a kernel with two barriers has three stages and
// shared-memory communication across warps works.
func TestBarrierStages(t *testing.T) {
	b := kbuild.New("stages")
	b.SharedBytes(256 * 4)
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	rev := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 2)
	b.Mov(v, tid)
	b.Sst(addr, v) // shared[tid] = tid
	b.Bar()
	// v = shared[255 - tid]
	b.MovImm(rev, 255)
	b.ISub(rev, rev, tid)
	b.ShlImm(rev, rev, 2)
	b.Sld(v, rev)
	b.Bar()
	b.Gst(addr, v)
	b.Exit()
	mem := NewMemory(4096)
	stats, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 256}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Barriers != 2 || len(stats.Stages) != 3 {
		t.Fatalf("barriers=%d stages=%d", stats.Barriers, len(stats.Stages))
	}
	got, err := mem.Load32(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 255 {
		t.Errorf("thread 0 read %d, want 255", got)
	}
	// Stage 0 has the store, stage 1 the load, stage 2 neither.
	if stats.Stages[0].SharedAccesses != 8 || stats.Stages[1].SharedAccesses != 8 {
		t.Errorf("shared accesses per stage: %d, %d",
			stats.Stages[0].SharedAccesses, stats.Stages[1].SharedAccesses)
	}
	if stats.Stages[2].SharedAccesses != 0 {
		t.Errorf("stage 2 has shared accesses")
	}
	// Unit-stride shared access: conflict-free (factor 1.0).
	if f := stats.BankConflictFactor(); f != 1.0 {
		t.Errorf("conflict factor = %v", f)
	}
}

// TestBankConflictCounting: stride-2 shared reads are 2-way
// conflicted, doubling transactions versus the conflict-free count.
func TestBankConflictCounting(t *testing.T) {
	b := kbuild.New("stride2")
	b.SharedBytes(64 * 2 * 4)
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 3) // tid*8: stride 2 words
	b.Sld(v, addr)
	b.Gst(addr, v)
	b.Exit()
	mem := NewMemory(4096)
	stats, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 64}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.BankConflictFactor(); f != 2.0 {
		t.Errorf("stride-2 conflict factor = %v, want 2", f)
	}
}

// TestCoalescingGranularities: scattered accesses tallied at 32- and
// 16-byte granularity move half the bytes at the finer size.
func TestCoalescingGranularities(t *testing.T) {
	b := kbuild.New("scatter")
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 7) // tid*128: one segment each
	b.Gld(v, addr)
	b.Exit()
	mem := NewMemory(1 << 13)
	stats, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem,
		&Options{ExtraSegments: []int{16, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GlobalAt[32].Bytes != 32*32 {
		t.Errorf("32B granularity moved %d bytes", stats.GlobalAt[32].Bytes)
	}
	if stats.GlobalAt[16].Bytes != 32*16 {
		t.Errorf("16B granularity moved %d bytes", stats.GlobalAt[16].Bytes)
	}
	if stats.GlobalAt[4].Bytes != 32*4 {
		t.Errorf("4B granularity moved %d bytes", stats.GlobalAt[4].Bytes)
	}
}

func TestRegionAttribution(t *testing.T) {
	b := kbuild.New("regions")
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 2)
	b.Gld(v, addr) // region A: [0, 256)
	b.IAddImm(addr, addr, 1024)
	b.Gld(v, addr) // region B: [1024, 1280)
	b.Exit()
	mem := NewMemory(4096)
	stats, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem,
		&Options{Regions: []Region{{Name: "A", Lo: 0, Hi: 512}, {Name: "B", Lo: 1024, Hi: 2048}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RegionUseful["A"] != 128 || stats.RegionUseful["B"] != 128 {
		t.Errorf("region useful bytes: %v", stats.RegionUseful)
	}
	if stats.RegionTraffic["A"][32].Bytes != 128 || stats.RegionTraffic["B"][32].Bytes != 128 {
		t.Errorf("region traffic: %v", stats.RegionTraffic)
	}
}

// TestDivergentForwardBranch: lanes split by an if/else over a
// forward branch must reconverge with correct per-lane results.
func TestDivergentForwardBranch(t *testing.T) {
	// out[tid] = tid < 7 ? tid*10 : tid+100, via real branches.
	b := kbuild.New("diverge")
	tid := b.Reg()
	v := b.Reg()
	addr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ISetpImm(isa.P0, isa.CmpLT, tid, 7)
	toThen := b.BraIf(isa.P0, false) // taken lanes park until 'then'
	// else path (P0 false lanes):
	b.IAddImm(v, tid, 100)
	toEnd := b.Bra()
	thenPC := b.Pos()
	b.SetTarget(toThen, thenPC)
	b.IMulImm(v, tid, 10)
	endPC := b.Pos()
	b.SetTarget(toEnd, endPC)
	b.ShlImm(addr, tid, 2)
	b.Gst(addr, v)
	b.Exit()
	mem := NewMemory(256)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem, nil); err != nil {
		t.Fatal(err)
	}
	for tidv := 0; tidv < 32; tidv++ {
		got, err := mem.Load32(uint32(tidv * 4))
		if err != nil {
			t.Fatal(err)
		}
		want := uint32(tidv + 100)
		if tidv < 7 {
			want = uint32(tidv * 10)
		}
		if got != want {
			t.Errorf("out[%d] = %d, want %d", tidv, got, want)
		}
	}
}

// TestNestedDivergence: an inner divergent branch inside a divergent
// region reconverges correctly (stacked masks).
func TestNestedDivergence(t *testing.T) {
	// if tid < 16 { if tid < 4 { v=1 } else { v=2 } } else { v=3 }
	b := kbuild.New("nested")
	tid := b.Reg()
	v := b.Reg()
	addr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.MovImm(v, 3)
	b.ISetpImm(isa.P0, isa.CmpGE, tid, 16)
	skipOuter := b.BraIf(isa.P0, false)
	// outer then: tid < 16
	b.MovImm(v, 2)
	b.ISetpImm(isa.P1, isa.CmpGE, tid, 4)
	skipInner := b.BraIf(isa.P1, false)
	b.MovImm(v, 1) // tid < 4
	inner := b.Pos()
	b.SetTarget(skipInner, inner)
	outer := b.Pos()
	b.SetTarget(skipOuter, outer)
	b.ShlImm(addr, tid, 2)
	b.Gst(addr, v)
	b.Exit()
	mem := NewMemory(256)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem, nil); err != nil {
		t.Fatal(err)
	}
	for tidv := 0; tidv < 32; tidv++ {
		got, _ := mem.Load32(uint32(tidv * 4))
		want := uint32(3)
		switch {
		case tidv < 4:
			want = 1
		case tidv < 16:
			want = 2
		}
		if got != want {
			t.Errorf("out[%d] = %d, want %d", tidv, got, want)
		}
	}
}

// TestDivergentBackwardBranchRejected: per-lane loop trip counts via
// a backward branch remain unsupported (use predication).
func TestDivergentBackwardBranchRejected(t *testing.T) {
	b := kbuild.New("divloop")
	tid := b.Reg()
	ctr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.MovImm(ctr, 0)
	top := b.Pos()
	b.IAddImm(ctr, ctr, 1)
	b.ISetp(isa.P0, isa.CmpLT, ctr, tid) // per-lane trip count
	br := b.BraIf(isa.P0, false)
	b.SetTarget(br, top)
	b.Exit()
	mem := NewMemory(64)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem, nil); err == nil {
		t.Fatal("divergent backward branch accepted")
	}
}

// TestBarrierInDivergenceRejected: __syncthreads inside a divergent
// region is undefined behaviour on hardware and an error here.
func TestBarrierInDivergenceRejected(t *testing.T) {
	b := kbuild.New("divbar")
	tid := b.Reg()
	v := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ISetpImm(isa.P0, isa.CmpLT, tid, 7)
	br := b.BraIf(isa.P0, false)
	b.Bar() // executed only by the non-taking lanes: diverged
	b.MovImm(v, 1)
	end := b.Pos()
	b.SetTarget(br, end)
	b.Exit()
	mem := NewMemory(64)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem, nil); err == nil {
		t.Fatal("barrier inside divergence accepted")
	}
}

func TestUniformPerWarpBranchOK(t *testing.T) {
	// Warp-uniform condition (tid < 32) diverges across warps but
	// not within one: must run.
	b := kbuild.New("warpuniform")
	tid := b.Reg()
	addr := b.Reg()
	one := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.MovImm(one, 1)
	b.ISetpImm(isa.P0, isa.CmpGE, tid, 32)
	skip := b.BraIf(isa.P0, false)
	b.ShlImm(addr, tid, 2)
	b.Gst(addr, one)
	end := b.Pos()
	b.SetTarget(skip, end)
	b.Exit()
	mem := NewMemory(1024)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 64}, mem, nil); err != nil {
		t.Fatal(err)
	}
	v31, _ := mem.Load32(31 * 4)
	v32, _ := mem.Load32(32 * 4)
	if v31 != 1 || v32 != 0 {
		t.Errorf("guarded store wrong: v31=%d v32=%d", v31, v32)
	}
}

func TestLoopExecution(t *testing.T) {
	// acc = sum of 1..10 per thread via a counted loop.
	b := kbuild.New("loop")
	tid := b.Reg()
	acc := b.Reg()
	ctr := b.Reg()
	addr := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.MovImm(acc, 0)
	b.Loop(ctr, 10, func() {
		b.IAddImm(acc, acc, 1)
		b.IAdd(acc, acc, ctr)
	})
	b.ShlImm(addr, tid, 2)
	b.Gst(addr, acc)
	b.Exit()
	mem := NewMemory(256)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := mem.Load32(0)
	if got != 55 { // 10 + (0+1+...+9)
		t.Errorf("loop sum = %d, want 55", got)
	}
}

func TestTranscendentalsAndDouble(t *testing.T) {
	b := kbuild.New("funcs")
	x := b.Reg()
	s := b.Reg()
	r := b.Reg()
	addr := b.Reg()
	b.MovF(x, 2.0)
	b.Unary(isa.OpSIN, s, x)
	b.Rcp(r, x)
	b.MovImm(addr, 0)
	b.Gst(addr, s)
	b.MovImm(addr, 4)
	b.Gst(addr, r)
	dlo := b.RegPair()
	dres := b.RegPair()
	b.MovImm(dlo, 0)
	b.MovImm(dlo+1, 0x40000000) // float64(2.0)
	b.MovImm(dres, 0)
	b.MovImm(dres+1, 0x3ff00000) // float64(1.0)
	b.DFma(dres, dlo, dlo, dres) // 2*2+1 = 5
	b.MovImm(addr, 8)
	b.Gst(addr, dres)
	b.MovImm(addr, 12)
	b.Gst(addr, dres+1)
	b.Exit()
	mem := NewMemory(64)
	stats, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 1}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv, _ := mem.Float32(0)
	if math.Abs(float64(sv)-math.Sin(2)) > 1e-6 {
		t.Errorf("sin(2) = %v", sv)
	}
	rv, _ := mem.Float32(4)
	if rv != 0.5 {
		t.Errorf("rcp(2) = %v", rv)
	}
	lo, _ := mem.Load32(8)
	hi, _ := mem.Load32(12)
	d := math.Float64frombits(uint64(hi)<<32 | uint64(lo))
	if d != 5.0 {
		t.Errorf("dfma = %v, want 5", d)
	}
	if stats.Total.ByClass[isa.ClassIII] != 2 || stats.Total.ByClass[isa.ClassIV] != 1 {
		t.Errorf("class counts: %v", stats.Total.ByClass)
	}
}

func TestMemoryBoundsErrors(t *testing.T) {
	mem := NewMemory(64)
	if _, err := mem.Load32(64); err == nil {
		t.Error("OOB load accepted")
	}
	if err := mem.Store32(2, 1); err == nil {
		t.Error("unaligned store accepted")
	}

	b := kbuild.New("oob")
	addr := b.Reg()
	v := b.Reg()
	b.MovImm(addr, 1<<20)
	b.Gld(v, addr)
	b.Exit()
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem, nil); err == nil {
		t.Error("kernel OOB access accepted")
	}

	s := kbuild.New("soob")
	s.SharedBytes(16)
	saddr := s.Reg()
	sv := s.Reg()
	s.MovImm(saddr, 64)
	s.Sld(sv, saddr)
	s.Exit()
	if _, err := Run(cfg(), Launch{Prog: s.MustProgram(), Grid: 1, Block: 32}, NewMemory(64), nil); err == nil {
		t.Error("shared OOB accepted")
	}
}

func TestLaunchValidation(t *testing.T) {
	p := scaleKernel(t, 0, 0, 1)
	mem := NewMemory(64)
	bad := []Launch{
		{Prog: nil, Grid: 1, Block: 1},
		{Prog: p, Grid: 0, Block: 32},
		{Prog: p, Grid: 1, Block: 0},
		{Prog: p, Grid: 1, Block: 4096},
	}
	for i, l := range bad {
		if _, err := Run(cfg(), l, mem, nil); err == nil {
			t.Errorf("launch %d accepted", i)
		}
	}
	if _, err := Run(cfg(), Launch{Prog: p, Grid: 1, Block: 32}, nil, nil); err == nil {
		t.Error("nil memory accepted")
	}
}

func TestInstructionBudget(t *testing.T) {
	b := kbuild.New("forever")
	br := b.Bra()
	b.SetTarget(br, 0)
	b.Exit()
	mem := NewMemory(64)
	_, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 32}, mem,
		&Options{MaxWarpInstructions: 1000})
	if err == nil {
		t.Fatal("infinite loop not stopped")
	}
}

func TestIrregularBarrierDeadlock(t *testing.T) {
	// Warp 0 hits a barrier; warp 1 exits without one: deadlock
	// must be reported, not hung.
	b := kbuild.New("skewbar")
	tid := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ISetpImm(isa.P0, isa.CmpGE, tid, 32)
	br := b.BraIf(isa.P0, false) // warp 1 jumps straight to exit
	b.Bar()
	end := b.Pos()
	b.SetTarget(br, end)
	b.Exit()
	mem := NewMemory(64)
	if _, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 64}, mem, nil); err == nil {
		t.Fatal("barrier deadlock not detected")
	}
}

func TestWarpsWithWorkTracking(t *testing.T) {
	// Two warps; only warp 0 does real work (guarded).
	b := kbuild.New("halfwork")
	tid := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ISetpImm(isa.P0, isa.CmpLT, tid, 32)
	b.ShlImm(addr, tid, 2)
	ld := b.Pos()
	b.Gld(v, addr)
	b.Guarded(ld, isa.P0, false)
	b.Exit()
	mem := NewMemory(1024)
	stats, err := Run(cfg(), Launch{Prog: b.MustProgram(), Grid: 1, Block: 64}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both warps executed ALU setup, so both "worked"; the load was
	// active in warp 0 only. WarpsWithWork counts warps with any
	// unskipped non-control work — here 2. The guarded-load count
	// shows the distinction:
	if stats.Total.WarpsWithWork != 2 {
		t.Errorf("WarpsWithWork = %d", stats.Total.WarpsWithWork)
	}
	if stats.Total.GlobalUsefulBytes != 32*4 {
		t.Errorf("useful bytes = %d", stats.Total.GlobalUsefulBytes)
	}
}
