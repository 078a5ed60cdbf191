package kernels

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/occupancy"
	"gpuperf/internal/sparse"
	"gpuperf/internal/tridiag"
)

func cfg() gpu.Config { return gpu.GTX285() }

func randMat(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float32, n*n)
	for i := range m {
		m[i] = 2*rng.Float32() - 1
	}
	return m
}

// --- matrix multiply -------------------------------------------------

func TestMatmulCorrectness(t *testing.T) {
	for _, tile := range []int{8, 16, 32} {
		const n = 64
		mm, err := NewMatmul(n, tile)
		if err != nil {
			t.Fatal(err)
		}
		a, bm := randMat(n, 21), randMat(n, 22)
		mem, err := mm.NewMemory(a, bm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := barra.Run(cfg(), mm.Launch(), mem, nil); err != nil {
			t.Fatalf("tile %d: %v", tile, err)
		}
		got, err := mm.ReadC(mem)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MulRef(context.Background(), n, a, bm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("tile %d: C[%d] = %v, want %v", tile, i, got[i], want[i])
			}
		}
	}
}

// TestMatmulFigure4aShape: MAD count is N³/32 warp instructions for
// every tile; total instructions and global transactions decrease
// with larger tiles; shared transactions track the MAD count.
func TestMatmulFigure4aShape(t *testing.T) {
	const n = 128
	wantMADs := int64(n) * int64(n) * int64(n) / 32
	var prevInstr, prevGlobal int64
	for i, tile := range []int{8, 16, 32} {
		mm, err := NewMatmul(n, tile)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := mm.NewMemory(randMat(n, 1), randMat(n, 2))
		if err != nil {
			t.Fatal(err)
		}
		st, err := barra.Run(cfg(), mm.Launch(), mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Total.FMADs != wantMADs {
			t.Errorf("tile %d: MADs = %d, want %d", tile, st.Total.FMADs, wantMADs)
		}
		if i > 0 {
			if st.Total.WarpInstrs >= prevInstr {
				t.Errorf("tile %d: instruction count %d not below previous %d",
					tile, st.Total.WarpInstrs, prevInstr)
			}
			if st.Total.Global.Transactions >= prevGlobal {
				t.Errorf("tile %d: global transactions %d not below previous %d",
					tile, st.Total.Global.Transactions, prevGlobal)
			}
		}
		prevInstr = st.Total.WarpInstrs
		prevGlobal = st.Total.Global.Transactions
		// Density ≈ 80%+ (paper: 80% of instructions are MADs).
		if d := st.InstructionDensity(); d < 0.70 || d > 0.95 {
			t.Errorf("tile %d: density %.2f outside [0.70,0.95]", tile, d)
		}
		// Shared transactions ≈ 2·MAD warp count (one broadcast per
		// half-warp per MAD's shared operand) plus staging stores.
		lo, hi := 2*wantMADs, 2*wantMADs+2*wantMADs/10
		if st.Total.SharedTx < lo || st.Total.SharedTx > hi {
			t.Errorf("tile %d: shared tx %d outside [%d,%d]", tile, st.Total.SharedTx, lo, hi)
		}
		// Matmul's staging and broadcasts are conflict-free.
		if f := st.BankConflictFactor(); f != 1.0 {
			t.Errorf("tile %d: conflict factor %v", tile, f)
		}
	}
}

// TestMatmulOccupancyTable2: resident blocks/warps per SM follow
// paper Table 2: 8 blocks (16 warps) for 8×8 and 16×16, 3 blocks
// (6 warps) for 32×32.
func TestMatmulOccupancyTable2(t *testing.T) {
	want := map[int][2]int{8: {8, 16}, 16: {8, 16}, 32: {3, 6}}
	for tile, w := range want {
		mm, err := NewMatmul(128, tile)
		if err != nil {
			t.Fatal(err)
		}
		l := mm.Launch()
		res, err := occupancy.Compute(cfg(), occupancy.Usage{
			ThreadsPerBlock:   l.Block,
			RegsPerThread:     l.Prog.RegsPerThread,
			SharedMemPerBlock: l.Prog.SharedMemBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks != w[0] || res.ActiveWarps != w[1] {
			t.Errorf("tile %d: blocks/warps = %d/%d, want %d/%d",
				tile, res.Blocks, res.ActiveWarps, w[0], w[1])
		}
	}
}

func TestMatmulValidation(t *testing.T) {
	if _, err := NewMatmul(128, 12); err == nil {
		t.Error("tile 12 accepted")
	}
	if _, err := NewMatmul(100, 16); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := NewMatmul(32, 16); err == nil {
		t.Error("size below strip height accepted")
	}
	mm, err := NewMatmul(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.NewMemory(make([]float32, 3), make([]float32, 64*64)); err == nil {
		t.Error("short matrix accepted")
	}
	if mm.FLOPs() != 2*64*64*64 {
		t.Errorf("FLOPs = %d", mm.FLOPs())
	}
}

// --- cyclic reduction --------------------------------------------------

func TestCRSolvesSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, nbc := range []bool{false, true} {
		const systems, n = 4, 128
		solver, err := NewCR(cfg(), systems, n, nbc, false)
		if err != nil {
			t.Fatal(err)
		}
		sys := make([]tridiag.System, systems)
		for i := range sys {
			sys[i] = tridiag.NewRandom(n, rng)
		}
		mem, err := solver.NewMemory(sys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := barra.Run(cfg(), solver.Launch(), mem, nil); err != nil {
			t.Fatalf("nbc=%v: %v", nbc, err)
		}
		for i := range sys {
			x, err := solver.ReadX(mem, i)
			if err != nil {
				t.Fatal(err)
			}
			if r := sys[i].Residual(x); r > 1e-3 {
				t.Errorf("nbc=%v system %d: residual %v", nbc, i, r)
			}
			want, err := sys[i].SolveCR()
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if math.Abs(float64(want[j]-x[j])) > 1e-3 {
					t.Fatalf("nbc=%v system %d x[%d]: %v vs CPU CR %v", nbc, i, j, x[j], want[j])
				}
			}
		}
	}
}

// TestCRConflictDoubling reproduces the Fig. 7b mechanism: plain CR
// keeps its per-step shared-transaction count roughly constant
// (conflicts double as work halves), while CR-NBC's count halves.
func TestCRConflictDoubling(t *testing.T) {
	const systems, n = 2, 512
	run := func(nbc bool) *barra.Stats {
		solver, err := NewCR(cfg(), systems, n, nbc, true)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		sys := make([]tridiag.System, systems)
		for i := range sys {
			sys[i] = tridiag.NewRandom(n, rng)
		}
		mem, err := solver.NewMemory(sys)
		if err != nil {
			t.Fatal(err)
		}
		st, err := barra.Run(cfg(), solver.Launch(), mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cr := run(false)
	nbcSt := run(true)

	// Stage 1 = forward step 1 (stride 1 → 2-way conflicts among
	// stride-2 accesses... step 1 accesses stride 2): compare step 1
	// vs step 4 (stride 16: 16-way conflicts, 1/8 the active work).
	if len(cr.Stages) < 6 {
		t.Fatalf("stages = %d", len(cr.Stages))
	}
	s1, s4 := cr.Stages[1].SharedTx, cr.Stages[4].SharedTx
	// Work per step halves but conflicts double: transactions stay
	// within 2x of each other (paper: "remains constant").
	if ratio := float64(s1) / float64(s4); ratio > 2.5 || ratio < 0.4 {
		t.Errorf("CR shared tx step1/step4 = %d/%d (ratio %.2f), want ≈constant", s1, s4, ratio)
	}
	n1, n4 := nbcSt.Stages[1].SharedTx, nbcSt.Stages[4].SharedTx
	if ratio := float64(n1) / float64(n4); ratio < 4 {
		t.Errorf("CR-NBC shared tx step1/step4 = %d/%d (ratio %.2f), want ≥4 (halving)", n1, n4, ratio)
	}
	// Total conflict factor: CR heavily conflicted, NBC near 1.
	if f := cr.BankConflictFactor(); f < 2 {
		t.Errorf("CR conflict factor %v, want ≥2", f)
	}
	if f := nbcSt.BankConflictFactor(); f > 1.6 {
		t.Errorf("CR-NBC conflict factor %v, want ≈1", f)
	}
	// Instruction counts similar (paper: "CR-NBC has a similar
	// instruction count to CR").
	ratio := float64(nbcSt.Total.WarpInstrs) / float64(cr.Total.WarpInstrs)
	if ratio < 1.0 || ratio > 1.35 {
		t.Errorf("instruction ratio NBC/CR = %.2f", ratio)
	}
}

// TestCRWarpsPerStep: the per-step active-warp counts follow the
// paper's 8, 8, 4, 2, 1 pattern for 512-equation systems.
func TestCRWarpsPerStep(t *testing.T) {
	const systems, n = 2, 512
	solver, err := NewCR(cfg(), systems, n, false, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	sys := []tridiag.System{tridiag.NewRandom(n, rng), tridiag.NewRandom(n, rng)}
	mem, err := solver.NewMemory(sys)
	if err != nil {
		t.Fatal(err)
	}
	st, err := barra.Run(cfg(), solver.Launch(), mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Per block: stage 0 (load) 8 warps; steps 1,2 8 then 4 warps...
	// paper Fig. 6 row: 8, 8, 4, 2, 1 for step 0..4 (256 threads).
	want := []int64{8, 8, 4, 2, 1}
	for i, w := range want {
		got := st.Stages[i].WarpsWithWork / int64(systems)
		if got != w {
			t.Errorf("stage %d: warps with work = %d, want %d", i, got, w)
		}
	}
}

func TestCRValidation(t *testing.T) {
	if _, err := NewCR(cfg(), 0, 128, false, false); err == nil {
		t.Error("zero systems accepted")
	}
	if _, err := NewCR(cfg(), 1, 100, false, false); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewCR(cfg(), 1, 32, false, false); err == nil {
		t.Error("tiny system accepted")
	}
	fwd, err := NewCR(cfg(), 1, 128, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fwd.ReadX(barra.NewMemory(64), 0); err == nil {
		t.Error("ReadX on forward-only kernel accepted")
	}
	full, err := NewCR(cfg(), 2, 128, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.NewMemory(make([]tridiag.System, 1)); err == nil {
		t.Error("wrong system count accepted")
	}
}

// --- SpMV ---------------------------------------------------------------

func spmvFixture(t *testing.T, kind SpMVKind) (*SpMV, []float32, []float32, *barra.Memory) {
	t.Helper()
	m, err := sparse.GenQCDLike(512, 9, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpMV(kind, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	x := make([]float32, m.Rows())
	for i := range x {
		x[i] = 2*rng.Float32() - 1
	}
	want, err := m.MulDense(x)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := s.NewMemory(x)
	if err != nil {
		t.Fatal(err)
	}
	return s, x, want, mem
}

func TestSpMVCorrectness(t *testing.T) {
	for _, kind := range []SpMVKind{ELL, BELLIM, BELLIMIV} {
		s, _, want, mem := spmvFixture(t, kind)
		if _, err := barra.Run(cfg(), s.Launch(), mem, nil); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, err := s.ReadY(mem)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("%s: y[%d] = %v, want %v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestSpMVTrafficShape reproduces Fig. 11a's ordering: BELL cuts
// column-index bytes to ~1/9 of ELL's, and IMIV cuts vector bytes
// versus IM.
func TestSpMVTrafficShape(t *testing.T) {
	traffic := func(kind SpMVKind) map[string]int64 {
		s, _, _, mem := spmvFixture(t, kind)
		st, err := barra.Run(cfg(), s.Launch(), mem,
			&barra.Options{Regions: s.Regions()})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		native := cfg().MinSegmentBytes
		for name, per := range st.RegionTraffic {
			out[name] = per[native].Bytes
		}
		return out
	}
	ell := traffic(ELL)
	im := traffic(BELLIM)
	imiv := traffic(BELLIMIV)

	// Column-index traffic: BELL ≈ ELL/9 (one index per 9 entries).
	if r := float64(ell["colidx"]) / float64(im["colidx"]); r < 5 || r > 14 {
		t.Errorf("colidx ELL/BELL ratio = %.1f, want ≈9", r)
	}
	// Vector traffic: IMIV well below IM (the 18% win's source).
	if float64(imiv["vector"]) > 0.75*float64(im["vector"]) {
		t.Errorf("vector bytes: IMIV %d vs IM %d — interleaving did not help",
			imiv["vector"], im["vector"])
	}
	// Matrix traffic is coalesced and equal for the two BELL forms.
	if im["matrix"] != imiv["matrix"] {
		t.Errorf("matrix traffic differs: %d vs %d", im["matrix"], imiv["matrix"])
	}
}

// TestSpMVDensityLow: the paper notes only ~1/10 of SpMV
// instructions are MADs.
func TestSpMVDensityLow(t *testing.T) {
	s, _, _, mem := spmvFixture(t, ELL)
	st, err := barra.Run(cfg(), s.Launch(), mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := st.InstructionDensity(); d < 0.05 || d > 0.35 {
		t.Errorf("ELL density = %.2f, want low", d)
	}
}

func TestSpMVValidation(t *testing.T) {
	m, err := sparse.GenQCDLike(100, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpMV(ELL, m); err == nil {
		t.Error("non-divisible thread count accepted")
	}
	m2 := &sparse.Blocked{BlockRows: 128, BlockSize: 2, BlocksPerRow: 4}
	if _, err := NewSpMV(BELLIM, m2); err == nil {
		t.Error("non-3x3 matrix accepted")
	}
	if ELL.String() != "ELL" || BELLIM.String() != "BELL+IM" || BELLIMIV.String() != "BELL+IMIV" {
		t.Error("kind names wrong")
	}
}

// TestMatmulNaiveCorrectness: the naive kernel computes the same
// product as the reference, and its access pattern is the family's
// uncoalesced baseline — far more global traffic per useful byte
// than the tiled variants.
func TestMatmulNaiveCorrectness(t *testing.T) {
	const n = 64
	mm, err := NewMatmulNaive(n)
	if err != nil {
		t.Fatal(err)
	}
	a, bm := randMat(n, 21), randMat(n, 22)
	mem, err := mm.NewMemory(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	st, err := barra.Run(cfg(), mm.Launch(), mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mm.ReadC(mem)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MulRef(context.Background(), n, a, bm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-3 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if st.Total.FMADs != int64(n)*int64(n)*int64(n)/32 {
		t.Errorf("MADs = %d, want N³/32 = %d", st.Total.FMADs, int64(n)*int64(n)*int64(n)/32)
	}
	if eff := st.CoalescingEfficiency(); eff > 0.5 {
		t.Errorf("naive matmul coalesces at %.2f, want the uncoalesced baseline ≤ 0.5", eff)
	}
	if tpr := st.TxPerRequest(); tpr < 4 {
		t.Errorf("naive matmul issues %.1f transactions per request, want the strided ≥ 4", tpr)
	}

	// The 16×16 tiled sibling on the same inputs moves far fewer
	// global bytes — the measured counterpart of the advisor's
	// coalescing counterfactual.
	tiled, err := NewMatmul(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	mem2, err := tiled.NewMemory(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := barra.Run(cfg(), tiled.Launch(), mem2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Total.Global.Bytes*4 > st.Total.Global.Bytes {
		t.Errorf("tiled kernel moves %d global bytes, naive %d — want ≥4x reduction",
			st2.Total.Global.Bytes, st.Total.Global.Bytes)
	}
}
