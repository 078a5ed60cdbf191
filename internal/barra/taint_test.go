package barra_test

import (
	"math/rand"
	"slices"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
	"gpuperf/internal/kernels"
	"gpuperf/internal/sparse"
)

// TestTaintVariantCounts pins how many memory instructions of each
// built-in kernel the replay engine treats as variant, i.e. computes
// per block instead of once per replay class. Only SpMV's gathers of
// x, whose addresses are loaded column indices, are data-derived.
// CR's coefficient loads and its stores of x address through
// registers that hold %tid/%ctaid arithmetic at those PCs, although
// the same registers carry loaded values elsewhere in the program.
func TestTaintVariantCounts(t *testing.T) {
	matmul := func(tile int) func() (*isa.Program, error) {
		return func() (*isa.Program, error) {
			m, err := kernels.NewMatmul(128, tile)
			if err != nil {
				return nil, err
			}
			return m.Program(), nil
		}
	}
	cr := func(nbc, fwd bool) func() (*isa.Program, error) {
		return func() (*isa.Program, error) {
			c, err := kernels.NewCR(gpu.GTX285(), 4, 128, nbc, fwd)
			if err != nil {
				return nil, err
			}
			return c.Program(), nil
		}
	}
	spmv := func(kind kernels.SpMVKind) func() (*isa.Program, error) {
		return func() (*isa.Program, error) {
			m, err := sparse.GenQCDLike(256, 9, rand.New(rand.NewSource(1)))
			if err != nil {
				return nil, err
			}
			s, err := kernels.NewSpMV(kind, m)
			if err != nil {
				return nil, err
			}
			return s.Program(), nil
		}
	}
	for _, tc := range []struct {
		name    string
		build   func() (*isa.Program, error)
		variant int
	}{
		{"matmul8", matmul(8), 0},
		{"matmul16", matmul(16), 0},
		{"matmul32", matmul(32), 0},
		{"matmul-naive", func() (*isa.Program, error) {
			m, err := kernels.NewMatmulNaive(128)
			if err != nil {
				return nil, err
			}
			return m.Program(), nil
		}, 0},
		{"cr", cr(false, false), 0},
		{"cr-nbc", cr(true, false), 0},
		{"cr-fwd", cr(false, true), 0},
		{"spmv-ell", spmv(kernels.ELL), 1},
		{"spmv-bell-im", spmv(kernels.BELLIM), 3},
		{"spmv-bell-imiv", spmv(kernels.BELLIMIV), 3},
	} {
		p, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []int
		for pc, v := range barra.TaintAnalysis(p) {
			if v {
				got = append(got, pc)
			}
		}
		if len(got) != tc.variant {
			t.Errorf("%s: %d variant memory instructions (pcs %v), want %d", tc.name, len(got), got, tc.variant)
		}
	}
}

// TestTaintFlow checks the taint dataflow's rules on one program: an
// unguarded write clears its destination's taint, a guarded write only
// adds to it, a branch carries taint to its target (here backwards,
// into a loop head) and an unconditional branch does not fall through.
func TestTaintFlow(t *testing.T) {
	b := kbuild.New("taintflow")
	tid, addr, val, x := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	var want []int
	gld := func(variant bool) {
		if variant {
			want = append(want, b.Pos())
		}
		b.Gld(x, addr)
	}
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 2)
	b.Gld(val, addr) // val holds loaded data
	b.Mov(addr, val)
	gld(true)
	b.ShlImm(addr, tid, 2) // an unguarded write replaces the taint
	gld(false)
	b.Mov(addr, val)
	g := b.Pos()
	b.ShlImm(addr, tid, 2) // lanes whose guard fails keep the loaded value
	b.Guarded(g, isa.P0, false)
	gld(true)
	b.ShlImm(addr, tid, 2)
	top := b.Pos()
	gld(true) // the back edge below brings a tainted addr
	b.Mov(addr, val)
	b.ISetpImm(isa.P1, isa.CmpLT, x, 10)
	b.SetTarget(b.BraIf(isa.P1, false), top)
	b.ShlImm(addr, tid, 2)
	skip := b.Bra()
	b.Gld(addr, addr) // unreachable: an unconditional branch skips it
	b.SetTarget(skip, b.Pos())
	gld(false)
	b.Exit()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for pc, v := range barra.TaintAnalysis(p) {
		if v {
			got = append(got, pc)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("variant pcs %v, want %v", got, want)
	}
}
