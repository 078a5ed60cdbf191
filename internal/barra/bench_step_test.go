package barra

// Per-layer microbenchmarks for the warp executor: run with
//
//	go test -run - -bench BenchmarkWarpStep -benchmem ./internal/barra/
//
// so the engine's per-instruction cost is measured in isolation from
// the scheduler, stats accounting and memory simulators.

import (
	"testing"

	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// aluKernel is a straight-line FMAD/IADD body — the dense-matmul
// shape where Step cost is pure dispatch + lane execution.
func aluKernel() *isa.Program {
	b := kbuild.New("bench-alu")
	r := b.Regs(4)
	b.MovImm(r, 1)
	b.MovImm(r+1, 2)
	b.MovImm(r+2, 3)
	for i := 0; i < 16; i++ {
		b.FMad(r+3, r, r+1, r+2)
		b.IAdd(r, r, r+1)
	}
	b.Exit()
	return b.MustProgram()
}

// divergentKernel forks the warp on lane parity and re-merges,
// exercising split bookkeeping and partial active masks every pass.
func divergentKernel() *isa.Program {
	b := kbuild.New("bench-divergent")
	tid, par, x := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.AndImm(par, tid, 1)
	b.ISetpImm(isa.P0, isa.CmpNE, par, 0)
	for i := 0; i < 8; i++ {
		br := b.BraIf(isa.P0, false)
		b.IAddImm(x, tid, 1) // even lanes only
		b.IAddImm(x, x, 2)
		b.SetTarget(br, b.Pos())
		b.IAddImm(x, x, 3) // reconverged
	}
	b.Exit()
	return b.MustProgram()
}

func benchWarpStep(b *testing.B, prog *isa.Program) {
	mem := NewMemory(1 << 12)
	shared := make([]uint32, 4)
	w, err := NewWarp(prog, 0, 0, 32, 1, 32, shared, mem)
	if err != nil {
		b.Fatal(err)
	}
	var info StepInfo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.Done() {
			w.Reset(0)
		}
		if err := w.Step(&info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarpStep(b *testing.B) {
	b.Run("alu", func(b *testing.B) { benchWarpStep(b, aluKernel()) })
	b.Run("divergent", func(b *testing.B) { benchWarpStep(b, divergentKernel()) })
}
