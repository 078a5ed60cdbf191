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

// aluKernel is a straight-line FMAD/IADD body with every operand a
// register, where Step cost is pure dispatch + lane execution.
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

// fmadSmemKernel is the dense-matmul shape: the inner loop of
// internal/kernels' matmul, a straight-line run of kbuild.FMadS whose
// a is a register, b one broadcast shared-memory word and c the
// accumulator, for 16 accumulators over 4 values of k.
func fmadSmemKernel() *isa.Program {
	const t = 16
	b := kbuild.New("bench-fmad-smem")
	b.SharedBytes(t * t * 4)
	a, acc := b.Reg(), b.Regs(t)
	b.MovF(a, 1.5)
	for c := 0; c < t; c++ {
		b.MovF(acc+isa.Reg(c), 0)
	}
	for k := uint32(0); k < 4; k++ {
		for c := uint32(0); c < t; c++ {
			b.FMadS(acc+isa.Reg(c), a, (k+c*t)*4, acc+isa.Reg(c))
		}
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

// smemKernel is a shared-memory round trip: each lane stores a word
// and loads its neighbour's, the shape of CR's reduction steps.
func smemKernel() *isa.Program {
	b := kbuild.New("bench-smem")
	b.SharedBytes(2 * 33 * 4)
	tid, addr, x := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 2)
	b.Mov(x, tid)
	for i := uint32(0); i < 16; i++ {
		b.SstOff(addr, x, i%2*33*4)
		b.SldOff(x, addr, (i+1)%2*33*4+4)
	}
	b.Exit()
	return b.MustProgram()
}

// cmpKernel is guard arithmetic: a shift, a mask and a compare per
// step, cycling through every comparison.
func cmpKernel() *isa.Program {
	b := kbuild.New("bench-cmp")
	tid, x, y := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	for i := 0; i < 16; i++ {
		b.ShrImm(x, tid, uint32(i%5))
		b.AndImm(y, x, 7)
		b.ISetpImm(isa.Pred(i%isa.NumPreds), isa.CmpOp(i%isa.NumCmps), y, 3)
	}
	b.Exit()
	return b.MustProgram()
}

// gatherKernel is a run of full-mask, coalesced global loads.
func gatherKernel() *isa.Program {
	b := kbuild.New("bench-gather")
	tid, addr, x := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 2)
	for i := uint32(0); i < 16; i++ {
		b.GldOff(x, addr, i*32*4)
	}
	b.Exit()
	return b.MustProgram()
}

func benchWarpStep(b *testing.B, prog *isa.Program) {
	mem := NewMemory(1 << 12)
	shared := make([]uint32, prog.SharedMemBytes/4)
	w, err := NewWarp(Predecode(prog), 0, 0, 32, 1, 32, shared, mem)
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
	b.Run("fmad-smem", func(b *testing.B) { benchWarpStep(b, fmadSmemKernel()) })
	b.Run("divergent", func(b *testing.B) { benchWarpStep(b, divergentKernel()) })
	b.Run("smem", func(b *testing.B) { benchWarpStep(b, smemKernel()) })
	b.Run("cmp", func(b *testing.B) { benchWarpStep(b, cmpKernel()) })
	b.Run("gather", func(b *testing.B) { benchWarpStep(b, gatherKernel()) })
}
