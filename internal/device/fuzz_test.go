package device

import (
	"context"
	"sort"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kernels"
)

// FuzzRunValidated: a program that decodes and validates must run to
// a result or an error in both simulators, never panic. Submitted
// kernels reach both after the same checks, and a panic in an engine
// worker or the timing loop takes the whole service down. Each input
// gets the smallest register count Validate accepts (the tightest
// register file), a small shared arena, fresh 4 KiB memory per
// simulator, and a 4096 warp-instruction budget.
func FuzzRunValidated(f *testing.F) {
	m, err := kernels.NewMatmul(64, 16)
	if err != nil {
		f.Fatalf("seed matmul: %v", err)
	}
	f.Add(isa.EncodeProgram(m.Program()))
	naive, err := kernels.NewMatmulNaive(64)
	if err != nil {
		f.Fatalf("seed matmul-naive: %v", err)
	}
	f.Add(isa.EncodeProgram(naive.Program()))
	// dadd r0, r2, r2 reads r3 through its source pair.
	f.Add(isa.EncodeProgram(&isa.Program{Code: []isa.Instruction{
		{Op: isa.OpDADD, Guard: isa.PT, Dst: 0, SrcA: isa.R(2), SrcB: isa.R(2)},
		{Op: isa.OpEXIT, Guard: isa.PT},
	}}))
	// bra @2; exit; iadd r0, r0, 1 runs off the end of the program.
	f.Add(isa.EncodeProgram(&isa.Program{Code: []isa.Instruction{
		{Op: isa.OpBRA, Guard: isa.PT, Target: 2},
		{Op: isa.OpEXIT, Guard: isa.PT},
		{Op: isa.OpIADD, Guard: isa.PT, Dst: 0, SrcA: isa.R(0), SrcB: isa.Imm(), Imm: 1},
	}}))

	cfg := gpu.GTX285()
	const budget = 4096
	f.Fuzz(func(t *testing.T, raw []byte) {
		code, err := isa.DecodeProgram(raw)
		if err != nil {
			return
		}
		p := &isa.Program{Name: "fuzz", Code: code, SharedMemBytes: 256}
		// Validate needs at most 256 registers, one per value of the
		// 8-bit register field.
		const maxRegs = 256
		n := sort.Search(maxRegs+1, func(n int) bool {
			p.RegsPerThread = n
			return p.Validate() == nil
		})
		if n > maxRegs {
			return
		}
		p.RegsPerThread = n
		l := barra.Launch{Prog: p, Grid: 2, Block: 40}
		opt := &barra.Options{Parallelism: 1, MaxWarpInstructions: budget}
		// Errors are fine; only a panic fails the target.
		_, _ = barra.Run(cfg, l, barra.NewMemory(4096), opt)
		_, _ = RunBudget(context.Background(), cfg, l, barra.NewMemory(4096), budget)
	})
}
