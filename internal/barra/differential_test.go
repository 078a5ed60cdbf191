package barra

import (
	"math"
	"math/rand"
	"testing"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// TestRandomProgramDifferential cross-checks the warp executor
// against an independent scalar interpreter on randomly generated
// straight-line predicated programs: every thread's final register
// file must agree. This exercises operand resolution, predication,
// special registers (as ALU operands and through guarded S2R),
// register-pair doubles and the integer ALU far beyond the
// hand-written kernels.
func TestRandomProgramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		prog, outBase := randomALUProgram(rng)
		grid, block := 2, 96 // includes a partial warp
		mem := NewMemory(grid * block * workRegs * 4)
		if _, err := Run(gpu.GTX285(), Launch{Prog: prog, Grid: grid, Block: block}, mem, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for blockID := 0; blockID < grid; blockID++ {
			for tid := 0; tid < block; tid++ {
				want := interpret(prog, blockID, tid, block, grid)
				for r := 0; r < workRegs; r++ {
					addr := outBase + uint32(((blockID*block+tid)*workRegs+r)*4)
					got, err := mem.Load32(addr)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[r] {
						t.Fatalf("trial %d block %d thread %d r%d: sim %#x vs ref %#x\nprogram:\n%s",
							trial, blockID, tid, r, got, want[r], progText(prog))
					}
				}
			}
		}
	}
}

const workRegs = 6 // r0..r5 carry values; r6+ is scratch for addressing

// randomALUProgram builds a straight-line program of predicated ALU
// work on registers r0..r5, ending with a coalesced dump of all six
// to global memory.
func randomALUProgram(rng *rand.Rand) (*isa.Program, uint32) {
	b := kbuild.New("difftest")
	// r0..r5 are the working set, preallocated.
	work := b.Regs(workRegs)
	tid := b.Reg()
	flat := b.Reg()
	addr := b.Reg()
	ntid := b.Reg()
	cta := b.Reg()

	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)
	// Seed the working registers from thread identity.
	for r := 0; r < workRegs; r++ {
		b.IMadImm(work+isa.Reg(r), flat, uint32(r*3+1), tid)
	}

	n := 10 + rng.Intn(60)
	for i := 0; i < n; i++ {
		dst := work + isa.Reg(rng.Intn(workRegs))
		a := work + isa.Reg(rng.Intn(workRegs))
		c := work + isa.Reg(rng.Intn(workRegs))
		imm := uint32(rng.Intn(1 << 12))
		sr := isa.SR(isa.SReg(rng.Intn(isa.NumSRegs)))
		switch rng.Intn(14) {
		case 0:
			b.IAdd(dst, a, c)
		case 1:
			b.IAddImm(dst, a, imm)
		case 2:
			b.ISub(dst, a, c)
		case 3:
			b.IMulImm(dst, a, imm|1)
		case 4:
			b.IMad(dst, a, c, work+isa.Reg(rng.Intn(workRegs)))
		case 5:
			b.ShlImm(dst, a, uint32(rng.Intn(8)))
		case 6:
			b.ShrImm(dst, a, uint32(rng.Intn(8)))
		case 7:
			b.AndImm(dst, a, imm)
		case 8:
			b.Emit(isa.Instruction{Op: isa.OpXOR, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: isa.R(c)})
		case 9:
			b.Emit(isa.Instruction{Op: isa.OpIMIN, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: isa.R(c)})
		case 10:
			b.Emit(isa.Instruction{Op: isa.OpIADD, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: sr})
		case 11:
			b.Emit(isa.Instruction{Op: isa.OpIMAD, Guard: isa.PT, Dst: dst, SrcA: sr, SrcB: isa.Imm(), SrcC: isa.R(c), Imm: imm})
		case 12:
			// S2R under a predicate that splits every warp by lane.
			p := isa.Pred(rng.Intn(isa.NumPreds))
			b.Emit(isa.Instruction{Op: isa.OpISETP, Guard: isa.PT, PDst: p, Cmp: isa.CmpOp(rng.Intn(isa.NumCmps)),
				SrcA: isa.SR(isa.SRLane), SrcB: isa.Imm(), Imm: uint32(rng.Intn(gpu.WarpSize))})
			s2r := b.Pos()
			b.S2R(dst, sr.SReg)
			b.Guarded(s2r, p, rng.Intn(2) == 0)
		case 13:
			// A double on the pairs (r0,r1), (r2,r3), (r4,r5), aliasing
			// allowed. Clearing bit 30 of each source's high word keeps
			// |x| < 2, so no result is a NaN, whose payload would depend
			// on the operand order each compiler picks.
			pair := func() isa.Reg { return work + isa.Reg(2*rng.Intn(workRegs/2)) }
			in := isa.Instruction{Op: []isa.Opcode{isa.OpDADD, isa.OpDMUL, isa.OpDFMA}[rng.Intn(3)], Guard: isa.PT, Dst: pair(),
				SrcA: isa.R(pair()), SrcB: isa.R(pair())}
			if in.Op == isa.OpDFMA {
				in.SrcC = isa.R(pair())
			}
			for _, o := range []isa.Operand{in.SrcA, in.SrcB, in.SrcC} {
				if o.Kind == isa.KindReg {
					b.AndImm(o.Reg+1, o.Reg+1, 0xbfffffff)
				}
			}
			if rng.Intn(2) == 0 {
				in.Guard, in.GuardNeg = isa.Pred(rng.Intn(isa.NumPreds)), rng.Intn(2) == 0
			}
			b.Emit(in)
		}
		// A third of the instructions are followed by a fresh
		// compare plus a guarded update, exercising predication.
		if rng.Intn(3) == 0 {
			p := isa.Pred(rng.Intn(isa.NumPreds))
			cmp := isa.CmpOp(rng.Intn(isa.NumCmps))
			b.ISetp(p, cmp, a, c)
			dup := b.Pos()
			b.IAddImm(dst, dst, uint32(rng.Intn(64)))
			b.Guarded(dup, p, rng.Intn(2) == 0)
		}
	}

	// Dump: out[(flat*workRegs + r)*4].
	b.IMulImm(addr, flat, workRegs*4)
	for r := 0; r < workRegs; r++ {
		b.GstOff(addr, work+isa.Reg(r), uint32(r*4))
	}
	b.Exit()
	return b.MustProgram(), 0
}

func progText(p *isa.Program) string {
	out := ""
	for i, in := range p.Code {
		out += in.String()
		if i%4 == 3 {
			out += "\n"
		} else {
			out += " | "
		}
	}
	return out
}

// interpret runs the program for one thread with an independent
// (scalar, switch-based) implementation of the semantics.
func interpret(p *isa.Program, blockID, tid, blockDim, gridDim int) []uint32 {
	regs := make([]uint32, p.RegsPerThread)
	preds := make([]bool, isa.NumPreds)
	out := make([]uint32, workRegs)

	val := func(o isa.Operand, imm uint32) uint32 {
		switch o.Kind {
		case isa.KindReg:
			return regs[o.Reg]
		case isa.KindImm:
			return imm
		case isa.KindSReg:
			switch o.SReg {
			case isa.SRTid:
				return uint32(tid)
			case isa.SRCtaid:
				return uint32(blockID)
			case isa.SRNtid:
				return uint32(blockDim)
			case isa.SRNctaid:
				return uint32(gridDim)
			case isa.SRLane:
				return uint32(tid % gpu.WarpSize)
			case isa.SRWarp:
				return uint32(tid / gpu.WarpSize)
			}
		}
		return 0
	}

	pair := func(o isa.Operand) float64 {
		if o.Kind != isa.KindReg {
			return 0
		}
		return math.Float64frombits(uint64(regs[o.Reg+1])<<32 | uint64(regs[o.Reg]))
	}
	setPair := func(r isa.Reg, v float64) {
		bits := math.Float64bits(v)
		regs[r], regs[r+1] = uint32(bits), uint32(bits>>32)
	}

	for pc := 0; pc < len(p.Code); pc++ {
		in := p.Code[pc]
		if in.Guard != isa.PT {
			h := preds[in.Guard]
			if in.GuardNeg {
				h = !h
			}
			if !h {
				continue
			}
		}
		a := val(in.SrcA, in.Imm)
		bb := val(in.SrcB, in.Imm)
		cc := val(in.SrcC, in.Imm)
		switch in.Op {
		case isa.OpS2R, isa.OpMOV:
			regs[in.Dst] = a
		case isa.OpIADD:
			regs[in.Dst] = a + bb
		case isa.OpISUB:
			regs[in.Dst] = a - bb
		case isa.OpIMUL:
			regs[in.Dst] = a * bb
		case isa.OpIMAD:
			regs[in.Dst] = a*bb + cc
		case isa.OpSHL:
			regs[in.Dst] = a << (bb & 31)
		case isa.OpSHR:
			regs[in.Dst] = a >> (bb & 31)
		case isa.OpAND:
			regs[in.Dst] = a & bb
		case isa.OpXOR:
			regs[in.Dst] = a ^ bb
		case isa.OpIMIN:
			if int32(a) < int32(bb) {
				regs[in.Dst] = a
			} else {
				regs[in.Dst] = bb
			}
		case isa.OpISETP:
			var r bool
			x, y := int32(a), int32(bb)
			switch in.Cmp {
			case isa.CmpLT:
				r = x < y
			case isa.CmpLE:
				r = x <= y
			case isa.CmpGT:
				r = x > y
			case isa.CmpGE:
				r = x >= y
			case isa.CmpEQ:
				r = x == y
			case isa.CmpNE:
				r = x != y
			}
			preds[in.PDst] = r
		case isa.OpDADD:
			setPair(in.Dst, pair(in.SrcA)+pair(in.SrcB))
		case isa.OpDMUL:
			setPair(in.Dst, pair(in.SrcA)*pair(in.SrcB))
		case isa.OpDFMA:
			setPair(in.Dst, pair(in.SrcA)*pair(in.SrcB)+pair(in.SrcC))
		case isa.OpGST:
			// The dump: recover the register index from the offset.
			r := int(in.Imm / 4 % workRegs)
			out[r] = bb
		case isa.OpEXIT:
			return out
		}
	}
	return out
}
