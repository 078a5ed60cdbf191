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
// register-pair doubles, single- and double-precision arithmetic,
// every integer and float comparison, shared-memory round trips and
// the integer ALU far beyond the hand-written kernels. Full warps run
// the executor's full-mask kernels; guarded instructions and the
// partial last warp of each block run the masked loops.
func TestRandomProgramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const trials = 80
	for trial := 0; trial < trials; trial++ {
		diffProgram(t, trial, randomALUProgram(rng), nil, false)
	}
}

// diffGrid blocks of diffBlock threads run each differential program;
// the third warp of each block has 16 lanes.
const diffGrid, diffBlock = 2, 80

// diffProgram runs prog over the global words init, zero when nil,
// and compares every thread's dumped registers with interpretBlock's.
// With nanLoose a lane whose reference is a NaN need only be a NaN;
// every other lane must match bit for bit.
func diffProgram(t *testing.T, trial int, prog *isa.Program, init []uint32, nanLoose bool) {
	t.Helper()
	const grid, block = diffGrid, diffBlock
	if init == nil {
		init = make([]uint32, grid*block*workRegs)
	}
	mem := NewMemory(len(init) * 4)
	if err := mem.WriteWords(0, init); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gpu.GTX285(), Launch{Prog: prog, Grid: grid, Block: block}, mem, nil); err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	isNaN := func(u uint32) bool { f := math.Float32frombits(u); return f != f }
	for blockID := 0; blockID < grid; blockID++ {
		wants := interpretBlock(prog, blockID, block, grid, init[blockID*block*workRegs:])
		for tid := 0; tid < block; tid++ {
			for r, want := range wants[tid] {
				got, err := mem.Load32(uint32(((blockID*block+tid)*workRegs + r) * 4))
				if err != nil {
					t.Fatal(err)
				}
				if got != want && !(nanLoose && isNaN(got) && isNaN(want)) {
					t.Fatalf("trial %d block %d thread %d r%d: sim %#x vs ref %#x\nprogram:\n%s",
						trial, blockID, tid, r, got, want, progText(prog))
				}
			}
		}
	}
}

const workRegs = 6 // r0..r5 carry values; r6+ is scratch for addressing

// smemWords is the word stride of the program's two shared-memory
// areas; each holds one word per thread of an 80-thread block.
const smemWords = 96

// randomALUProgram builds a straight-line program of predicated ALU
// and shared-memory work on registers r0..r5, ending with a coalesced
// dump of all six to global memory.
func randomALUProgram(rng *rand.Rand) *isa.Program {
	b := kbuild.New("difftest")
	b.SharedBytes(2 * smemWords * 4)
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

	// finite clears bit 30 of r, so as a float |r| < 2: no float op
	// below yields inf or NaN, whose payload would depend on the
	// operand order each compiler picks.
	finite := func(r isa.Reg) isa.Operand {
		b.AndImm(r, r, 0xbfffffff)
		return isa.R(r)
	}
	guard := func(in *isa.Instruction) {
		if rng.Intn(2) == 0 {
			in.Guard, in.GuardNeg = isa.Pred(rng.Intn(isa.NumPreds)), rng.Intn(2) == 0
		}
	}

	n := 10 + rng.Intn(60)
	for i := 0; i < n; i++ {
		dst := work + isa.Reg(rng.Intn(workRegs))
		a := work + isa.Reg(rng.Intn(workRegs))
		c := work + isa.Reg(rng.Intn(workRegs))
		imm := uint32(rng.Intn(1 << 12))
		sr := isa.SR(isa.SReg(rng.Intn(isa.NumSRegs)))
		switch rng.Intn(22) {
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
		case 14, 15:
			// A single-precision op whose sources are each a register,
			// an immediate (a broadcast word, the shape kbuild.FMadS
			// gives b) or a special register. The immediate is a float
			// in (-2, 2) and a special register reads as zero or a
			// denormal, so no result is inf or NaN.
			in := isa.Instruction{Op: []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFMAD, isa.OpFNMAD}[rng.Intn(4)], Guard: isa.PT, Dst: dst,
				Imm: math.Float32bits(float32(4*rng.Float64() - 2))}
			src := func() isa.Operand {
				switch rng.Intn(4) {
				case 0:
					return isa.Imm()
				case 1:
					return sr
				}
				return finite(work + isa.Reg(rng.Intn(workRegs)))
			}
			in.SrcA, in.SrcB = src(), src()
			if in.Op == isa.OpFMAD || in.Op == isa.OpFNMAD {
				in.SrcC = src()
			}
			guard(&in)
			b.Emit(in)
		case 16:
			// AND and SHR with a register b, and IMAD with an
			// immediate b, a register a and c.
			switch rng.Intn(3) {
			case 0:
				b.Emit(isa.Instruction{Op: isa.OpAND, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: isa.R(c)})
			case 1:
				b.Emit(isa.Instruction{Op: isa.OpSHR, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: isa.R(c)})
			default:
				b.IMadImm(dst, a, imm, c)
			}
		case 17:
			// MOV of a register or an immediate, sometimes guarded.
			in := isa.Instruction{Op: isa.OpMOV, Guard: isa.PT, Dst: dst, SrcA: isa.R(a)}
			if rng.Intn(2) == 0 {
				in.SrcA, in.Imm = isa.Imm(), imm
			}
			guard(&in)
			b.Emit(in)
		case 18:
			// A compare of a register against an immediate near zero or
			// another register, for every comparison, then a guarded
			// update that makes the predicate visible.
			p := isa.Pred(rng.Intn(isa.NumPreds))
			in := isa.Instruction{Op: isa.OpISETP, Guard: isa.PT, PDst: p, Cmp: isa.CmpOp(rng.Intn(isa.NumCmps)),
				SrcA: isa.R(a), SrcB: isa.R(c)}
			if rng.Intn(2) == 0 {
				in.SrcB, in.Imm = isa.Imm(), uint32(rng.Intn(64)-32)
			}
			guard(&in)
			b.Emit(in)
			g := b.Pos()
			b.IAddImm(dst, dst, uint32(1+rng.Intn(64)))
			b.Guarded(g, p, rng.Intn(2) == 0)
		case 19:
			// A float compare of finite registers or an immediate,
			// made visible the same way.
			p := isa.Pred(rng.Intn(isa.NumPreds))
			in := isa.Instruction{Op: isa.OpFSETP, Guard: isa.PT, PDst: p, Cmp: isa.CmpOp(rng.Intn(isa.NumCmps)),
				SrcA: finite(a), SrcB: finite(c)}
			if rng.Intn(2) == 0 {
				in.SrcB, in.Imm = isa.Imm(), math.Float32bits(float32(4*rng.Float64()-2))
			}
			guard(&in)
			b.Emit(in)
			g := b.Pos()
			b.IAddImm(dst, dst, uint32(1+rng.Intn(64)))
			b.Guarded(g, p, rng.Intn(2) == 0)
		case 20, 21:
			// A shared-memory round trip: each thread stores a register
			// or a special register (a broadcast word unless it is
			// %tid or %laneid) at its own word of one area, then loads
			// the word of thread tid^k (k < 16, so a lane reads inside
			// its own warp and the 16-lane warp inside its 16 lanes).
			// Either access may be guarded; a lane then reads whatever
			// the word held before.
			area := uint32(rng.Intn(2)) * smemWords * 4
			b.ShlImm(addr, tid, 2)
			st := isa.Instruction{Op: isa.OpSST, Guard: isa.PT, SrcA: isa.R(addr), SrcB: isa.R(a), Imm: area}
			if rng.Intn(4) == 0 {
				st.SrcB = sr
			}
			guard(&st)
			b.Emit(st)
			b.Emit(isa.Instruction{Op: isa.OpXOR, Guard: isa.PT, Dst: addr, SrcA: isa.R(tid), SrcB: isa.Imm(), Imm: uint32(rng.Intn(16))})
			b.ShlImm(addr, addr, 2)
			ld := isa.Instruction{Op: isa.OpSLD, Guard: isa.PT, Dst: dst, SrcA: isa.R(addr), Imm: area}
			guard(&ld)
			b.Emit(ld)
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
	return b.MustProgram()
}

// TestNonFiniteFloatDifferential runs random float programs whose
// operands include infinities, NaNs, signed zeros, denormals and
// values whose products overflow or underflow against the scalar
// interpreter, so the full-mask float kernels and their masked loops
// are checked on inf handling and NaN production too. Which payload a
// NaN result keeps depends on the operand order each compiler picks
// for a commutative add or multiply, so a lane whose reference is a
// NaN need only be a NaN; every other lane must match bit for bit.
func TestNonFiniteFloatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	const trials = 24
	for trial := 0; trial < trials; trial++ {
		prog := randomFloatProgram(rng)
		// Half the words are special, half random floats below 2 in
		// magnitude.
		init := make([]uint32, diffGrid*diffBlock*workRegs)
		for i := range init {
			init[i] = rng.Uint32() &^ (1 << 30)
			if rng.Intn(2) == 0 {
				init[i] = specialFloats[rng.Intn(len(specialFloats))]
			}
		}
		diffProgram(t, trial, prog, init, true)
	}
}

// specialFloats are the non-finite trials' float operands: both
// infinities, NaNs of either sign (quiet with and without a payload,
// and signalling), signed zeros, denormals, the largest finite
// values, ordinary values, and ±2^100 and 2^-100, whose products
// overflow to infinity or underflow to zero.
var specialFloats = []uint32{
	0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001,
	0x00000000, 0x80000000,
	0x00000001, 0x807fffff,
	0x7f7fffff, 0xff7fffff,
	0x3f800000, 0xbfc00000, 0x40490fdb,
	0x71800000, 0xf1800000, 0x0d800000,
}

// randomFloatProgram builds a straight-line program of predicated
// float work on r0..r5: each thread loads its six words of global
// memory, runs FADD, FMUL, FMAD, FNMAD, MOV and FSETP-guarded updates
// on them with registers and specialFloats immediates as operands,
// and stores them back. Only float ops and moves touch the working
// registers, so whether a value is a NaN never depends on a payload.
func randomFloatProgram(rng *rand.Rand) *isa.Program {
	b := kbuild.New("difftest-float")
	work := b.Regs(workRegs)
	tid, ntid, cta, flat, addr := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)
	b.IMulImm(addr, flat, workRegs*4)
	for r := 0; r < workRegs; r++ {
		b.GldOff(work+isa.Reg(r), addr, uint32(r*4))
	}

	reg := func() isa.Reg { return work + isa.Reg(rng.Intn(workRegs)) }
	src := func() isa.Operand {
		if rng.Intn(4) == 0 {
			return isa.Imm()
		}
		return isa.R(reg())
	}
	guard := func(in *isa.Instruction) {
		if rng.Intn(3) == 0 {
			in.Guard, in.GuardNeg = isa.Pred(rng.Intn(isa.NumPreds)), rng.Intn(2) == 0
		}
	}
	n := 6 + rng.Intn(20)
	for i := 0; i < n; i++ {
		imm := specialFloats[rng.Intn(len(specialFloats))]
		switch rng.Intn(4) {
		case 0, 1:
			in := isa.Instruction{Op: []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFMAD, isa.OpFNMAD}[rng.Intn(4)], Guard: isa.PT,
				Dst: reg(), SrcA: isa.R(reg()), SrcB: src(), Imm: imm}
			if in.Op == isa.OpFMAD || in.Op == isa.OpFNMAD {
				in.SrcC = isa.R(reg())
			}
			guard(&in)
			b.Emit(in)
		case 2:
			// A float compare, then a move it guards.
			p := isa.Pred(rng.Intn(isa.NumPreds))
			in := isa.Instruction{Op: isa.OpFSETP, Guard: isa.PT, PDst: p, Cmp: isa.CmpOp(rng.Intn(isa.NumCmps)),
				SrcA: isa.R(reg()), SrcB: src(), Imm: imm}
			guard(&in)
			b.Emit(in)
			mv := b.Pos()
			b.Mov(reg(), reg())
			b.Guarded(mv, p, rng.Intn(2) == 0)
		default:
			in := isa.Instruction{Op: isa.OpMOV, Guard: isa.PT, Dst: reg(), SrcA: src(), Imm: imm}
			guard(&in)
			b.Emit(in)
		}
	}
	for r := 0; r < workRegs; r++ {
		b.GstOff(addr, work+isa.Reg(r), uint32(r*4))
	}
	b.Exit()
	return b.MustProgram()
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

// interpretBlock runs the program for every thread of one block with
// an independent (scalar, switch-based) implementation of the
// semantics and returns each thread's dumped registers. Threads step
// in lockstep, one instruction at a time, so a shared-memory load sees
// every store of the instructions before it; the executor runs one
// warp at a time instead, which agrees because each warp touches only
// its own threads' shared words. init holds the block's global words
// before the run, workRegs per thread.
func interpretBlock(p *isa.Program, blockID, blockDim, gridDim int, init []uint32) [][]uint32 {
	regs := make([][]uint32, blockDim)
	preds := make([][]bool, blockDim)
	out := make([][]uint32, blockDim)
	for t := range regs {
		regs[t] = make([]uint32, p.RegsPerThread)
		preds[t] = make([]bool, isa.NumPreds)
		out[t] = make([]uint32, workRegs)
		copy(out[t], init[t*workRegs:])
	}
	shared := make([]uint32, p.SharedMemBytes/4)
	for pc := 0; pc < len(p.Code); pc++ {
		in := p.Code[pc]
		if in.Op == isa.OpEXIT {
			break
		}
		for tid := range regs {
			interpretStep(in, regs[tid], preds[tid], out[tid], shared, blockID, tid, blockDim, gridDim)
		}
	}
	return out
}

// interpretStep executes one instruction for one thread.
func interpretStep(in isa.Instruction, regs []uint32, preds []bool, out, shared []uint32, blockID, tid, blockDim, gridDim int) {
	if in.Guard != isa.PT || in.GuardNeg {
		h := in.Guard != isa.PT && preds[in.Guard]
		if in.GuardNeg {
			h = !h
		}
		if !h {
			return
		}
	}
	val := func(o isa.Operand) uint32 {
		switch o.Kind {
		case isa.KindReg:
			return regs[o.Reg]
		case isa.KindImm:
			return in.Imm
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
	f32 := math.Float32frombits
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
	cmp := func(lt, eq bool) bool {
		switch in.Cmp {
		case isa.CmpLT:
			return lt
		case isa.CmpLE:
			return lt || eq
		case isa.CmpGT:
			return !lt && !eq
		case isa.CmpGE:
			return !lt
		case isa.CmpEQ:
			return eq
		case isa.CmpNE:
			return !eq
		}
		return false
	}

	a, bb, cc := val(in.SrcA), val(in.SrcB), val(in.SrcC)
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
		preds[in.PDst] = cmp(int32(a) < int32(bb), a == bb)
	case isa.OpFSETP:
		// A NaN operand leaves the pair unordered: only NE holds.
		if x, y := f32(a), f32(bb); x != x || y != y {
			preds[in.PDst] = in.Cmp == isa.CmpNE
		} else {
			preds[in.PDst] = cmp(x < y, x == y)
		}
	case isa.OpFADD:
		regs[in.Dst] = math.Float32bits(f32(a) + f32(bb))
	case isa.OpFMUL:
		regs[in.Dst] = math.Float32bits(f32(a) * f32(bb))
	case isa.OpFMAD:
		regs[in.Dst] = math.Float32bits(float32(f32(a)*f32(bb)) + f32(cc))
	case isa.OpFNMAD:
		regs[in.Dst] = math.Float32bits(f32(cc) - float32(f32(a)*f32(bb)))
	case isa.OpDADD:
		setPair(in.Dst, pair(in.SrcA)+pair(in.SrcB))
	case isa.OpDMUL:
		setPair(in.Dst, pair(in.SrcA)*pair(in.SrcB))
	case isa.OpDFMA:
		setPair(in.Dst, float64(pair(in.SrcA)*pair(in.SrcB))+pair(in.SrcC))
	case isa.OpSST:
		shared[(a+in.Imm)/4] = bb
	case isa.OpSLD:
		regs[in.Dst] = shared[(a+in.Imm)/4]
	case isa.OpGLD:
		// A thread loads only its own words, at the dump's offsets.
		regs[in.Dst] = out[in.Imm/4%workRegs]
	case isa.OpGST:
		// The dump: recover the register index from the offset.
		out[in.Imm/4%workRegs] = bb
	}
}
