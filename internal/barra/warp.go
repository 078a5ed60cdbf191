package barra

import (
	"fmt"
	"math"
	"math/bits"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// LaneMask is a 32-lane occupancy bitmask: bit l is set when lane l
// participates. All hot-path lane sets (split masks, predicates, the
// active set of a step) are LaneMasks manipulated with math/bits, so
// per-step work is proportional to the popcount, not to WarpSize.
type LaneMask = uint32

// fullMask has every lane bit set; halfMask the low half-warp's.
const (
	fullMask LaneMask = 1<<gpu.WarpSize - 1
	halfMask LaneMask = 1<<gpu.HalfWarp - 1
)

// laneBits builds the mask of lanes [0, n).
func laneBits(n int) LaneMask {
	if n >= gpu.WarpSize {
		return fullMask
	}
	return 1<<uint(n) - 1
}

// Warp is the execution context of one warp: 32 lanes advancing in
// lockstep through the program.
//
// Intra-warp divergence is supported for structured *forward*
// branches: a divergent branch splits the warp into execution paths
// ("splits"), each a (mask, pc) pair; the warp always advances the
// split with the smallest PC, and splits whose PCs meet merge — the
// min-PC reconvergence scheme, which rejoins if/else and nested
// conditionals at their immediate post-dominators without explicit
// SSY/join markers. Divergent *backward* branches (per-lane loop
// trip counts) are rejected — express those with predication, as the
// paper's kernels do. Barriers may not execute while diverged.
type Warp struct {
	prog *isa.Program
	// meta is the predecoded per-PC metadata of prog.
	meta []instrMeta
	done bool

	regs  []uint32 // regsPerThread × WarpSize, index r*WarpSize+lane
	preds [isa.NumPreds]LaneMask
	// exists marks lanes that carry a real thread (the block size
	// need not be a warp multiple).
	exists LaneMask
	// splits are the live execution paths, unordered; Step picks
	// the minimum PC each time. There is always at least one.
	splits []split

	blockID int

	// shared is the block's shared-memory arena as aligned 32-bit
	// words (every ISA access is one word).
	shared []uint32
	global *Memory

	// smemOpVal caches the current instruction's shared-memory ALU
	// operand (warp-uniform by construction).
	smemOpVal uint32
	// scal backs broadcast operand views (one slot per source).
	scal [3][1]uint32
	// sregs resolves special-register operands to views: %tid and
	// %laneid read the per-lane columns tid and laneID, the rest
	// broadcast their slot of sregVal. NewWarp builds the table;
	// Reset refreshes %ctaid. The backing arrays live in the struct
	// so that a warp costs no extra allocation; since the views point
	// into the warp itself, a Warp is only ever used by pointer.
	sregs       [isa.NumSRegs]view
	sregVal     [isa.NumSRegs]uint32
	tid, laneID [gpu.WarpSize]uint32

	// undo, when non-nil, logs every global store as a (word index,
	// old value) pair so the engine path can rewind the block on a
	// replay-signature miss (see replay.go). Nil on the live path.
	undo *[]uint32
}

// StepInfo reports what one Step executed; it is reused across calls
// to avoid allocation in the simulators' hot loop.
type StepInfo struct {
	// PC is the index of the executed instruction.
	PC int
	// In points at the executed instruction inside the program; it is
	// valid until the program is released (programs are immutable
	// while warps run them).
	In *isa.Instruction
	// Class caches isa.ClassOf(In.Op), predecoded per PC.
	Class isa.Class
	// Active is the bitmask of lanes that actually executed
	// (exists ∧ path ∧ guard).
	Active LaneMask
	// ActiveCount is the popcount of Active.
	ActiveCount int
	// Addr holds per-lane byte addresses for memory instructions.
	Addr [gpu.WarpSize]uint32
	// SmemOperand is set when the instruction read a shared-memory
	// ALU operand (s[imm]). The access is warp-uniform, so it
	// broadcasts: one transaction per active half-warp.
	SmemOperand bool
	// Barrier is set when the instruction was a BAR.
	Barrier bool
	// Done is set when the warp has exited.
	Done bool
	// Diverged is set when the warp was split across more than one
	// execution path when this instruction issued — the issues a
	// divergence-free restructuring could pack into full warps.
	Diverged bool
}

// HalfMask returns the active mask of one half-warp, shifted down to
// bit 0 (a 16-bit value).
func (si *StepInfo) HalfMask(half int) LaneMask {
	return si.Active >> uint(half*gpu.HalfWarp) & halfMask
}

// GatherHalf collects one half-warp's active-lane addresses into buf,
// visiting only set mask bits, and returns the filled prefix — the
// shape both the stats engine and the timing simulator feed to the
// bank and coalesce simulators.
func (si *StepInfo) GatherHalf(half int, buf *[gpu.HalfWarp]uint32) []uint32 {
	base := half * gpu.HalfWarp
	n := 0
	for m := si.HalfMask(half); m != 0; m &= m - 1 {
		buf[n] = si.Addr[base+bits.TrailingZeros32(m)]
		n++
	}
	return buf[:n]
}

// split is one SIMT execution path: the lanes it carries and its
// program counter.
type split struct {
	mask LaneMask
	pc   int
}

// maxSplits bounds pathological divergence (structured code needs
// depth ≈ nesting level).
const maxSplits = 64

// execKind is the predecoded top-level dispatch tag of one
// instruction: Step switches on it instead of re-deriving the
// control/ALU distinction from the opcode every step.
type execKind uint8

const (
	kindExec execKind = iota // everything exec executes
	kindBra
	kindExit
	kindBar
)

// instrMeta is the per-PC predecoded metadata: everything Step would
// otherwise re-derive from the instruction on every execution.
type instrMeta struct {
	class   isa.Class
	kind    execKind
	hasSmem bool // reads a shared-memory ALU operand
	// run is the length of the maximal batched run starting at this
	// PC: consecutive per-lane instructions that are unguarded (so
	// the active mask is the split mask throughout) and touch no
	// memory (so no per-lane addresses need recording). 0 when this
	// instruction cannot head a run. stepRun executes a whole run in
	// one call when the warp is convergent.
	run int32
}

// predecode builds the per-PC metadata of p. It runs once per
// NewWarp — a few compares per instruction, noise next to the many
// times each instruction executes — so no cross-program cache is
// needed (and none retains programs beyond their run).
func predecode(p *isa.Program) []instrMeta {
	meta := make([]instrMeta, len(p.Code))
	for i := range p.Code {
		in := &p.Code[i]
		md := instrMeta{class: isa.ClassOf(in.Op), kind: kindExec}
		switch in.Op {
		case isa.OpBRA:
			md.kind = kindBra
		case isa.OpEXIT:
			md.kind = kindExit
		case isa.OpBAR:
			md.kind = kindBar
		}
		md.hasSmem = in.SrcA.Kind == isa.KindSmem ||
			in.SrcB.Kind == isa.KindSmem || in.SrcC.Kind == isa.KindSmem
		meta[i] = md
	}
	for i := len(meta) - 1; i >= 0; i-- {
		in := &p.Code[i]
		if meta[i].kind == kindExec && in.Guard == isa.PT && !in.GuardNeg &&
			!isa.IsMemory(in.Op) {
			meta[i].run = 1
			if i+1 < len(meta) {
				meta[i].run += meta[i+1].run
			}
		}
	}
	return meta
}

// NewWarp builds a warp ready to run prog. Lanes [0,lanes) exist.
func NewWarp(prog *isa.Program, blockID, warpID, blockDim, gridDim, lanes int, shared []uint32, global *Memory) (*Warp, error) {
	if lanes <= 0 || lanes > gpu.WarpSize {
		return nil, fmt.Errorf("barra: warp with %d lanes", lanes)
	}
	w := &Warp{
		prog:    prog,
		meta:    predecode(prog),
		regs:    make([]uint32, prog.RegsPerThread*gpu.WarpSize),
		exists:  laneBits(lanes),
		blockID: blockID,
		shared:  shared,
		global:  global,
		sregVal: [isa.NumSRegs]uint32{
			isa.SRCtaid:  uint32(blockID),
			isa.SRNtid:   uint32(blockDim),
			isa.SRNctaid: uint32(gridDim),
			isa.SRWarp:   uint32(warpID),
		},
	}
	for l := range w.tid {
		w.tid[l] = uint32(warpID*gpu.WarpSize + l)
		w.laneID[l] = uint32(l)
	}
	for s := range w.sregs {
		w.sregs[s] = view{w.sregVal[s : s+1], 0}
	}
	w.sregs[isa.SRTid] = view{w.tid[:], gpu.WarpSize - 1}
	w.sregs[isa.SRLane] = view{w.laneID[:], gpu.WarpSize - 1}
	w.splits = []split{{mask: w.exists, pc: 0}}
	return w, nil
}

// Reset rebinds the warp to a new block without reallocating: it
// clears registers, predicates and divergence state and restarts at
// PC 0. The lane-existence mask, geometry and memory bindings are
// unchanged — the worker pool reuses one set of warp contexts across
// every block it executes (the caller zeroes the shared-memory arena
// between blocks).
func (w *Warp) Reset(blockID int) {
	w.blockID = blockID
	w.sregVal[isa.SRCtaid] = uint32(blockID)
	w.done = false
	clear(w.regs)
	w.preds = [isa.NumPreds]LaneMask{}
	w.splits = w.splits[:1]
	w.splits[0] = split{mask: w.exists, pc: 0}
	w.smemOpVal = 0
}

// Diverged reports whether the warp currently executes on more than
// one SIMT path.
func (w *Warp) Diverged() bool { return len(w.splits) > 1 }

// current returns the index of the split to execute next (minimum
// PC), merging any splits that have reconverged.
func (w *Warp) current() int {
	cur := 0
	for i := 1; i < len(w.splits); i++ {
		if w.splits[i].pc < w.splits[cur].pc {
			cur = i
		}
	}
	// Merge splits whose PCs meet the current one.
	for i := len(w.splits) - 1; i >= 0; i-- {
		if i == cur || w.splits[i].pc != w.splits[cur].pc {
			continue
		}
		w.splits[cur].mask |= w.splits[i].mask
		if i < cur {
			cur--
		}
		w.splits = append(w.splits[:i], w.splits[i+1:]...) //gpuperf:alloc-ok in-place compaction of the splits stack; the length only shrinks
	}
	return cur
}

// Done reports whether the warp has exited.
func (w *Warp) Done() bool { return w.done }

// PC returns the program counter of the split that will execute
// next.
func (w *Warp) PC() int { return w.splits[w.current()].pc }

// guardMask returns the mask of lanes where the instruction's guard
// predicate holds.
func (w *Warp) guardMask(in *isa.Instruction) LaneMask {
	if in.Guard == isa.PT {
		if in.GuardNeg {
			return 0
		}
		return fullMask
	}
	v := w.preds[in.Guard]
	if in.GuardNeg {
		return ^v & fullMask
	}
	return v
}

// Step executes the instruction at the current PC and fills info.
// BAR advances the PC and sets info.Barrier; the scheduler is
// responsible for holding the warp until the block synchronizes.
//
//gpuperf:noalloc
func (w *Warp) Step(info *StepInfo) error {
	if w.done {
		return fmt.Errorf("barra: step after exit in %q", w.prog.Name)
	}
	cur := w.current()
	pc := w.splits[cur].pc
	if pc < 0 || pc >= len(w.prog.Code) {
		return fmt.Errorf("barra: pc %d out of range in %q", pc, w.prog.Name)
	}

	in := &w.prog.Code[pc]
	md := &w.meta[pc]
	info.PC = pc
	info.In = in
	info.Class = md.class
	info.Barrier = false
	info.Done = false
	info.SmemOperand = false
	info.Diverged = len(w.splits) > 1

	active := w.splits[cur].mask & w.guardMask(in)
	info.Active = active
	info.ActiveCount = bits.OnesCount32(active)

	switch md.kind {
	case kindBra:
		return w.branch(in, cur)
	case kindExit:
		if w.Diverged() {
			return fmt.Errorf("barra: exit inside divergent region at pc %d in %q", pc, w.prog.Name)
		}
		w.done = true
		info.Done = true
		return nil
	case kindBar:
		if w.Diverged() {
			return fmt.Errorf("barra: barrier inside divergent region at pc %d in %q (undefined on hardware)", pc, w.prog.Name)
		}
		info.Barrier = true
		w.splits[cur].pc++
		return nil
	}

	if active != 0 && md.hasSmem {
		v, err := w.sharedLoad(in.Imm)
		if err != nil {
			return fmt.Errorf("barra: %q pc=%d: shared operand: %w", w.prog.Name, pc, err)
		}
		w.smemOpVal = v
		info.SmemOperand = true
	}

	if err := w.exec(in, active, pc, &info.Addr); err != nil {
		return err
	}
	w.splits[cur].pc++
	return nil
}

// stepRun executes n consecutive instructions starting at the
// current PC in one call. The caller guarantees the warp is
// convergent and n ≤ the predecoded run length at the PC, so every
// instruction executes with the full split mask and no control
// transfer, memory access, or divergence change can occur: the only
// bookkeeping per instruction is the shared-operand broadcast.
//
//gpuperf:noalloc
func (w *Warp) stepRun(n int) error {
	s := &w.splits[0]
	pc := s.pc
	mask := s.mask
	for k := 0; k < n; k++ {
		in := &w.prog.Code[pc+k]
		md := &w.meta[pc+k]
		if md.hasSmem {
			v, err := w.sharedLoad(in.Imm)
			if err != nil {
				return fmt.Errorf("barra: %q pc=%d: shared operand: %w", w.prog.Name, pc+k, err)
			}
			w.smemOpVal = v
		}
		// A run holds no memory instruction, so exec records no
		// addresses.
		if err := w.exec(in, mask, pc+k, nil); err != nil {
			return err
		}
	}
	s.pc = pc + n
	return nil
}

// view is a hoisted per-lane operand: base slice s indexed l&m, where
// m is WarpSize-1 for a per-lane column (a register, %tid, %laneid)
// and 0 for a broadcast scalar (immediate, shared-memory operand,
// warp-uniform special register, absent source).
type view struct {
	s []uint32
	m int
}

func (v view) at(l int) uint32   { return v.s[l&v.m] }
func (v view) fat(l int) float32 { return math.Float32frombits(v.s[l&v.m]) }

// regCol returns register r's 32-lane column.
func (w *Warp) regCol(r isa.Reg) []uint32 {
	base := int(r) * gpu.WarpSize
	return w.regs[base : base+gpu.WarpSize : base+gpu.WarpSize]
}

// srcView resolves one source operand into a view; k picks the
// broadcast scratch slot (0..2 for SrcA..SrcC).
func (w *Warp) srcView(o isa.Operand, imm uint32, k int) view {
	switch o.Kind {
	case isa.KindReg:
		return view{w.regCol(o.Reg), gpu.WarpSize - 1}
	case isa.KindSReg:
		return w.sregs[o.SReg]
	case isa.KindSmem:
		imm = w.smemOpVal
	case isa.KindImm:
	default:
		imm = 0
	}
	w.scal[k][0] = imm
	return view{w.scal[k][:1], 0}
}

// pairAt reads lane l's double from a register-pair source (low word
// in o.Reg, high word in o.Reg+1); any other operand reads as 0.
func (w *Warp) pairAt(o isa.Operand, l int) float64 {
	if o.Kind != isa.KindReg {
		return 0
	}
	i := int(o.Reg)*gpu.WarpSize + l
	return math.Float64frombits(uint64(w.regs[i+gpu.WarpSize])<<32 | uint64(w.regs[i]))
}

// exec executes one predecoded non-control instruction for every
// active lane, with the opcode dispatch and operand resolution
// hoisted out of the lane loop. addrs receives per-lane byte
// addresses for memory instructions; it may be nil for any other.
func (w *Warp) exec(in *isa.Instruction, active LaneMask, pc int, addrs *[gpu.WarpSize]uint32) error {
	const ws = gpu.WarpSize
	switch in.Op {
	case isa.OpNOP:

	case isa.OpMOV, isa.OpS2R:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		if active == ^LaneMask(0) {
			if a.m != 0 {
				copy(d, a.s)
			} else {
				v := a.s[0]
				for l := range d {
					d[l] = v
				}
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l)
			}
		}
	case isa.OpIADD:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		// Full-mask fast paths: constant-length reslices eliminate the
		// per-lane bounds and mask work of view.at.
		if active == ^LaneMask(0) && a.m != 0 {
			ds, as := d[:ws], a.s[:ws]
			if b.m != 0 {
				bs := b.s[:ws]
				for l := 0; l < ws; l++ {
					ds[l] = as[l] + bs[l]
				}
			} else {
				bv := b.s[0]
				for l := 0; l < ws; l++ {
					ds[l] = as[l] + bv
				}
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) + b.at(l)
			}
		}
	case isa.OpISUB:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) - b.at(l)
			}
		}
	case isa.OpIMUL:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) * b.at(l)
			}
		}
	case isa.OpIMAD:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		c := w.srcView(in.SrcC, in.Imm, 2)
		if active == ^LaneMask(0) && a.m&c.m != 0 {
			ds, as, cs := d[:ws], a.s[:ws], c.s[:ws]
			if b.m != 0 {
				bs := b.s[:ws]
				for l := 0; l < ws; l++ {
					ds[l] = as[l]*bs[l] + cs[l]
				}
			} else {
				bv := b.s[0]
				for l := 0; l < ws; l++ {
					ds[l] = as[l]*bv + cs[l]
				}
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l)*b.at(l) + c.at(l)
			}
		}
	case isa.OpIMIN:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = uint32(min(int32(a.at(l)), int32(b.at(l))))
			}
		}
	case isa.OpIMAX:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = uint32(max(int32(a.at(l)), int32(b.at(l))))
			}
		}
	case isa.OpSHL:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		if active == ^LaneMask(0) && a.m != 0 && b.m == 0 {
			ds, as, sh := d[:ws], a.s[:ws], b.s[0]&31
			for l := 0; l < ws; l++ {
				ds[l] = as[l] << sh
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) << (b.at(l) & 31)
			}
		}
	case isa.OpSHR:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) >> (b.at(l) & 31)
			}
		}
	case isa.OpAND:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) & b.at(l)
			}
		}
	case isa.OpOR:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) | b.at(l)
			}
		}
	case isa.OpXOR:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = a.at(l) ^ b.at(l)
			}
		}
	case isa.OpISETP:
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		var res LaneMask
		if active == ^LaneMask(0) && a.m != 0 && b.m == 0 {
			as, bv, cmp := a.s[:ws], int32(b.s[0]), in.Cmp
			for l := 0; l < ws; l++ {
				if icmp(cmp, int32(as[l]), bv) {
					res |= 1 << uint(l)
				}
			}
		} else {
			for l := 0; l < ws; l++ {
				if active>>uint(l)&1 != 0 && icmp(in.Cmp, int32(a.at(l)), int32(b.at(l))) {
					res |= 1 << uint(l)
				}
			}
		}
		w.preds[in.PDst] = w.preds[in.PDst]&^active | res
	case isa.OpFSETP:
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		var res LaneMask
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 && fcmp(in.Cmp, a.fat(l), b.fat(l)) {
				res |= 1 << uint(l)
			}
		}
		w.preds[in.PDst] = w.preds[in.PDst]&^active | res
	case isa.OpFADD:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		if active == ^LaneMask(0) && a.m&b.m != 0 {
			ds, as, bs := d[:ws], a.s[:ws], b.s[:ws]
			for l := 0; l < ws; l++ {
				ds[l] = math.Float32bits(math.Float32frombits(as[l]) + math.Float32frombits(bs[l]))
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(a.fat(l) + b.fat(l))
			}
		}
	case isa.OpFSUB:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(a.fat(l) - b.fat(l))
			}
		}
	case isa.OpFMUL:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		if active == ^LaneMask(0) && a.m&b.m != 0 {
			ds, as, bs := d[:ws], a.s[:ws], b.s[:ws]
			for l := 0; l < ws; l++ {
				ds[l] = math.Float32bits(math.Float32frombits(as[l]) * math.Float32frombits(bs[l]))
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(a.fat(l) * b.fat(l))
			}
		}
	case isa.OpFMAD:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		c := w.srcView(in.SrcC, in.Imm, 2)
		if active == ^LaneMask(0) && b.m&c.m != 0 {
			ds, bs, cs := d[:ws], b.s[:ws], c.s[:ws]
			if a.m != 0 {
				as := a.s[:ws]
				for l := 0; l < ws; l++ {
					ds[l] = math.Float32bits(math.Float32frombits(as[l])*math.Float32frombits(bs[l]) + math.Float32frombits(cs[l]))
				}
			} else {
				av := math.Float32frombits(a.s[0])
				for l := 0; l < ws; l++ {
					ds[l] = math.Float32bits(av*math.Float32frombits(bs[l]) + math.Float32frombits(cs[l]))
				}
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(a.fat(l)*b.fat(l) + c.fat(l))
			}
		}
	case isa.OpFNMAD:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		c := w.srcView(in.SrcC, in.Imm, 2)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(c.fat(l) - a.fat(l)*b.fat(l))
			}
		}
	case isa.OpFMIN:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(math.Min(float64(a.fat(l)), float64(b.fat(l)))))
			}
		}
	case isa.OpFMAX:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		b := w.srcView(in.SrcB, in.Imm, 1)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(math.Max(float64(a.fat(l)), float64(b.fat(l)))))
			}
		}
	case isa.OpRCP:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(1 / a.fat(l))
			}
		}
	case isa.OpRSQ:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(1 / math.Sqrt(float64(a.fat(l)))))
			}
		}
	case isa.OpSIN:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(math.Sin(float64(a.fat(l)))))
			}
		}
	case isa.OpCOS:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(math.Cos(float64(a.fat(l)))))
			}
		}
	case isa.OpLG2:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(math.Log2(float64(a.fat(l)))))
			}
		}
	case isa.OpEX2:
		d := w.regCol(in.Dst)
		a := w.srcView(in.SrcA, in.Imm, 0)
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 != 0 {
				d[l] = math.Float32bits(float32(math.Exp2(float64(a.fat(l)))))
			}
		}
	case isa.OpDADD, isa.OpDMUL, isa.OpDFMA:
		// Each lane reads its source pairs before writing its
		// destination pair, which may alias them.
		for m := active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			x, y := w.pairAt(in.SrcA, l), w.pairAt(in.SrcB, l)
			var r float64
			switch in.Op {
			case isa.OpDADD:
				r = x + y
			case isa.OpDMUL:
				r = x * y
			default:
				r = x*y + w.pairAt(in.SrcC, l)
			}
			v := math.Float64bits(r)
			i := int(in.Dst)*ws + l
			w.regs[i], w.regs[i+ws] = uint32(v), uint32(v>>32)
		}

	case isa.OpGLD:
		d := w.regCol(in.Dst)
		a := w.regCol(in.SrcA.Reg) // memory addresses are always registers
		imm := in.Imm
		if g := w.global; g.writers == nil {
			// Tracking disarmed: load32 reduces to a bounds check and a
			// word read, inlined here because gathers dominate the
			// memory-bound profile.
			words := g.words
			for l := 0; l < ws; l++ {
				if active>>uint(l)&1 == 0 {
					continue
				}
				addr := a[l] + imm
				addrs[l] = addr
				i := addr >> 2
				if addr&3 != 0 || int(i) >= len(words) {
					return fmt.Errorf("barra: %q pc=%d lane=%d: %w", w.prog.Name, pc, l, g.check(addr))
				}
				d[l] = words[i]
			}
			break
		}
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 == 0 {
				continue
			}
			addr := a[l] + imm
			addrs[l] = addr
			v, err := w.global.load32(addr, w.blockID)
			if err != nil {
				return fmt.Errorf("barra: %q pc=%d lane=%d: %w", w.prog.Name, pc, l, err)
			}
			d[l] = v
		}
	case isa.OpGST:
		a := w.regCol(in.SrcA.Reg)
		b := w.srcView(in.SrcB, in.Imm, 1)
		imm := in.Imm
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 == 0 {
				continue
			}
			addr := a[l] + imm
			addrs[l] = addr
			if u := w.undo; u != nil {
				if i := addr >> 2; addr&3 == 0 && int(i) < len(w.global.words) {
					*u = append(*u, i, w.global.words[i]) //gpuperf:alloc-ok undo log reuses per-worker capacity across blocks; growth amortizes to zero
				}
			}
			if err := w.global.store32(addr, b.at(l), w.blockID); err != nil {
				return fmt.Errorf("barra: %q pc=%d lane=%d: %w", w.prog.Name, pc, l, err)
			}
		}
	case isa.OpSLD:
		d := w.regCol(in.Dst)
		a := w.regCol(in.SrcA.Reg)
		imm := in.Imm
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 == 0 {
				continue
			}
			addr := a[l] + imm
			addrs[l] = addr
			v, err := w.sharedLoad(addr)
			if err != nil {
				return fmt.Errorf("barra: %q pc=%d lane=%d: %w", w.prog.Name, pc, l, err)
			}
			d[l] = v
		}
	case isa.OpSST:
		a := w.regCol(in.SrcA.Reg)
		b := w.srcView(in.SrcB, in.Imm, 1)
		imm := in.Imm
		for l := 0; l < ws; l++ {
			if active>>uint(l)&1 == 0 {
				continue
			}
			addr := a[l] + imm
			addrs[l] = addr
			if err := w.sharedStore(addr, b.at(l)); err != nil {
				return fmt.Errorf("barra: %q pc=%d lane=%d: %w", w.prog.Name, pc, l, err)
			}
		}
	default:
		return fmt.Errorf("barra: %q pc=%d: unimplemented opcode %s", w.prog.Name, pc, in.Op)
	}
	return nil
}

// branch executes a (possibly divergent) branch on the split cur.
// Uniform outcomes jump or fall through as a unit; a divergent
// forward branch splits the path in two (fall-through lanes and
// taken lanes), which the min-PC scheduler later re-merges at the
// immediate post-dominator. Divergent backward branches are
// rejected — unstructured loops need per-lane trip masking, which
// the case-study kernels express with predication instead.
func (w *Warp) branch(in *isa.Instruction, cur int) error {
	pc := w.splits[cur].pc
	mask := w.splits[cur].mask
	takenMask := mask & w.guardMask(in)
	activeCount := bits.OnesCount32(mask)
	takenCount := bits.OnesCount32(takenMask)
	switch {
	case activeCount == 0 || takenCount == 0:
		w.splits[cur].pc++
	case takenCount == activeCount:
		w.splits[cur].pc = int(in.Target)
	case int(in.Target) > pc:
		if len(w.splits) >= maxSplits {
			return fmt.Errorf("barra: divergence fan-out exceeds %d paths at pc %d in %q",
				maxSplits, pc, w.prog.Name)
		}
		w.splits[cur].mask = mask &^ takenMask
		w.splits[cur].pc++
		w.splits = append(w.splits, split{mask: takenMask, pc: int(in.Target)}) //gpuperf:alloc-ok bounded by maxSplits; capacity is reused across blocks via Reset
	default:
		return fmt.Errorf("barra: divergent backward branch at pc %d in %q (use predication for per-lane loop trip counts)",
			pc, w.prog.Name)
	}
	return nil
}

func (w *Warp) sharedLoad(addr uint32) (uint32, error) {
	i := addr >> 2
	if addr&3 != 0 {
		return 0, fmt.Errorf("unaligned shared load at %#x", addr)
	}
	if int(i) >= len(w.shared) {
		return 0, fmt.Errorf("shared load at %#x beyond allocation %#x", addr, 4*len(w.shared))
	}
	return w.shared[i], nil
}

func (w *Warp) sharedStore(addr, v uint32) error {
	i := addr >> 2
	if addr&3 != 0 {
		return fmt.Errorf("unaligned shared store at %#x", addr)
	}
	if int(i) >= len(w.shared) {
		return fmt.Errorf("shared store at %#x beyond allocation %#x", addr, 4*len(w.shared))
	}
	w.shared[i] = v
	return nil
}

func icmp(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	}
	return false
}

func fcmp(c isa.CmpOp, a, b float32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	}
	return false
}
