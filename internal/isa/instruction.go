package isa

import (
	"fmt"
	"strings"
)

// Reg is a general-purpose 32-bit register index (R0..R127).
type Reg uint8

// NumRegs is the size of the architectural register name space per
// thread.
const NumRegs = 128

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Pred is a predicate register index. PT is the constant-true
// predicate used by unconditional instructions.
type Pred uint8

// Predicate registers P0..P3 plus the always-true PT.
const (
	P0 Pred = iota
	P1
	P2
	P3
	PT
	// NumPreds is the number of writable predicate registers.
	NumPreds = 4
)

func (p Pred) String() string {
	if p == PT {
		return "pt"
	}
	return fmt.Sprintf("p%d", uint8(p))
}

// SReg identifies a read-only special register available through S2R.
type SReg uint8

// Special registers.
const (
	SRTid   SReg = iota // thread index within the block (x)
	SRCtaid             // block index within the grid (x)
	SRNtid              // threads per block (x)
	SRNctaid
	SRLane // lane within the warp
	SRWarp // warp index within the block
	numSRegs
)

// NumSRegs is the count of special registers.
const NumSRegs = int(numSRegs)

var sregNames = [...]string{
	SRTid: "tid", SRCtaid: "ctaid", SRNtid: "ntid",
	SRNctaid: "nctaid", SRLane: "laneid", SRWarp: "warpid",
}

func (s SReg) String() string {
	if int(s) < len(sregNames) {
		return "%" + sregNames[s]
	}
	return fmt.Sprintf("%%sreg(%d)", uint8(s))
}

// OperandKind distinguishes the source-operand forms.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg              // general-purpose register
	KindImm              // 32-bit immediate (shared Imm field)
	KindSReg             // special register (only via S2R in hardware,
	// but the builder accepts it anywhere and lowers it)
	KindSmem // shared-memory word at byte address Imm — GT200's
	// s[offset] ALU operand, central to dense matrix multiply's
	// high MAD density (one mad per shared word, no separate load)
	numOperandKinds
)

// Operand is one source operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg  // valid when Kind == KindReg
	SReg SReg // valid when Kind == KindSReg
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// Imm makes an immediate operand; the value itself lives in
// Instruction.Imm (one immediate per instruction, as on GT200).
func Imm() Operand { return Operand{Kind: KindImm} }

// SR makes a special-register operand.
func SR(s SReg) Operand { return Operand{Kind: KindSReg, SReg: s} }

// Smem makes a shared-memory operand; the byte address lives in
// Instruction.Imm (sharing the immediate slot, as on GT200 where an
// instruction carries one constant field).
func Smem() Operand { return Operand{Kind: KindSmem} }

func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return "-"
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return "#imm"
	case KindSReg:
		return o.SReg.String()
	case KindSmem:
		return "s[#imm]"
	}
	return "?"
}

// CmpOp is the comparison mode of a predicate-setting instruction.
type CmpOp uint8

// Comparison modes for ISETP/FSETP.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
	numCmps
)

// NumCmps is the number of comparison modes.
const NumCmps = int(numCmps)

var cmpNames = [...]string{
	CmpLT: "lt", CmpLE: "le", CmpGT: "gt", CmpGE: "ge", CmpEQ: "eq", CmpNE: "ne",
}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Instruction is one decoded machine instruction.
//
// All instructions are guarded: an instruction executes in a lane
// only when the guard predicate (negated if PredNeg) holds there.
// The canonical unguarded form uses Guard == PT.
type Instruction struct {
	Op       Opcode
	Guard    Pred // guard predicate; PT for unconditional
	GuardNeg bool

	Dst  Reg   // destination register (ALU, loads, S2R)
	PDst Pred  // destination predicate (ISETP/FSETP)
	Cmp  CmpOp // comparison mode (ISETP/FSETP only)

	SrcA, SrcB, SrcC Operand
	Imm              uint32 // immediate payload if any operand is KindImm
	Target           int32  // branch target, instruction index (BRA)
}

// Uncond reports whether the instruction executes regardless of
// predicate state.
func (in Instruction) Uncond() bool { return in.Guard == PT && !in.GuardNeg }

// Validate checks structural well-formedness: defined opcode, legal
// register and predicate indices, and operand shapes appropriate to
// the opcode. It does not check program-level properties (branch
// targets in range); Program.Validate does that.
//
// The Imm field is a single shared constant slot, as on GT200: it
// serves either one KindImm operand, one KindSmem operand's byte
// address, or a memory instruction's address offset — so those uses
// are mutually exclusive.
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Guard != PT && in.Guard >= NumPreds {
		return fmt.Errorf("isa: invalid guard predicate %d", in.Guard)
	}
	if WritesPredicate(in.Op) {
		if in.PDst >= NumPreds {
			return fmt.Errorf("isa: %s writes invalid predicate %d", in.Op, in.PDst)
		}
		if in.Cmp >= numCmps {
			return fmt.Errorf("isa: %s has invalid comparison %d", in.Op, in.Cmp)
		}
	}
	immUses, smemOps := 0, 0
	for _, o := range []Operand{in.SrcA, in.SrcB, in.SrcC} {
		switch o.Kind {
		case KindNone:
		case KindImm:
			immUses++
		case KindSmem:
			immUses++
			smemOps++
		case KindReg:
			if int(o.Reg) >= NumRegs {
				return fmt.Errorf("isa: register %d out of range", o.Reg)
			}
		case KindSReg:
			if int(o.SReg) >= NumSRegs {
				return fmt.Errorf("isa: special register %d out of range", o.SReg)
			}
		default:
			return fmt.Errorf("isa: invalid operand kind %d", o.Kind)
		}
	}
	if smemOps > 1 {
		return fmt.Errorf("isa: %s has %d shared-memory operands (max 1)", in.Op, smemOps)
	}
	if smemOps == 1 && immUses > 1 {
		return fmt.Errorf("isa: %s mixes shared-memory and immediate operands in one Imm slot", in.Op)
	}
	if smemOps > 0 && (IsMemory(in.Op) || IsControl(in.Op)) {
		return fmt.Errorf("isa: %s cannot take a shared-memory operand", in.Op)
	}
	if IsMemory(in.Op) {
		// Memory instructions address through SrcA + Imm offset; the
		// address register must be a register and the store value
		// must not claim the Imm slot.
		if in.SrcA.Kind != KindReg {
			return fmt.Errorf("isa: %s address operand must be a register", in.Op)
		}
		if immUses > 0 {
			return fmt.Errorf("isa: %s uses Imm as address offset; immediate operands not allowed", in.Op)
		}
	}
	if IsDouble(in.Op) {
		// Doubles use register pairs (r, r+1); the named register
		// must leave room for its partner.
		if int(in.Dst)+1 >= NumRegs {
			return fmt.Errorf("isa: double dst pair %d,%d out of range", in.Dst, in.Dst+1)
		}
	}
	return nil
}

// String renders the instruction in the assembler's text syntax.
func (in Instruction) String() string {
	var b strings.Builder
	if !in.Uncond() {
		b.WriteByte('@')
		if in.GuardNeg {
			b.WriteByte('!')
		}
		b.WriteString(in.Guard.String())
		b.WriteByte(' ')
	}
	b.WriteString(in.Op.String())
	if WritesPredicate(in.Op) {
		b.WriteByte('.')
		b.WriteString(in.Cmp.String())
	}
	args := make([]string, 0, 4)
	if WritesPredicate(in.Op) {
		args = append(args, in.PDst.String())
	} else if hasDst(in.Op) {
		args = append(args, in.Dst.String())
	}
	for _, o := range []Operand{in.SrcA, in.SrcB, in.SrcC} {
		switch o.Kind {
		case KindNone:
		case KindImm:
			args = append(args, fmt.Sprintf("0x%x", in.Imm))
		case KindSmem:
			args = append(args, fmt.Sprintf("s[0x%x]", in.Imm))
		default:
			args = append(args, o.String())
		}
	}
	if IsMemory(in.Op) && in.Imm != 0 {
		args = append(args, fmt.Sprintf("+0x%x", in.Imm))
	}
	if in.Op == OpBRA {
		args = append(args, fmt.Sprintf("@%d", in.Target))
	}
	if len(args) > 0 {
		b.WriteByte(' ')
		b.WriteString(strings.Join(args, ", "))
	}
	return b.String()
}

func hasDst(op Opcode) bool {
	switch op {
	case OpNOP, OpEXIT, OpBRA, OpBAR, OpGST, OpSST, OpISETP, OpFSETP:
		return false
	}
	return true
}

// HasDst reports whether the opcode writes a general-purpose
// destination register.
func HasDst(op Opcode) bool { return hasDst(op) }

// Program is a straight-line sequence of instructions with branch
// targets expressed as instruction indices.
type Program struct {
	// Name labels the kernel in reports and containers.
	Name string
	// Code is the instruction sequence. Execution begins at index 0
	// and ends at an EXIT.
	Code []Instruction
	// RegsPerThread is the number of registers the kernel uses per
	// thread (for occupancy); must cover every register referenced.
	RegsPerThread int
	// SharedMemBytes is the static shared-memory allocation per
	// block.
	SharedMemBytes int
}

// Validate checks every instruction plus program-level invariants:
// branch targets in range, terminating EXIT present, and declared
// register usage covering actual usage.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	maxReg := -1
	hasExit := false
	for i, in := range p.Code {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: %q instruction %d: %w", p.Name, i, err)
		}
		if in.Op == OpEXIT {
			hasExit = true
		}
		if in.Op == OpBRA && (in.Target < 0 || int(in.Target) >= len(p.Code)) {
			return fmt.Errorf("isa: %q instruction %d: branch target %d out of range [0,%d)",
				p.Name, i, in.Target, len(p.Code))
		}
		if hasDst(in.Op) {
			r := int(in.Dst)
			if IsDouble(in.Op) {
				r++
			}
			if r > maxReg {
				maxReg = r
			}
		}
		for _, o := range []Operand{in.SrcA, in.SrcB, in.SrcC} {
			if o.Kind != KindReg {
				continue
			}
			r := int(o.Reg)
			if IsDouble(in.Op) {
				r++ // the pair's high word
			}
			if r > maxReg {
				maxReg = r
			}
		}
	}
	if !hasExit {
		return fmt.Errorf("isa: program %q has no exit", p.Name)
	}
	if p.RegsPerThread < maxReg+1 {
		return fmt.Errorf("isa: program %q declares %d registers but uses %d",
			p.Name, p.RegsPerThread, maxReg+1)
	}
	return nil
}
