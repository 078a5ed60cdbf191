package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassOfTable1(t *testing.T) {
	// Paper Table 1: mul is Type I; mov/add/mad Type II;
	// sin/cos/log/rcp Type III; double precision Type IV.
	cases := []struct {
		op   Opcode
		want Class
	}{
		{OpFMUL, ClassI},
		{OpIMUL, ClassI},
		{OpMOV, ClassII},
		{OpFADD, ClassII},
		{OpFMAD, ClassII},
		{OpIADD, ClassII},
		{OpSIN, ClassIII},
		{OpCOS, ClassIII},
		{OpLG2, ClassIII},
		{OpRCP, ClassIII},
		{OpDADD, ClassIV},
		{OpDMUL, ClassIV},
		{OpDFMA, ClassIV},
		// Memory and control issue like plain Type II instructions.
		{OpGLD, ClassII},
		{OpSST, ClassII},
		{OpBRA, ClassII},
		{OpBAR, ClassII},
	}
	for _, c := range cases {
		if got := ClassOf(c.op); got != c.want {
			t.Errorf("ClassOf(%s) = %s, want %s", c.op, got, c.want)
		}
	}
}

func TestClassUnits(t *testing.T) {
	// Table 1 unit counts: 10, 8, 4, 1.
	want := map[Class]int{ClassI: 10, ClassII: 8, ClassIII: 4, ClassIV: 1}
	for c, u := range want {
		if got := c.Units(); got != u {
			t.Errorf("%s.Units() = %d, want %d", c, got, u)
		}
	}
}

func TestEveryOpcodeHasNameAndClass(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		if op.String() == "" || op.String()[0] == 'o' && op.String()[1] == 'p' {
			t.Errorf("opcode %d has no name", op)
		}
		if c := ClassOf(op); c >= NumClasses {
			t.Errorf("opcode %s has invalid class %d", op, c)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !IsMemory(OpGLD) || !IsMemory(OpSST) || IsMemory(OpMOV) {
		t.Error("IsMemory misclassifies")
	}
	if !IsGlobal(OpGST) || IsGlobal(OpSLD) {
		t.Error("IsGlobal misclassifies")
	}
	if !IsShared(OpSLD) || IsShared(OpGLD) {
		t.Error("IsShared misclassifies")
	}
	if !IsControl(OpBAR) || !IsControl(OpEXIT) || IsControl(OpIADD) {
		t.Error("IsControl misclassifies")
	}
	if !WritesPredicate(OpISETP) || WritesPredicate(OpIADD) {
		t.Error("WritesPredicate misclassifies")
	}
}

func TestInstructionValidate(t *testing.T) {
	good := Instruction{Op: OpFMAD, Guard: PT, Dst: 3, SrcA: R(1), SrcB: R(2), SrcC: R(3)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instruction rejected: %v", err)
	}
	bad := []Instruction{
		{Op: Opcode(200), Guard: PT},
		{Op: OpISETP, Guard: PT, PDst: 9},
		{Op: OpMOV, Guard: Pred(9)},
		{Op: OpDADD, Guard: PT, Dst: NumRegs - 1, SrcA: R(0), SrcB: R(2)},
		{Op: OpMOV, Guard: PT, SrcA: Operand{Kind: OperandKind(7)}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instruction %d accepted: %v", i, in)
		}
	}
}

func TestProgramValidate(t *testing.T) {
	p := &Program{
		Name: "t",
		Code: []Instruction{
			{Op: OpMOV, Guard: PT, Dst: 5, SrcA: Imm(), Imm: 42},
			{Op: OpEXIT, Guard: PT},
		},
		RegsPerThread: 6,
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	noExit := &Program{Name: "noexit", Code: []Instruction{{Op: OpNOP, Guard: PT}}}
	if err := noExit.Validate(); err == nil {
		t.Error("program without exit accepted")
	}

	badTarget := &Program{
		Name:          "badtarget",
		Code:          []Instruction{{Op: OpBRA, Guard: PT, Target: 99}, {Op: OpEXIT, Guard: PT}},
		RegsPerThread: 0,
	}
	if err := badTarget.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}

	underDeclared := &Program{
		Name:          "under",
		Code:          []Instruction{{Op: OpMOV, Guard: PT, Dst: 10, SrcA: R(2)}, {Op: OpEXIT, Guard: PT}},
		RegsPerThread: 4,
	}
	if err := underDeclared.Validate(); err == nil {
		t.Error("under-declared register usage accepted")
	}

	// A double-precision source names the low register of a pair;
	// execution also reads its partner.
	pairSrc := &Program{
		Name:          "pairsrc",
		Code:          []Instruction{{Op: OpDADD, Guard: PT, Dst: 0, SrcA: R(2), SrcB: R(2)}, {Op: OpEXIT, Guard: PT}},
		RegsPerThread: 3,
	}
	if err := pairSrc.Validate(); err == nil {
		t.Error("double source pair beyond the declared registers accepted")
	}
	pairSrc.RegsPerThread = 4
	if err := pairSrc.Validate(); err != nil {
		t.Errorf("double source pair within the declared registers rejected: %v", err)
	}

	empty := &Program{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

// randomInstruction builds a structurally valid random instruction
// for round-trip properties.
func randomInstruction(rng *rand.Rand) Instruction {
	in := Instruction{
		Op:     Opcode(rng.Intn(NumOpcodes)),
		Guard:  Pred(rng.Intn(NumPreds + 1)),
		Dst:    Reg(rng.Intn(NumRegs - 1)), // leave room for double pairs
		PDst:   Pred(rng.Intn(NumPreds)),
		Cmp:    CmpOp(rng.Intn(NumCmps)),
		Imm:    rng.Uint32(),
		Target: int32(rng.Intn(1024)),
	}
	if in.Guard == Pred(NumPreds) {
		in.Guard = PT
	}
	in.GuardNeg = in.Guard != PT && rng.Intn(2) == 0
	if IsMemory(in.Op) {
		// Memory ops: register address (+Imm offset), register value.
		in.SrcA = R(Reg(rng.Intn(NumRegs)))
		if in.Op == OpGST || in.Op == OpSST {
			in.SrcB = R(Reg(rng.Intn(NumRegs)))
		}
		return in
	}
	ops := []*Operand{&in.SrcA, &in.SrcB, &in.SrcC}
	useSmem := rng.Intn(5) == 0 && !IsControl(in.Op)
	for i, o := range ops {
		switch rng.Intn(4) {
		case 0:
			*o = Operand{}
		case 1:
			*o = R(Reg(rng.Intn(NumRegs)))
		case 2:
			if useSmem {
				*o = R(Reg(rng.Intn(NumRegs))) // Imm slot taken by smem
			} else {
				*o = Imm()
			}
		case 3:
			*o = SR(SReg(rng.Intn(NumSRegs)))
		}
		if useSmem && i == 1 {
			*o = Smem()
		}
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		_ = seed
		in := randomInstruction(rng)
		var buf [WordSize]byte
		in.Encode(buf[:])
		out, err := Decode(buf[:])
		if err != nil {
			t.Logf("decode error for %v: %v", in, err)
			return false
		}
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	var buf [WordSize]byte
	(Instruction{Op: Opcode(250), Guard: PT}).Encode(buf[:])
	if _, err := Decode(buf[:]); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestEncodeProgramRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	code := make([]Instruction, 64)
	for i := range code {
		code[i] = randomInstruction(rng)
	}
	p := &Program{Name: "rt", Code: code, RegsPerThread: NumRegs}
	raw := EncodeProgram(p)
	if len(raw) != len(code)*WordSize {
		t.Fatalf("encoded size %d", len(raw))
	}
	got, err := DecodeProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range code {
		if code[i] != got[i] {
			t.Fatalf("instruction %d mismatch: %v vs %v", i, code[i], got[i])
		}
	}
	if _, err := DecodeProgram(raw[:len(raw)-5]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: OpFMAD, Guard: P1, GuardNeg: true, Dst: 2, SrcA: R(3), SrcB: Imm(), Imm: 0x10, SrcC: R(2)}
	got := in.String()
	want := "@!p1 fmad r2, r3, 0x10, r2"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	bra := Instruction{Op: OpBRA, Guard: P0, Target: 7}
	if got := bra.String(); got != "@p0 bra @7" {
		t.Errorf("String() = %q", got)
	}
}
