package microbench

import (
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

func TestInstrChainComposition(t *testing.T) {
	for _, op := range []isa.Opcode{isa.OpFMAD, isa.OpFMUL, isa.OpRCP, isa.OpSIN, isa.OpDFMA, isa.OpMOV, isa.OpFADD, isa.OpDADD, isa.OpDMUL} {
		p, err := InstrChain(op, 50)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		n := 0
		for _, in := range p.Code {
			if isa.ClassOf(in.Op) == isa.ClassOf(op) {
				n++
			}
		}
		if n < 50 {
			t.Errorf("%s: chain has %d instructions of its class", op, n)
		}
	}
	if _, err := InstrChain(isa.OpFMAD, 0); err == nil {
		t.Error("zero-length chain accepted")
	}
	if _, err := InstrChain(isa.OpBAR, 5); err == nil {
		t.Error("control-op chain accepted")
	}
}

func TestSharedCopyRunsAndMovesData(t *testing.T) {
	p, err := SharedCopy(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.GTX285()
	st, err := barra.Run(cfg, barra.Launch{Prog: p, Grid: 2, Block: 128}, barra.NewMemory(4096), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 iterations × 16 unrolled pairs × 2 ops × 4 warps × 2 blocks.
	if st.Total.SharedAccesses != 4*16*2*4*2 {
		t.Errorf("shared accesses = %d", st.Total.SharedAccesses)
	}
	if st.BankConflictFactor() != 1.0 {
		t.Errorf("unit-stride copy conflicted: %v", st.BankConflictFactor())
	}
	p8, err := SharedCopy(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	st8, err := barra.Run(cfg, barra.Launch{Prog: p8, Grid: 1, Block: 128}, barra.NewMemory(4096), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := st8.BankConflictFactor(); f != 8.0 {
		t.Errorf("stride-8 copy conflict factor = %v, want 8", f)
	}
	if _, err := SharedCopy(0, 1); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestGlobalStreamCoalesced(t *testing.T) {
	const threads = 256
	p, err := GlobalStream(16, threads, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.GTX285()
	st, err := barra.Run(cfg, barra.Launch{Prog: p, Grid: 2, Block: 128}, barra.NewMemory(1<<20), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.GlobalUsefulBytes != 16*threads*4 {
		t.Errorf("useful bytes = %d, want %d", st.Total.GlobalUsefulBytes, 16*threads*4)
	}
	if e := st.CoalescingEfficiency(); e < 0.99 {
		t.Errorf("stream not coalesced: %v", e)
	}
	if _, err := GlobalStream(0, 4, 64); err == nil {
		t.Error("zero transactions accepted")
	}
	if _, err := GlobalStream(4, 4, 100); err == nil {
		t.Error("non-power-of-two memory accepted")
	}
	// Short streams below the unroll factor still work.
	if _, err := GlobalStream(2, threads, 1<<20); err != nil {
		t.Errorf("short stream rejected: %v", err)
	}
}
