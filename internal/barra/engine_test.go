package barra

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// storeKernel: every thread stores its flat ID to base + target(flat)
// words. addrOf customizes the store address computation.
func storeKernel(name string, emit func(b *kbuild.Builder)) *isa.Program {
	b := kbuild.New(name)
	emit(b)
	b.Exit()
	return b.MustProgram()
}

// flatID emits flat = ctaid*ntid + tid into a fresh register.
func flatID(b *kbuild.Builder) isa.Reg {
	tid, cta, ntid := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(cta, isa.SRCtaid)
	b.S2R(ntid, isa.SRNtid)
	b.IMad(cta, cta, ntid, tid)
	return cta
}

// TestBudgetIsPerRun: the instruction budget is shared by the whole
// grid, not granted per block — a launch whose blocks are each modest
// but collectively exceed the limit aborts, and the serial path
// aborts at exactly the configured count.
func TestBudgetIsPerRun(t *testing.T) {
	prog := storeKernel("disjoint-store", func(b *kbuild.Builder) {
		flat := flatID(b)
		addr := b.Reg()
		b.ShlImm(addr, flat, 2)
		b.Gst(addr, flat)
	})
	l := Launch{Prog: prog, Grid: 8, Block: 64}
	newMem := func() *Memory { return NewMemory(1 << 16) }

	st, err := Run(cfg(), l, newMem(), &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := st.Total.WarpInstrs

	// Exactly enough: passes.
	if _, err := Run(cfg(), l, newMem(), &Options{Parallelism: 1, MaxWarpInstructions: total}); err != nil {
		t.Fatalf("budget == demand should pass: %v", err)
	}
	// One short: the serial path aborts at exactly the limit even
	// though each individual block is far under it.
	_, err = Run(cfg(), l, newMem(), &Options{Parallelism: 1, MaxWarpInstructions: total - 1})
	if err == nil || !strings.Contains(err.Error(), "instruction budget exhausted") {
		t.Fatalf("budget == demand-1 should abort, got %v", err)
	}
	perBlock := total / int64(l.Grid)
	if total-1 < perBlock {
		t.Fatalf("test needs a multi-block demand (total=%d)", total)
	}
}

// TestRunawayKernelAborts: an infinite loop trips the budget on both
// the serial and the parallel path.
func TestRunawayKernelAborts(t *testing.T) {
	b := kbuild.New("runaway")
	r := b.Reg()
	b.MovImm(r, 0)
	top := b.Pos()
	b.IAddImm(r, r, 1)
	b.SetTarget(b.Bra(), top) // unconditional backward branch: loop forever
	b.Exit()
	prog := b.MustProgram()

	for _, p := range []int{1, 4} {
		_, err := Run(cfg(), Launch{Prog: prog, Grid: 8, Block: 32}, NewMemory(4096),
			&Options{Parallelism: p, MaxWarpInstructions: 200000})
		if err == nil || !strings.Contains(err.Error(), "instruction budget exhausted") {
			t.Fatalf("P=%d: runaway kernel should abort, got %v", p, err)
		}
	}
}

// TestRunContextPreCancelled: a context cancelled before the run
// starts aborts before any block executes, on every parallelism.
func TestRunContextPreCancelled(t *testing.T) {
	prog := storeKernel("disjoint-store", func(b *kbuild.Builder) {
		flat := flatID(b)
		addr := b.Reg()
		b.ShlImm(addr, flat, 2)
		b.Gst(addr, flat)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		_, err := RunContext(ctx, cfg(), Launch{Prog: prog, Grid: 8, Block: 64},
			NewMemory(1<<16), &Options{Parallelism: p})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d: pre-cancelled run returned %v, want context.Canceled", p, err)
		}
	}
}

// TestRunContextCancelMidRun: cancelling while an effectively endless
// kernel executes stops the run at the next budget-refill check —
// within thousands of instructions, not the configured 1e12 budget.
func TestRunContextCancelMidRun(t *testing.T) {
	b := kbuild.New("endless")
	r := b.Reg()
	b.MovImm(r, 0)
	top := b.Pos()
	b.IAddImm(r, r, 1)
	b.SetTarget(b.Bra(), top)
	b.Exit()
	prog := b.MustProgram()

	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := RunContext(ctx, cfg(), Launch{Prog: prog, Grid: 8, Block: 32},
			NewMemory(4096), &Options{Parallelism: p, MaxWarpInstructions: 1e12})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("P=%d: cancelled run returned %v, want context.DeadlineExceeded", p, err)
		}
	}
}

// TestBlockIsolationWriteRace: two blocks writing the same word is a
// contract violation the detector turns into a run error.
func TestBlockIsolationWriteRace(t *testing.T) {
	prog := storeKernel("clashing-store", func(b *kbuild.Builder) {
		tid, addr := b.Reg(), b.Reg()
		b.S2R(tid, isa.SRTid)
		b.ShlImm(addr, tid, 2) // same address in every block
		b.Gst(addr, tid)
	})
	_, err := Run(cfg(), Launch{Prog: prog, Grid: 2, Block: 32}, NewMemory(4096),
		&Options{Parallelism: 1, VerifyBlockIsolation: true})
	if err == nil || !strings.Contains(err.Error(), "disjoint-writes contract") {
		t.Fatalf("cross-block write should fail verification, got %v", err)
	}
	// Without the detector the racy kernel is (serially) permitted —
	// the contract is opt-in enforced.
	if _, err := Run(cfg(), Launch{Prog: prog, Grid: 2, Block: 32}, NewMemory(4096),
		&Options{Parallelism: 1}); err != nil {
		t.Fatalf("untracked run: %v", err)
	}
}

// TestBlockIsolationReadRace: reading a word another block wrote in
// the same run is equally racy under parallel execution and is
// detected on the read side.
func TestBlockIsolationReadRace(t *testing.T) {
	prog := storeKernel("foreign-read", func(b *kbuild.Builder) {
		flat := flatID(b)
		addr := b.Reg()
		b.ShlImm(addr, flat, 2)
		b.Gst(addr, flat) // disjoint writes...
		zero := b.Reg()
		b.MovImm(zero, 0)
		b.Gld(zero, zero) // ...but every block then reads word 0
	})
	// Serial execution runs block 0 first, so block 1's read of word
	// 0 (written by block 0) trips deterministically.
	_, err := Run(cfg(), Launch{Prog: prog, Grid: 2, Block: 32}, NewMemory(4096),
		&Options{Parallelism: 1, VerifyBlockIsolation: true})
	if err == nil || !strings.Contains(err.Error(), "disjoint-writes contract") {
		t.Fatalf("cross-block read should fail verification, got %v", err)
	}
}

// TestBlockIsolationWriteAfterRead: writing a word an earlier block
// only read is still cross-block sharing — detected on the write side
// against the word's recorded reader.
func TestBlockIsolationWriteAfterRead(t *testing.T) {
	prog := storeKernel("read-then-write", func(b *kbuild.Builder) {
		cta, zero, tmp := b.Reg(), b.Reg(), b.Reg()
		b.S2R(cta, isa.SRCtaid)
		b.MovImm(zero, 0)
		// Block 0 reads word 0...
		b.ISetpImm(isa.P0, isa.CmpEQ, cta, 0)
		ld := b.Pos()
		b.Gld(tmp, zero)
		b.Guarded(ld, isa.P0, false)
		// ...then block 1 writes it.
		b.ISetpImm(isa.P0, isa.CmpEQ, cta, 1)
		st := b.Pos()
		b.Gst(zero, cta)
		b.Guarded(st, isa.P0, false)
	})
	_, err := Run(cfg(), Launch{Prog: prog, Grid: 2, Block: 32}, NewMemory(4096),
		&Options{Parallelism: 1, VerifyBlockIsolation: true})
	if err == nil || !strings.Contains(err.Error(), "disjoint-writes contract") {
		t.Fatalf("write after foreign read should fail verification, got %v", err)
	}
}

// TestIrregularStagingRejected: every block of a launch must pass the
// same number of barriers. Odd blocks branch around a block-uniform
// barrier, so no block deadlocks, but the run must still fail, at
// every parallelism and with replay on or off.
func TestIrregularStagingRejected(t *testing.T) {
	b := kbuild.New("oddbar")
	cta, odd := b.Reg(), b.Reg()
	b.S2R(cta, isa.SRCtaid)
	b.AndImm(odd, cta, 1)
	b.ISetpImm(isa.P0, isa.CmpNE, odd, 0)
	br := b.BraIf(isa.P0, false) // odd blocks skip the barrier
	b.Bar()
	b.SetTarget(br, b.Pos())
	b.Exit()
	l := Launch{Prog: b.MustProgram(), Grid: 6, Block: 64}
	for _, p := range []int{1, 2, 8} {
		for _, noReplay := range []bool{false, true} {
			_, err := Run(cfg(), l, NewMemory(64), &Options{Parallelism: p, DisableBlockReplay: noReplay})
			if err == nil || !strings.Contains(err.Error(), "irregular staging") {
				t.Errorf("P=%d DisableBlockReplay=%v: got %v, want an irregular staging error", p, noReplay, err)
			}
		}
	}
}
