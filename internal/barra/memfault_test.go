package barra

import (
	"slices"
	"testing"

	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// TestMemoryFaultLanes gives one lane of a full warp (the first, a
// middle one, the last) an unaligned or out-of-range address for each
// memory op, with block-isolation tracking off and on for the global
// ones. The op must fail naming that lane, with the text recorded from
// the per-lane loops before the memory ops had full-mask kernels, and
// leave exactly the lanes before it done: their words stored or their
// destination registers loaded, and nothing else touched.
func TestMemoryFaultLanes(t *testing.T) {
	const (
		unaligned  = 2   // added to the lane's address
		outOfRange = 128 // past the 32-word memories
	)
	want := map[isa.Opcode]map[int][2]string{ // op → lane → unaligned, out of range
		isa.OpGLD: {
			0:  {`barra: "memfault" pc=5 lane=0: barra: unaligned access at 0x2`, `barra: "memfault" pc=5 lane=0: barra: access at 0x80 beyond memory size 0x80`},
			15: {`barra: "memfault" pc=5 lane=15: barra: unaligned access at 0x3e`, `barra: "memfault" pc=5 lane=15: barra: access at 0xbc beyond memory size 0x80`},
			31: {`barra: "memfault" pc=5 lane=31: barra: unaligned access at 0x7e`, `barra: "memfault" pc=5 lane=31: barra: access at 0xfc beyond memory size 0x80`},
		},
		isa.OpGST: {
			0:  {`barra: "memfault" pc=5 lane=0: barra: unaligned access at 0x2`, `barra: "memfault" pc=5 lane=0: barra: access at 0x80 beyond memory size 0x80`},
			15: {`barra: "memfault" pc=5 lane=15: barra: unaligned access at 0x3e`, `barra: "memfault" pc=5 lane=15: barra: access at 0xbc beyond memory size 0x80`},
			31: {`barra: "memfault" pc=5 lane=31: barra: unaligned access at 0x7e`, `barra: "memfault" pc=5 lane=31: barra: access at 0xfc beyond memory size 0x80`},
		},
		isa.OpSLD: {
			0:  {`barra: "memfault" pc=5 lane=0: unaligned shared load at 0x2`, `barra: "memfault" pc=5 lane=0: shared load at 0x80 beyond allocation 0x80`},
			15: {`barra: "memfault" pc=5 lane=15: unaligned shared load at 0x3e`, `barra: "memfault" pc=5 lane=15: shared load at 0xbc beyond allocation 0x80`},
			31: {`barra: "memfault" pc=5 lane=31: unaligned shared load at 0x7e`, `barra: "memfault" pc=5 lane=31: shared load at 0xfc beyond allocation 0x80`},
		},
		isa.OpSST: {
			0:  {`barra: "memfault" pc=5 lane=0: unaligned shared store at 0x2`, `barra: "memfault" pc=5 lane=0: shared store at 0x80 beyond allocation 0x80`},
			15: {`barra: "memfault" pc=5 lane=15: unaligned shared store at 0x3e`, `barra: "memfault" pc=5 lane=15: shared store at 0xbc beyond allocation 0x80`},
			31: {`barra: "memfault" pc=5 lane=31: unaligned shared store at 0x7e`, `barra: "memfault" pc=5 lane=31: shared store at 0xfc beyond allocation 0x80`},
		},
	}
	for _, op := range []isa.Opcode{isa.OpGLD, isa.OpGST, isa.OpSLD, isa.OpSST} {
		for _, lane := range []int{0, 15, 31} {
			for fault, bad := range []uint32{unaligned, outOfRange} {
				for _, tracked := range []bool{false, true} {
					if tracked && !isa.IsGlobal(op) {
						continue
					}
					got, state := memFault(t, op, lane, bad, tracked)
					if w := want[op][lane][fault]; got != w {
						t.Errorf("%s lane %d +%d tracked=%v: error %q, want %q", op, lane, bad, tracked, got, w)
					}
					// Lanes before the faulting one have run: a load
					// took word l (1000+l global, 2000+l shared), a
					// store wrote its value 100+l.
					wantState := make([]uint32, 32)
					for l := range wantState {
						switch {
						case op == isa.OpGLD && l < lane:
							wantState[l] = 1000 + uint32(l)
						case op == isa.OpSLD && l < lane:
							wantState[l] = 2000 + uint32(l)
						case op == isa.OpGST && l >= lane:
							wantState[l] = 1000 + uint32(l)
						case op == isa.OpSST && l >= lane:
							wantState[l] = 2000 + uint32(l)
						case op == isa.OpGST || op == isa.OpSST:
							wantState[l] = 100 + uint32(l)
						}
					}
					if !slices.Equal(state, wantState) {
						t.Errorf("%s lane %d +%d tracked=%v: state %v, want %v", op, lane, bad, tracked, state, wantState)
					}
				}
			}
		}
	}
}

// memFault runs one memory op on a full warp whose lane `lane` adds
// bad to its address, and returns the op's error and the state it
// leaves: a load's destination column, or the words a store targets.
func memFault(t *testing.T, op isa.Opcode, lane int, bad uint32, tracked bool) (string, []uint32) {
	t.Helper()
	b := kbuild.New("memfault")
	b.SharedBytes(32 * 4)
	tid, addr, val, dst := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.ShlImm(addr, tid, 2)
	b.ISetpImm(isa.P0, isa.CmpEQ, tid, uint32(lane))
	g := b.Pos()
	b.IAddImm(addr, addr, bad)
	b.Guarded(g, isa.P0, false)
	b.IAddImm(val, tid, 100)
	switch op {
	case isa.OpGLD:
		b.Gld(dst, addr)
	case isa.OpGST:
		b.Gst(addr, val)
	case isa.OpSLD:
		b.Sld(dst, addr)
	case isa.OpSST:
		b.Sst(addr, val)
	}
	b.Exit()
	prog := b.MustProgram()
	mem := NewMemory(32 * 4)
	shared := make([]uint32, 32)
	for i := range shared {
		mem.words[i] = 1000 + uint32(i)
		shared[i] = 2000 + uint32(i)
	}
	if tracked {
		mem.startTracking()
		defer mem.stopTracking()
	}
	w, err := NewWarp(Predecode(prog), 0, 0, 32, 1, 32, shared, mem)
	if err != nil {
		t.Fatal(err)
	}
	var info StepInfo
	for err == nil && !w.Done() {
		err = w.Step(&info)
	}
	if err == nil {
		t.Fatalf("%s lane %d: no error", op, lane)
	}
	switch op {
	case isa.OpGLD, isa.OpSLD:
		return err.Error(), slices.Clone(w.regCol(dst))
	case isa.OpGST:
		return err.Error(), slices.Clone(mem.words)
	}
	return err.Error(), slices.Clone(shared)
}
