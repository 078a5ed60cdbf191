package barra

import (
	"math/bits"
	"sync"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// This file implements homogeneous-block replay: the engine-path
// execution mode (no access hook, replay not disabled) that exploits
// the redundancy of regular kernels, whose thousands of blocks
// execute identical instruction streams over identically-shaped
// address patterns.
//
// Every block still executes functionally — its memory writes and
// the run's verification depend on real execution — but the stats
// pipeline (bank simulation, transaction coalescing at every
// granularity, per-step accumulation) runs only once per
// *equivalence class* of blocks. Each block first runs a lean pass:
// pure functional execution (with batched warp stepping) that folds a
// 128-bit signature over everything its statistics depend on — the
// interleaved instruction stream, active masks, and the shape of
// every memory access — while recording an undo log of its global
// stores. On a signature hit the canonical block's stats shard is
// folded into the worker's running sum and the block is done. On a
// miss the undo log rewinds the block's global stores and the block
// re-runs on the ordinary live path, which derives its stats shard
// the usual way; that shard becomes the class canonical.
// Misses are therefore twice as expensive as live simulation, but a
// regular kernel pays that price once per class, not once per block.
//
// Address-pattern signature. Global-memory addresses are not hashed
// raw — blocks of a regular kernel touch *translated* address
// ranges. Instead each access hashes as its base address modulo A
// (the largest transaction granularity of the run) plus the active
// lanes' base-relative offsets, which makes two accesses equivalent
// exactly when translation by a multiple of A maps one onto the
// other: transaction formation operates inside A-aligned segments
// (and every smaller granularity divides A), so translated accesses
// form identical transaction counts and sizes at every granularity.
// Each access is classified independently — two blocks may match
// with a different translation per access, as data-dependent gathers
// with a regular structure (e.g. SpMV's stencil neighbourhoods) do.
// Region attribution is folded in by classifying the access's
// A-aligned envelope against the run's regions: fully inside one
// region (hash the region index), disjoint from all (hash nothing),
// or straddling a boundary (hash the absolute base, forcing an exact
// match). Shared-memory addresses are block-local and hash raw.
//
// Variant accesses. A flow-insensitive taint analysis marks memory
// instructions whose address register derives from loaded data
// (e.g. the x-gather of SpMV, whose column indices differ per
// block). Their addresses are excluded from the signature, and their
// statistics are computed per block *during the lean pass*, fused
// into a separate variant shard straight from the live step state —
// so data-dependent gathers don't defeat replay of the surrounding
// uniform stream. The class canonical stores the uniform complement
// (the canonical block's full shard minus its own variant shard,
// which is class-invariant because every statistic is additive per
// step and stageEnd's warp-work thresholds are mask-derived); a hit
// combines it with the block's own variant shard. Mis-tainting is
// harmless either way: under-taint hashes varying addresses
// (signature misses, block simulates live), over-taint computes more
// per block than necessary.
//
// Every block takes the lean pass, so which blocks replay depends only
// on the launch, never on which worker ran which block. A kernel
// whose blocks never match — a genuinely irregular address stream —
// pays a lean pass plus a live pass on every block, roughly twice a
// live run; Options.DisableBlockReplay runs such a launch live.

// sigKey is a block's 128-bit replay signature (two independently
// folded FNV-64 lanes).
type sigKey [2]uint64

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// The second lane starts from a different offset and folds
	// byte-reversed words, so the lanes do not cancel jointly.
	fnvOffset64b = 0x84222325cbf29ce4
)

// Signature event tags. Together with the folded masks, program
// counters, and address shapes they pin down the exact execution the
// live path would have recorded: which warp stepped, which
// instructions (singly or as a batched run), under which active
// mask, in which stage, touching memory of which shape.
const (
	sigStep  = uint64(iota + 1) // one single-stepped non-memory instruction
	sigRun                      // a batched run of unguarded convergent instructions
	sigMemG                     // one global-memory instruction
	sigMemS                     // one shared-memory instruction
	sigWarp                     // scheduling switched to a warp
	sigStage                    // barrier release / block end
)

const (
	sigFlagDiverged = uint64(1 << iota) // warp was split when the step issued
	sigFlagSmem                         // step read a shared-memory ALU operand
)

// replayState is the cross-worker replay machinery of one run.
type replayState struct {
	// variant[pc] marks memory instructions whose address register is
	// data-derived (see taintAnalysis).
	variant []bool
	// maxA is the largest transaction granularity of the run (power
	// of two): the translation modulus of the address signature.
	maxA uint32
	// regions are the run's traffic-attribution regions.
	regions []Region

	mu      sync.RWMutex
	classes map[sigKey]*blockStats // canonical stats shard per signature
}

func newReplayState(prog *isa.Program, regions []Region, maxA int) *replayState {
	return &replayState{
		variant: taintAnalysis(prog),
		maxA:    uint32(maxA),
		regions: regions,
		classes: map[sigKey]*blockStats{},
	}
}

// taintAnalysis computes, per instruction, whether a memory
// instruction's address register derives from loaded data — the
// addresses that vary freely across blocks of a regular kernel. The
// fixpoint is flow-insensitive (a register tainted anywhere is
// tainted everywhere) and shared memory is a single taint cell:
// storing a tainted value taints every subsequent shared load and
// shared ALU operand. Loaded global data is always tainted (every
// block reads different data); thread/block indices are not — the
// linear address translation they induce is exactly what the
// signature's modulo-A folding absorbs.
func taintAnalysis(p *isa.Program) []bool {
	regT := make([]bool, p.RegsPerThread)
	sharedT := false
	for changed := true; changed; {
		changed = false
		setReg := func(r isa.Reg, taint bool) {
			if taint && int(r) < len(regT) && !regT[r] {
				regT[r] = true
				changed = true
			}
		}
		for i := range p.Code {
			in := &p.Code[i]
			dbl := isa.IsDouble(in.Op)
			src := func(o isa.Operand) bool {
				switch o.Kind {
				case isa.KindReg:
					return regT[o.Reg] || dbl && regT[o.Reg+1]
				case isa.KindSmem:
					return sharedT
				}
				return false
			}
			tainted := src(in.SrcA) || src(in.SrcB) || src(in.SrcC)
			switch in.Op {
			case isa.OpGLD:
				setReg(in.Dst, true)
			case isa.OpSLD:
				setReg(in.Dst, sharedT)
			case isa.OpSST:
				if src(in.SrcB) && !sharedT {
					sharedT = true
					changed = true
				}
			case isa.OpGST, isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNOP,
				isa.OpISETP, isa.OpFSETP:
				// No register destination. Predicate taint needs no
				// tracking: active masks are always part of the
				// signature, so data-dependent control flow simply
				// never matches a foreign block.
			default:
				setReg(in.Dst, tainted)
				if dbl {
					setReg(in.Dst+1, tainted)
				}
			}
		}
	}
	variant := make([]bool, len(p.Code))
	for i := range p.Code {
		in := &p.Code[i]
		if isa.IsMemory(in.Op) && in.SrcA.Kind == isa.KindReg && regT[in.SrcA.Reg] {
			variant[i] = true
		}
	}
	return variant
}

// engineState is one worker's reusable signature and undo scratch.
type engineState struct {
	h1, h2 uint64
	// undo logs the lean pass's global stores as (word index, old
	// value) pairs, applied in reverse on a signature miss.
	undo []uint32
	// addrBuf packs a partial warp's active-lane addresses for
	// folding.
	addrBuf [gpu.WarpSize]uint32

	// runs and instrs count the batched runs of every lean pass the
	// worker has made and the warp instructions they covered.
	runs, instrs int64
	charged      int64 // warp instructions the block's lean pass drew from the budget
}

// reset readies e for a block's lean pass.
func (e *engineState) reset() {
	e.h1, e.h2 = fnvOffset64, fnvOffset64b
	e.undo = e.undo[:0]
	e.charged = 0
}

func (e *engineState) fold(x uint64) {
	e.h1 = (e.h1 ^ x) * fnvPrime64
	e.h2 = (e.h2 ^ bits.ReverseBytes64(x)) * fnvPrime64
}

// foldPairs folds a vector of 32-bit values two per word. The
// surrounding event header has already folded the active mask, which
// determines the vector's length, so no length framing is needed.
func (e *engineState) foldPairs(v []uint32) {
	n := len(v)
	for i := 0; i+1 < n; i += 2 {
		e.fold(uint64(v[i]) | uint64(v[i+1])<<32)
	}
	if n&1 != 0 {
		e.fold(uint64(v[n-1]))
	}
}

// foldStep folds the single-stepped instruction described by w.info
// (the lean-path counterpart of record). The header packs event tag,
// flags, pc, and active mask into one word; memory events follow
// with their address shape.
func (w *worker) foldStep() {
	info := &w.info
	e := &w.eng
	op := info.In.Op
	tag := sigStep
	var flags uint64
	if info.Diverged {
		flags |= sigFlagDiverged
	}
	if info.SmemOperand {
		flags |= sigFlagSmem
	}
	mem := isa.IsMemory(op)
	if mem {
		if isa.IsGlobal(op) {
			tag = sigMemG
		} else {
			tag = sigMemS
		}
	}
	e.fold(tag | flags<<4 | uint64(uint32(info.PC))<<8 | uint64(info.Active)<<32)
	if !mem || w.ctx.replay.variant[info.PC] {
		// Variant addresses are data-derived: excluded from the
		// signature, their stats computed per block by the caller.
		return
	}
	// Full warps fold straight out of info.Addr; partial masks pack
	// the active lanes' addresses into ascending-lane order first.
	addrs := info.Addr[:]
	if info.Active != ^LaneMask(0) {
		buf := &e.addrBuf
		n := 0
		for m := info.Active; m != 0; m &= m - 1 {
			buf[n] = info.Addr[bits.TrailingZeros32(m)]
			n++
		}
		addrs = buf[:n]
	}
	if tag == sigMemS {
		e.foldPairs(addrs)
		return
	}
	w.foldGlobalAddrs(addrs)
}

// foldGlobalAddrs folds one global access's translation-invariant
// address shape: base mod A, base-relative lane offsets, and the
// region classification of the access's A-aligned envelope.
func (w *worker) foldGlobalAddrs(addrs []uint32) {
	if len(addrs) == 0 {
		return
	}
	e := &w.eng
	a0 := addrs[0]
	lo, hi := a0, a0
	n := len(addrs)
	// Affine fast path: a constant positive stride (the coalesced
	// common case) folds as one (stride, count) word instead of the
	// serially dependent per-lane delta chain. Monotonicity keeps
	// lo/hi exact under uint32 arithmetic; the nonzero low word cannot
	// collide with the delta chain, whose first fold's low word is
	// always zero (addrs[0]-a0).
	if n >= 4 && addrs[1] > a0 {
		d := addrs[1] - a0
		affine := true
		for i := 2; i < n; i++ {
			if addrs[i]-addrs[i-1] != d || addrs[i] < addrs[i-1] {
				affine = false
				break
			}
		}
		if affine {
			e.fold(uint64(d)<<32 | uint64(uint32(n)))
			w.foldEnvelope(a0, a0, addrs[n-1])
			return
		}
	}
	for i := 0; i+1 < n; i += 2 {
		a, b := addrs[i], addrs[i+1]
		e.fold(uint64(a-a0) | uint64(b-a0)<<32)
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if n&1 != 0 {
		a := addrs[n-1]
		e.fold(uint64(a - a0))
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	w.foldEnvelope(a0, lo, hi)
}

// foldEnvelope folds an access's region classification and translated
// base: the tail of every global-address fold (see the package doc).
func (w *worker) foldEnvelope(a0, lo, hi uint32) {
	e := &w.eng
	rs := w.ctx.replay
	mA := rs.maxA - 1
	envLo := lo &^ mA
	envHi := (hi + 4 + mA) &^ mA // access words end at hi+4
	tag := uint64(1)             // envelope disjoint from every region
	ri := 0
	for i := range rs.regions {
		reg := &rs.regions[i]
		if envLo < reg.Hi && reg.Lo < envHi {
			if envLo >= reg.Lo && envHi <= reg.Hi {
				tag, ri = 0, i // fully inside the first matching region
			} else {
				tag = 2 // straddles a boundary: demand an exact match
			}
			break
		}
	}
	switch tag {
	case 0:
		e.fold(tag<<32 | uint64(ri))
		e.fold(uint64(a0 & mA))
	case 1:
		e.fold(tag << 32)
		e.fold(uint64(a0 & mA))
	case 2:
		e.fold(tag << 32)
		e.fold(uint64(a0))
	}
}

// runBlockEngine executes one block on the engine path and folds its
// statistics into the worker's running sum: schedule's lean pass
// (batched functional execution folding the block signature and
// logging store undos), then replay on a hit or an unwind-and-re-run
// of schedule's live pass on a miss.
func (w *worker) runBlockEngine(blockID int) (int, error) {
	if err := w.initBlock(blockID); err != nil {
		return 0, err
	}
	rs := w.ctx.replay
	e := &w.eng
	e.reset()
	for _, warp := range w.warps {
		warp.undo = &e.undo
	}
	// varBS accumulates the block's data-derived (variant) memory
	// statistics during the lean pass.
	varBS := w.varBS
	varBS.reset()
	barriers, err := w.schedule(varBS, true)
	for _, warp := range w.warps {
		warp.undo = nil
	}
	if err != nil {
		return 0, err
	}

	sig := sigKey{e.h1, e.h2}
	rs.mu.RLock()
	canon := rs.classes[sig]
	rs.mu.RUnlock()
	if canon != nil {
		w.sum.add(canon, 1)
		w.sum.add(varBS, 1)
		return barriers, nil
	}

	// Miss: rewind the lean pass's global stores (in reverse, so
	// aliasing stores restore the true pre-block words), hand the
	// drawn budget back to this worker's batch — the re-run redraws
	// exactly the same instructions, keeping the shared pool's
	// accounting identical to a live run — and re-run the block on
	// the live path, which folds it into the running sum. The
	// re-run's full shard, w.bs, minus the block's own variant shard
	// is the class's canonical uniform shard, identical whichever
	// member computes it.
	words := w.ctx.mem.words
	for i := len(e.undo) - 2; i >= 0; i -= 2 {
		words[e.undo[i]] = e.undo[i+1]
	}
	w.avail += e.charged
	if barriers, err = w.runBlock(blockID); err != nil {
		return 0, err
	}
	c := w.ctx.stats.shard()
	c.add(w.bs, 1)
	c.add(varBS, -1)
	rs.mu.Lock()
	if _, dup := rs.classes[sig]; !dup {
		rs.classes[sig] = c
	}
	// A concurrent worker may have inserted the same class first; its
	// canonical is identical by construction, ours is dropped.
	rs.mu.Unlock()
	return barriers, nil
}
