package barra

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gpuperf/internal/bank"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// warpHalves is the number of half-warps per warp.
const warpHalves = gpu.WarpSize / gpu.HalfWarp

// budgetBatch is the instruction-budget reservation a worker takes
// from the shared pool at a time: large enough that the atomic
// compare-and-swap stays off the per-instruction path, small enough
// that a runaway kernel is caught within workers×budgetBatch
// instructions of the configured limit.
const budgetBatch = 8192

// runContext is the immutable state of one Run, shared read-only by
// every worker: launch, device, simulators (bank and coalesce are
// stateless), the statistics layout, and the two pieces of
// cross-worker coordination — the block cursor and the shared
// instruction budget.
type runContext struct {
	// goCtx is the caller's cancellation context (nil when absent —
	// tests that assemble a runContext by hand run uncancellable).
	goCtx  context.Context
	cfg    gpu.Config
	launch Launch
	mem    *Memory
	banks  *bank.Sim
	coal   []*coalesce.Sim // parallel to segs
	segs   []int           // granularities; segs[0] is the device's native
	// stats sizes the per-block shards and folds them into the run's
	// Stats.
	stats *statsCollector

	// hook is Options.GlobalAccessHook. A hooked run has one worker,
	// which calls it inline.
	hook func(blockID int, load bool, addrs []uint32)

	// replay is the homogeneous-block replay machinery; non-nil iff
	// the run takes the engine path (no hook, replay not disabled —
	// see replay.go).
	replay *replayState

	// maxInstr is the per-run warp-instruction budget
	// (Options.MaxWarpInstructions); budget counts the unreserved
	// remainder, drawn down by workers in budgetBatch chunks.
	maxInstr int64
	budget   atomic.Int64

	// nextBlock hands out block IDs; failed aborts the other workers
	// once one has errored.
	nextBlock atomic.Int64
	failed    atomic.Bool
}

// reserveBudget draws up to budgetBatch instructions from the shared
// pool, returning 0 when the run's budget is exhausted.
func (ctx *runContext) reserveBudget() int64 {
	for {
		rem := ctx.budget.Load()
		if rem <= 0 {
			return 0
		}
		n := rem
		if n > budgetBatch {
			n = budgetBatch
		}
		if ctx.budget.CompareAndSwap(rem, rem-n) {
			return n
		}
	}
}

// errCancelled marks a worker stopped because a sibling failed first;
// the sibling's error is the one reported.
var errCancelled = fmt.Errorf("barra: run cancelled by another worker's failure")

// cancelled returns the caller context's error, or nil when no
// context was supplied or it is still live. Checked between blocks
// and at budget refills — off the per-instruction path.
func (ctx *runContext) cancelled() error {
	if ctx.goCtx == nil {
		return nil
	}
	return ctx.goCtx.Err()
}

// worker executes blocks one at a time on its own goroutine. All of
// its state — shared-memory arena, warp contexts, scheduling and
// accounting scratch — is reused from block to block, and each block
// records into the statistics shard its caller hands in, so
// steady-state execution allocates nothing.
type worker struct {
	ctx *runContext

	shared    []uint32 // shared-memory arena, zeroed per block
	warps     []*Warp  // reused via Reset
	atBarrier []bool
	workCount []int64

	info StepInfo
	// addrBuf gathers one half-warp's active-lane addresses; txBuf
	// receives the transactions coalesce.HalfWarpInto forms from them
	// at one granularity. Both are refilled in place per access.
	addrBuf [gpu.HalfWarp]uint32
	txBuf   []coalesce.Transaction

	curBlock int   // block in flight
	avail    int64 // unspent instruction-budget reservation

	// eng is the replay signature and undo scratch of the engine
	// path (see replay.go); unused on the live path.
	eng engineState
	// engHits and engMisses drive the engine path's per-worker
	// adaptive fallback: a worker whose first engineFallbackMisses
	// blocks all miss without one hit stops attempting replay.
	engHits, engMisses int
}

// initBlock (re)binds the worker's scratch state to blockID.
func (w *worker) initBlock(blockID int) error {
	w.curBlock = blockID
	l := w.ctx.launch
	nw := l.WarpsPerBlock()
	if w.shared == nil {
		w.shared = make([]uint32, l.Prog.SharedMemBytes/4)
		w.warps = make([]*Warp, nw)
		for wi := 0; wi < nw; wi++ {
			lanes := l.Block - wi*gpu.WarpSize
			if lanes > gpu.WarpSize {
				lanes = gpu.WarpSize
			}
			warp, err := NewWarp(l.Prog, blockID, wi, l.Block, l.Grid, lanes, w.shared, w.ctx.mem)
			if err != nil {
				return err
			}
			w.warps[wi] = warp
		}
		w.atBarrier = make([]bool, nw)
		w.workCount = make([]int64, nw)
		// A half-warp forms at most gpu.HalfWarp transactions (one per
		// lane), so this buffer never regrows.
		w.txBuf = make([]coalesce.Transaction, 0, gpu.HalfWarp)
	} else {
		clear(w.shared)
		for _, warp := range w.warps {
			warp.Reset(blockID)
		}
		clear(w.atBarrier)
		clear(w.workCount)
	}
	return nil
}

// runBlock executes one block to completion, recording its statistics
// into bs, and returns its barrier count.
func (w *worker) runBlock(blockID int, bs *blockStats) (int, error) {
	if err := w.initBlock(blockID); err != nil {
		return 0, err
	}
	l := w.ctx.launch

	stage := 0
	barriers := 0
	for {
		ranAny := false
		for wi, warp := range w.warps {
			if warp.Done() || w.atBarrier[wi] {
				continue
			}
			// Run this warp until it blocks.
			for {
				if w.avail == 0 {
					if w.ctx.failed.Load() {
						return 0, errCancelled
					}
					if err := w.ctx.cancelled(); err != nil {
						return 0, err
					}
					w.avail = w.ctx.reserveBudget()
					if w.avail == 0 {
						return 0, fmt.Errorf("barra: instruction budget exhausted (%d warp instructions across the run) — runaway kernel %q?",
							w.ctx.maxInstr, l.Prog.Name)
					}
				}
				if err := warp.Step(&w.info); err != nil {
					return 0, err
				}
				w.avail--
				w.record(bs, stage, wi)
				if w.info.Barrier {
					w.atBarrier[wi] = true
					break
				}
				if w.info.Done {
					break
				}
			}
			ranAny = true
		}

		allDone := true
		allBlocked := true
		anyExited := false
		for wi, warp := range w.warps {
			if warp.Done() {
				anyExited = true
				continue
			}
			allDone = false
			if !w.atBarrier[wi] {
				allBlocked = false
			}
		}
		if allDone {
			break
		}
		if allBlocked {
			if anyExited {
				// A warp exited while siblings wait at a barrier:
				// undefined behaviour on hardware, a bug here.
				return 0, fmt.Errorf("barra: %q: warps wait at a barrier after others exited", l.Prog.Name)
			}
			// Barrier release: everyone advances to the next stage.
			clear(w.atBarrier)
			w.stageEnd(bs, stage)
			stage++
			barriers++
			continue
		}
		if !ranAny {
			return 0, fmt.Errorf("barra: deadlock in %q: warps blocked at a barrier while others exited", l.Prog.Name)
		}
	}
	w.stageEnd(bs, stage)
	return barriers, nil
}

// stageEnd closes a stage of bs and resets the per-warp work
// counters. A warp counts as working when it executed at least half
// as many unskipped non-control instructions as the busiest warp of
// its block — enough to exclude warps that only ran the guard test
// and skip branch.
//
//gpuperf:noalloc
func (w *worker) stageEnd(bs *blockStats, stage int) {
	st := bs.stage(stage)
	var max int64
	for _, c := range w.workCount {
		if c > max {
			max = c
		}
	}
	threshold := (max + 1) / 2
	for _, c := range w.workCount {
		if max > 0 && c >= threshold {
			st.WarpsWithWork++
		}
	}
	clear(w.workCount)
}

// record counts the step just executed toward warp wi's stage work
// and accounts it into bs.
//
//gpuperf:noalloc
func (w *worker) record(bs *blockStats, stage, wi int) {
	info := &w.info
	op := info.In.Op
	if info.ActiveCount > 0 && !isa.IsControl(op) && op != isa.OpNOP {
		w.workCount[wi]++
	}
	w.account(bs, stage)
}

// account adds the step described by w.info to bs: its instruction
// counts plus the memory-system outcome derived for it — bank
// conflicts, and global transactions at every configured granularity,
// attributed to regions per transaction base and per useful word. The
// live path accounts every executed step and the replay lean pass its
// variant steps, so both accumulate identically.
func (w *worker) account(bs *blockStats, stage int) {
	info := &w.info
	st := bs.stage(stage)
	op := info.In.Op
	st.WarpInstrs++
	st.ByClass[info.Class]++
	if op == isa.OpFMAD {
		st.FMADs++
	}
	if info.Diverged {
		st.DivByClass[info.Class]++
		st.DivActiveLanes += int64(info.ActiveCount)
	}
	if info.SmemOperand {
		// Broadcast read of one shared word per half-warp: one
		// conflict-free transaction per active half-warp.
		st.SharedAccesses++
		for half := 0; half < warpHalves; half++ {
			if info.HalfMask(half) != 0 {
				st.SharedTx++
				st.SharedTxNoConflict++
				st.SharedBytes += 4
			}
		}
	}

	switch {
	case isa.IsShared(op):
		st.SharedAccesses++
		st.SharedBytes += int64(info.ActiveCount) * 4
		for half := 0; half < warpHalves; half++ {
			addrs := info.GatherHalf(half, &w.addrBuf)
			if len(addrs) == 0 {
				continue
			}
			deg := w.ctx.banks.Transactions(addrs)
			st.SharedTx += int64(deg)
			st.SharedTxNoConflict++
			if deg > 0 {
				st.ConflictDeg[deg]++
			}
		}

	case isa.IsGlobal(op):
		sc := w.ctx.stats
		st.GlobalUsefulBytes += int64(info.ActiveCount) * 4
		for half := 0; half < warpHalves; half++ {
			addrs := info.GatherHalf(half, &w.addrBuf)
			if len(addrs) == 0 {
				continue
			}
			if w.ctx.hook != nil {
				w.ctx.hook(w.curBlock, op == isa.OpGLD, addrs) //gpuperf:alloc-ok opt-in observer hook; hooked runs are outside the 0-alloc pin
			}
			st.GlobalRequests++
			for si, c := range w.ctx.coal {
				w.txBuf = c.HalfWarpInto(w.txBuf[:0], addrs, 4)
				var bytes int64
				for _, tx := range w.txBuf {
					bytes += int64(tx.Size)
					if ri := sc.regionOf(tx.Addr); ri >= 0 {
						bs.regionTraffic[ri][si].Transactions++
						bs.regionTraffic[ri][si].Bytes += int64(tx.Size)
					}
				}
				n := int64(len(w.txBuf))
				bs.globalAt[si].Transactions += n
				bs.globalAt[si].Bytes += bytes
				if si == 0 { // native granularity
					st.Global.Transactions += n
					st.Global.Bytes += bytes
				}
			}
			for _, a := range addrs {
				if ri := sc.regionOf(a); ri >= 0 {
					bs.regionUseful[ri] += 4
				}
			}
		}
	}
}

// execute shards the grid across the given number of workers and
// returns each block's barrier count and statistics shard, indexed by
// block ID.
func (ctx *runContext) execute(workers int) ([]int, []*blockStats, error) {
	grid := ctx.launch.Grid
	barriers := make([]int, grid)
	shards := make([]*blockStats, grid)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		if err != errCancelled {
			errOnce.Do(func() { firstErr = err })
		}
		ctx.failed.Store(true)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{ctx: ctx}
			for {
				b := int(ctx.nextBlock.Add(1)) - 1
				if b >= grid || ctx.failed.Load() {
					return
				}
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				bs := ctx.stats.shard()
				var (
					nb  int
					err error
				)
				if ctx.replay != nil {
					nb, err = w.runBlockEngine(b, bs)
				} else {
					nb, err = w.runBlock(b, bs)
				}
				if err != nil {
					fail(err)
					return
				}
				barriers[b], shards[b] = nb, bs
			}
		}()
	}
	wg.Wait()
	if ctx.failed.Load() {
		if firstErr == nil {
			firstErr = errCancelled
		}
		return nil, nil, firstErr
	}
	return barriers, shards, nil
}
