package barra

import (
	"context"
	"fmt"
	"runtime"

	"gpuperf/internal/bank"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// Launch describes one kernel invocation.
type Launch struct {
	Prog *isa.Program
	// Grid is the number of blocks; Block the threads per block.
	Grid, Block int
}

// Validate checks launch parameters against the device.
func (l Launch) Validate(cfg gpu.Config) error {
	if l.Prog == nil {
		return fmt.Errorf("barra: nil program")
	}
	if err := l.Prog.Validate(); err != nil {
		return err
	}
	if l.Grid <= 0 || l.Block <= 0 {
		return fmt.Errorf("barra: non-positive launch %dx%d", l.Grid, l.Block)
	}
	if l.Block > cfg.MaxThreadsPerBlock {
		return fmt.Errorf("barra: block size %d exceeds device limit %d", l.Block, cfg.MaxThreadsPerBlock)
	}
	if l.Prog.SharedMemBytes > cfg.SharedMemPerSM {
		return fmt.Errorf("barra: kernel needs %d B shared memory, SM has %d",
			l.Prog.SharedMemBytes, cfg.SharedMemPerSM)
	}
	return nil
}

// WarpsPerBlock returns ceil(Block/warpSize).
func (l Launch) WarpsPerBlock() int { return (l.Block + gpu.WarpSize - 1) / gpu.WarpSize }

// Region names an address range of global memory for traffic
// attribution (e.g. SpMV's matrix entries vs column indices vs
// vector entries in paper Fig. 11a).
type Region struct {
	Name   string
	Lo, Hi uint32 // [Lo, Hi)
}

// Options tunes a functional run.
type Options struct {
	// ExtraSegments lists additional minimum-transaction
	// granularities (bytes) to tally global traffic under, beyond
	// the device's own — how Fig. 11a compares 32/16/4-byte
	// transaction sizes in one run.
	ExtraSegments []int
	// Regions attributes global traffic to named arrays.
	Regions []Region
	// MaxWarpInstructions aborts a runaway kernel (default 4e9). The
	// budget is per-run, not per-block: all workers draw on one
	// atomically shared pool, so a grid whose blocks are individually
	// modest but collectively over budget still aborts. Workers
	// reserve the budget in batches, so with Parallelism > 1 the
	// abort may trigger up to workers×8192 instructions before the
	// limit is fully consumed; a serial run aborts at exactly the
	// configured count.
	MaxWarpInstructions int64
	// GlobalAccessHook, when set, receives every global-memory
	// half-warp access: the issuing block, whether it was a load,
	// and the active lanes' byte addresses (valid only during the
	// call). Used by cache-replay experiments (paper Fig. 12's
	// texture-cache variants). A hooked run uses one worker whatever
	// Parallelism says and calls the hook inline, so calls arrive in
	// ascending block order, program order within a block — the
	// stream stateful consumers need.
	GlobalAccessHook func(blockID int, load bool, addrs []uint32)
	// Parallelism is the number of worker goroutines the grid's
	// blocks are sharded across. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 runs every block on one goroutine. A
	// GlobalAccessHook forces 1. Every setting produces bit-identical
	// Stats: per-block statistics are merged in ascending block-ID
	// order after the workers join.
	Parallelism int
	// DisableBlockReplay forces every block through live per-step
	// simulation. By default the engine detects blocks whose
	// instruction stream and address shape match a previously
	// executed block's signature and replays that block's stats shard
	// instead of re-deriving it (see replay.go) — functional
	// execution and the returned Stats are bit-identical either way,
	// which the replay differential tests check against this live
	// path. Replay is also bypassed when a GlobalAccessHook is armed,
	// since the hook observes every step.
	DisableBlockReplay bool
	// VerifyBlockIsolation enables the cross-block sharing detector:
	// the run fails if a block reads or writes a global-memory word
	// another block wrote during the same run, or writes a word
	// another block read (checked against the word's most recent
	// reader). Every alarm is a real contract violation. See the
	// disjoint-writes contract on Memory.
	VerifyBlockIsolation bool
}

// Run executes the launch functionally and returns its dynamic
// statistics. Blocks are sharded across Options.Parallelism worker
// goroutines (the CUDA model guarantees block independence — see
// Memory's disjoint-writes contract); warps within a block
// interleave at barriers. Functional semantics and the returned
// Stats are independent of scheduling: statistics are collected per
// block and merged deterministically in block order.
func Run(cfg gpu.Config, l Launch, mem *Memory, opt *Options) (*Stats, error) {
	return RunContext(context.Background(), cfg, l, mem, opt)
}

// RunContext is Run with cancellation: workers observe ctx between
// blocks and at instruction-budget refills (every few thousand warp
// instructions), so a service can abort a long simulation promptly.
// On cancellation the ctx's error is returned and the memory is left
// partially written.
func RunContext(ctx context.Context, cfg gpu.Config, l Launch, mem *Memory, opt *Options) (*Stats, error) {
	if err := l.Validate(cfg); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("barra: nil memory")
	}
	if opt == nil {
		opt = &Options{}
	}

	bsim, err := bank.ForGPU(cfg)
	if err != nil {
		return nil, err
	}
	rc := &runContext{
		goCtx:  ctx,
		cfg:    cfg,
		launch: l,
		mem:    mem,
		banks:  bsim,
		hook:   opt.GlobalAccessHook,
	}
	addSeg := func(seg int) error {
		for _, s := range rc.segs {
			if s == seg {
				return nil
			}
		}
		maxSeg := cfg.MaxSegmentBytes
		if seg > maxSeg {
			maxSeg = seg
		}
		c, err := coalesce.New(seg, maxSeg)
		if err != nil {
			return err
		}
		rc.coal = append(rc.coal, c)
		rc.segs = append(rc.segs, seg)
		return nil
	}
	if err := addSeg(cfg.MinSegmentBytes); err != nil {
		return nil, err
	}
	for _, s := range opt.ExtraSegments {
		if err := addSeg(s); err != nil {
			return nil, err
		}
	}

	rc.maxInstr = opt.MaxWarpInstructions
	if rc.maxInstr <= 0 {
		rc.maxInstr = 4e9
	}
	rc.budget.Store(rc.maxInstr)

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if rc.hook != nil {
		// One worker visits blocks in launch order, the order the
		// hook's consumers depend on.
		workers = 1
	}
	if workers > l.Grid {
		workers = l.Grid
	}

	rc.stats = newStatsCollector(l, opt.Regions, rc.segs)
	if !opt.DisableBlockReplay && rc.hook == nil {
		maxA := cfg.MaxSegmentBytes
		for _, s := range rc.segs {
			if s > maxA {
				maxA = s
			}
		}
		rc.replay = newReplayState(l.Prog, opt.Regions, maxA)
	}

	if opt.VerifyBlockIsolation {
		mem.startTracking()
		defer mem.stopTracking()
	}

	barriers, shards, err := rc.execute(workers)
	if err != nil {
		return nil, err
	}
	for b := 1; b < l.Grid; b++ {
		if barriers[b] != barriers[0] {
			return nil, fmt.Errorf("barra: block %d passed %d barriers, block 0 passed %d — irregular staging",
				b, barriers[b], barriers[0])
		}
	}
	// Deterministic join: fold every block back in ascending block
	// order, whatever order the workers finished in.
	for b, bs := range shards {
		rc.stats.merge(b, bs, barriers[b])
	}
	st := rc.stats.finish()
	if rc.replay != nil {
		sim := int64(len(rc.replay.classes)) + rc.replay.liveBlocks.Load()
		st.Engine = EngineStats{
			BlocksSimulated: sim,
			BlocksReplayed:  int64(l.Grid) - sim,
			BatchedRuns:     rc.replay.batchedRuns.Load(),
			BatchedInstrs:   rc.replay.batchedInstrs.Load(),
		}
	}
	return st, nil
}
