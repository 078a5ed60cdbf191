package barra

import (
	"sync"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// MemTraffic tallies global-memory traffic at one transaction
// granularity.
type MemTraffic struct {
	// Transactions is the hardware transaction count.
	Transactions int64
	// Bytes is the total bytes moved.
	Bytes int64
}

// StageStats aggregates dynamic statistics for one barrier-delimited
// stage (accumulated across all blocks; stage k is the code between
// the k-th and k+1-th barriers).
type StageStats struct {
	// WarpInstrs is the warp-level dynamic instruction count.
	WarpInstrs int64
	// ByClass splits WarpInstrs by cost class.
	ByClass [isa.NumClasses]int64
	// FMADs counts fused multiply-add instructions (the "actual
	// computation" of the paper's density diagnostic).
	FMADs int64
	// SharedAccesses counts warp-level shared-memory instructions;
	// SharedTx the serialized transactions after bank conflicts;
	// SharedTxNoConflict the conflict-free ideal (one per active
	// half-warp).
	SharedAccesses     int64
	SharedTx           int64
	SharedTxNoConflict int64
	// SharedBytes is useful shared traffic (4 B per active lane).
	SharedBytes int64
	// Global is traffic at the device's native granularity;
	// GlobalUsefulBytes counts 4 B per active lane.
	Global            MemTraffic
	GlobalUsefulBytes int64
	// GlobalRequests counts half-warp global-memory requests (the
	// coalescing unit) — Global.Transactions / GlobalRequests is the
	// transaction-per-request ratio, 1.0 when every request coalesces
	// into a single transaction.
	GlobalRequests int64
	// DivByClass counts, per cost class, warp instructions issued
	// while the warp was split across divergent paths; DivActiveLanes
	// sums their active lane counts. A divergence-free restructuring
	// could pack those issues into roughly DivActiveLanes/warpSize
	// full-warp issues — the advisor's NoDivergence counterfactual.
	DivByClass     [isa.NumClasses]int64
	DivActiveLanes int64
	// ConflictDeg histograms shared-memory load/store half-warp
	// accesses by conflict degree: ConflictDeg[d] counts accesses
	// serialized into d bank transactions (d=1 conflict-free, up to
	// one per lane). Index 0 is unused.
	ConflictDeg [gpu.HalfWarp + 1]int64
	// WarpsWithWork is the number of warps (summed over blocks)
	// that did substantial work in this stage: warps whose executed
	// non-control, unskipped instruction count reaches at least half
	// of the busiest warp's count in their block. Guard-test
	// boilerplate (a compare plus a skipping branch) therefore does
	// not count as work — this is the paper's per-step active-warp
	// count for cyclic reduction (Fig. 6).
	WarpsWithWork int64
}

// Stats is the dynamic-statistics output of a functional run: the
// "info extractor" payload of paper Fig. 1. Sharded runs merge
// per-block statistics in ascending block order, so Stats is
// bit-identical for every Options.Parallelism setting.
type Stats struct {
	// Totals over all stages.
	Total StageStats
	// Stages in barrier order. Kernels without barriers have one.
	Stages []StageStats
	// Barriers is the number of barrier releases per block.
	Barriers int
	// GlobalAt tallies global traffic per transaction granularity
	// (always includes the device's own).
	GlobalAt map[int]MemTraffic
	// RegionTraffic attributes global traffic per named region and
	// granularity; RegionUseful counts useful bytes per region.
	RegionTraffic map[string]map[int]MemTraffic
	// RegionUseful is 4 B per active lane per region.
	RegionUseful map[string]int64

	// Launch echoes the launch geometry.
	Grid, Block int

	// Engine reports how the execution engine produced these stats
	// (all zero on the live path: a GlobalAccessHook armed, or replay
	// disabled). The counters are deterministic at a fixed
	// Parallelism; the per-worker adaptive fallback can shift a few
	// blocks between simulated and replayed across different worker
	// counts on irregular workloads. Every other Stats field is
	// bit-identical regardless.
	Engine EngineStats
}

// EngineStats are the execution engine's replay and batching
// counters for one run.
type EngineStats struct {
	// BlocksSimulated is the number of blocks whose statistics were
	// derived by full simulation: one per block equivalence class,
	// plus any blocks run live by workers that abandoned replay.
	// BlocksReplayed is the number of blocks that reused a class's
	// canonical shard instead. Their sum is the grid size.
	BlocksSimulated int64
	BlocksReplayed  int64
	// BatchedRuns is the number of multi-instruction batched steps;
	// BatchedInstrs the warp instructions they covered (out of
	// Total.WarpInstrs).
	BatchedRuns   int64
	BatchedInstrs int64
}

// InstructionDensity returns FMADs / total warp instructions — the
// computational-density diagnostic (≈0.8 for Volkov matmul, ≈0.1
// for cyclic reduction, per the paper).
func (s *Stats) InstructionDensity() float64 {
	if s.Total.WarpInstrs == 0 {
		return 0
	}
	return float64(s.Total.FMADs) / float64(s.Total.WarpInstrs)
}

// CoalescingEfficiency returns useful / transferred global bytes.
func (s *Stats) CoalescingEfficiency() float64 {
	if s.Total.Global.Bytes == 0 {
		return 1
	}
	return float64(s.Total.GlobalUsefulBytes) / float64(s.Total.Global.Bytes)
}

// BankConflictFactor returns SharedTx / SharedTxNoConflict (1.0 =
// conflict-free).
func (s *Stats) BankConflictFactor() float64 {
	if s.Total.SharedTxNoConflict == 0 {
		return 1
	}
	return float64(s.Total.SharedTx) / float64(s.Total.SharedTxNoConflict)
}

// TxPerRequest returns global transactions per half-warp request —
// 1.0 when every request coalesces into one transaction.
func (s *Stats) TxPerRequest() float64 {
	if s.Total.GlobalRequests == 0 {
		return 1
	}
	return float64(s.Total.Global.Transactions) / float64(s.Total.GlobalRequests)
}

// DivergentInstrs returns the warp instructions issued while the warp
// was split across divergent paths, summed over classes.
func (s *StageStats) DivergentInstrs() int64 {
	var n int64
	for _, c := range s.DivByClass {
		n += c
	}
	return n
}

// DivergenceOverhead returns the fraction of all warp instructions
// that a divergence-free restructuring could eliminate: diverged
// issues minus the full-warp issues their active lanes would pack
// into, over the total issue count.
func (s *Stats) DivergenceOverhead() float64 {
	if s.Total.WarpInstrs == 0 {
		return 0
	}
	div := s.Total.DivergentInstrs()
	packed := (s.Total.DivActiveLanes + gpu.WarpSize - 1) / gpu.WarpSize
	saved := div - packed
	if saved <= 0 {
		return 0
	}
	return float64(saved) / float64(s.Total.WarpInstrs)
}

func accumulate(dst, src *StageStats) {
	dst.WarpInstrs += src.WarpInstrs
	for c := range dst.ByClass {
		dst.ByClass[c] += src.ByClass[c]
	}
	dst.FMADs += src.FMADs
	dst.SharedAccesses += src.SharedAccesses
	dst.SharedTx += src.SharedTx
	dst.SharedTxNoConflict += src.SharedTxNoConflict
	dst.SharedBytes += src.SharedBytes
	dst.Global.Transactions += src.Global.Transactions
	dst.Global.Bytes += src.Global.Bytes
	dst.GlobalUsefulBytes += src.GlobalUsefulBytes
	dst.GlobalRequests += src.GlobalRequests
	for c := range dst.DivByClass {
		dst.DivByClass[c] += src.DivByClass[c]
	}
	dst.DivActiveLanes += src.DivActiveLanes
	for d := range dst.ConflictDeg {
		dst.ConflictDeg[d] += src.ConflictDeg[d]
	}
	dst.WarpsWithWork += src.WarpsWithWork
}

// deaccumulate is accumulate's exact inverse: dst -= src, field by
// field. The replay engine uses it to strip a block's data-derived
// (variant) contributions out of its full shard, leaving the
// class-invariant uniform shard (see replay.go).
func deaccumulate(dst, src *StageStats) {
	dst.WarpInstrs -= src.WarpInstrs
	for c := range dst.ByClass {
		dst.ByClass[c] -= src.ByClass[c]
	}
	dst.FMADs -= src.FMADs
	dst.SharedAccesses -= src.SharedAccesses
	dst.SharedTx -= src.SharedTx
	dst.SharedTxNoConflict -= src.SharedTxNoConflict
	dst.SharedBytes -= src.SharedBytes
	dst.Global.Transactions -= src.Global.Transactions
	dst.Global.Bytes -= src.Global.Bytes
	dst.GlobalUsefulBytes -= src.GlobalUsefulBytes
	dst.GlobalRequests -= src.GlobalRequests
	for c := range dst.DivByClass {
		dst.DivByClass[c] -= src.DivByClass[c]
	}
	dst.DivActiveLanes -= src.DivActiveLanes
	for d := range dst.ConflictDeg {
		dst.ConflictDeg[d] -= src.ConflictDeg[d]
	}
	dst.WarpsWithWork -= src.WarpsWithWork
}

// statsCollector builds one run's *Stats. Blocks record into
// index-keyed shards (cheaper than maps in the hot loop); merge
// converts them to the public map form.
type statsCollector struct {
	regions []Region
	segs    []int // granularities, segs[0] native
	stats   *Stats
}

func newStatsCollector(l Launch, regions []Region, segs []int) *statsCollector {
	c := &statsCollector{
		regions: regions,
		segs:    segs,
		stats: &Stats{
			GlobalAt:      map[int]MemTraffic{},
			RegionTraffic: map[string]map[int]MemTraffic{},
			RegionUseful:  map[string]int64{},
			Grid:          l.Grid,
			Block:         l.Block,
		},
	}
	for _, reg := range regions {
		c.stats.RegionTraffic[reg.Name] = map[int]MemTraffic{}
		c.stats.RegionUseful[reg.Name] = 0
	}
	return c
}

// blockStats is one block's shard of the statistics, written by the
// one worker running the block. Shards are pooled process-wide: merge
// returns each folded shard to blockStatsPool, so the paper's
// rerun-per-figure workflow — many Run calls in one process — stops
// churning per-block slices after the first launch warms the pool.
type blockStats struct {
	stages        []StageStats
	globalAt      []MemTraffic   // indexed like statsCollector.segs
	regionTraffic [][]MemTraffic // [region][seg]
	regionUseful  []int64        // [region]
}

var blockStatsPool sync.Pool

// trafficRow returns a zeroed []MemTraffic of length n, reusing prev's
// backing array when it is large enough.
func trafficRow(prev []MemTraffic, n int) []MemTraffic {
	if cap(prev) < n {
		return make([]MemTraffic, n)
	}
	prev = prev[:n]
	clear(prev)
	return prev
}

// shard returns a zeroed shard sized for this run, reusing a pooled
// one when available.
func (c *statsCollector) shard() *blockStats {
	bs, _ := blockStatsPool.Get().(*blockStats)
	if bs == nil {
		bs = &blockStats{}
	}
	bs.stages = bs.stages[:0]
	bs.globalAt = trafficRow(bs.globalAt, len(c.segs))
	if cap(bs.regionUseful) < len(c.regions) {
		bs.regionUseful = make([]int64, len(c.regions))
	} else {
		bs.regionUseful = bs.regionUseful[:len(c.regions)]
		clear(bs.regionUseful)
	}
	if len(c.regions) == 0 {
		bs.regionTraffic = bs.regionTraffic[:0]
	} else {
		if cap(bs.regionTraffic) < len(c.regions) {
			rows := make([][]MemTraffic, len(c.regions))
			copy(rows, bs.regionTraffic[:cap(bs.regionTraffic)])
			bs.regionTraffic = rows
		} else {
			bs.regionTraffic = bs.regionTraffic[:len(c.regions)]
		}
		for i := range bs.regionTraffic {
			bs.regionTraffic[i] = trafficRow(bs.regionTraffic[i], len(c.segs))
		}
	}
	return bs
}

// copyFrom overwrites b's counters with src's, reusing b's backing
// storage. Both shards must come from the same run (identical segment
// and region geometry) — the replay path copying a class's canonical
// shard into a block's own.
func (b *blockStats) copyFrom(src *blockStats) {
	b.stages = append(b.stages[:0], src.stages...)
	copy(b.globalAt, src.globalAt)
	for i := range b.regionTraffic {
		copy(b.regionTraffic[i], src.regionTraffic[i])
	}
	copy(b.regionUseful, src.regionUseful)
}

// add folds src's counters into b, field by field. Both shards must
// come from the same run. Stages b lacks are created — a
// variant shard can end before the block's last stage.
func (b *blockStats) add(src *blockStats) {
	for i := range src.stages {
		accumulate(b.stage(i), &src.stages[i])
	}
	for i := range src.globalAt {
		b.globalAt[i].Transactions += src.globalAt[i].Transactions
		b.globalAt[i].Bytes += src.globalAt[i].Bytes
	}
	for ri := range src.regionTraffic {
		for si := range src.regionTraffic[ri] {
			b.regionTraffic[ri][si].Transactions += src.regionTraffic[ri][si].Transactions
			b.regionTraffic[ri][si].Bytes += src.regionTraffic[ri][si].Bytes
		}
	}
	for ri := range src.regionUseful {
		b.regionUseful[ri] += src.regionUseful[ri]
	}
}

// sub removes src's counters from b — add's exact inverse. src must
// be a subset of b's activity (a block's variant shard subtracted
// from the same block's full shard).
func (b *blockStats) sub(src *blockStats) {
	for i := range src.stages {
		deaccumulate(b.stage(i), &src.stages[i])
	}
	for i := range src.globalAt {
		b.globalAt[i].Transactions -= src.globalAt[i].Transactions
		b.globalAt[i].Bytes -= src.globalAt[i].Bytes
	}
	for ri := range src.regionTraffic {
		for si := range src.regionTraffic[ri] {
			b.regionTraffic[ri][si].Transactions -= src.regionTraffic[ri][si].Transactions
			b.regionTraffic[ri][si].Bytes -= src.regionTraffic[ri][si].Bytes
		}
	}
	for ri := range src.regionUseful {
		b.regionUseful[ri] -= src.regionUseful[ri]
	}
}

// release returns a shard to the pool: merge retiring a folded
// shard, or the replay path a lean pass's variant shard.
func (b *blockStats) release() { blockStatsPool.Put(b) }

// clone returns an independent deep copy of b, retained as a replay
// class's canonical shard for the rest of the run.
func (b *blockStats) clone() *blockStats {
	c := &blockStats{
		stages:        append([]StageStats(nil), b.stages...),
		globalAt:      append([]MemTraffic(nil), b.globalAt...),
		regionTraffic: make([][]MemTraffic, len(b.regionTraffic)),
		regionUseful:  append([]int64(nil), b.regionUseful...),
	}
	for i := range b.regionTraffic {
		c.regionTraffic[i] = append([]MemTraffic(nil), b.regionTraffic[i]...)
	}
	return c
}

func (b *blockStats) stage(i int) *StageStats {
	for len(b.stages) <= i {
		b.stages = append(b.stages, StageStats{}) //gpuperf:alloc-ok bounded by the kernel's stage count; shards recycle via blockStatsPool
	}
	return &b.stages[i]
}

// regionOf returns the index in c.regions containing addr, or -1.
func (c *statsCollector) regionOf(addr uint32) int {
	for i, reg := range c.regions {
		if addr >= reg.Lo && addr < reg.Hi {
			return i
		}
	}
	return -1
}

// merge folds one finished block's shard into the run totals and
// returns the shard to the pool. Run merges every block in ascending
// block order after the workers join, so Stats never depends on
// which worker ran which block.
//
//gpuperf:noalloc
func (c *statsCollector) merge(blockID int, bs *blockStats, barriers int) {
	s := c.stats
	if blockID == 0 {
		s.Barriers = barriers
	}
	for i := range bs.stages {
		for len(s.Stages) <= i {
			s.Stages = append(s.Stages, StageStats{}) //gpuperf:alloc-ok bounded by the kernel's stage count, once per run
		}
		accumulate(&s.Stages[i], &bs.stages[i])
	}
	for si, seg := range c.segs {
		t := s.GlobalAt[seg]
		t.Transactions += bs.globalAt[si].Transactions
		t.Bytes += bs.globalAt[si].Bytes
		s.GlobalAt[seg] = t
	}
	for ri, reg := range c.regions {
		for si, seg := range c.segs {
			rt := s.RegionTraffic[reg.Name][seg]
			rt.Transactions += bs.regionTraffic[ri][si].Transactions
			rt.Bytes += bs.regionTraffic[ri][si].Bytes
			s.RegionTraffic[reg.Name][seg] = rt
		}
		s.RegionUseful[reg.Name] += bs.regionUseful[ri]
	}
	bs.release()
}

// finish computes the run totals after all blocks have merged.
func (c *statsCollector) finish() *Stats {
	for i := range c.stats.Stages {
		accumulate(&c.stats.Total, &c.stats.Stages[i])
	}
	return c.stats
}
