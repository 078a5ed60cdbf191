package barra

import (
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
// "info extractor" payload of paper Fig. 1, summed over every block.
// Every counter is an integer sum, so the order in which workers fold
// blocks cannot change a bit: Stats, Engine included, is identical
// for every Options.Parallelism setting.
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
	// disabled). Like every other field it is the same at every
	// Parallelism.
	Engine EngineStats
}

// EngineStats are the execution engine's replay and batching
// counters for one run. Every block runs the replay engine's lean
// pass, so all four depend only on the launch, never on which worker
// ran which block.
type EngineStats struct {
	// BlocksSimulated is the number of block equivalence classes the
	// run found: each class's statistics come from one full
	// simulation. BlocksReplayed is Grid − BlocksSimulated, the blocks
	// that reused a class's canonical shard. When two workers meet a
	// new class at once both simulate it, and it still counts once.
	BlocksSimulated int64
	BlocksReplayed  int64
	// BatchedRuns is the number of multi-instruction batched steps of
	// the lean passes; BatchedInstrs the warp instructions they
	// covered (out of Total.WarpInstrs).
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

// accumulate adds sign·src to dst, field by field: sign 1 folds a
// shard in, sign −1 strips it out again (see blockStats.add).
func accumulate(dst, src *StageStats, sign int64) {
	dst.WarpInstrs += sign * src.WarpInstrs
	for c := range dst.ByClass {
		dst.ByClass[c] += sign * src.ByClass[c]
	}
	dst.FMADs += sign * src.FMADs
	dst.SharedAccesses += sign * src.SharedAccesses
	dst.SharedTx += sign * src.SharedTx
	dst.SharedTxNoConflict += sign * src.SharedTxNoConflict
	dst.SharedBytes += sign * src.SharedBytes
	dst.Global.Transactions += sign * src.Global.Transactions
	dst.Global.Bytes += sign * src.Global.Bytes
	dst.GlobalUsefulBytes += sign * src.GlobalUsefulBytes
	dst.GlobalRequests += sign * src.GlobalRequests
	for c := range dst.DivByClass {
		dst.DivByClass[c] += sign * src.DivByClass[c]
	}
	dst.DivActiveLanes += sign * src.DivActiveLanes
	for d := range dst.ConflictDeg {
		dst.ConflictDeg[d] += sign * src.ConflictDeg[d]
	}
	dst.WarpsWithWork += sign * src.WarpsWithWork
}

// statsCollector is one run's statistics layout: blocks record into
// index-keyed shards (cheaper than maps in the hot loop), and finish
// converts the run's sum to the public map form.
type statsCollector struct {
	regions []Region
	segs    []int // granularities, segs[0] native
}

// blockStats is a shard of the statistics in index-keyed form: the
// block a worker has in flight, a lean pass's variant shard, a
// worker's running sum, or a replay class's canonical shard. Every
// counter is an integer sum, so shards fold in any order to the same
// bits.
type blockStats struct {
	stages        []StageStats
	globalAt      []MemTraffic   // indexed like statsCollector.segs
	regionTraffic [][]MemTraffic // [region][seg]
	regionUseful  []int64        // [region]
}

// shard returns a zeroed shard sized for this run.
func (c *statsCollector) shard() *blockStats {
	bs := &blockStats{
		globalAt:      make([]MemTraffic, len(c.segs)),
		regionTraffic: make([][]MemTraffic, len(c.regions)),
		regionUseful:  make([]int64, len(c.regions)),
	}
	for i := range bs.regionTraffic {
		bs.regionTraffic[i] = make([]MemTraffic, len(c.segs))
	}
	return bs
}

// reset zeroes b for the next block, keeping its storage.
func (b *blockStats) reset() {
	b.stages = b.stages[:0]
	clear(b.globalAt)
	for _, row := range b.regionTraffic {
		clear(row)
	}
	clear(b.regionUseful)
}

// add adds sign·src to b, field by field. Both shards must come from
// the same run. Stages b lacks are created, all in one step: a
// worker's sum and a class's canonical shard start empty in every
// run, and a variant shard can end before the block's last stage.
// Sign 1 folds a finished block into its worker's running sum (and a
// replayed block's class and variant shards); sign −1 strips a
// block's variant shard out of its full shard, leaving the class's
// uniform shard (see replay.go).
//
//gpuperf:noalloc
func (b *blockStats) add(src *blockStats, sign int64) {
	if n := len(src.stages); len(b.stages) < n {
		b.stages = append(b.stages, make([]StageStats, n-len(b.stages))...) //gpuperf:alloc-ok once per shard and run, to the kernel's stage count
	}
	for i := range src.stages {
		accumulate(&b.stages[i], &src.stages[i], sign)
	}
	for i := range src.globalAt {
		b.globalAt[i].Transactions += sign * src.globalAt[i].Transactions
		b.globalAt[i].Bytes += sign * src.globalAt[i].Bytes
	}
	for ri := range src.regionTraffic {
		for si := range src.regionTraffic[ri] {
			b.regionTraffic[ri][si].Transactions += sign * src.regionTraffic[ri][si].Transactions
			b.regionTraffic[ri][si].Bytes += sign * src.regionTraffic[ri][si].Bytes
		}
	}
	for ri := range src.regionUseful {
		b.regionUseful[ri] += sign * src.regionUseful[ri]
	}
}

func (b *blockStats) stage(i int) *StageStats {
	for len(b.stages) <= i {
		b.stages = append(b.stages, StageStats{}) //gpuperf:alloc-ok bounded by the kernel's stage count; a worker's shards keep their storage from block to block
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

// finish converts the sum of every block's shard to the run's Stats.
func (c *statsCollector) finish(l Launch, sum *blockStats) *Stats {
	s := &Stats{
		Stages:        sum.stages,
		GlobalAt:      map[int]MemTraffic{},
		RegionTraffic: map[string]map[int]MemTraffic{},
		RegionUseful:  map[string]int64{},
		Grid:          l.Grid,
		Block:         l.Block,
	}
	for i := range s.Stages {
		accumulate(&s.Total, &s.Stages[i], 1)
	}
	for si, seg := range c.segs {
		s.GlobalAt[seg] = sum.globalAt[si]
	}
	for ri, reg := range c.regions {
		rt := s.RegionTraffic[reg.Name]
		if rt == nil {
			rt = map[int]MemTraffic{}
			s.RegionTraffic[reg.Name] = rt
		}
		for si, seg := range c.segs {
			t := rt[seg]
			t.Transactions += sum.regionTraffic[ri][si].Transactions
			t.Bytes += sum.regionTraffic[ri][si].Bytes
			rt[seg] = t
		}
		s.RegionUseful[reg.Name] += sum.regionUseful[ri]
	}
	return s
}
