// Package model implements the paper's quantitative performance
// model (§3): given the dynamic statistics of a kernel (from the
// barra functional simulator) and microbenchmark-calibrated
// throughput curves, it estimates the time three architectural
// components would each need — the instruction pipeline, shared
// memory, and global memory — identifies the bottleneck component,
// breaks the program into barrier-delimited stages, and produces the
// diagnostics that guide program and architecture optimization:
// computational density, coalescing efficiency, bank-conflict
// penalty, and warp-level parallelism.
//
// Key modeling assumptions, from the paper:
//
//   - The time of non-bottleneck components is hidden under the
//     bottleneck (the GPU overlaps instruction, shared-memory and
//     global-memory work across warps), so the program's time is the
//     maximum of the component times — not their sum.
//   - With a single resident block per SM, barrier-delimited stages
//     serialize: the program's time is the sum over stages of each
//     stage's bottleneck time, and each stage has its own bottleneck.
//   - With multiple resident blocks, stages of different blocks
//     overlap, so the whole program gets one bottleneck verdict (a
//     slightly optimistic treatment, as the paper notes).
package model

import (
	"fmt"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/occupancy"
	"gpuperf/internal/timing"
)

// Component identifies one of the three modeled components.
type Component int

// The three components of GPU execution time.
const (
	CompInstruction Component = iota
	CompShared
	CompGlobal
	// NumComponents is the component count.
	NumComponents = 3
)

func (c Component) String() string {
	switch c {
	case CompInstruction:
		return "instruction pipeline"
	case CompShared:
		return "shared memory"
	case CompGlobal:
		return "global memory"
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Times holds per-component time estimates in seconds.
type Times [NumComponents]float64

// Bottleneck returns the component with the largest time.
func (t Times) Bottleneck() Component {
	best := CompInstruction
	for c := CompInstruction; int(c) < NumComponents; c++ {
		if t[c] > t[best] {
			best = c
		}
	}
	return best
}

// Second returns the runner-up component — the paper's "what becomes
// the bottleneck if the current one is removed".
func (t Times) Second() Component {
	b := t.Bottleneck()
	second := CompInstruction
	if second == b {
		second = CompShared
	}
	for c := CompInstruction; int(c) < NumComponents; c++ {
		if c != b && t[c] > t[second] {
			second = c
		}
	}
	return second
}

// Max returns the bottleneck time.
func (t Times) Max() float64 { return t[t.Bottleneck()] }

// Add accumulates element-wise.
func (t *Times) Add(o Times) {
	for i := range t {
		t[i] += o[i]
	}
}

// StageEstimate is the model's verdict for one barrier-delimited
// stage.
type StageEstimate struct {
	// Index is the stage number (0 = start to first barrier).
	Index int
	// Times are per-component estimates for the stage.
	Times Times
	// Bottleneck is the stage's slowest component.
	Bottleneck Component
	// Warps is the warp-level parallelism per SM assumed for the
	// stage's throughput lookups.
	Warps int
}

// Estimate is the model's output for a kernel.
type Estimate struct {
	// Component holds whole-program per-component times.
	Component Times
	// Stages carries the per-stage breakdown.
	Stages []StageEstimate
	// Serialized is true when one resident block per SM forces
	// stages to run back to back.
	Serialized bool
	// TotalSeconds is the predicted execution time: the bottleneck
	// component when overlapped, or the sum of stage bottlenecks
	// when serialized.
	TotalSeconds float64
	// UpperBoundSeconds brackets the paper's acknowledged
	// limitation (future-work item 4): TotalSeconds assumes perfect
	// overlap of the non-bottleneck components, which under-predicts
	// when barrier-delimited stages serialize dependent global and
	// shared phases. UpperBoundSeconds is the fully-serial bound
	// (sum of all component times over all stages); the real time
	// lies between the two, nearer the lower bound the more
	// independent warps the kernel keeps in flight.
	UpperBoundSeconds float64
	// Bottleneck and NextBottleneck are the whole-program verdicts.
	Bottleneck     Component
	NextBottleneck Component

	// Diagnostics (paper Fig. 1's outputs).
	WarpsPerSM           int
	Occupancy            occupancy.Result
	Density              float64
	CoalescingEfficiency float64
	BankConflictFactor   float64
	TransPerThread       int

	// InstrThroughput and bandwidths echo the curve values used.
	InstrThroughputAtWarps float64 // ClassII instr/s
	SharedBandwidthAtWarps float64 // B/s
	GlobalBandwidthUsed    float64 // B/s
}

// Overrides perturb the model's inputs to answer counterfactual
// "what if" questions — the paper's §4 optimization-impact analysis:
// the statistics of one functional run are re-evaluated under an
// idealized assumption, and the change in predicted time quantifies
// how much the corresponding optimization would buy. All overrides
// are pure stat/occupancy transforms; none re-runs the simulation.
type Overrides struct {
	// PerfectCoalescing charges the global-memory component only for
	// the useful bytes (4 B per active lane), as if every half-warp
	// request coalesced into fully-used transactions.
	PerfectCoalescing bool
	// ConflictFreeShared replaces the serialized shared-memory
	// transaction counts with the conflict-free ideal (one per active
	// half-warp) — the effect of a padding remedy like paper Fig. 8.
	ConflictFreeShared bool
	// NoDivergence packs warp instructions issued on divergent paths
	// into full-warp issues: each stage's per-class counts shrink by
	// the diverged issues minus the DivActiveLanes/warpSize full
	// warps they would occupy when restructured.
	NoDivergence bool
	// ForceOverlap treats barrier-delimited stages as overlapped even
	// with a single resident block per SM — the upside of any change
	// that lets stages of different blocks interleave.
	ForceOverlap bool
	// ResidentBlocks, when > 0, forces the occupancy computation to
	// assume that many resident blocks per SM (capped by the device's
	// thread, warp and block ceilings and by the grid) — modeling a
	// kernel whose per-block resource demand was trimmed until the
	// target occupancy fit.
	ResidentBlocks int
}

// Analyze runs the model for one launch whose dynamic statistics
// have been collected by barra.Run.
func Analyze(cal *timing.Calibration, l barra.Launch, stats *barra.Stats) (*Estimate, error) {
	return AnalyzeWith(cal, l, stats, Overrides{})
}

// AnalyzeWith is Analyze under counterfactual overrides: the same
// calibrated model applied to a transformed view of the statistics.
// With the zero Overrides it is exactly Analyze.
func AnalyzeWith(cal *timing.Calibration, l barra.Launch, stats *barra.Stats, ov Overrides) (*Estimate, error) {
	if cal == nil || stats == nil {
		return nil, fmt.Errorf("model: nil calibration or stats")
	}
	cfg := cal.Config()
	if err := l.Validate(cfg); err != nil {
		return nil, err
	}
	occ, err := occupancy.Compute(cfg, occupancy.Usage{
		ThreadsPerBlock:   l.Block,
		RegsPerThread:     l.Prog.RegsPerThread,
		SharedMemPerBlock: l.Prog.SharedMemBytes,
	})
	if err != nil {
		return nil, err
	}

	// Fraction of the chip with work: chip-level curves assume all
	// SMs busy; a grid smaller than the machine scales down.
	busySMs := cfg.NumSMs
	if l.Grid < busySMs {
		busySMs = l.Grid
	}
	scale := float64(busySMs) / float64(cfg.NumSMs)

	// A grid smaller than blocks-per-SM × SMs cannot reach the
	// occupancy ceiling: derate the resident blocks to what the
	// launch actually supplies.
	gridBlocks := (l.Grid + busySMs - 1) / busySMs
	if gridBlocks < occ.Blocks {
		occ.Blocks = gridBlocks
		occ.ActiveWarps = gridBlocks * occ.WarpsPerBlock
		occ.Limiter = "grid size"
	}

	if ov.ResidentBlocks > 0 {
		// Counterfactual occupancy: assume the kernel's per-block
		// resource demand were trimmed until b blocks fit, bounded by
		// the ceilings no source change can lift — threads, warps,
		// the architectural block limit, and the grid itself.
		b := ov.ResidentBlocks
		if m := cfg.MaxBlocksPerSM; b > m {
			b = m
		}
		if occ.WarpsPerBlock > 0 {
			if m := cfg.MaxWarpsPerSM / occ.WarpsPerBlock; b > m {
				b = m
			}
		}
		if m := cfg.MaxThreadsPerSM / l.Block; b > m {
			b = m
		}
		if b > gridBlocks {
			b = gridBlocks
		}
		if b < 1 {
			b = 1
		}
		occ.Blocks = b
		occ.ActiveWarps = b * occ.WarpsPerBlock
		occ.Limiter = "counterfactual override"
	}

	e := &Estimate{
		WarpsPerSM:           occ.ActiveWarps,
		Occupancy:            occ,
		Density:              stats.InstructionDensity(),
		CoalescingEfficiency: stats.CoalescingEfficiency(),
		BankConflictFactor:   stats.BankConflictFactor(),
		Serialized:           occ.Blocks == 1 && !ov.ForceOverlap,
	}

	// Global memory: one synthetic-benchmark bandwidth for the whole
	// kernel, configured like the program (paper §4.3).
	threads := l.Grid * l.Block
	accesses := stats.Total.GlobalUsefulBytes / 4
	e.TransPerThread = int(accesses) / threads
	if e.TransPerThread < 1 && accesses > 0 {
		e.TransPerThread = 1
	}
	gbw := 0.0
	if stats.Total.Global.Bytes > 0 {
		gbw, err = cal.GlobalBandwidth(l.Grid, l.Block, e.TransPerThread)
		if err != nil {
			return nil, err
		}
	}
	e.GlobalBandwidthUsed = gbw

	for i := range stats.Stages {
		st := &stats.Stages[i]
		warps := stageWarps(st, stats, l, occ, cal.MaxWarps())
		byClass, sharedTx, globalBytes := effectiveStage(st, ov)
		var times Times
		for cls := isa.Class(0); int(cls) < isa.NumClasses; cls++ {
			if byClass[cls] == 0 {
				continue
			}
			tp := cal.InstrThroughput(cls, warps) * scale
			times[CompInstruction] += float64(byClass[cls]) / tp
		}
		if sharedTx > 0 {
			times[CompShared] = float64(sharedTx) / (cal.SharedTxRate(warps) * scale)
		}
		if globalBytes > 0 && gbw > 0 {
			times[CompGlobal] = float64(globalBytes) / gbw
		}
		e.Stages = append(e.Stages, StageEstimate{
			Index:      i,
			Times:      times,
			Bottleneck: times.Bottleneck(),
			Warps:      warps,
		})
		e.Component.Add(times)
	}

	e.Bottleneck = e.Component.Bottleneck()
	e.NextBottleneck = e.Component.Second()
	e.InstrThroughputAtWarps = cal.InstrThroughput(isa.ClassII, occ.ActiveWarps) * scale
	e.SharedBandwidthAtWarps = cal.SharedBandwidth(occ.ActiveWarps) * scale

	if e.Serialized {
		// One block per SM: stages run back to back, each limited by
		// its own bottleneck.
		for _, st := range e.Stages {
			e.TotalSeconds += st.Times.Max()
		}
	} else {
		e.TotalSeconds = e.Component.Max()
	}
	for c := Component(0); int(c) < NumComponents; c++ {
		e.UpperBoundSeconds += e.Component[c]
	}
	if e.UpperBoundSeconds < e.TotalSeconds {
		e.UpperBoundSeconds = e.TotalSeconds
	}
	return e, nil
}

// effectiveStage returns one stage's counters after applying the
// counterfactual overrides: the per-class instruction counts, the
// serialized shared transaction count, and the charged global bytes.
func effectiveStage(st *barra.StageStats, ov Overrides) ([isa.NumClasses]int64, int64, int64) {
	byClass := st.ByClass
	if ov.NoDivergence {
		if div := st.DivergentInstrs(); div > 0 {
			// The diverged issues' active lanes pack into full warps;
			// distribute the surviving issues across classes in
			// proportion to each class's diverged count.
			packed := (st.DivActiveLanes + gpu.WarpSize - 1) / gpu.WarpSize
			if packed > div {
				packed = div
			}
			f := float64(packed) / float64(div)
			for c := range byClass {
				keep := int64(float64(float64(st.DivByClass[c])*f) + 0.5)
				byClass[c] += keep - st.DivByClass[c]
				if byClass[c] < 0 {
					byClass[c] = 0
				}
			}
		}
	}
	sharedTx := st.SharedTx
	if ov.ConflictFreeShared {
		sharedTx = st.SharedTxNoConflict
	}
	globalBytes := st.Global.Bytes
	if ov.PerfectCoalescing {
		globalBytes = st.GlobalUsefulBytes
	}
	return byClass, sharedTx, globalBytes
}

// stageWarps decides the warp-level parallelism for one stage: the
// resident warps from occupancy, derated by the fraction of the
// block's warps that did real work in the stage (cyclic reduction's
// later steps idle most warps — paper Fig. 6's 8/8/4/2/1 row).
func stageWarps(st *barra.StageStats, stats *barra.Stats, l barra.Launch, occ occupancy.Result, maxWarps int) int {
	warps := occ.ActiveWarps
	if st.WarpsWithWork > 0 && stats.Grid > 0 {
		perBlock := float64(st.WarpsWithWork) / float64(stats.Grid)
		w := int(float64(perBlock*float64(occ.Blocks)) + 0.5)
		if w < warps {
			warps = w
		}
	}
	if warps < 1 {
		warps = 1
	}
	if warps > maxWarps {
		warps = maxWarps
	}
	return warps
}

// Causes lists the paper's §3 likely causes for the identified
// bottleneck, filtered by the diagnostics.
func (e *Estimate) Causes() []string {
	var out []string
	switch e.Bottleneck {
	case CompInstruction:
		if e.Density < 0.5 {
			out = append(out, fmt.Sprintf("low computational density (%.0f%% of instructions are MADs)", e.Density*100))
		}
		if e.WarpsPerSM < 6 {
			out = append(out, fmt.Sprintf("insufficient parallel warps (%d per SM)", e.WarpsPerSM))
		}
	case CompShared:
		if e.BankConflictFactor > 1.05 {
			out = append(out, fmt.Sprintf("bank conflicts inflate shared-memory transactions %.2fx", e.BankConflictFactor))
		}
		if e.WarpsPerSM < 10 {
			out = append(out, fmt.Sprintf("insufficient parallel warps (%d per SM) for the shared-memory pipeline", e.WarpsPerSM))
		}
		if e.Density < 0.3 {
			out = append(out, "shared-memory traffic from bookkeeping instructions")
		}
	case CompGlobal:
		if e.CoalescingEfficiency < 0.9 {
			out = append(out, fmt.Sprintf("uncoalesced accesses / large transaction granularity (%.0f%% of fetched bytes useful)", e.CoalescingEfficiency*100))
		}
		if e.WarpsPerSM < 10 {
			out = append(out, fmt.Sprintf("insufficient parallelism (%d warps per SM) to cover memory latency", e.WarpsPerSM))
		}
	}
	if len(out) == 0 {
		out = append(out, "component near its calibrated peak")
	}
	return out
}

// CompareError returns |predicted-measured|/measured for the
// bottleneck-time prediction against a measured time in seconds —
// the paper's 5-15% accuracy metric.
func (e *Estimate) CompareError(measuredSeconds float64) float64 {
	if measuredSeconds == 0 {
		return 0
	}
	d := e.TotalSeconds - measuredSeconds
	if d < 0 {
		d = -d
	}
	return d / measuredSeconds
}

// GFLOPS converts the prediction into an achieved-GFLOPS figure for
// a kernel performing flops floating-point operations.
func (e *Estimate) GFLOPS(flops int64) float64 {
	if e.TotalSeconds == 0 {
		return 0
	}
	return float64(flops) / e.TotalSeconds / 1e9
}
