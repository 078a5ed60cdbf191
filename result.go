package gpuperf

import (
	"fmt"
	"strings"

	"gpuperf/internal/advise"
	"gpuperf/internal/barra"
	"gpuperf/internal/model"
)

// Result is the fully serializable output of one analysis: the
// paper's Fig. 1 verdict (per-component times, bottleneck, causes,
// per-stage breakdown) plus the dynamic-statistics summary it was
// derived from and, when requested, the device simulator's measured
// time. Every field round-trips through JSON unchanged — the HTTP
// service returns this struct verbatim.
type Result struct {
	// Kernel, Size and Seed echo the request; Device names the
	// analyzed configuration; Grid and Block its launch geometry.
	Kernel string `json:"kernel"`
	Device string `json:"device"`
	Size   int    `json:"size"`
	Seed   int64  `json:"seed"`
	Grid   int    `json:"grid"`
	Block  int    `json:"block"`

	// PredictedSeconds is the model's execution-time prediction;
	// UpperBoundSeconds the fully-serial bound (see the paper's
	// future-work item 4 — the real time lies between them).
	PredictedSeconds  float64 `json:"predicted_seconds"`
	UpperBoundSeconds float64 `json:"upper_bound_seconds"`
	// Components holds whole-program per-component times.
	Components ComponentTimes `json:"components"`
	// Bottleneck is the slowest component; NextBottleneck what would
	// replace it if it were optimized away.
	Bottleneck     string `json:"bottleneck"`
	NextBottleneck string `json:"next_bottleneck"`
	// Causes lists the paper's §3 likely causes for the bottleneck.
	Causes []string `json:"causes"`
	// Serialized is true when one resident block per SM forces
	// barrier-delimited stages to run back to back.
	Serialized bool `json:"serialized"`
	// Stages is the per-stage breakdown (one entry per
	// barrier-delimited stage).
	Stages []StageResult `json:"stages"`

	Occupancy   OccupancySummary `json:"occupancy"`
	Diagnostics Diagnostics      `json:"diagnostics"`
	Stats       StatsSummary     `json:"stats"`

	// GFLOPS is the predicted achieved rate for kernels with a known
	// useful-flop count (0 otherwise).
	GFLOPS float64 `json:"gflops,omitempty"`
	// MaxAbsError is the worst absolute error of the functional run
	// against the CPU reference; nil when the kernel has no checkable
	// output.
	MaxAbsError *float64 `json:"max_abs_error,omitempty"`
	// VerifyError explains why the functional output was not checked
	// when verification was impossible rather than skipped by choice —
	// user-submitted kernels have no CPU reference, so their results
	// always carry "unverified: user-submitted".
	VerifyError string `json:"verify_error,omitempty"`
	// MeasuredSeconds is the device simulator's time (present only
	// when the request set Measure); PredictionError is
	// |predicted−measured|/measured, the paper's accuracy metric.
	MeasuredSeconds float64 `json:"measured_seconds,omitempty"`
	PredictionError float64 `json:"prediction_error,omitempty"`
	// MeasuredDominant names the component whose servers the device
	// simulator saw busiest (only with Measure).
	MeasuredDominant string `json:"measured_dominant,omitempty"`
}

// ComponentTimes are the three modeled execution times in seconds.
type ComponentTimes struct {
	InstructionSeconds float64 `json:"instruction_seconds"`
	SharedSeconds      float64 `json:"shared_seconds"`
	GlobalSeconds      float64 `json:"global_seconds"`
}

// StageResult is the model's verdict for one barrier-delimited stage.
type StageResult struct {
	Index              int     `json:"index"`
	InstructionSeconds float64 `json:"instruction_seconds"`
	SharedSeconds      float64 `json:"shared_seconds"`
	GlobalSeconds      float64 `json:"global_seconds"`
	Bottleneck         string  `json:"bottleneck"`
	// Warps is the warp-level parallelism assumed for the stage.
	Warps int `json:"warps"`
}

// OccupancySummary reports the resident-block computation.
type OccupancySummary struct {
	Blocks        int    `json:"blocks"`
	WarpsPerBlock int    `json:"warps_per_block"`
	ActiveWarps   int    `json:"active_warps"`
	Limiter       string `json:"limiter"`
}

// Diagnostics are the paper's Fig. 1 outputs guiding optimization,
// plus the simulator's own effectiveness counters.
type Diagnostics struct {
	WarpsPerSM           int     `json:"warps_per_sm"`
	Density              float64 `json:"density"`
	CoalescingEfficiency float64 `json:"coalescing_efficiency"`
	BankConflictFactor   float64 `json:"bank_conflict_factor"`
	TransPerThread       int     `json:"trans_per_thread"`
	// BlocksSimulated/BlocksReplayed split this run's blocks by how
	// the functional engine derived their statistics (see
	// barra.EngineStats); their sum is the launch's grid size.
	// BatchedRuns/BatchedInstrs report its batched warp stepping.
	BlocksSimulated int64 `json:"blocks_simulated"`
	BlocksReplayed  int64 `json:"blocks_replayed"`
	BatchedRuns     int64 `json:"batched_runs"`
	BatchedInstrs   int64 `json:"batched_instrs"`
	// PhaseSeconds breaks the request's wall-clock down by phase
	// (calibration wait, admission wait, build, engine, model, verify,
	// measure), rounded to microseconds. Unlike every other field it
	// is timing, not simulation output: two identical requests carry
	// identical stats but different phase timings, and a cached HIT
	// replays the original computation's breakdown verbatim.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// StatsSummary condenses the functional run's dynamic statistics.
type StatsSummary struct {
	WarpInstrs         int64 `json:"warp_instrs"`
	FMADs              int64 `json:"fmads"`
	SharedAccesses     int64 `json:"shared_accesses"`
	SharedTx           int64 `json:"shared_tx"`
	SharedBytes        int64 `json:"shared_bytes"`
	GlobalTransactions int64 `json:"global_transactions"`
	GlobalBytes        int64 `json:"global_bytes"`
	GlobalUsefulBytes  int64 `json:"global_useful_bytes"`
	Barriers           int   `json:"barriers"`
	// Regions attributes global traffic to the kernel's named arrays
	// (SpMV's matrix/colidx/vector split of Fig. 11a), at the
	// device's native transaction granularity.
	Regions map[string]RegionTraffic `json:"regions,omitempty"`
}

// RegionTraffic is one named array's share of global traffic.
type RegionTraffic struct {
	Transactions int64 `json:"transactions"`
	Bytes        int64 `json:"bytes"`
	UsefulBytes  int64 `json:"useful_bytes"`
}

// newResult folds the model estimate and dynamic statistics into the
// serializable form.
func newResult(req Request, dev Device, w *Workload, est *model.Estimate, stats *barra.Stats) *Result {
	r := &Result{
		Kernel: req.Kernel,
		Device: dev.Name,
		Size:   req.Size,
		Seed:   req.Seed,
		Grid:   w.Launch.Grid,
		Block:  w.Launch.Block,

		PredictedSeconds:  est.TotalSeconds,
		UpperBoundSeconds: est.UpperBoundSeconds,
		Components: ComponentTimes{
			InstructionSeconds: est.Component[model.CompInstruction],
			SharedSeconds:      est.Component[model.CompShared],
			GlobalSeconds:      est.Component[model.CompGlobal],
		},
		Bottleneck:     est.Bottleneck.String(),
		NextBottleneck: est.NextBottleneck.String(),
		Causes:         est.Causes(),
		Serialized:     est.Serialized,

		Occupancy: OccupancySummary{
			Blocks:        est.Occupancy.Blocks,
			WarpsPerBlock: est.Occupancy.WarpsPerBlock,
			ActiveWarps:   est.Occupancy.ActiveWarps,
			Limiter:       est.Occupancy.Limiter,
		},
		Diagnostics: Diagnostics{
			WarpsPerSM:           est.WarpsPerSM,
			Density:              est.Density,
			CoalescingEfficiency: est.CoalescingEfficiency,
			BankConflictFactor:   est.BankConflictFactor,
			TransPerThread:       est.TransPerThread,
			BlocksSimulated:      stats.Engine.BlocksSimulated,
			BlocksReplayed:       stats.Engine.BlocksReplayed,
			BatchedRuns:          stats.Engine.BatchedRuns,
			BatchedInstrs:        stats.Engine.BatchedInstrs,
		},
		Stats: StatsSummary{
			WarpInstrs:         stats.Total.WarpInstrs,
			FMADs:              stats.Total.FMADs,
			SharedAccesses:     stats.Total.SharedAccesses,
			SharedTx:           stats.Total.SharedTx,
			SharedBytes:        stats.Total.SharedBytes,
			GlobalTransactions: stats.Total.Global.Transactions,
			GlobalBytes:        stats.Total.Global.Bytes,
			GlobalUsefulBytes:  stats.Total.GlobalUsefulBytes,
			Barriers:           stats.Barriers,
		},
	}
	for _, st := range est.Stages {
		r.Stages = append(r.Stages, StageResult{
			Index:              st.Index,
			InstructionSeconds: st.Times[model.CompInstruction],
			SharedSeconds:      st.Times[model.CompShared],
			GlobalSeconds:      st.Times[model.CompGlobal],
			Bottleneck:         st.Bottleneck.String(),
			Warps:              st.Warps,
		})
	}
	if len(stats.RegionTraffic) > 0 {
		native := dev.MinSegmentBytes
		r.Stats.Regions = map[string]RegionTraffic{}
		for name, perSeg := range stats.RegionTraffic { //gpuperf:unordered map-to-map copy; the JSON encoder sorts Regions' keys
			t := perSeg[native]
			r.Stats.Regions[name] = RegionTraffic{
				Transactions: t.Transactions,
				Bytes:        t.Bytes,
				UsefulBytes:  stats.RegionUseful[name],
			}
		}
	}
	if w.FLOPs > 0 {
		r.GFLOPS = est.GFLOPS(w.FLOPs)
	}
	return r
}

// Advice is the fully serializable output of one advisor run: the
// factual baseline plus the ranked counterfactual scenarios — the
// paper's §4 "how much would each optimization buy" analysis as a
// wire type. Like Result, every field round-trips through JSON
// unchanged; the HTTP service returns this struct verbatim.
type Advice struct {
	// Kernel, Size and Seed echo the request; Device names the
	// analyzed configuration; Grid and Block its launch geometry.
	Kernel string `json:"kernel"`
	Device string `json:"device"`
	Size   int    `json:"size"`
	Seed   int64  `json:"seed"`
	Grid   int    `json:"grid"`
	Block  int    `json:"block"`

	// BaselineSeconds is the factual model prediction every scenario
	// is measured against; Bottleneck its whole-program verdict.
	BaselineSeconds float64 `json:"baseline_seconds"`
	Bottleneck      string  `json:"bottleneck"`

	// Scenarios holds the full counterfactual portfolio, ranked by
	// speedup (descending, ties broken by scenario key — the ranking
	// is deterministic at any parallelism).
	Scenarios []ScenarioAdvice `json:"scenarios"`
	// Top is the scenario key of the highest-ranked entry with more
	// than 1% predicted headroom ("" when the kernel is already
	// within 1% of every counterfactual).
	Top string `json:"top,omitempty"`
}

// ScenarioAdvice is one counterfactual's verdict on the wire.
type ScenarioAdvice struct {
	// Scenario is the stable key ("perfect-coalescing",
	// "conflict-free-shared", "no-divergence", "ideal-overlap",
	// "raise-occupancy"); a registry variant whose Optimization field
	// names it is the measurable counterpart.
	Scenario string `json:"scenario"`
	// Title is a short human heading.
	Title string `json:"title"`
	// PredictedSeconds is the model's time under the counterfactual;
	// Speedup the baseline divided by it (1.0 = no headroom).
	PredictedSeconds float64 `json:"predicted_seconds"`
	Speedup          float64 `json:"speedup"`
	// Components are the counterfactual's per-component times.
	Components ComponentTimes `json:"components"`
	// Explanation grounds the verdict in the run's statistics, in the
	// style of the paper's §4 walk-throughs.
	Explanation string `json:"explanation"`
	// TargetBlocks is the best resident-block count found by the
	// occupancy mini-sweep (raise-occupancy only, 0 otherwise).
	TargetBlocks int `json:"target_blocks,omitempty"`
}

// adviceTopTolerance is the headroom below which advice is noise.
const adviceTopTolerance = 0.01

// newAdvice folds the advisor's report into the serializable form.
func newAdvice(req Request, dev Device, w *Workload, rep *advise.Report) *Advice {
	a := &Advice{
		Kernel: req.Kernel,
		Device: dev.Name,
		Size:   req.Size,
		Seed:   req.Seed,
		Grid:   w.Launch.Grid,
		Block:  w.Launch.Block,

		BaselineSeconds: rep.Baseline.TotalSeconds,
		Bottleneck:      rep.Baseline.Bottleneck.String(),
	}
	for _, s := range rep.Scenarios {
		a.Scenarios = append(a.Scenarios, ScenarioAdvice{
			Scenario:         s.Scenario,
			Title:            s.Title,
			PredictedSeconds: s.PredictedSeconds,
			Speedup:          s.Speedup,
			Components: ComponentTimes{
				InstructionSeconds: s.Estimate.Component[model.CompInstruction],
				SharedSeconds:      s.Estimate.Component[model.CompShared],
				GlobalSeconds:      s.Estimate.Component[model.CompGlobal],
			},
			Explanation:  s.Explanation,
			TargetBlocks: s.TargetBlocks,
		})
	}
	if top := rep.Top(adviceTopTolerance); top != nil {
		a.Top = top.Scenario
	}
	return a
}

// Report renders the advice as the human-readable ranking the
// gpuperf -advise command prints.
func (a *Advice) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel: %s on %s, %d blocks x %d threads (size %d, seed %d)\n",
		a.Kernel, a.Device, a.Grid, a.Block, a.Size, a.Seed)
	fmt.Fprintf(&b, "baseline prediction: %.6g ms, bottleneck: %s\n",
		a.BaselineSeconds*1e3, a.Bottleneck)
	fmt.Fprintf(&b, "counterfactual scenarios (ranked by predicted speedup):\n")
	for i, s := range a.Scenarios {
		marker := " "
		if s.Scenario == a.Top {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s %d. %s: %.2fx (%.6g ms)\n", marker, i+1, s.Title, s.Speedup, s.PredictedSeconds*1e3)
		fmt.Fprintf(&b, "     %s\n", s.Explanation)
	}
	if a.Top == "" {
		fmt.Fprintf(&b, "no scenario promises more than %.0f%% — the kernel is near its modeled headroom\n",
			adviceTopTolerance*100)
	}
	return b.String()
}

// Report renders the result as the human-readable analysis the
// gpuperf command prints — the paper Fig. 1 workflow outputs.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel: %s on %s, %d blocks x %d threads (size %d, seed %d)\n",
		r.Kernel, r.Device, r.Grid, r.Block, r.Size, r.Seed)
	fmt.Fprintf(&b, "predicted time: %.6g ms (serial upper bound %.6g ms)\n",
		r.PredictedSeconds*1e3, r.UpperBoundSeconds*1e3)
	fmt.Fprintf(&b, "component times: instruction %.6g ms, shared %.6g ms, global %.6g ms\n",
		r.Components.InstructionSeconds*1e3, r.Components.SharedSeconds*1e3, r.Components.GlobalSeconds*1e3)
	fmt.Fprintf(&b, "bottleneck: %s (next: %s)\n", r.Bottleneck, r.NextBottleneck)
	fmt.Fprintf(&b, "occupancy: %d blocks, %d warps/SM (limited by %s)\n",
		r.Occupancy.Blocks, r.Occupancy.ActiveWarps, r.Occupancy.Limiter)
	fmt.Fprintf(&b, "computational density: %.2f\n", r.Diagnostics.Density)
	fmt.Fprintf(&b, "coalescing efficiency: %.2f\n", r.Diagnostics.CoalescingEfficiency)
	fmt.Fprintf(&b, "bank-conflict factor: %.2f\n", r.Diagnostics.BankConflictFactor)
	for _, c := range r.Causes {
		fmt.Fprintf(&b, "cause: %s\n", c)
	}
	if r.GFLOPS > 0 {
		fmt.Fprintf(&b, "predicted rate: %.4g GFLOPS\n", r.GFLOPS)
	}
	if r.MaxAbsError != nil {
		fmt.Fprintf(&b, "verified against CPU reference (max |error| %.2g)\n", *r.MaxAbsError)
	}
	if r.Serialized {
		fmt.Fprintf(&b, "stages (serialized; one block per SM):\n")
	} else {
		fmt.Fprintf(&b, "stages (overlapped across blocks):\n")
	}
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "  stage %d: instr %.6g ms, shared %.6g ms, global %.6g ms — %s (%d warps)\n",
			st.Index, st.InstructionSeconds*1e3, st.SharedSeconds*1e3,
			st.GlobalSeconds*1e3, st.Bottleneck, st.Warps)
	}
	if r.MeasuredSeconds > 0 {
		fmt.Fprintf(&b, "measured (device simulator): %.6g ms, dominant component %s\n",
			r.MeasuredSeconds*1e3, r.MeasuredDominant)
		fmt.Fprintf(&b, "prediction error: %.1f%%\n", r.PredictionError*100)
	}
	return b.String()
}
