// Package advise quantifies and ranks the optimization headroom of
// one kernel run — the payoff of the paper's §4 analysis. Where the
// model (internal/model) names the bottleneck and its likely causes,
// the advisor answers the next question: how much would each remedy
// actually buy? It re-evaluates the calibrated model under a
// portfolio of counterfactual scenarios — perfect coalescing,
// conflict-free shared memory, no branch divergence, ideal stage
// overlap, and an occupancy mini-sweep — and reports, per scenario,
// the predicted time, the speedup over the factual baseline, and a
// §4-style explanation grounded in the run's own statistics.
//
// Every cataloged scenario is a pure transform over the statistics
// of a single functional run: the model rerun under a stat or
// occupancy override (model.AnalyzeWith), or, for ideal overlap, the
// baseline recombined (model.Estimate.Overlapped). One simulation
// answers the whole portfolio. Changes the transforms cannot express
// — a different block size or tile, an algorithmic rewrite — require
// resimulating a rebuilt workload; the registry's kernel-variant
// families serve those, as examples/advisor shows. Scenario
// evaluations fan out across goroutines; results are deterministic
// for any fan-out width because each scenario's arithmetic depends
// only on the shared stats and calibration.
package advise

import (
	"fmt"
	"sort"
	"sync"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/model"
	"gpuperf/internal/timing"
)

// Scenario keys: stable identifiers for the counterfactuals, used on
// the wire and matched by the registry's variant metadata (a kernel
// variant that implements a scenario names it, so clients can pair
// predicted headroom with a measurable sibling kernel).
const (
	PerfectCoalescing  = "perfect-coalescing"
	ConflictFreeShared = "conflict-free-shared"
	NoDivergence       = "no-divergence"
	IdealOverlap       = "ideal-overlap"
	RaiseOccupancy     = "raise-occupancy"
)

// ScenarioResult is one counterfactual's verdict.
type ScenarioResult struct {
	// Scenario is the stable key; Title a short human heading.
	Scenario string
	Title    string
	// PredictedSeconds is the model's time under the counterfactual;
	// Speedup the baseline time divided by it (1.0 = no headroom).
	PredictedSeconds float64
	Speedup          float64
	// Explanation grounds the verdict in the run's statistics, in the
	// style of the paper's §4 walk-throughs.
	Explanation string
	// TargetBlocks is the best resident-block count found by the
	// occupancy mini-sweep (RaiseOccupancy only, 0 otherwise).
	TargetBlocks int
	// Estimate is the full counterfactual estimate, for callers that
	// want the per-component breakdown.
	Estimate *model.Estimate
}

// Report is the advisor's ranked output for one run.
type Report struct {
	// Baseline is the factual estimate the scenarios are measured
	// against.
	Baseline *model.Estimate
	// Scenarios holds every cataloged counterfactual, ranked by
	// speedup (descending; ties break on the scenario key so the
	// ranking is deterministic).
	Scenarios []ScenarioResult
}

// Top returns the highest-ranked scenario with real headroom, or nil
// when the kernel is already within tol of every counterfactual.
func (r *Report) Top(tol float64) *ScenarioResult {
	if len(r.Scenarios) == 0 {
		return nil
	}
	if r.Scenarios[0].Speedup < 1+tol {
		return nil
	}
	return &r.Scenarios[0]
}

// Options tunes a Run.
type Options struct {
	// Parallelism caps the scenario fan-out width (0 = one goroutine
	// per scenario). The ranking is identical at any setting.
	Parallelism int
}

// Run evaluates the full scenario portfolio against one run's
// statistics and returns the ranked report. The launch and stats
// must come from the same functional run the caller predicted with.
func Run(cal *timing.Calibration, l barra.Launch, stats *barra.Stats, opt *Options) (*Report, error) {
	if opt == nil {
		opt = &Options{}
	}
	base, err := model.Analyze(cal, l, stats)
	if err != nil {
		return nil, err
	}

	evals := []func() (ScenarioResult, error){
		func() (ScenarioResult, error) { return evalOccupancySweep(cal, l, stats, base) },
	}
	for _, sc := range scenarios {
		evals = append(evals, func() (ScenarioResult, error) { return evalScenario(cal, l, stats, base, sc) })
	}

	results := make([]ScenarioResult, len(evals))
	errs := make([]error, len(evals))
	width := opt.Parallelism
	if width <= 0 || width > len(evals) {
		width = len(evals)
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i, eval := range evals {
		wg.Add(1)
		go func(i int, eval func() (ScenarioResult, error)) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = eval()
		}(i, eval)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Speedup != results[j].Speedup {
			return results[i].Speedup > results[j].Speedup
		}
		return results[i].Scenario < results[j].Scenario
	})
	return &Report{Baseline: base, Scenarios: results}, nil
}

// speedup guards against a degenerate counterfactual time.
func speedup(base, what float64) float64 {
	if what <= 0 {
		return 1
	}
	return base / what
}

// scenario is one row of the stat-transform portfolio: the overrides
// the model reruns under, and the explanation of the verdict. The row
// with no overrides, ideal overlap, changes no statistic but the
// combination rule: its estimate is the baseline recombined with
// every stage overlapped.
type scenario struct {
	key, title string
	ov         model.Overrides
	// explain grounds the verdict in the run's statistics, given the
	// baseline, the counterfactual estimate and its speedup.
	explain func(stats *barra.Stats, base, est *model.Estimate, speedup float64) string
}

var scenarios = []scenario{
	{PerfectCoalescing, "perfect global-memory coalescing", model.Overrides{PerfectCoalescing: true},
		func(stats *barra.Stats, base, est *model.Estimate, speedup float64) string {
			eff, tpr := stats.CoalescingEfficiency(), stats.TxPerRequest()
			switch {
			case eff >= 0.999:
				return "global accesses already coalesce perfectly: every fetched byte is useful"
			case speedup < 1.005:
				return fmt.Sprintf(
					"only %.0f%% of fetched global bytes are useful (%.2f transactions per half-warp request), but global memory is not the limiter — coalescing alone moves the predicted time by under 1%%",
					eff*100, tpr)
			}
			return fmt.Sprintf(
				"only %.0f%% of fetched global bytes are useful (%.2f transactions per half-warp request); restructuring the access pattern so each half-warp fills whole segments cuts global-memory time %.2fx",
				eff*100, tpr, safeRatio(base.Component[model.CompGlobal], est.Component[model.CompGlobal]))
		}},
	{ConflictFreeShared, "conflict-free shared memory", model.Overrides{ConflictFreeShared: true},
		func(stats *barra.Stats, base, est *model.Estimate, speedup float64) string {
			factor := stats.BankConflictFactor()
			switch {
			case factor <= 1.001:
				return "shared-memory accesses are already conflict-free"
			case speedup < 1.005:
				return fmt.Sprintf(
					"bank conflicts inflate shared transactions %.2fx (worst observed degree %d-way), but shared memory is not the limiter — padding alone moves the predicted time by under 1%%",
					factor, worstConflictDegree(stats))
			}
			return fmt.Sprintf(
				"bank conflicts inflate shared transactions %.2fx (worst observed degree %d-way); padding the shared layout to spread the stride across banks cuts shared-memory time %.2fx",
				factor, worstConflictDegree(stats),
				safeRatio(base.Component[model.CompShared], est.Component[model.CompShared]))
		}},
	{NoDivergence, "no branch divergence", model.Overrides{NoDivergence: true},
		func(stats *barra.Stats, base, est *model.Estimate, speedup float64) string {
			over := stats.DivergenceOverhead()
			switch {
			case over <= 0.001:
				return "warps issue no instructions on divergent paths"
			case speedup < 1.005:
				return fmt.Sprintf(
					"%.0f%% of warp instructions issue on divergent paths, but the instruction pipeline is not the limiter — restructuring the branches moves the predicted time by under 1%%",
					over*100)
			}
			return fmt.Sprintf(
				"%.0f%% of warp instructions issue on divergent paths with partially idle lanes; restructuring so whole warps take one side cuts instruction time %.2fx",
				over*100, safeRatio(base.Component[model.CompInstruction], est.Component[model.CompInstruction]))
		}},
	{IdealOverlap, "ideal cross-stage overlap", model.Overrides{},
		func(stats *barra.Stats, base, est *model.Estimate, speedup float64) string {
			switch {
			case !base.Serialized:
				return "multiple resident blocks already overlap the barrier-delimited stages"
			case speedup < 1.005:
				return fmt.Sprintf(
					"one resident block per SM serializes the %d barrier-delimited stages, but their bottlenecks coincide — overlap alone moves the predicted time by under 1%%",
					len(base.Stages))
			}
			return fmt.Sprintf(
				"one resident block per SM serializes %d barrier-delimited stages with differing bottlenecks; fitting a second block (or fusing stages) lets them overlap, hiding %.2fx of the staged time",
				len(base.Stages), speedup)
		}},
}

// evalScenario evaluates one row of the portfolio against the
// baseline.
func evalScenario(cal *timing.Calibration, l barra.Launch, stats *barra.Stats, base *model.Estimate, sc scenario) (ScenarioResult, error) {
	var est *model.Estimate
	if sc.ov == (model.Overrides{}) {
		est = base.Overlapped()
	} else {
		var err error
		if est, err = model.AnalyzeWith(cal, l, stats, sc.ov); err != nil {
			return ScenarioResult{}, err
		}
	}
	r := ScenarioResult{
		Scenario:         sc.key,
		Title:            sc.title,
		PredictedSeconds: est.TotalSeconds,
		Speedup:          speedup(base.TotalSeconds, est.TotalSeconds),
		Estimate:         est,
	}
	r.Explanation = sc.explain(stats, base, est, r.Speedup)
	return r, nil
}

// evalOccupancySweep is the occupancy mini-sweep: re-predict at
// every resident-block count a source-level tune could reach and
// report the best. The candidates run serially inside this
// scenario's one fan-out slot — the per-candidate transform is
// sub-millisecond and the candidate count is bounded by the
// architectural block limit, so a nested fan-out would only breach
// the caller's Parallelism cap for no wall-clock gain. Tunable
// demand is per-thread registers (a compiler artifact); the kernel's
// shared-memory footprint is treated as fixed — it is part of the
// algorithm (paper Table 2), and shrinking it means a different
// kernel, which is the registry variant families' job, not a stat
// transform's.
func evalOccupancySweep(cal *timing.Calibration, l barra.Launch, stats *barra.Stats, base *model.Estimate) (ScenarioResult, error) {
	occ := base.Occupancy
	ceiling := model.BlockCeiling(cal.Config(), l)
	if occ.BlocksBySmem > 0 && occ.BlocksBySmem < ceiling {
		ceiling = occ.BlocksBySmem
	}
	r := ScenarioResult{
		Scenario:         RaiseOccupancy,
		Title:            "raise occupancy (resident-block sweep)",
		PredictedSeconds: base.TotalSeconds,
		Speedup:          1,
		TargetBlocks:     occ.Blocks,
		Estimate:         base,
	}
	if occ.Blocks >= ceiling {
		r.Explanation = fmt.Sprintf(
			"occupancy is already at its reachable ceiling (%d blocks, %d warps/SM, limited by %s; the shared-memory footprint is the algorithm's own, so only a restructured kernel variant could go higher)",
			occ.Blocks, occ.ActiveWarps, occ.Limiter)
		return r, nil
	}

	best, bestBlocks := base, occ.Blocks
	for b := occ.Blocks + 1; b <= ceiling; b++ {
		est, err := model.AnalyzeWith(cal, l, stats, model.Overrides{ResidentBlocks: b})
		if err != nil {
			return ScenarioResult{}, err
		}
		if est.TotalSeconds < best.TotalSeconds {
			best, bestBlocks = est, b
		}
	}
	r.PredictedSeconds = best.TotalSeconds
	r.Speedup = speedup(base.TotalSeconds, best.TotalSeconds)
	r.TargetBlocks = bestBlocks
	r.Estimate = best
	if r.Speedup < 1.005 {
		r.Explanation = fmt.Sprintf(
			"occupancy is limited by %s to %d blocks (%d warps/SM), but the bottleneck component is already near its calibrated peak — more resident blocks move the predicted time by under 1%%",
			occ.Limiter, occ.Blocks, occ.ActiveWarps)
	} else {
		r.Explanation = fmt.Sprintf(
			"occupancy is limited by %s to %d blocks (%d warps/SM); trimming per-thread register demand until %d blocks fit raises warp-level parallelism to %d and the throughput curves with it",
			occ.Limiter, occ.Blocks, occ.ActiveWarps, bestBlocks, best.Occupancy.ActiveWarps)
	}
	return r, nil
}

// worstConflictDegree returns the largest observed bank-conflict
// degree (1 when no shared accesses were recorded).
func worstConflictDegree(stats *barra.Stats) int {
	worst := 1
	for d := 1; d <= gpu.HalfWarp; d++ {
		if stats.Total.ConflictDeg[d] > 0 {
			worst = d
		}
	}
	return worst
}

// safeRatio returns a/b guarding against a zero counterfactual.
func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 1
	}
	return a / b
}
