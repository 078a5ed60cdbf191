package advise

import (
	"reflect"
	"sync"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
	"gpuperf/internal/microbench"
	"gpuperf/internal/timing"
)

var (
	calMu   sync.Mutex
	calMemo *timing.Calibration
)

func cal(t *testing.T) *timing.Calibration {
	t.Helper()
	calMu.Lock()
	defer calMu.Unlock()
	if calMemo == nil {
		c, err := timing.Calibrate(gpu.GTX285())
		if err != nil {
			t.Fatal(err)
		}
		calMemo = c
	}
	return calMemo
}

func runReport(t *testing.T, l barra.Launch, memBytes int, opt *Options) *Report {
	t.Helper()
	c := cal(t)
	stats, err := barra.Run(c.Config(), l, barra.NewMemory(memBytes), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, l, stats, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// conflictedLaunch is a shared-memory-bound kernel with 8-way bank
// conflicts: its top advice must be the conflict-free counterfactual.
func conflictedLaunch(t *testing.T) (barra.Launch, int) {
	t.Helper()
	p, err := microbench.SharedCopy(24, 8)
	if err != nil {
		t.Fatal(err)
	}
	return barra.Launch{Prog: p, Grid: 60, Block: 256}, 4096
}

// stridedLaunch loads global words at a two-word stride — a
// global-bound kernel whose top advice must be coalescing.
func stridedLaunch(t *testing.T) (barra.Launch, int) {
	t.Helper()
	b := kbuild.New("strided-global")
	tid, ntid, cta, flat, addr, v := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)
	b.ShlImm(addr, flat, 3)
	for i := uint32(0); i < 16; i++ {
		b.GldOff(v, addr, i*4096)
	}
	b.Exit()
	return barra.Launch{Prog: b.MustProgram(), Grid: 60, Block: 128}, 1 << 20
}

// TestReportShape: every cataloged scenario appears exactly once,
// ranked by speedup, each with a predicted time and explanation.
func TestReportShape(t *testing.T) {
	l, mem := conflictedLaunch(t)
	rep := runReport(t, l, mem, nil)
	if rep.Baseline == nil || rep.Baseline.TotalSeconds <= 0 {
		t.Fatal("missing baseline estimate")
	}
	want := map[string]bool{
		PerfectCoalescing: false, ConflictFreeShared: false,
		NoDivergence: false, IdealOverlap: false, RaiseOccupancy: false,
	}
	if len(rep.Scenarios) != len(want) {
		t.Fatalf("got %d scenarios, want %d", len(rep.Scenarios), len(want))
	}
	for i, s := range rep.Scenarios {
		seen, ok := want[s.Scenario]
		if !ok || seen {
			t.Errorf("unexpected or duplicated scenario %q", s.Scenario)
		}
		want[s.Scenario] = true
		if s.PredictedSeconds <= 0 || s.Speedup < 0.99 || s.Explanation == "" || s.Title == "" {
			t.Errorf("scenario %q incomplete: %+v", s.Scenario, s)
		}
		if s.Estimate == nil {
			t.Errorf("scenario %q missing its estimate", s.Scenario)
		}
		if i > 0 && rep.Scenarios[i-1].Speedup < s.Speedup {
			t.Errorf("ranking violated at %d: %.3f before %.3f", i, rep.Scenarios[i-1].Speedup, s.Speedup)
		}
	}
}

// TestConflictedKernelTopAdvice: for an 8-way-conflicted
// shared-memory-bound kernel the advisor's top recommendation is the
// padding remedy, with a speedup near the conflict factor's effect.
func TestConflictedKernelTopAdvice(t *testing.T) {
	l, mem := conflictedLaunch(t)
	rep := runReport(t, l, mem, nil)
	top := rep.Top(0.01)
	if top == nil {
		t.Fatal("no advice for a heavily conflicted kernel")
	}
	if top.Scenario != ConflictFreeShared {
		t.Fatalf("top advice %q, want %q\nbaseline bottleneck: %s",
			top.Scenario, ConflictFreeShared, rep.Baseline.Bottleneck)
	}
	if top.Speedup < 2 {
		t.Errorf("8-way conflicts should promise ≥2x, got %.2fx", top.Speedup)
	}
}

// TestStridedKernelTopAdvice: a half-useful global access pattern
// puts coalescing on top.
func TestStridedKernelTopAdvice(t *testing.T) {
	l, mem := stridedLaunch(t)
	rep := runReport(t, l, mem, nil)
	top := rep.Top(0.01)
	if top == nil {
		t.Fatal("no advice for an uncoalesced kernel")
	}
	if top.Scenario != PerfectCoalescing {
		t.Fatalf("top advice %q, want %q\nbaseline bottleneck: %s",
			top.Scenario, PerfectCoalescing, rep.Baseline.Bottleneck)
	}
}

// TestDeterministicAcrossFanout: the ranked report is identical at
// any scenario fan-out width.
func TestDeterministicAcrossFanout(t *testing.T) {
	l, mem := conflictedLaunch(t)
	serial := runReport(t, l, mem, &Options{Parallelism: 1})
	wide := runReport(t, l, mem, &Options{Parallelism: 8})
	if !reflect.DeepEqual(serial.Scenarios, wide.Scenarios) {
		t.Errorf("scenario ranking differs across fan-out widths:\nP=1: %+v\nP=8: %+v",
			serial.Scenarios, wide.Scenarios)
	}
}

// TestTopTolerance: a kernel with no headroom over tol yields no top
// advice.
func TestTopTolerance(t *testing.T) {
	rep := &Report{Scenarios: []ScenarioResult{{Scenario: IdealOverlap, Speedup: 1.003}}}
	if rep.Top(0.01) != nil {
		t.Error("sub-tolerance speedup should yield no advice")
	}
	if rep.Top(0.001) == nil {
		t.Error("above-tolerance speedup should yield advice")
	}
	if (&Report{}).Top(0.01) != nil {
		t.Error("empty report should yield no advice")
	}
}

// TestScenarioEstimateConsistency: each scenario's headline numbers
// match its attached estimate, and the occupancy sweep's target obeys
// the architectural ceilings.
func TestScenarioEstimateConsistency(t *testing.T) {
	l, mem := conflictedLaunch(t)
	rep := runReport(t, l, mem, nil)
	cfg := cal(t).Config()
	for _, s := range rep.Scenarios {
		if s.PredictedSeconds != s.Estimate.TotalSeconds {
			t.Errorf("%s: headline %.6g != estimate %.6g", s.Scenario, s.PredictedSeconds, s.Estimate.TotalSeconds)
		}
		if s.Scenario == RaiseOccupancy {
			if s.TargetBlocks <= 0 || s.TargetBlocks > cfg.MaxBlocksPerSM {
				t.Errorf("occupancy target %d outside [1, %d]", s.TargetBlocks, cfg.MaxBlocksPerSM)
			}
			if s.Estimate.Occupancy.ActiveWarps > cfg.MaxWarpsPerSM {
				t.Errorf("occupancy sweep exceeded the warp ceiling")
			}
		} else if s.TargetBlocks != 0 {
			t.Errorf("%s: unexpected TargetBlocks %d", s.Scenario, s.TargetBlocks)
		}
	}
}
