package device

import (
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/isa"
)

// TestRunAllocsIndependentOfEvents pins the allocation contract of
// the per-event path: the same launch at chain lengths 64 and 1024
// (16x the events) must cost the same allocations per run, so every
// allocation is per run or per block, never per event.
func TestRunAllocsIndependentOfEvents(t *testing.T) {
	cfg := smallGPU()
	mem := barra.NewMemory(64) // the chain kernel never touches memory
	allocs := func(n int) float64 {
		l := barra.Launch{Prog: chainKernel(isa.OpFMAD, n), Grid: 12, Block: 8 * 32}
		return testing.AllocsPerRun(1, func() {
			if _, err := Run(cfg, l, mem); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(64), allocs(1024)
	t.Logf("allocs/run: chain 64 = %.0f, chain 1024 = %.0f", short, long)
	if d := long - short; d > 2 || d < -2 {
		t.Errorf("allocs/run grow with events: chain 64 = %.0f, chain 1024 = %.0f", short, long)
	}
}
