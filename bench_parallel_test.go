// BenchmarkRunParallel measures simulator throughput on the paper's
// two regular kernel families: dense matmul (16×16 shared-memory
// tile) and the QCD-like ELL SpMV at production size (>4096 blocks —
// the shape of the paper's Fig. 11 sweeps). Each kernel runs with
// homogeneous-block replay on and off, serially (p1) and with one
// worker per host core (pN). The Stats are bit-identical across all
// combinations; only wall clock changes. Every sub-benchmark reports
// a blocks/s metric, and replayed/op, simulated/op and batched/op: the
// last run's replay and batched-stepping counters (Stats.Engine),
// exact on any host. TestRunParallelEngineStats pins the replay legs'
// counters.
//
//	go test -run - -bench BenchmarkRunParallel -benchtime 2x
package gpuperf

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/kernels"
	"gpuperf/internal/sparse"
)

// benchBlockRows sizes the ELL launch at 3·175104/128 = 4104 blocks.
const benchBlockRows = 175104

// benchMatmulN sizes the matmul16 launch at (512/64)·(512/16) = 256
// blocks.
const benchMatmulN = 512

// benchLeg is one of the benchmark's launches. Both kernels write
// only their output arrays (C, y), so one memory image serves every
// run: re-running rewrites the same values.
type benchLeg struct {
	kernel string
	l      barra.Launch
	mem    *barra.Memory
}

// benchLegs builds the benchmark's matmul16 and ELL SpMV launches.
func benchLegs(tb testing.TB) []benchLeg {
	tb.Helper()
	m, err := sparse.GenQCDLike(benchBlockRows, 9, rand.New(rand.NewSource(42)))
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := kernels.NewSpMV(kernels.ELL, m)
	if err != nil {
		tb.Fatal(err)
	}
	x := make([]float32, m.Rows())
	rng := rand.New(rand.NewSource(43))
	for i := range x {
		x[i] = rng.Float32()
	}
	spMem, err := sp.NewMemory(x)
	if err != nil {
		tb.Fatal(err)
	}
	spLaunch := sp.Launch()
	if spLaunch.Grid < 4096 {
		tb.Fatalf("benchmark grid %d below the 4096-block target", spLaunch.Grid)
	}
	mm, err := DefaultRegistry().Build(gpu.GTX285(), "matmul16", Params{Size: benchMatmulN, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return []benchLeg{{"matmul16", mm.Launch, mm.Mem}, {"spmv-ell", spLaunch, spMem}}
}

// TestRunParallelEngineStats pins the exact engine counters the
// benchmark's replay legs report, at P ∈ {1, 2}: one block simulated
// and every other block replayed, and the batched runs and the
// instructions they covered. A change that stops replay from
// engaging, or changes how much of a launch runs batched, fails here.
func TestRunParallelEngineStats(t *testing.T) {
	want := map[string]barra.EngineStats{
		"matmul16": {BlocksSimulated: 1, BlocksReplayed: 255, BatchedRuns: 262656, BatchedInstrs: 4280320},
		"spmv-ell": {BlocksSimulated: 1, BlocksReplayed: 4103, BatchedRuns: 902880, BatchedInstrs: 2347488},
	}
	for _, leg := range benchLegs(t) {
		for _, p := range []int{1, 2} {
			st, err := barra.Run(gpu.GTX285(), leg.l, leg.mem, &barra.Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if st.Engine != want[leg.kernel] {
				t.Errorf("%s P=%d: Engine = %+v, want %+v", leg.kernel, p, st.Engine, want[leg.kernel])
			}
		}
	}
}

func BenchmarkRunParallel(b *testing.B) {
	cfg := gpu.GTX285()
	for _, leg := range benchLegs(b) {
		for _, mode := range []string{"replay", "noreplay"} {
			for _, p := range []int{1, runtime.NumCPU()} {
				b.Run(fmt.Sprintf("%s/%s/p%d", leg.kernel, mode, p), func(b *testing.B) {
					opt := &barra.Options{
						Parallelism:        p,
						DisableBlockReplay: mode == "noreplay",
					}
					var st *barra.Stats
					for i := 0; i < b.N; i++ {
						var err error
						if st, err = barra.Run(cfg, leg.l, leg.mem, opt); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(leg.l.Grid)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
					b.ReportMetric(float64(st.Engine.BlocksReplayed), "replayed/op")
					b.ReportMetric(float64(st.Engine.BlocksSimulated), "simulated/op")
					b.ReportMetric(float64(st.Engine.BatchedRuns), "batched/op")
				})
			}
		}
	}
}
