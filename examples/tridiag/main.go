// Case study 2 (paper §5.2): the cyclic-reduction tridiagonal
// solver. Shows the per-step bottleneck migration of Fig. 6, the
// bank-conflict factor the diagnostics expose (Fig. 7b), and the
// ~1.6x win of the padding remedy (Fig. 8) — with both solvers
// verified against the sequential Thomas algorithm by the
// registry's built-in check.
//
//	go run ./examples/tridiag [-systems 64]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gpuperf"
)

func main() {
	nsys := flag.Int("systems", 64, "number of independent systems")
	flag.Parse()

	f := gpuperf.NewFleet(gpuperf.FleetOptions{})
	fmt.Println("calibrating...")

	var measured [2]float64
	for i, kernel := range []string{"cr", "cr-nbc"} {
		res, err := f.Analyze(context.Background(), gpuperf.Request{
			Kernel:  kernel,
			Size:    *nsys,
			Seed:    4,
			Measure: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		measured[i] = res.MeasuredSeconds

		fmt.Printf("\n=== %s: %d systems x 512 equations ===\n", kernel, *nsys)
		fmt.Printf("worst residual: %.2g (Thomas-algorithm quality)\n", *res.MaxAbsError)
		fmt.Printf("bank-conflict factor: %.2f\n", res.Diagnostics.BankConflictFactor)
		fmt.Printf("bottleneck: %s; predicted %.4g ms, measured %.4g ms\n",
			res.Bottleneck, res.PredictedSeconds*1e3, res.MeasuredSeconds*1e3)
		fmt.Println("forward-reduction steps (model):")
		for _, st := range res.Stages {
			if st.Index > 6 {
				break
			}
			fmt.Printf("  step %d: shared %.4g ms, instr %.4g ms -> %s (%d warps)\n",
				st.Index, st.SharedSeconds*1e3, st.InstructionSeconds*1e3,
				st.Bottleneck, st.Warps)
		}
	}
	fmt.Printf("\npadding speedup: %.2fx (paper: 1.6x)\n", measured[0]/measured[1])
}
