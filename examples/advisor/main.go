// The paper's optimization walk (§4-§5), quantified in advance: for
// each case-study baseline the counterfactual advisor predicts how
// much every optimization would buy, and the registry's variant
// chain then measures what the corresponding rewrite actually
// bought — predicted headroom next to realized speedup.
//
//   - matmul: the naive one-thread-per-element kernel is global-
//     memory bound on uncoalesced column-order accesses; the advisor
//     puts coalescing on top, and the tiled Volkov kernel (which
//     coalesces and adds shared-memory reuse) realizes it (§5.1).
//   - cr: unpadded cyclic reduction is shared-memory bound on 16-way
//     bank conflicts; the advisor puts the padding remedy on top,
//     and cr-nbc realizes it (§5.2, Fig. 8 — the paper measures
//     ~1.6x).
//
// Usage:
//
//	go run ./examples/advisor [-n 128] [-systems 32]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gpuperf"
)

func main() {
	n := flag.Int("n", 128, "matmul matrix dimension (power of two, multiple of 64)")
	systems := flag.Int("systems", 32, "cyclic-reduction systems")
	flag.Parse()

	// A 6-SM slice keeps the walk fast while preserving per-SM
	// occupancy, conflict and coalescing behaviour.
	f := gpuperf.NewFleet(gpuperf.FleetOptions{DefaultDevice: "gtx285-6sm"})
	fmt.Println("calibrating...")

	walk(f, "matmul-naive", "matmul16", *n, 7,
		"the tiled kernel also stages B in shared memory, reusing each fetched byte across the tile — headroom beyond what coalescing alone predicts")
	walk(f, "cr", "cr-nbc", *systems, 5,
		"padding is a pure layout change, so the realized speedup tracks the counterfactual (paper Fig. 8 measures ~1.6x)")
}

// walk advises on the baseline kernel, measures baseline and variant,
// and lines the top counterfactual up against the realized speedup.
func walk(f *gpuperf.Fleet, baseline, variant string, size int, seed int64, note string) {
	ctx := context.Background()

	adv, err := f.Advise(ctx, gpuperf.Request{Kernel: baseline, Size: size, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== %s (size %d): what would each optimization buy? ===\n", baseline, size)
	fmt.Printf("baseline prediction %.4g ms, bottleneck: %s\n", adv.BaselineSeconds*1e3, adv.Bottleneck)
	for i, s := range adv.Scenarios {
		marker := "  "
		if s.Scenario == adv.Top {
			marker = "->"
		}
		fmt.Printf("%s %d. %-38s %5.2fx predicted\n", marker, i+1, s.Title, s.Speedup)
	}

	// The registry variant that realizes the advisor's scenario: same
	// family, same (size, seed) inputs, measured on the device
	// simulator.
	spec, ok := f.Registry().Lookup(variant)
	if !ok {
		log.Fatalf("variant %s missing from the registry", variant)
	}
	var predicted float64
	for _, s := range adv.Scenarios {
		if s.Scenario == spec.Optimization {
			predicted = s.Speedup
		}
	}
	base, err := f.Analyze(ctx, gpuperf.Request{
		Kernel: baseline, Size: size, Seed: seed, Measure: true, SkipVerify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := f.Analyze(ctx, gpuperf.Request{
		Kernel: variant, Size: size, Seed: seed, Measure: true, SkipVerify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	measured := base.MeasuredSeconds / opt.MeasuredSeconds

	fmt.Printf("top advice: %s\n", adv.Top)
	fmt.Printf("%s realizes %q: counterfactual predicted %.2fx; measured %s -> %s: %.2fx\n",
		variant, spec.Optimization, predicted, baseline, variant, measured)
	fmt.Printf("(%s)\n", note)
}
