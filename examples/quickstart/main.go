// Quickstart: the public gpuperf API in one page. Build a Fleet,
// analyze a built-in kernel, read the bottleneck verdict off the
// serializable Result — the same calls a service makes per request.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"gpuperf"
)

func main() {
	// The catalog's 6-SM slice of the GTX 285 keeps calibration and
	// the run fast; per-SM behaviour is identical to the full chip.
	f := gpuperf.NewFleet(gpuperf.FleetOptions{DefaultDevice: "gtx285-6sm"})

	fmt.Printf("device: %s — kernels: %v\n", f.DefaultDevice(), f.Registry().Names())
	fmt.Println("calibrating (the first analysis pays it; the fleet reuses it)...")

	res, err := f.Analyze(context.Background(), gpuperf.Request{
		Kernel: "matmul16",
		Size:   128,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(res.Report())

	// The Result is plain data: everything above round-trips
	// through JSON, which is exactly what gpuperfd serves.
	blob, err := json.MarshalIndent(map[string]any{
		"bottleneck":     res.Bottleneck,
		"predicted_ms":   res.PredictedSeconds * 1e3,
		"density":        res.Diagnostics.Density,
		"active_warps":   res.Occupancy.ActiveWarps,
		"verified_error": res.MaxAbsError,
	}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nas JSON:\n%s\n", blob)
}
