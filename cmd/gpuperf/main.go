// Command gpuperf runs the paper's full analysis workflow (Fig. 1)
// on one of the built-in case-study kernels and prints the model's
// report: per-component times, bottleneck, causes, per-stage
// breakdown, and the measured (device-simulator) time next to the
// prediction. With -advise it instead prints the counterfactual
// advisor's ranked what-if report (§4); with -compare it runs the
// kernel across a set of catalog devices and prints the ranked
// cross-device comparison (the architect question). It is a thin
// shell over the public gpuperf API — the same analysis a service
// embeds via gpuperf.NewFleet.
//
// Usage:
//
//	gpuperf -kernel matmul16 | matmul8 | matmul32 | matmul-naive |
//	        cr | cr-nbc | cr-fwd | spmv-ell | spmv-bell-im |
//	        spmv-bell-imiv
//	        [-device gtx285-6sm] [-compare gtx285-6sm,gtx285]
//	        [-advise] [-disasm] [-n size] [-seed n] [-p workers]
//	        [-cal-dir dir] [-cache-dir dir] [-json]
//	        [-cpuprofile file] [-memprofile file]
//	gpuperf -submit kernel.s -grid 4 -block 64
//	        -buffers in:f32:256:random,out:f32:4:zeros
//	        [-advise] [-device ...] [flags as above]
//
// -device names a catalog entry (see `gpuperfd`'s GET /v1/devices or
// gpuperf.DefaultCatalog); -compare takes a comma-separated device
// list whose first entry is the speedup baseline. -cache-dir points
// at an on-disk result cache: a repeat of an identical invocation is
// served from its content-addressed slot without calibrating or
// simulating anything (results are deterministic per request tuple,
// so the cached bytes are exactly what a fresh run would print).
//
// -submit runs the bring-your-own-kernel path: the assembly file is
// admitted through the ingest pipeline (static ceilings + the bounds
// verifier) exactly as a POST /v1/kernels would be, then analyzed
// under the measure-only policy (the CPU-reference check never runs
// for user programs; Result.VerifyError says so). -buffers declares
// the global-memory envelope as comma-separated
// name:elem:count:fill specs — elem f32|u32, fill zeros|random, or
// affine:start:step for a linear ramp.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpuperf"
)

func main() {
	kernel := flag.String("kernel", "matmul16", "kernel to analyze")
	device := flag.String("device", gpuperf.DefaultCatalogDevice, "catalog device to analyze for")
	compare := flag.String("compare", "", "comma-separated catalog devices: run the kernel across all of them and rank (first = baseline)")
	advse := flag.Bool("advise", false, "print the ranked counterfactual what-if report instead of the analysis")
	disasm := flag.Bool("disasm", false, "print the kernel disassembly and exit")
	n := flag.Int("n", 0, "problem size override (matrix dim / systems / block rows)")
	seed := flag.Int64("seed", 0, "input-generation seed (0 = default)")
	calDir := flag.String("cal-dir", "", "calibration cache directory (one file per device fingerprint)")
	cacheDir := flag.String("cache-dir", "", "result cache directory (one content-addressed slot per request fingerprint; repeats skip simulation entirely)")
	parallel := flag.Int("p", 0, "functional-simulation worker goroutines (0 = all cores, 1 = serial)")
	skipVerify := flag.Bool("skip-verify", false, "skip the (single-threaded) CPU-reference check of the functional output")
	submit := flag.String("submit", "", "submit this assembly file as a user kernel and analyze it (overrides -kernel; see -grid/-block/-buffers)")
	grid := flag.Int("grid", 1, "submission launch grid (CTAs; with -submit)")
	block := flag.Int("block", 64, "submission launch block (threads per CTA; with -submit)")
	buffers := flag.String("buffers", "", "submission buffers: comma-separated name:elem:count:fill specs (elem f32|u32; fill zeros|random|affine:start:step)")
	asJSON := flag.Bool("json", false, "print the result as JSON instead of the text report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	stopProf, err := gpuperf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpuperf: %v\n", err)
		os.Exit(1)
	}
	var sub *submitOpts
	if *submit != "" {
		sub = &submitOpts{file: *submit, grid: *grid, block: *block, buffers: *buffers}
	}
	runErr := run(gpuperf.Request{
		Kernel:     *kernel,
		Device:     *device,
		Size:       *n,
		Seed:       *seed,
		Measure:    true,
		SkipVerify: *skipVerify,
	}, sub, *compare, *advse, *disasm, *calDir, *cacheDir, *parallel, *asJSON)
	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "gpuperf: %v\n", runErr)
		os.Exit(1)
	}
}

// submitOpts carries the -submit mode's flags: the assembly file and
// the launch/buffer declaration the ingest pipeline admits it under.
type submitOpts struct {
	file    string
	grid    int
	block   int
	buffers string
}

func run(req gpuperf.Request, sub *submitOpts, compare string, advse, disasm bool, calDir, cacheDir string, parallel int, asJSON bool) error {
	f := gpuperf.NewFleet(gpuperf.FleetOptions{
		DefaultDevice:  req.Device,
		Parallelism:    parallel,
		CalibrationDir: calDir,
		CacheDir:       cacheDir,
	})
	ctx := context.Background()
	if sub != nil {
		rec, err := submitKernel(f, sub)
		if err != nil {
			return err
		}
		if !asJSON {
			fmt.Printf("submitted %s (kernel %q, %d×%d launch, %d instructions, %d regs, %d B smem, %d B footprint)\n",
				rec.ID, rec.Kernel, rec.Grid, rec.Block, rec.Instructions, rec.Registers, rec.SharedMemBytes, rec.FootprintBytes)
		}
		// The receipt's id is the kernel name; submissions are
		// one concrete problem instance, so the size is pinned.
		req.Kernel = rec.ID
		req.Size = 0
	}
	// cacheNote narrates the result cache's verdict for text output —
	// a HIT means nothing was calibrated or simulated for this run.
	cacheNote := func(st gpuperf.CacheStatus) {
		if cacheDir != "" && !asJSON {
			fmt.Printf("result cache %s (%s)\n", st, cacheDir)
		}
	}

	if compare != "" {
		devices := strings.Split(compare, ",")
		for i := range devices {
			devices[i] = strings.TrimSpace(devices[i])
		}
		cmp, st, err := f.CompareCached(ctx, gpuperf.CompareRequest{
			Kernel:      req.Kernel,
			Size:        req.Size,
			Seed:        req.Seed,
			Parallelism: parallel,
			Devices:     devices,
			Measure:     true,
		})
		if err != nil {
			return err
		}
		cacheNote(st)
		if asJSON {
			return printJSON(cmp)
		}
		fmt.Print(cmp.Report())
		return nil
	}

	a, err := f.Session(req.Device)
	if err != nil {
		return err
	}
	if disasm {
		text, err := f.Disassemble(req)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}

	dev := a.Device()
	fmt.Printf("device: %s (%d SMs, %.0f GFLOPS peak)\n", dev.Name, dev.NumSMs, dev.PeakGFLOPS())
	if cacheDir == "" {
		// Without a result cache every run needs the model, so
		// calibrate eagerly and narrate it. With -cache-dir the
		// calibration stays lazy: a cache hit never needs it, and a
		// miss triggers it inside the analysis.
		fmt.Println("calibrating model (microbenchmarks; skipped when the -cal-dir cache is valid)...")
		if err := a.Calibrate(); err != nil {
			return err
		}
		switch {
		case a.CalibrationFromCache():
			fmt.Printf("loaded calibration from %s\n", calDir)
		case calDir == "":
			fmt.Println("calibrated model (microbenchmarks; cache with -cal-dir)")
		case a.CalibrationSaveError() != nil:
			fmt.Printf("calibrated model (warning: could not save to %s: %v)\n", calDir, a.CalibrationSaveError())
		default:
			fmt.Printf("calibrated model, saved to %s\n", calDir)
		}
	}

	if advse {
		adv, st, err := f.AdviseCached(ctx, req)
		if err != nil {
			return err
		}
		cacheNote(st)
		if asJSON {
			return printJSON(adv)
		}
		fmt.Println()
		fmt.Print(adv.Report())
		return nil
	}

	res, st, err := f.AnalyzeCached(ctx, req)
	if err != nil {
		return err
	}
	cacheNote(st)
	if asJSON {
		return printJSON(res)
	}
	fmt.Println()
	fmt.Print(res.Report())
	return nil
}

// submitKernel reads the -submit assembly file and admits it through
// the fleet's ingest pipeline, exactly as POST /v1/kernels would.
func submitKernel(f *gpuperf.Fleet, sub *submitOpts) (*gpuperf.SubmissionReceipt, error) {
	src, err := os.ReadFile(sub.file)
	if err != nil {
		return nil, err
	}
	bufs, err := parseBuffers(sub.buffers)
	if err != nil {
		return nil, err
	}
	return f.SubmitKernel(gpuperf.KernelSubmission{
		Label:   sub.file,
		Source:  string(src),
		Grid:    sub.grid,
		Block:   sub.block,
		Buffers: bufs,
	})
}

// parseBuffers decodes the -buffers flag: comma-separated
// name:elem:count:fill items, where fill "affine" takes two more
// colon fields (start:step).
func parseBuffers(s string) ([]gpuperf.BufferSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []gpuperf.BufferSpec
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 4 && !(len(parts) == 6 && parts[3] == "affine") {
			return nil, fmt.Errorf("-buffers %q: want name:elem:count:fill (fill affine takes :start:step)", item)
		}
		count, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("-buffers %q: count: %v", item, err)
		}
		b := gpuperf.BufferSpec{Name: parts[0], Elem: parts[1], Count: count, Fill: parts[3]}
		if len(parts) == 6 {
			if b.Start, err = strconv.ParseFloat(parts[4], 64); err != nil {
				return nil, fmt.Errorf("-buffers %q: start: %v", item, err)
			}
			if b.Step, err = strconv.ParseFloat(parts[5], 64); err != nil {
				return nil, fmt.Errorf("-buffers %q: step: %v", item, err)
			}
		}
		out = append(out, b)
	}
	return out, nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
