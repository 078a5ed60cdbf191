package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"gpuperf"
)

// Output is one request's answer from a front door: exactly one field
// is set, by operation.
type Output struct {
	Result      *gpuperf.Result      `json:"result,omitempty"`
	Advice      *gpuperf.Advice      `json:"advice,omitempty"`
	Comparison  *gpuperf.Comparison  `json:"comparison,omitempty"`
	Measurement *gpuperf.Measurement `json:"measurement,omitempty"`
}

// RunFleet sends req through the library front door.
func RunFleet(ctx context.Context, f *gpuperf.Fleet, req Request) (Output, error) {
	switch req.Op {
	case OpAnalyze:
		res, err := f.Analyze(ctx, fleetRequest(req))
		return Output{Result: res}, err
	case OpAdvise:
		adv, err := f.Advise(ctx, fleetRequest(req))
		return Output{Advice: adv}, err
	case OpCompare:
		cmp, err := f.Compare(ctx, compareRequest(req))
		return Output{Comparison: cmp}, err
	case OpMeasure:
		m, err := f.Measure(ctx, fleetRequest(req))
		return Output{Measurement: m}, err
	}
	return Output{}, fmt.Errorf("unknown op %q", req.Op)
}

func fleetRequest(req Request) gpuperf.Request {
	return gpuperf.Request{Kernel: req.Kernel, Device: req.Device, Size: req.Size, Seed: req.Seed,
		Measure: req.Measure, SkipVerify: req.SkipVerify}
}

func compareRequest(req Request) gpuperf.CompareRequest {
	return gpuperf.CompareRequest{Kernel: req.Kernel, Size: req.Size, Seed: req.Seed, Devices: req.Devices, Measure: req.Measure}
}

// Canonical encodes the output without the fields that are timing
// rather than simulation output: Diagnostics.PhaseSeconds and the
// engine's replay and batching counters. Two runs of the same program
// on the same inputs give identical canonical bytes.
func (o Output) Canonical() ([]byte, error) {
	if o.Result != nil {
		r := *o.Result
		r.Diagnostics.PhaseSeconds = nil
		r.Diagnostics.BlocksSimulated, r.Diagnostics.BlocksReplayed = 0, 0
		r.Diagnostics.BatchedRuns, r.Diagnostics.BatchedInstrs = 0, 0
		o.Result = &r
	}
	return json.Marshal(o)
}

// PredErrors returns |predicted − measured| / measured for every
// measured analysis or comparison entry in the output.
func (o Output) PredErrors() []float64 {
	var out []float64
	if r := o.Result; r != nil && r.MeasuredSeconds > 0 {
		out = append(out, relErr(r.PredictedSeconds, r.MeasuredSeconds))
	}
	if c := o.Comparison; c != nil {
		for _, e := range c.Entries {
			if e.MeasuredSeconds > 0 {
				out = append(out, relErr(e.PredictedSeconds, e.MeasuredSeconds))
			}
		}
	}
	return out
}

func relErr(pred, meas float64) float64 { return math.Abs(pred-meas) / meas }

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// Check validates an output against its request: echoed fields,
// positive finite times, a passed CPU reference for every verifiable
// analysis (verifiable reports whether the kernel has one), and
// measured fields exactly when the request asked for them.
func Check(req Request, o Output, verifiable func(string) bool) error {
	switch req.Op {
	case OpAnalyze:
		r := o.Result
		if r == nil {
			return errors.New("no result")
		}
		if r.Kernel != req.Kernel || r.Device != req.Device || r.Size != req.Size || r.Seed != req.Seed {
			return fmt.Errorf("result echoes %s/%s/%d/%d", r.Kernel, r.Device, r.Size, r.Seed)
		}
		if !positive(r.PredictedSeconds) {
			return fmt.Errorf("predicted %v s", r.PredictedSeconds)
		}
		if !req.SkipVerify && verifiable(req.Kernel) && (r.MaxAbsError == nil || r.VerifyError != "") {
			return fmt.Errorf("no CPU-reference check (verify error %q)", r.VerifyError)
		}
		if req.Measure != (r.MeasuredSeconds != 0) || (req.Measure && !positive(r.MeasuredSeconds)) {
			return fmt.Errorf("measured %v s with measure=%v", r.MeasuredSeconds, req.Measure)
		}
		if req.Measure && math.Abs(r.PredictionError-relErr(r.PredictedSeconds, r.MeasuredSeconds)) > 1e-12 {
			return fmt.Errorf("prediction error %v disagrees with its times", r.PredictionError)
		}
	case OpAdvise:
		a := o.Advice
		if a == nil {
			return errors.New("no advice")
		}
		if a.Kernel != req.Kernel || a.Device != req.Device || a.Size != req.Size || a.Seed != req.Seed {
			return fmt.Errorf("advice echoes %s/%s/%d/%d", a.Kernel, a.Device, a.Size, a.Seed)
		}
		if !positive(a.BaselineSeconds) || len(a.Scenarios) == 0 {
			return fmt.Errorf("baseline %v s, %d scenarios", a.BaselineSeconds, len(a.Scenarios))
		}
		for _, s := range a.Scenarios {
			if !positive(s.PredictedSeconds) {
				return fmt.Errorf("scenario %s predicted %v s", s.Scenario, s.PredictedSeconds)
			}
		}
	case OpCompare:
		c := o.Comparison
		if c == nil {
			return errors.New("no comparison")
		}
		if c.Kernel != req.Kernel || c.Size != req.Size || c.Seed != req.Seed {
			return fmt.Errorf("comparison echoes %s/%d/%d", c.Kernel, c.Size, c.Seed)
		}
		var got []string
		for _, e := range c.Entries {
			got = append(got, e.Device)
			if !positive(e.PredictedSeconds) || req.Measure != positive(e.MeasuredSeconds) {
				return fmt.Errorf("entry %s: predicted %v s, measured %v s", e.Device, e.PredictedSeconds, e.MeasuredSeconds)
			}
		}
		want := append([]string(nil), req.Devices...)
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) || c.Best != c.Entries[0].Device {
			return fmt.Errorf("comparison covers %v (best %s), want %v", got, c.Best, want)
		}
	case OpMeasure:
		m := o.Measurement
		if m == nil {
			return errors.New("no measurement")
		}
		if m.Kernel != req.Kernel || m.Device != req.Device || m.Size != req.Size || m.Seed != req.Seed {
			return fmt.Errorf("measurement echoes %s/%s/%d/%d", m.Kernel, m.Device, m.Size, m.Seed)
		}
		if !positive(m.Seconds) || m.Dominant == "" {
			return fmt.Errorf("measured %v s, dominant %q", m.Seconds, m.Dominant)
		}
	default:
		return fmt.Errorf("unknown op %q", req.Op)
	}
	return nil
}

// Verifiable reports, per registry kernel, whether its workloads carry
// a CPU reference. It builds each kernel once at its smallest size.
func Verifiable(reg *gpuperf.Registry) (func(string) bool, error) {
	tiny := map[string]int{"matmul": 64, "cr": 1, "spmv": 128}
	has := map[string]bool{}
	for _, name := range reg.Names() {
		w, err := reg.Build(gpuperf.DefaultDevice(), name, gpuperf.Params{Size: tiny[Family(name)], Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		has[name] = w.Verify != nil
	}
	return func(k string) bool { return has[k] }, nil
}
