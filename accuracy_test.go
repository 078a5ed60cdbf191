package gpuperf

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// accuracyDevices are the accuracy ledger's devices: the stock chip
// and the 6-SM slice examples/advisor runs on.
var accuracyDevices = []string{"gtx285", "gtx285-6sm"}

// accuracyEntry is one line of the accuracy ledger: the model's
// prediction for one kernel on one device, next to the device
// simulator's time and the advisor's scenario predictions.
type accuracyEntry struct {
	Kernel            string  `json:"kernel"`
	Device            string  `json:"device"`
	Size              int     `json:"size"`
	PredictedSeconds  float64 `json:"predicted_seconds"`
	UpperBoundSeconds float64 `json:"upper_bound_seconds"`
	MeasuredSeconds   float64 `json:"measured_seconds"`
	// SignedError is (predicted − measured) / measured: negative when
	// the model under-predicts.
	SignedError      float64 `json:"signed_error"`
	Bottleneck       string  `json:"bottleneck"`
	MeasuredDominant string  `json:"measured_dominant"`
	// Scenarios maps each advice scenario key to its predicted
	// seconds.
	Scenarios map[string]float64 `json:"scenarios"`
}

// TestAccuracyGolden pins the model's accuracy: every built-in kernel
// at its default size, on each of accuracyDevices, analyzed with a
// device-simulator measurement and advised. Every number must equal
// testdata/accuracy_golden.json exactly, so a change that moves a
// prediction, a measurement or a scenario shows up as a diff of that
// file, entry by entry. Regenerate it deliberately with
// `go test -run TestAccuracyGolden -update`.
func TestAccuracyGolden(t *testing.T) {
	f := testFleet(t)
	ctx := context.Background()
	var ledger []accuracyEntry
	for _, dev := range accuracyDevices {
		for _, spec := range DefaultRegistry().Specs() {
			req := Request{Kernel: spec.Name, Device: dev}
			adv, err := f.Advise(ctx, req)
			if err != nil {
				t.Fatalf("advise %s on %s: %v", spec.Name, dev, err)
			}
			req.Measure, req.SkipVerify = true, true
			res, err := f.Analyze(ctx, req)
			if err != nil {
				t.Fatalf("analyze %s on %s: %v", spec.Name, dev, err)
			}
			if adv.BaselineSeconds != res.PredictedSeconds {
				t.Errorf("%s on %s: advice baseline %g s, analysis %g s",
					spec.Name, dev, adv.BaselineSeconds, res.PredictedSeconds)
			}
			e := accuracyEntry{
				Kernel:            res.Kernel,
				Device:            res.Device,
				Size:              res.Size,
				PredictedSeconds:  res.PredictedSeconds,
				UpperBoundSeconds: res.UpperBoundSeconds,
				MeasuredSeconds:   res.MeasuredSeconds,
				SignedError:       (res.PredictedSeconds - res.MeasuredSeconds) / res.MeasuredSeconds,
				Bottleneck:        res.Bottleneck,
				MeasuredDominant:  res.MeasuredDominant,
				Scenarios:         map[string]float64{},
			}
			for _, s := range adv.Scenarios {
				e.Scenarios[s.Scenario] = s.PredictedSeconds
			}
			ledger = append(ledger, e)
		}
	}
	blob, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')

	path := filepath.Join("testdata", "accuracy_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestAccuracyGolden -update` to create it)", err)
	}
	if string(golden) == string(blob) {
		return
	}
	t.Errorf("accuracy drifted from %s", path)
	var want []accuracyEntry
	if err := json.Unmarshal(golden, &want); err != nil || len(want) != len(ledger) {
		t.Fatalf("%s: %d entries, the run %d (decode error: %v)", path, len(want), len(ledger), err)
	}
	for i := range ledger {
		g, _ := json.Marshal(ledger[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("got  %s\nwant %s", g, w)
		}
	}
}
