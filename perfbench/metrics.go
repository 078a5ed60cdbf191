package main

import "math"

// MetricDef names one reported metric and its unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd are the untraced runs' metrics.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"cpu_per_req_s", "s/req"},
	{"peak_rss_mb", "MiB"},
}

// PerLayer are the traced run's metrics. A *.busy_s is the mean self
// time per traced request (per request of the family for the .matmul,
// .cr and .spmv splits); a layer a workload never calls reports 0.
var PerLayer = []MetricDef{
	{"calibration.busy_s", "s"},
	{"model.global-microbench.busy_s", "s"},
	{"model.global-microbench.miss_frac", "fraction"},
	{"build.busy_s", "s"},
	{"measure.build.busy_s", "s"},
	{"engine.busy_s", "s"},
	{"engine.busy_s.matmul", "s"},
	{"engine.busy_s.cr", "s"},
	{"engine.busy_s.spmv", "s"},
	{"engine.replay_frac", "fraction"},
	{"engine.blocks_per_s.p1", "blocks/s"},
	{"engine.blocks_per_s.pmax", "blocks/s"},
	{"model.busy_s", "s"},
	{"advise.busy_s", "s"},
	{"verify.busy_s", "s"},
	{"measure.device.busy_s", "s"},
	{"measure.device.busy_s.matmul", "s"},
	{"measure.device.busy_s.cr", "s"},
	{"measure.device.busy_s.spmv", "s"},
	{"measure.device.winstr_per_s", "winstr/s"},
	{"cache.busy_s", "s"},
	{"cache.hit_frac", "fraction"},
	{"http.busy_s", "s"},
	{"router.busy_s", "s"},
	{"unattributed_frac", "fraction"},
	{"trace_overhead_frac", "fraction"},
	{"pred_error_mean", "fraction"},
	{"pred_error_max", "fraction"},
}

// Value is one metric as printed.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the result line every run prints last.
type Outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewOutcome attaches units to values, in the order of defs. A value
// that is not finite (a percentile landing on a failed request, which
// counts as +Inf) prints as the largest float64, since JSON has no
// infinity.
func NewOutcome(defs []MetricDef, values map[string]float64, attempted, failed int, correct bool) Outcome {
	o := Outcome{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]Value{}}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		o.Metrics[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	return o
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
