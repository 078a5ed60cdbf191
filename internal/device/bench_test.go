package device

import (
	"testing"

	"gpuperf/internal/gpu"
)

// BenchmarkDeviceRun times one timed run of each golden kernel on the
// full GTX 285 and reports simulated warp instructions per second of
// host time, the device layer's throughput. Building the launch and
// its memory is outside the timer.
func BenchmarkDeviceRun(b *testing.B) {
	cfg := gpu.GTX285()
	for _, c := range goldenCases() {
		b.Run(c.name, func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l, mem := c.build(b)
				b.StartTimer()
				r, err := Run(cfg, l, mem)
				if err != nil {
					b.Fatal(err)
				}
				instrs += r.WarpInstrs
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "winstr/s")
		})
	}
}
