package device

import (
	"context"
	"testing"

	"gpuperf/internal/gpu"
)

// BenchmarkDeviceRun times one timed run of each golden kernel on the
// full GTX 285 and reports simulated warp instructions per second of
// host time, the device layer's throughput, beside the event queue's
// deterministic work per warp instruction: warps popped and buckets
// made. Building the launch and its memory is outside the timer.
func BenchmarkDeviceRun(b *testing.B) {
	cfg := gpu.GTX285()
	for _, c := range goldenCases() {
		b.Run(c.name, func(b *testing.B) {
			var instrs, pops, made int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l, mem := c.build(b)
				b.StartTimer()
				s, err := simulate(context.Background(), cfg, l, mem, 0)
				if err != nil {
					b.Fatal(err)
				}
				instrs += s.res.WarpInstrs
				pops += s.queue.pops
				made += s.queue.made
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "winstr/s")
			b.ReportMetric(float64(pops)/float64(instrs), "pops/winstr")
			b.ReportMetric(float64(made)/float64(instrs), "buckets/winstr")
		})
	}
}
