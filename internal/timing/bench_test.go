package timing

import (
	"fmt"
	"testing"

	"gpuperf/internal/gpu"
)

// BenchmarkCalibrate times a cold calibration of the full GTX 285:
// every point of the instruction and shared-memory curves, each one
// device simulation on a one-SM slice.
func BenchmarkCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(gpu.GTX285()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalBandwidth times the §4.3 synthetic global-memory
// benchmark that every uncached Calibration.GlobalBandwidth geometry
// runs on the full GTX 285: one device simulation per iteration, on a
// fresh Calibration so no cached bandwidth is reused.
func BenchmarkGlobalBandwidth(b *testing.B) {
	for _, k := range []gkey{{blocks: 192, threads: 256, trans: 9}, {blocks: 16, threads: 192, trans: 12}} {
		b.Run(fmt.Sprintf("%dx%dx%d", k.blocks, k.threads, k.trans), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := &Calibration{cfg: gpu.GTX285(), gcache: map[gkey]float64{}}
				if _, err := c.GlobalBandwidth(k.blocks, k.threads, k.trans); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
