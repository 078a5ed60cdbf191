package timing

import (
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
