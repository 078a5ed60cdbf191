package timing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"gpuperf/internal/isa"
)

// goldenGeometries are (blocks, threads per block, transactions per
// thread) for the global-bandwidth microbenchmark: one block, a
// partial warp, a sub-cluster grid, an odd grid above the SM count,
// and one past the transaction cap.
var goldenGeometries = [][3]int{
	{1, 64, 1},
	{7, 80, 3},
	{16, 192, 12},
	{31, 256, 6},
	{45, 128, 100},
}

// goldenCalibration was recorded with the container/heap event queue
// in the device simulator: a SHA-256 over the bit patterns of every
// curve point and of the microbenchmark bandwidths above. It hashes
// the returned numbers rather than MarshalJSON, whose global cache
// depends on which other tests ran first.
const goldenCalibration = "82226af7400f7153f8dfa356c3c0fba965affbf2ce9b59003bc6fab68fe24fd8"

func TestGoldenCalibration(t *testing.T) {
	c := cal(t)
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for cls := isa.Class(0); int(cls) < isa.NumClasses; cls++ {
		for w := 1; w <= c.MaxWarps(); w++ {
			put(c.InstrThroughput(cls, w))
		}
	}
	for w := 1; w <= c.MaxWarps(); w++ {
		put(c.SharedTxRate(w))
	}
	for _, g := range goldenGeometries {
		bw, err := c.GlobalBandwidth(g[0], g[1], g[2])
		if err != nil {
			t.Fatal(err)
		}
		put(bw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCalibration {
		t.Errorf("calibration fingerprint drift: got %s want %s", got, goldenCalibration)
	}
}
