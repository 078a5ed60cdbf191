package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

func genMat(t *testing.T, rows, bpr int) *Blocked {
	t.Helper()
	m, err := GenQCDLike(rows, bpr, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	for i := range x {
		x[i] = 2*rng.Float32() - 1
	}
	return x
}

func TestGenQCDLikeStructure(t *testing.T) {
	m := genMat(t, 256, 9)
	if m.Rows() != 768 || m.NNZ() != 256*9*9 {
		t.Errorf("dims: rows=%d nnz=%d", m.Rows(), m.NNZ())
	}
	// Banded-ness: most rows touch their own block column, and the
	// median column distance is small relative to the matrix.
	diagHits, nearCols := 0, 0
	for q := 0; q < m.BlockRows; q++ {
		for _, c := range m.Cols[q] {
			d := int(c) - q
			if d < 0 {
				d = -d
			}
			if d > m.BlockRows/2 { // wrapped
				d = m.BlockRows - d
			}
			if d == 0 {
				diagHits++
			}
			if d <= 20 {
				nearCols++
			}
		}
	}
	if diagHits < m.BlockRows*9/10 {
		t.Errorf("only %d/%d rows have a diagonal block", diagHits, m.BlockRows)
	}
	if nearCols < m.BlockRows*9/2 {
		t.Errorf("matrix not banded: %d near columns of %d", nearCols, m.BlockRows*9)
	}
}

// TestGenQCDLikeDigests pins GenQCDLike's output, columns and block
// values bit for bit, from a few block-rows to paper scale (at 64
// block-rows the ±64 stencil offsets wrap onto the diagonal and
// dedup), and pins its
// allocations: a fixed handful per matrix, none per row or block.
func TestGenQCDLikeDigests(t *testing.T) {
	for _, c := range []struct {
		rows, bpr int
		seed      int64
		want      string
	}{
		{9, 3, 1, "dbc05ed9a24ec721c1aa4e122ab2481b02c77c3c379e71b805d8a4d8d0a4abd7"},
		{17, 5, 2, "ad6bbfb4e90d5af53f069431e55d9213efe8e6ed86b18baeba8df0c61007dd0b"},
		{64, 9, 6, "af055061f0e3286fa090d5cc5173417f73c8b03e940a3e5d8d234e70f49960ba"},
		{128, 9, 3, "0d0a1e00535565cafbc542bd1bf04431043060c1381f7d17b178bfd98c4c707e"},
		{1000, 1, 4, "a9afaaf5c0fd8dee2ee5c8707639565522e6ba4e4acdbc9940a449d9b2c2a10b"},
		{8192, 9, 5, "5b0fbfbb9f766bb2da7784c682949daa6d1fecef17ed1d683f2ffe4ebbee941b"},
	} {
		m, err := GenQCDLike(c.rows, c.bpr, rand.New(rand.NewSource(c.seed)))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for q := range m.Cols {
			_ = binary.Write(h, binary.LittleEndian, m.Cols[q]) // hash.Hash writes never fail
			for _, blk := range m.Vals[q] {
				_ = binary.Write(h, binary.LittleEndian, blk)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("GenQCDLike(%d, %d, seed %d) digest %s, want %s", c.rows, c.bpr, c.seed, got, c.want)
		}
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := GenQCDLike(8192, 9, rand.New(rand.NewSource(5))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("GenQCDLike(8192, 9) makes %.0f allocations, want at most 8", allocs)
	}
}

// TestGenQCDLikeSmall: stencil offsets larger than the matrix wrap
// around it as often as needed, so every block-row count down to the
// blocks per row builds a valid matrix.
func TestGenQCDLikeSmall(t *testing.T) {
	for rows := 9; rows <= 200; rows++ {
		for seed := int64(1); seed <= 3; seed++ {
			if _, err := GenQCDLike(rows, 9, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatalf("GenQCDLike(%d, 9, seed %d): %v", rows, seed, err)
			}
		}
	}
}

func TestGenQCDLikeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenQCDLike(0, 4, rng); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := GenQCDLike(4, 9, rng); err == nil {
		t.Error("more blocks than columns accepted")
	}
}

func TestELLRoundTrip(t *testing.T) {
	m := genMat(t, 64, 5)
	e, err := m.ToELL()
	if err != nil {
		t.Fatal(err)
	}
	if e.Width != 15 || e.Rows != 192 {
		t.Fatalf("ELL dims %dx%d", e.Rows, e.Width)
	}
	// Reference multiply through the ELL arrays must match MulDense.
	x := randVec(m.Rows(), 7)
	want, err := m.MulDense(x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, e.Rows)
	for r := 0; r < e.Rows; r++ {
		var acc float64
		for j := 0; j < e.Width; j++ {
			acc += float64(e.Entries[j*e.Rows+r]) * float64(x[e.ColIdx[j*e.Rows+r]])
		}
		got[r] = float32(acc)
	}
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-4 {
			t.Fatalf("ELL y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBELLRoundTrip(t *testing.T) {
	m := genMat(t, 64, 5)
	b, err := m.ToBELL()
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(m.Rows(), 8)
	want, err := m.MulDense(x)
	if err != nil {
		t.Fatal(err)
	}
	bs := b.BlockSize
	bs2 := bs * bs
	got := make([]float32, m.Rows())
	for q := 0; q < b.BlockRows; q++ {
		acc := make([]float64, bs)
		for j := 0; j < b.BlocksPerRow; j++ {
			c := int(b.BlockCols[j*b.BlockRows+q])
			for r := 0; r < bs; r++ {
				for cc := 0; cc < bs; cc++ {
					v := b.Entries[(j*bs2+r*bs+cc)*b.BlockRows+q]
					acc[r] += float64(v) * float64(x[c*bs+cc])
				}
			}
		}
		for r := 0; r < bs; r++ {
			got[q*bs+r] = float32(acc[r])
		}
	}
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-4 {
			t.Fatalf("BELL y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVectorInterleaveRoundTrip(t *testing.T) {
	x := randVec(3*32, 9)
	ix, err := InterleaveVector(x, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the permutation: logical (q=5, r=2) → 2·32+5.
	if ix[2*32+5] != x[5*3+2] {
		t.Error("interleave permutation wrong")
	}
	back, err := DeinterleaveVector(ix, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("round trip broke at %d", i)
		}
	}
	if _, err := InterleaveVector(x[:10], 32, 3); err == nil {
		t.Error("bad length accepted")
	}
	if _, err := DeinterleaveVector(x[:10], 32, 3); err == nil {
		t.Error("bad length accepted")
	}
}

func TestMulDenseValidation(t *testing.T) {
	m := genMat(t, 16, 4)
	if _, err := m.MulDense(make([]float32, 5)); err == nil {
		t.Error("bad vector length accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := genMat(t, 16, 4)
	m.Cols[3][1] = m.Cols[3][0] // non-increasing
	if err := m.Validate(); err == nil {
		t.Error("non-increasing columns accepted")
	}
	m2 := genMat(t, 16, 4)
	m2.Cols[0][3] = 99 // out of range
	if err := m2.Validate(); err == nil {
		t.Error("out-of-range column accepted")
	}
	m3 := genMat(t, 16, 4)
	m3.Vals[2][1] = m3.Vals[2][1][:5]
	if err := m3.Validate(); err == nil {
		t.Error("short block accepted")
	}
}

func TestGenBandedAndRandomFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	banded, err := GenBanded(128, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	random, err := GenRandomUniform(128, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Banded: every column within h (+wrap) of the diagonal.
	for q := 0; q < banded.BlockRows; q++ {
		for _, c := range banded.Cols[q] {
			d := int(c) - q
			if d < 0 {
				d = -d
			}
			if d > banded.BlockRows/2 {
				d = banded.BlockRows - d
			}
			if d > 4 {
				t.Fatalf("banded row %d has far column %d", q, c)
			}
		}
	}
	// Random: substantial spread (mean |distance| well above the
	// banded half-width).
	total, count := 0, 0
	for q := 0; q < random.BlockRows; q++ {
		for _, c := range random.Cols[q] {
			d := int(c) - q
			if d < 0 {
				d = -d
			}
			total += d
			count++
		}
	}
	if mean := total / count; mean < 10 {
		t.Errorf("random matrix mean column distance %d, want spread", mean)
	}
	// Both multiply correctly.
	for _, m := range []*Blocked{banded, random} {
		x := randVec(m.Rows(), 3)
		if _, err := m.MulDense(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := GenBanded(0, 3, rng); err == nil {
		t.Error("bad banded dims accepted")
	}
	if _, err := GenRandomUniform(4, 9, rng); err == nil {
		t.Error("bad random dims accepted")
	}
}
