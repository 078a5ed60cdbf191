// Package sparse provides the blocked sparse matrices and storage
// formats of paper §5.3: a synthetic naturally-3×3-blocked matrix
// with QCD-like banded structure, the ELLPACK (ELL) format, the
// blocked ELLPACK (BELL) format with interleaved matrix storage, and
// the paper's vector-interleaving optimization (IMIV).
package sparse

import (
	"fmt"
	"math/rand"
	"slices"
)

// Blocked is a sparse matrix of dense BlockSize×BlockSize blocks
// with a uniform number of blocks per block-row (ELL-friendly, like
// the QCD matrix of the paper's benchmark suite).
type Blocked struct {
	// BlockRows is the number of block rows; the scalar dimension is
	// BlockRows·BlockSize (square matrix).
	BlockRows int
	// BlockSize is the dense block edge (3 for QCD).
	BlockSize int
	// BlocksPerRow is the uniform block count per block-row.
	BlocksPerRow int
	// Cols[q][j] is the block-column index of block j in block-row
	// q, strictly increasing within a row.
	Cols [][]int32
	// Vals[q][j] is the dense block in row-major order
	// (BlockSize² entries).
	Vals [][][]float32
}

// Rows returns the scalar row count.
func (m *Blocked) Rows() int { return m.BlockRows * m.BlockSize }

// NNZ returns the stored entry count (including explicit zeros
// inside blocks).
func (m *Blocked) NNZ() int {
	return m.BlockRows * m.BlocksPerRow * m.BlockSize * m.BlockSize
}

// Validate checks structural invariants.
func (m *Blocked) Validate() error {
	if m.BlockRows <= 0 || m.BlockSize <= 0 || m.BlocksPerRow <= 0 {
		return fmt.Errorf("sparse: non-positive dimensions")
	}
	if m.BlocksPerRow > m.BlockRows {
		return fmt.Errorf("sparse: %d blocks per row exceed %d block columns", m.BlocksPerRow, m.BlockRows)
	}
	if len(m.Cols) != m.BlockRows || len(m.Vals) != m.BlockRows {
		return fmt.Errorf("sparse: ragged outer storage")
	}
	bs2 := m.BlockSize * m.BlockSize
	for q := 0; q < m.BlockRows; q++ {
		if len(m.Cols[q]) != m.BlocksPerRow || len(m.Vals[q]) != m.BlocksPerRow {
			return fmt.Errorf("sparse: block-row %d has %d/%d blocks, want %d",
				q, len(m.Cols[q]), len(m.Vals[q]), m.BlocksPerRow)
		}
		prev := int32(-1)
		for j, c := range m.Cols[q] {
			if c <= prev || int(c) >= m.BlockRows {
				return fmt.Errorf("sparse: block-row %d: bad column %d at %d", q, c, j)
			}
			prev = c
			if len(m.Vals[q][j]) != bs2 {
				return fmt.Errorf("sparse: block-row %d block %d has %d entries", q, j, len(m.Vals[q][j]))
			}
		}
	}
	return nil
}

// GenQCDLike builds a synthetic naturally-3×3-blocked matrix with
// the structural properties the paper's QCD matrix supplies to
// Fig. 11: uniform row degree (ELL-friendly) and banded block
// structure (neighbouring rows touch nearby columns, which is what
// vector interleaving exploits). blockRows block-rows, blocksPerRow
// blocks each, placed at stencil-like offsets with slight jitter.
func GenQCDLike(blockRows, blocksPerRow int, rng *rand.Rand) (*Blocked, error) {
	m := &Blocked{
		BlockRows:    blockRows,
		BlockSize:    3,
		BlocksPerRow: blocksPerRow,
	}
	if blockRows <= 0 || blocksPerRow <= 0 || blocksPerRow > blockRows {
		return nil, fmt.Errorf("sparse: bad QCD dimensions %d×%d", blockRows, blocksPerRow)
	}
	// Stencil offsets: diagonal plus symmetric neighbours at ±1 and
	// growing strides, like a lattice nearest-neighbour coupling.
	offsets := make([]int, 0, blocksPerRow)
	offsets = append(offsets, 0)
	stride := 1
	for len(offsets) < blocksPerRow {
		offsets = append(offsets, stride)
		if len(offsets) < blocksPerRow {
			offsets = append(offsets, -stride)
		}
		stride *= 4
	}
	// Rows and blocks are capped slices of three flat arrays, so the
	// whole matrix is a fixed handful of allocations.
	nb := blockRows * blocksPerRow
	allCols := make([]int32, nb)
	allBlocks := make([][]float32, nb)
	allVals := make([]float32, nb*9)
	m.Cols = make([][]int32, blockRows)
	m.Vals = make([][][]float32, blockRows)
	for q := 0; q < blockRows; q++ {
		lo, hi := q*blocksPerRow, (q+1)*blocksPerRow
		cols := allCols[lo:lo:hi]
		for _, off := range offsets {
			c := q + off
			// Jitter one step either way, then wrap around the
			// matrix (offsets may exceed blockRows) and dedup.
			if off != 0 && rng.Intn(4) == 0 {
				c += rng.Intn(3) - 1
			}
			if c < 0 || c >= blockRows {
				c = (c%blockRows + blockRows) % blockRows
			}
			cc := int32(c)
			for slices.Contains(cols, cc) {
				cc = (cc + 1) % int32(blockRows)
			}
			cols = append(cols, cc)
		}
		sortInt32(cols)
		m.Cols[q] = cols
		m.Vals[q] = allBlocks[lo:hi:hi]
		for j := range m.Vals[q] {
			b := (lo + j) * 9
			blk := allVals[b : b+9 : b+9]
			for e := range blk {
				blk[e] = 2*rng.Float32() - 1
			}
			m.Vals[q][j] = blk
		}
	}
	return m, m.Validate()
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// MulDense computes y = M·x in float64, the reference for kernel
// verification.
func (m *Blocked) MulDense(x []float32) ([]float32, error) {
	n := m.Rows()
	if len(x) != n {
		return nil, fmt.Errorf("sparse: vector length %d, want %d", len(x), n)
	}
	y := make([]float32, n)
	bs := m.BlockSize
	acc := make([]float64, bs)
	for q := 0; q < m.BlockRows; q++ {
		clear(acc)
		for j, c := range m.Cols[q] {
			blk := m.Vals[q][j]
			for r := 0; r < bs; r++ {
				for cc := 0; cc < bs; cc++ {
					acc[r] += float64(float64(blk[r*bs+cc]) * float64(x[int(c)*bs+cc]))
				}
			}
		}
		for r := 0; r < bs; r++ {
			y[q*bs+r] = float32(acc[r])
		}
	}
	return y, nil
}

// ELL is the scalar ELLPACK format of paper Fig. 9(b): every row
// padded to Width entries, stored column-major (entry j of row r at
// j·Rows + r) so that consecutive threads read consecutive words.
type ELL struct {
	Rows  int
	Width int
	// Entries and ColIdx are column-major Rows×Width.
	Entries []float32
	ColIdx  []int32
}

// ToELL expands the blocked matrix into scalar ELL: each scalar row
// holds BlocksPerRow·BlockSize entries.
func (m *Blocked) ToELL() (*ELL, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rows := m.Rows()
	width := m.BlocksPerRow * m.BlockSize
	e := &ELL{
		Rows:    rows,
		Width:   width,
		Entries: make([]float32, rows*width),
		ColIdx:  make([]int32, rows*width),
	}
	bs := m.BlockSize
	for q := 0; q < m.BlockRows; q++ {
		for r := 0; r < bs; r++ {
			row := q*bs + r
			slot := 0
			for j, c := range m.Cols[q] {
				blk := m.Vals[q][j]
				for cc := 0; cc < bs; cc++ {
					e.Entries[slot*rows+row] = blk[r*bs+cc]
					e.ColIdx[slot*rows+row] = c*int32(bs) + int32(cc)
					slot++
				}
			}
		}
	}
	return e, nil
}

// BELL is the blocked ELLPACK format with interleaved matrix
// storage (paper's BELL+IM, Fig. 9(d)): one thread per block-row;
// entry e of block j for block-row q lives at (j·bs²+e)·BlockRows+q,
// and block-column indices at j·BlockRows+q — both coalesced across
// consecutive block-rows.
type BELL struct {
	BlockRows    int
	BlockSize    int
	BlocksPerRow int
	// Entries is (BlocksPerRow·BlockSize²)×BlockRows interleaved.
	Entries []float32
	// BlockCols is BlocksPerRow×BlockRows interleaved.
	BlockCols []int32
}

// ToBELL converts to interleaved blocked ELLPACK.
func (m *Blocked) ToBELL() (*BELL, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	bs2 := m.BlockSize * m.BlockSize
	b := &BELL{
		BlockRows:    m.BlockRows,
		BlockSize:    m.BlockSize,
		BlocksPerRow: m.BlocksPerRow,
		Entries:      make([]float32, m.BlockRows*m.BlocksPerRow*bs2),
		BlockCols:    make([]int32, m.BlockRows*m.BlocksPerRow),
	}
	for q := 0; q < m.BlockRows; q++ {
		for j := 0; j < m.BlocksPerRow; j++ {
			b.BlockCols[j*m.BlockRows+q] = m.Cols[q][j]
			for e := 0; e < bs2; e++ {
				b.Entries[(j*bs2+e)*m.BlockRows+q] = m.Vals[q][j][e]
			}
		}
	}
	return b, nil
}

// InterleaveVector applies the paper's IMIV permutation to a dense
// vector: logical element i = q·bs + r moves to position
// r·BlockRows + q, scattering each block's entries so that the
// entries consecutive threads need land near each other.
func InterleaveVector(x []float32, blockRows, bs int) ([]float32, error) {
	if len(x) != blockRows*bs {
		return nil, fmt.Errorf("sparse: vector length %d, want %d", len(x), blockRows*bs)
	}
	out := make([]float32, len(x))
	for q := 0; q < blockRows; q++ {
		for r := 0; r < bs; r++ {
			out[r*blockRows+q] = x[q*bs+r]
		}
	}
	return out, nil
}

// DeinterleaveVector inverts InterleaveVector.
func DeinterleaveVector(x []float32, blockRows, bs int) ([]float32, error) {
	if len(x) != blockRows*bs {
		return nil, fmt.Errorf("sparse: vector length %d, want %d", len(x), blockRows*bs)
	}
	out := make([]float32, len(x))
	for q := 0; q < blockRows; q++ {
		for r := 0; r < bs; r++ {
			out[q*bs+r] = x[r*blockRows+q]
		}
	}
	return out, nil
}

// GenBanded builds a strictly banded blocked matrix: block-row q
// touches block-columns q-h..q+h (wrapped), the friendliest possible
// structure for the paper's vector interleaving — consecutive
// threads read almost the same vector neighbourhood.
func GenBanded(blockRows, blocksPerRow int, rng *rand.Rand) (*Blocked, error) {
	if blockRows <= 0 || blocksPerRow <= 0 || blocksPerRow > blockRows {
		return nil, fmt.Errorf("sparse: bad banded dimensions %d×%d", blockRows, blocksPerRow)
	}
	m := &Blocked{BlockRows: blockRows, BlockSize: 3, BlocksPerRow: blocksPerRow}
	m.Cols = make([][]int32, blockRows)
	m.Vals = make([][][]float32, blockRows)
	h := blocksPerRow / 2
	for q := 0; q < blockRows; q++ {
		cols := make([]int32, 0, blocksPerRow)
		for off := -h; len(cols) < blocksPerRow; off++ {
			c := (q + off + blockRows) % blockRows
			cols = append(cols, int32(c))
		}
		sortInt32(cols)
		m.Cols[q] = dedupeShift(cols, blockRows)
		m.Vals[q] = randomBlocks(blocksPerRow, rng)
	}
	return m, m.Validate()
}

// GenRandomUniform builds a uniform-degree matrix with *random*
// block columns — ELL-friendly row degrees but no banded locality,
// the adversarial case for vector interleaving: the paper's intuition
// ("the more apart two rows are, the less chance they share a
// transaction") predicts IMIV loses most of its advantage here.
func GenRandomUniform(blockRows, blocksPerRow int, rng *rand.Rand) (*Blocked, error) {
	if blockRows <= 0 || blocksPerRow <= 0 || blocksPerRow > blockRows {
		return nil, fmt.Errorf("sparse: bad random dimensions %d×%d", blockRows, blocksPerRow)
	}
	m := &Blocked{BlockRows: blockRows, BlockSize: 3, BlocksPerRow: blocksPerRow}
	m.Cols = make([][]int32, blockRows)
	m.Vals = make([][][]float32, blockRows)
	for q := 0; q < blockRows; q++ {
		seen := map[int32]bool{}
		cols := make([]int32, 0, blocksPerRow)
		for len(cols) < blocksPerRow {
			c := int32(rng.Intn(blockRows))
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
		sortInt32(cols)
		m.Cols[q] = cols
		m.Vals[q] = randomBlocks(blocksPerRow, rng)
	}
	return m, m.Validate()
}

func randomBlocks(n int, rng *rand.Rand) [][]float32 {
	out := make([][]float32, n)
	for j := range out {
		blk := make([]float32, 9)
		for e := range blk {
			blk[e] = 2*rng.Float32() - 1
		}
		out[j] = blk
	}
	return out
}

// dedupeShift resolves duplicate wrapped columns by shifting them to
// free slots (banded generators only wrap for tiny matrices).
func dedupeShift(cols []int32, blockRows int) []int32 {
	seen := map[int32]bool{}
	out := make([]int32, 0, len(cols))
	for _, c := range cols {
		for seen[c] {
			c = (c + 1) % int32(blockRows)
		}
		seen[c] = true
		out = append(out, c)
	}
	sortInt32(out)
	return out
}
