// Package kernels builds the paper's three case-study kernels as
// native-ISA programs: Volkov-style dense matrix multiply (§5.1),
// the cyclic-reduction tridiagonal solver with and without the
// bank-conflict-removing padding (§5.2), and sparse matrix–vector
// multiply in ELL / BELL+IM / BELL+IMIV formats (§5.3).
//
// Each kernel type pairs a program generator with helpers that lay
// out its data in simulator memory and read results back, so tests
// can verify numerical correctness against CPU references while the
// model analyzes the very same launches.
package kernels

import (
	"context"
	"fmt"
	"math/bits"

	"gpuperf/internal/barra"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// Matmul is the Volkov-style dense matrix multiply of paper §5.1:
// C = A·B for N×N column-major matrices. Each 64-thread block
// computes a 64×Tile strip of C; the Tile×Tile sub-matrix of B is
// staged in shared memory and consumed directly as MAD shared-memory
// operands, so the inner loop is almost pure Type II MADs — the
// paper's ~80% computational density.
type Matmul struct {
	matmulData
	// Tile is the sub-matrix edge (8, 16 or 32 in the paper).
	Tile int
}

// matmulData is the data half every matmul variant shares: N×N
// column-major A, B and C laid out back to back in simulator memory,
// and the variant's built program. The same inputs therefore run on
// every variant.
type matmulData struct {
	// N is the matrix dimension.
	N int

	prog                *isa.Program
	aBase, bBase, cBase uint32
}

func newMatmulData(n int) matmulData {
	return matmulData{N: n, bBase: uint32(n * n * 4), cBase: uint32(2 * n * n * 4)}
}

// Paper Table 2 resource footprints per tile size: register count
// per thread and shared memory per block (bytes).
var matmulResources = map[int]struct{ regs, smem int }{
	8:  {16, 348},
	16: {30, 1088},
	32: {58, 4284},
}

// NewMatmul builds the kernel for an N×N multiply with the given
// tile size. N must be a multiple of 64 and of the tile, and both
// must be powers of two.
func NewMatmul(n, tile int) (*Matmul, error) {
	res, ok := matmulResources[tile]
	if !ok {
		return nil, fmt.Errorf("kernels: unsupported tile %d (want 8, 16 or 32)", tile)
	}
	if n <= 0 || n%64 != 0 || n%tile != 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("kernels: matrix size %d must be a power of two divisible by 64 and %d", n, tile)
	}
	m := &Matmul{matmulData: newMatmulData(n), Tile: tile}
	prog, err := m.build(res.regs, res.smem)
	if err != nil {
		return nil, err
	}
	m.prog = prog
	return m, nil
}

func (m *Matmul) build(reserveRegs, smemBytes int) (*isa.Program, error) {
	n, t := uint32(m.N), uint32(m.Tile)
	b := kbuild.New(fmt.Sprintf("matmul%dx%d", m.Tile, m.Tile))
	b.SharedBytes(smemBytes)

	tid := b.Reg()
	bid := b.Reg()
	row := b.Reg()
	addrA := b.Reg()
	addrB := b.Reg()
	saddr := b.Reg()
	addrC := b.Reg()
	val := b.Reg()
	av := b.Reg()
	av2 := b.Reg()
	kt := b.Reg()
	tmp := b.Reg()
	by := b.Reg()
	bx := b.Reg()
	k0 := b.Reg()
	c0 := b.Reg()
	acc := b.Regs(m.Tile)
	b.ReserveRegs(reserveRegs)

	logRowBlocks := uint32(bits.TrailingZeros32(n / 64))
	logTile := uint32(bits.TrailingZeros32(t))
	elemsPerThread := t * t / 64 // B-tile elements each thread stages
	colStep := 64 / t            // tile columns advanced per stage step

	b.S2R(tid, isa.SRTid)
	b.S2R(bid, isa.SRCtaid)
	// by = bid & (N/64-1): row strip; bx = bid >> log2(N/64): column tile.
	b.AndImm(by, bid, n/64-1)
	b.ShrImm(bx, bid, logRowBlocks)
	// row = by*64 + tid.
	b.ShlImm(row, by, 6)
	b.IAdd(row, row, tid)

	// addrA = aBase + row*4 (column-major: column k at offset k·N·4).
	b.ShlImm(addrA, row, 2)
	b.IAddImm(addrA, addrA, m.aBase)

	// addrB = bBase + (bx·t)·N·4 + k0·4 + c0·N·4 where k0 = tid & (t-1)
	// and c0 = tid >> log2(t) are this thread's coordinates in the
	// staged tile.
	b.AndImm(k0, tid, t-1)
	b.ShrImm(c0, tid, logTile)
	b.ShlImm(addrB, bx, logTile) // bx*t
	b.IMulImm(addrB, addrB, n*4) // *N*4
	b.IMadImm(tmp, c0, n*4, addrB)
	b.ShlImm(addrB, k0, 2)
	b.IAdd(addrB, addrB, tmp)
	b.IAddImm(addrB, addrB, m.bBase)

	// saddr = (k0 + c0·t)·4: where this thread stores staged values.
	b.IMadImm(saddr, c0, t, k0)
	b.ShlImm(saddr, saddr, 2)

	// addrC = cBase + row·4 + (bx·t)·N·4.
	b.ShlImm(addrC, bx, logTile)
	b.IMulImm(addrC, addrC, n*4)
	b.ShlImm(tmp, row, 2)
	b.IAdd(addrC, addrC, tmp)
	b.IAddImm(addrC, addrC, m.cBase)

	for c := 0; c < m.Tile; c++ {
		b.MovImm(acc+isa.Reg(c), 0)
	}

	// Main loop over N/t tiles of the k dimension.
	b.Loop(kt, n/t, func() {
		// Stage the B tile: element j covers tile coordinates
		// (k0, c0 + j·colStep).
		for j := uint32(0); j < elemsPerThread; j++ {
			b.GldOff(val, addrB, j*colStep*n*4)
			b.SstOff(saddr, val, j*colStep*t*4)
		}
		b.Bar()
		// Consume: for each k, one A load feeds t MADs with B values
		// as shared-memory operands. The A value for k+1 is
		// prefetched into the alternate register before k's MAD
		// group, so its DRAM round trip hides under the MADs
		// (Volkov's kernel does the same).
		bufs := [2]isa.Reg{av, av2}
		b.GldOff(bufs[0], addrA, 0)
		for k := uint32(0); k < t; k++ {
			if k+1 < t {
				b.GldOff(bufs[(k+1)%2], addrA, (k+1)*n*4)
			}
			cur := bufs[k%2]
			for c := uint32(0); c < t; c++ {
				b.FMadS(acc+isa.Reg(c), cur, (k+c*t)*4, acc+isa.Reg(c))
			}
		}
		b.Bar() // protect the tile before the next stage overwrites it
		b.IAddImm(addrA, addrA, t*n*4)
		b.IAddImm(addrB, addrB, t*4)
	})

	for c := uint32(0); c < t; c++ {
		b.GstOff(addrC, acc+isa.Reg(c), c*n*4)
	}
	b.Exit()
	return b.Program()
}

// Launch returns the kernel's launch geometry: 64-thread blocks,
// one per 64×Tile strip of C.
func (m *Matmul) Launch() barra.Launch {
	return barra.Launch{
		Prog:  m.prog,
		Grid:  m.N / 64 * (m.N / m.Tile),
		Block: 64,
	}
}

// Program returns the built kernel.
func (m *matmulData) Program() *isa.Program { return m.prog }

// FLOPs returns 2·N³ (one multiply and one add per MAD).
func (m *matmulData) FLOPs() int64 { return 2 * int64(m.N) * int64(m.N) * int64(m.N) }

// MemoryBytes returns the global-memory footprint of the launch.
func (m *matmulData) MemoryBytes() int { return 3 * m.N * m.N * 4 }

// NewMemory lays out column-major A and B (each N² floats) in fresh
// simulator memory.
func (m *matmulData) NewMemory(a, bm []float32) (*barra.Memory, error) {
	if len(a) != m.N*m.N || len(bm) != m.N*m.N {
		return nil, fmt.Errorf("kernels: matrices must be %d elements", m.N*m.N)
	}
	mem := barra.NewMemory(m.MemoryBytes())
	if err := mem.WriteFloats(m.aBase, a); err != nil {
		return nil, err
	}
	if err := mem.WriteFloats(m.bBase, bm); err != nil {
		return nil, err
	}
	return mem, nil
}

// ReadC extracts the column-major result matrix.
func (m *matmulData) ReadC(mem *barra.Memory) ([]float32, error) {
	return mem.ReadFloats(m.cBase, m.N*m.N)
}

// MulRef computes the column-major product C = A·B on the CPU, for
// verification: float64 accumulation in ascending k per element. It
// works a column of C at a time and checks ctx before each, so an
// abandoned request stops within one column (~n² multiply-adds)
// instead of finishing the whole O(n³) product.
func MulRef(ctx context.Context, n int, a, b []float32) ([]float32, error) {
	c := make([]float32, n*n)
	acc := make([]float64, n)
	for col := 0; col < n; col++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		clear(acc)
		for k := 0; k < n; k++ {
			bv := float64(b[col*n+k])
			arow := a[k*n : (k+1)*n]
			for i, av := range arow {
				acc[i] += float64(av) * bv
			}
		}
		for i, v := range acc {
			c[col*n+i] = float32(v)
		}
	}
	return c, nil
}
