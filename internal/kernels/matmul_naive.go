package kernels

import (
	"fmt"
	"math/bits"

	"gpuperf/internal/barra"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// MatmulNaive is the pre-optimization dense matrix multiply — the
// starting point of the paper's §4-style optimization walk. Each
// thread computes one element of C = A·B (column-major) straight from
// global memory: consecutive threads cover consecutive *columns*, so
// every B load and C store strides by N words and coalesces into one
// transaction per lane, while the shared A element broadcasts. The
// kernel is global-memory bound with a transaction-per-request ratio
// near the half-warp width; the advisor's PerfectCoalescing scenario
// quantifies exactly the headroom the tiled variants then realize.
type MatmulNaive struct {
	matmulData
}

// NewMatmulNaive builds the naive kernel for an N×N multiply. N must
// be a power of two and a multiple of 64 (one 64-thread block covers
// 64 consecutive columns of one row).
func NewMatmulNaive(n int) (*MatmulNaive, error) {
	if n <= 0 || n%64 != 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("kernels: matrix size %d must be a power of two divisible by 64", n)
	}
	m := &MatmulNaive{newMatmulData(n)}
	prog, err := m.build()
	if err != nil {
		return nil, err
	}
	m.prog = prog
	return m, nil
}

func (m *MatmulNaive) build() (*isa.Program, error) {
	n := uint32(m.N)
	logN := uint32(bits.TrailingZeros32(n))
	b := kbuild.New("matmul-naive")

	tid := b.Reg()
	cta := b.Reg()
	flat := b.Reg()
	col := b.Reg()
	row := b.Reg()
	addrA := b.Reg()
	addrB := b.Reg()
	addrC := b.Reg()
	tmp := b.Reg()
	av := b.Reg()
	bv := b.Reg()
	acc := b.Reg()
	kt := b.Reg()

	b.S2R(tid, isa.SRTid)
	b.S2R(cta, isa.SRCtaid)
	// flat = cta·64 + tid; col = flat mod N, row = flat div N —
	// consecutive threads walk columns, the uncoalesced orientation.
	b.ShlImm(flat, cta, 6)
	b.IAdd(flat, flat, tid)
	b.AndImm(col, flat, n-1)
	b.ShrImm(row, flat, logN)

	// addrA = aBase + row·4 (advanced by N·4 per k: the broadcast A
	// element A[row, k]).
	b.ShlImm(addrA, row, 2)
	b.IAddImm(addrA, addrA, m.aBase)
	// addrB = bBase + col·N·4 (advanced by 4 per k: B[k, col], an
	// N-word lane stride).
	b.IMulImm(addrB, col, n*4)
	b.IAddImm(addrB, addrB, m.bBase)
	// addrC = cBase + (row + col·N)·4.
	b.IMadImm(tmp, col, n, row)
	b.ShlImm(addrC, tmp, 2)
	b.IAddImm(addrC, addrC, m.cBase)

	b.MovImm(acc, 0)
	b.Loop(kt, n, func() {
		b.Gld(av, addrA)
		b.Gld(bv, addrB)
		b.FMad(acc, av, bv, acc)
		b.IAddImm(addrA, addrA, n*4)
		b.IAddImm(addrB, addrB, 4)
	})
	b.Gst(addrC, acc)
	b.Exit()
	return b.Program()
}

// Launch returns the kernel's geometry: one thread per C element in
// 64-thread blocks.
func (m *MatmulNaive) Launch() barra.Launch {
	return barra.Launch{Prog: m.prog, Grid: m.N * m.N / 64, Block: 64}
}
