package coalesce

import (
	"testing"
	"testing/quick"

	"gpuperf/internal/gpu"
)

func sim(t *testing.T) *Sim {
	t.Helper()
	s, err := ForGPU(gpu.GTX285())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seq(base uint32, n int, strideBytes uint32) []uint32 {
	a := make([]uint32, n)
	for i := range a {
		a[i] = base + uint32(i)*strideBytes
	}
	return a
}

func TestNewErrors(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{{0, 128}, {33, 128}, {32, 24}, {32, 96}, {-32, 128}} {
		if _, err := New(c.lo, c.hi); err == nil {
			t.Errorf("New(%d,%d) accepted", c.lo, c.hi)
		}
	}
}

// TestPerfectlyCoalesced: 16 consecutive floats = one 64-byte
// transaction.
func TestPerfectlyCoalesced(t *testing.T) {
	s := sim(t)
	txs := s.HalfWarp(seq(0, 16, 4), 4)
	if len(txs) != 1 || txs[0] != (Transaction{Addr: 0, Size: 64}) {
		t.Errorf("got %v, want one 64B tx at 0", txs)
	}
	// Same but offset within a 128B segment and spanning two halves:
	// stays one 128B transaction (cannot shrink).
	txs = s.HalfWarp(seq(32, 16, 4), 4)
	if len(txs) != 1 || txs[0].Size != 128 || txs[0].Addr != 0 {
		t.Errorf("offset access: %v", txs)
	}
}

// TestSegmentShrinking: accesses confined to a 32-byte window shrink
// the 128-byte segment down to 32 bytes (protocol step 3).
func TestSegmentShrinking(t *testing.T) {
	s := sim(t)
	txs := s.HalfWarp(seq(64, 8, 4), 4)
	if len(txs) != 1 || txs[0] != (Transaction{Addr: 64, Size: 32}) {
		t.Errorf("got %v, want one 32B tx at 64", txs)
	}
	// A single 4-byte access costs the 32-byte minimum on hardware...
	txs = s.HalfWarp([]uint32{100}, 4)
	if len(txs) != 1 || txs[0].Size != 32 {
		t.Errorf("single access: %v", txs)
	}
	// ...but 16 bytes under the §5.3 fine-granularity variant.
	fine, err := ForGPU(gpu.GTX285(gpu.WithMinSegment(16)))
	if err != nil {
		t.Fatal(err)
	}
	txs = fine.HalfWarp([]uint32{100}, 4)
	if len(txs) != 1 || txs[0].Size != 16 {
		t.Errorf("fine-grained single access: %v", txs)
	}
}

// TestFullyScattered: 16 threads touching 16 different 128-byte
// segments produce 16 minimum-size transactions — the uncoalesced
// worst case that dominates SpMV vector loads.
func TestFullyScattered(t *testing.T) {
	s := sim(t)
	txs := s.HalfWarp(seq(0, 16, 128), 4)
	if len(txs) != 16 {
		t.Fatalf("got %d transactions, want 16", len(txs))
	}
	for _, tx := range txs {
		if tx.Size != 32 {
			t.Errorf("scattered tx size %d, want 32", tx.Size)
		}
	}
}

// TestTwoGroups: threads split across two segments (protocol step 4
// repeats): lowest-thread segment first, then the rest.
func TestTwoGroups(t *testing.T) {
	s := sim(t)
	addrs := append(seq(0, 8, 4), seq(4096, 8, 4)...)
	txs := s.HalfWarp(addrs, 4)
	if len(txs) != 2 {
		t.Fatalf("got %v", txs)
	}
	if txs[0] != (Transaction{Addr: 0, Size: 32}) || txs[1] != (Transaction{Addr: 4096, Size: 32}) {
		t.Errorf("got %v", txs)
	}
}

// TestPaperFigure10Example reproduces the paper's Fig. 10 toy
// protocol: 2-thread issue granularity with 8-byte transactions.
// Straightforward vector storage: thread 1 reads entry 1, thread 2
// reads entry 7 — too far apart to share, two transactions.
// Interleaved storage brings neighbors together: entries 5 and 6
// share one 8-byte transaction.
func TestPaperFigure10Example(t *testing.T) {
	toy, err := New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	far := toy.HalfWarp([]uint32{0 * 4, 6 * 4}, 4) // entries 1 and 7 (0-based 0,6)
	if len(far) != 2 {
		t.Errorf("far apart: %v", far)
	}
	near := toy.HalfWarp([]uint32{4 * 4, 5 * 4}, 4) // entries 5 and 6 (0-based 4,5)
	if len(near) != 1 || near[0].Size != 8 {
		t.Errorf("adjacent: %v", near)
	}
}

// Property tests of the protocol.
func TestProtocolProperties(t *testing.T) {
	s := sim(t)
	f := func(raw []uint32) bool {
		if len(raw) > 16 {
			raw = raw[:16]
		}
		addrs := make([]uint32, len(raw))
		for i, r := range raw {
			addrs[i] = (r % (1 << 20)) &^ 3
		}
		txs := s.HalfWarp(addrs, 4)
		if len(addrs) == 0 {
			return txs == nil
		}
		// Never more transactions than threads.
		if len(txs) > len(addrs) || len(txs) == 0 {
			return false
		}
		for _, tx := range txs {
			// Sizes within bounds, power of two, aligned.
			if tx.Size < 32 || tx.Size > 128 || tx.Size&(tx.Size-1) != 0 {
				return false
			}
			if tx.Addr%uint32(tx.Size) != 0 {
				return false
			}
		}
		// Every requested word is covered by some transaction.
		for _, a := range addrs {
			covered := false
			for _, tx := range txs {
				if a >= tx.Addr && a+4 <= tx.Addr+uint32(tx.Size) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// The transaction count must be monotone under scattering: spreading
// the same thread count across a wider stride can never reduce the
// transaction count.
func TestMonotoneInStride(t *testing.T) {
	s := sim(t)
	prev := 0
	for _, stride := range []uint32{4, 8, 16, 32, 64, 128, 256} {
		n := len(s.HalfWarp(seq(0, 16, stride), 4))
		if n < prev {
			t.Errorf("stride %d: %d txs < previous %d", stride, n, prev)
		}
		prev = n
	}
}
