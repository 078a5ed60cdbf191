package bank

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpuperf/internal/gpu"
)

func mustSim(t *testing.T, banks, word int) *Sim {
	t.Helper()
	s, err := New(banks, word)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewErrors(t *testing.T) {
	for _, c := range []struct{ banks, word int }{{0, 4}, {-1, 4}, {16, 0}, {16, 3}, {16, -4}} {
		if _, err := New(c.banks, c.word); err == nil {
			t.Errorf("New(%d,%d) accepted", c.banks, c.word)
		}
	}
	if _, err := ForGPU(gpu.GTX285()); err != nil {
		t.Errorf("ForGPU failed: %v", err)
	}
}

func TestConflictFreeUnitStride(t *testing.T) {
	s := mustSim(t, 16, 4)
	addrs := make([]uint32, 16)
	for i := range addrs {
		addrs[i] = uint32(i * 4)
	}
	if got := s.Transactions(addrs); got != 1 {
		t.Errorf("unit stride: %d transactions, want 1", got)
	}
}

func TestBroadcastIsFree(t *testing.T) {
	s := mustSim(t, 16, 4)
	addrs := make([]uint32, 16)
	for i := range addrs {
		addrs[i] = 64 // everyone reads the same word
	}
	if got := s.Transactions(addrs); got != 1 {
		t.Errorf("broadcast: %d transactions, want 1", got)
	}
}

// TestPaperExample checks §4.2's example: 3 threads reading
// different locations in the same bank cost 3 transactions instead
// of 1.
func TestPaperExample(t *testing.T) {
	s := mustSim(t, 16, 4)
	sameBank := []uint32{0, 16 * 4, 32 * 4} // words 0,16,32 → all bank 0
	if got := s.Transactions(sameBank); got != 3 {
		t.Errorf("same-bank triple: %d, want 3", got)
	}
	diffBanks := []uint32{0, 4, 8}
	if got := s.Transactions(diffBanks); got != 1 {
		t.Errorf("different banks: %d, want 1", got)
	}
}

// TestCyclicReductionStrides reproduces Fig. 5's doubling pattern:
// stride 2 → 2-way, stride 4 → 4-way, stride 8 → 8-way conflicts on
// a 16-bank memory.
func TestCyclicReductionStrides(t *testing.T) {
	s := mustSim(t, 16, 4)
	for _, c := range []struct{ lanes, stride, want int }{
		{16, 1, 1},
		{4, 2, 1},  // 4 threads stride 2: words 0,2,4,6 — distinct banks
		{16, 2, 2}, // full half-warp stride 2: 2-way
		{16, 4, 4},
		{16, 8, 8},
		{16, 16, 16},
		{8, 4, 2},
		{2, 8, 1}, // 2 threads stride 8: words 0,8 → banks 0,8 — conflict-free
	} {
		if got := s.StrideConflict(c.lanes, c.stride); got != c.want {
			t.Errorf("StrideConflict(%d lanes, stride %d) = %d, want %d",
				c.lanes, c.stride, got, c.want)
		}
	}
}

// TestPrimeBanksKillStrideConflicts verifies the paper's §5.2
// architectural suggestion: with 17 banks, every power-of-two stride
// is conflict-free.
func TestPrimeBanksKillStrideConflicts(t *testing.T) {
	s := mustSim(t, 17, 4)
	for stride := 1; stride <= 256; stride *= 2 {
		if got := s.StrideConflict(16, stride); got != 1 {
			t.Errorf("17 banks, stride %d: %d-way conflict", stride, got)
		}
	}
}

// TestPaddingRemovesConflicts verifies the paper's padding fix: after
// PadAddress remapping, the cyclic-reduction strides up to the bank
// count are conflict-free on 16 banks. (Strides beyond the bank
// count cannot be fully fixed by one pad word per 16 — the remap
// still collapses a 16-way conflict to 2-way — but in cyclic
// reduction those strides only occur once ≤16 lanes remain active,
// where the full half-warp conflict never materializes; see the CR
// kernel tests.)
func TestPaddingRemovesConflicts(t *testing.T) {
	s := mustSim(t, 16, 4)
	padded := func(stride, lanes int) int {
		addrs := make([]uint32, lanes)
		for i := range addrs {
			addrs[i] = uint32(PadAddress(i*stride, 16) * 4)
		}
		return s.Transactions(addrs)
	}
	for stride := 2; stride <= 16; stride *= 2 {
		if got := padded(stride, 16); got != 1 {
			t.Errorf("padded stride %d: %d-way conflict", stride, got)
		}
	}
	// Beyond the bank count, use the lane count cyclic reduction
	// actually has at that stride (512 equations → 512/stride active
	// threads): padding collapses the full conflict to at most 2-way.
	for stride := 32; stride <= 256; stride *= 2 {
		lanes := 512 / stride
		if lanes > 16 {
			lanes = 16
		}
		raw := s.StrideConflict(lanes, stride)
		got := padded(stride, lanes)
		if raw != lanes {
			t.Fatalf("unpadded stride %d × %d lanes: %d-way, want full %d", stride, lanes, raw, lanes)
		}
		if got > 2 {
			t.Errorf("padded stride %d × %d lanes: %d-way conflict, want ≤2", stride, lanes, got)
		}
	}
}

func TestPadAddressMonotoneInjective(t *testing.T) {
	seen := map[int]bool{}
	prev := -1
	for i := 0; i < 4096; i++ {
		p := PadAddress(i, 16)
		if p <= prev {
			t.Fatalf("PadAddress not strictly increasing at %d", i)
		}
		if seen[p] {
			t.Fatalf("PadAddress collision at %d", i)
		}
		seen[p] = true
		prev = p
	}
	// One pad word per 16: the last logical word 511 lands at
	// physical 511+511/16 = 542, so 543 words are needed.
	if got := PaddedSize(512, 16); got != 543 {
		t.Errorf("PaddedSize(512,16) = %d, want 543", got)
	}
	if PaddedSize(0, 16) != 0 {
		t.Error("PaddedSize(0) != 0")
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	s := mustSim(t, 16, 4)
	if s.Transactions(nil) != 0 {
		t.Error("empty access should cost 0")
	}
	if s.Transactions([]uint32{12}) != 1 {
		t.Error("single lane should cost 1")
	}
	if s.StrideConflict(0, 4) != 0 || s.StrideConflict(4, 0) != 0 {
		t.Error("degenerate strides should be 0")
	}
}

// Property: the conflict degree is between 1 and min(lanes, distinct
// words), and never exceeds the number of active lanes.
func TestConflictBoundsProperty(t *testing.T) {
	s := mustSim(t, 16, 4)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		addrs := make([]uint32, len(raw))
		words := map[uint32]bool{}
		for i, r := range raw {
			addrs[i] = uint32(r) &^ 3
			words[addrs[i]/4] = true
		}
		got := s.Transactions(addrs)
		return got >= 1 && got <= len(addrs) && got <= len(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refTransactions is the half-warp count without the fast path: dedup
// the words, then take the densest bank by a quadratic scan.
func refTransactions(banks, wordBytes int, addrs []uint32) int {
	var words [16]uint32
	n := 0
outer:
	for _, a := range addrs {
		w := a / uint32(wordBytes)
		for i := 0; i < n; i++ {
			if words[i] == w {
				continue outer
			}
		}
		words[n] = w
		n++
	}
	var bankOf [16]uint32
	for i := 0; i < n; i++ {
		bankOf[i] = words[i] % uint32(banks)
	}
	maxWords := 0
	for i := 0; i < n; i++ {
		c := 1
		for j := 0; j < i; j++ {
			if bankOf[j] == bankOf[i] {
				c = 0 // bank already counted at its first word
				break
			}
		}
		if c == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if bankOf[j] == bankOf[i] {
				c++
			}
		}
		if c > maxWords {
			maxWords = c
		}
	}
	return maxWords
}

// TestTransactionsMatchesReference compares Transactions with the
// reference on random half-warps of 1–16 lanes, for bank counts on
// both sides of the 64-bit fast-path mask, prime and power-of-two, and
// for several word sizes. Addresses are uniform, from a small range
// (broadcasts and conflicts), strided, or clustered around a few
// bases, so every branch of the fast path is taken.
func TestTransactionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := []struct {
		name string
		addr func(lane int, p [2]uint32) uint32
	}{
		{"random", func(int, [2]uint32) uint32 { return rng.Uint32() }},
		{"small-range", func(_ int, p [2]uint32) uint32 { return p[0] + uint32(rng.Intn(64)) }},
		{"strided", func(lane int, p [2]uint32) uint32 { return p[0] + uint32(lane)*p[1] }},
		{"clustered", func(_ int, p [2]uint32) uint32 {
			return p[0] + uint32(rng.Intn(4))*p[1]*64 + uint32(rng.Intn(8))
		}},
	}
	for _, banks := range []int{1, 2, 3, 16, 17, 32, 64, 65} {
		for _, wordBytes := range []int{1, 4, 8} {
			s := mustSim(t, banks, wordBytes)
			for _, g := range gens {
				for i := 0; i < 2000; i++ {
					p := [2]uint32{rng.Uint32() >> 1, uint32(rng.Intn(130))}
					addrs := make([]uint32, 1+rng.Intn(16))
					for lane := range addrs {
						addrs[lane] = g.addr(lane, p)
					}
					if got, want := s.Transactions(addrs), refTransactions(banks, wordBytes, addrs); got != want {
						t.Fatalf("%d banks, %d-byte words, %s: Transactions(%v) = %d, reference %d",
							banks, wordBytes, g.name, addrs, got, want)
					}
				}
			}
		}
	}
}
