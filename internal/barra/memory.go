package barra

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Memory is the device's byte-addressed global memory. All accesses
// are 32-bit and must be 4-byte aligned, matching the single-word
// loads and stores of the ISA.
//
// # Disjoint-writes contract
//
// The parallel execution engine runs blocks concurrently against one
// Memory with no locking, which is sound under the same contract the
// CUDA programming model imposes on a kernel's blocks: within one
// run, a word written by a block may not be written or read by any
// other block. (Blocks cannot synchronize with each other, so a
// kernel that violates this is racy on real hardware too.) Reads of
// words no block writes — input arrays — may be shared freely, and
// the host-side accessors below may touch anything between runs.
// Options.VerifyBlockIsolation arms a per-word last-writer tracker
// that turns a contract violation into a run error instead of a
// silent data race.
type Memory struct {
	// words backs the byte-addressed memory as aligned little-endian
	// 32-bit words: every ISA access is one word, so word storage makes
	// the device-side load/store a single indexed move instead of a
	// byte-slice decode. size preserves the byte size NewMemory was
	// given (the last, partial word of an unaligned size is
	// unaddressable, exactly as before).
	words []uint32
	size  int
	// writers/readers hold the per-word last-writer and last-reader
	// block IDs (-1 = untouched this run) while VerifyBlockIsolation
	// tracking is armed; nil otherwise. Entries are updated with
	// atomics so the detector itself is race-free under concurrent
	// workers. The reader side keeps only the most recent block, so
	// the detector is exact for write-after-write and
	// read-after-foreign-write, and catches write-after-foreign-read
	// against the latest reader (a lossy but alarm-only
	// approximation: any flagged access is a real violation).
	writers []int32
	readers []int32
}

// NewMemory allocates size bytes of zeroed global memory.
func NewMemory(size int) *Memory { return &Memory{words: make([]uint32, size/4), size: size} }

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// Clone returns a copy of the memory's contents, so one built image
// can feed two runs that each consume their own.
func (m *Memory) Clone() *Memory {
	return &Memory{words: append([]uint32(nil), m.words...), size: m.size}
}

func (m *Memory) check(addr uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("barra: unaligned access at %#x", addr)
	}
	if int(addr/4) >= len(m.words) {
		return fmt.Errorf("barra: access at %#x beyond memory size %#x", addr, m.size)
	}
	return nil
}

// Load32 reads the 32-bit word at byte address addr (host access:
// never checked against the disjoint-writes tracker).
func (m *Memory) Load32(addr uint32) (uint32, error) {
	if err := m.check(addr); err != nil {
		return 0, err
	}
	return m.words[addr/4], nil
}

// Store32 writes the 32-bit word at byte address addr (host access:
// never checked against the disjoint-writes tracker).
func (m *Memory) Store32(addr, v uint32) error {
	if err := m.check(addr); err != nil {
		return err
	}
	m.words[addr/4] = v
	return nil
}

// startTracking arms the disjoint-writes detector for one run.
func (m *Memory) startTracking() {
	m.writers = make([]int32, len(m.words))
	m.readers = make([]int32, len(m.words))
	for i := range m.writers {
		m.writers[i] = -1
		m.readers[i] = -1
	}
}

// stopTracking disarms the detector.
func (m *Memory) stopTracking() { m.writers, m.readers = nil, nil }

// load32 is the device-side load: block is the reading block, checked
// against the tracker when armed.
func (m *Memory) load32(addr uint32, block int) (uint32, error) {
	i := addr >> 2
	if addr&3 != 0 || int(i) >= len(m.words) {
		return 0, m.check(addr)
	}
	if m.writers != nil {
		if w := atomic.LoadInt32(&m.writers[i]); w >= 0 && int(w) != block {
			return 0, fmt.Errorf("barra: block %d reads word %#x written by block %d in the same run — cross-block sharing violates the disjoint-writes contract",
				block, addr, w)
		}
		atomic.StoreInt32(&m.readers[i], int32(block))
	}
	return m.words[i], nil
}

// store32 is the device-side store: block is the writing block,
// recorded and checked against the tracker when armed.
func (m *Memory) store32(addr, v uint32, block int) error {
	i := addr >> 2
	if addr&3 != 0 || int(i) >= len(m.words) {
		return m.check(addr)
	}
	if m.writers != nil {
		if prev := atomic.SwapInt32(&m.writers[i], int32(block)); prev >= 0 && prev != int32(block) {
			return fmt.Errorf("barra: blocks %d and %d both write word %#x — cross-block writes violate the disjoint-writes contract",
				prev, block, addr)
		}
		if r := atomic.LoadInt32(&m.readers[i]); r >= 0 && r != int32(block) {
			return fmt.Errorf("barra: block %d writes word %#x that block %d read in the same run — cross-block sharing violates the disjoint-writes contract",
				block, addr, r)
		}
	}
	m.words[i] = v
	return nil
}

// Float32 loads a float from byte address addr.
func (m *Memory) Float32(addr uint32) (float32, error) {
	v, err := m.Load32(addr)
	return math.Float32frombits(v), err
}

// checkRange validates one bulk access of n 32-bit words at base, so
// the per-word loops below run check-free. Multi-MB experiment inputs
// are staged through these paths; one range check for the whole
// transfer keeps setup off the profile.
func (m *Memory) checkRange(base uint32, n int) error {
	if n < 0 {
		return fmt.Errorf("barra: negative bulk length %d", n)
	}
	if base%4 != 0 {
		return fmt.Errorf("barra: unaligned access at %#x", base)
	}
	if end := int64(base) + 4*int64(n); end > 4*int64(len(m.words)) {
		return fmt.Errorf("barra: bulk access [%#x,%#x) beyond memory size %#x", base, end, m.size)
	}
	return nil
}

// WriteFloats bulk-stores a float slice starting at base.
func (m *Memory) WriteFloats(base uint32, fs []float32) error {
	if err := m.checkRange(base, len(fs)); err != nil {
		return err
	}
	dst := m.words[base/4:]
	for i, f := range fs {
		dst[i] = math.Float32bits(f)
	}
	return nil
}

// ReadFloats bulk-loads n floats starting at base.
func (m *Memory) ReadFloats(base uint32, n int) ([]float32, error) {
	if err := m.checkRange(base, n); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	src := m.words[base/4:]
	for i := range out {
		out[i] = math.Float32frombits(src[i])
	}
	return out, nil
}

// WriteWords bulk-stores a word slice starting at base.
func (m *Memory) WriteWords(base uint32, ws []uint32) error {
	if err := m.checkRange(base, len(ws)); err != nil {
		return err
	}
	copy(m.words[base/4:], ws)
	return nil
}

// ReadWords bulk-loads n words starting at base.
func (m *Memory) ReadWords(base uint32, n int) ([]uint32, error) {
	if err := m.checkRange(base, n); err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	copy(out, m.words[base/4:])
	return out, nil
}
