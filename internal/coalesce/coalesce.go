// Package coalesce simulates global-memory transaction formation.
//
// It implements the CUDA compute-capability 1.2/1.3 coalescing
// protocol the paper describes in §4.3: memory transactions are
// issued per half-warp; the hardware (1) finds the memory segment
// containing the address requested by the lowest-numbered active
// thread, (2) folds in all other threads whose addresses fall in
// that segment, (3) shrinks the segment while it still covers every
// folded-in address, and (4) repeats until all threads are served.
// The minimum segment is 32 bytes on real hardware; the paper's §5.3
// evaluates a hypothetical 16-byte granularity, which this simulator
// supports through gpu.WithMinSegment.
package coalesce

import (
	"fmt"

	"gpuperf/internal/gpu"
)

// Transaction is one hardware memory transaction.
type Transaction struct {
	// Addr is the segment-aligned base address.
	Addr uint32
	// Size is the segment size in bytes (power of two).
	Size int
}

// Sim forms transactions under a device's segment-size rules.
type Sim struct {
	minSeg int
	maxSeg int
}

// New builds a simulator with the given segment bounds (powers of
// two, min ≤ max).
func New(minSeg, maxSeg int) (*Sim, error) {
	switch {
	case minSeg <= 0 || minSeg&(minSeg-1) != 0:
		return nil, fmt.Errorf("coalesce: bad min segment %d", minSeg)
	case maxSeg < minSeg || maxSeg&(maxSeg-1) != 0:
		return nil, fmt.Errorf("coalesce: bad max segment %d", maxSeg)
	}
	return &Sim{minSeg: minSeg, maxSeg: maxSeg}, nil
}

// ForGPU builds the simulator from a device configuration.
func ForGPU(c gpu.Config) (*Sim, error) { return New(c.MinSegmentBytes, c.MaxSegmentBytes) }

// HalfWarp forms the transactions for one half-warp access.
// addrs[i] is the byte address requested by active lane i;
// accessBytes is the per-thread access width (4 for float). Inactive
// lanes must be omitted by the caller. The returned transactions are
// in service order.
func (s *Sim) HalfWarp(addrs []uint32, accessBytes int) []Transaction {
	return s.HalfWarpInto(nil, addrs, accessBytes)
}

// HalfWarpInto is HalfWarp appending into dst, the allocation-free
// form for hot loops: with a caller-provided buffer of capacity ≥
// gpu.HalfWarp nothing escapes to the heap (the working set is a
// fixed 16-lane stack array — a half-warp has at most 16 pending
// addresses). The appended transactions are in service order.
//
//gpuperf:noalloc
func (s *Sim) HalfWarpInto(dst []Transaction, addrs []uint32, accessBytes int) []Transaction {
	if len(addrs) == 0 {
		return dst
	}
	if accessBytes <= 0 {
		accessBytes = 4
	}
	var buf [gpu.HalfWarp]uint32
	var pending []uint32
	if len(addrs) <= len(buf) {
		pending = buf[:0]
	} else {
		pending = make([]uint32, 0, len(addrs)) //gpuperf:alloc-ok beyond-half-warp path for synthetic sweeps; the engine always passes ≤16 addresses
	}
	pending = append(pending, addrs...) //gpuperf:alloc-ok fills the fixed stack buffer (or the guarded fallback above); never grows
	segMask := uint32(s.maxSeg) - 1     // maxSeg is a power of two
	for len(pending) > 0 {
		// (1) Segment of the lowest-numbered remaining thread, at
		// the maximum segment size.
		segSize := uint32(s.maxSeg)
		base := pending[0] &^ segMask

		// (2) Serve every thread whose access falls inside,
		// compacting the rest in place (service order preserved).
		n := 0
		lo, hi := uint32(0xffffffff), uint32(0)
		for _, a := range pending {
			end := a + uint32(accessBytes) - 1
			if a&^segMask == base && end&^segMask == base {
				if a < lo {
					lo = a
				}
				if end > hi {
					hi = end
				}
			} else {
				pending[n] = a
				n++
			}
		}
		pending = pending[:n]

		// (3) Shrink the segment while it still covers [lo, hi].
		size := segSize
		addr := base
		for size/2 >= uint32(s.minSeg) {
			half := size / 2
			loHalf := addr + half
			switch {
			case hi < loHalf: // all in lower half
				size = half
			case lo >= loHalf: // all in upper half
				addr += half
				size = half
			default:
				goto done
			}
		}
	done:
		dst = append(dst, Transaction{Addr: addr, Size: int(size)}) //gpuperf:alloc-ok appends into caller scratch; capacity reaches steady state after the first blocks
	}
	return dst
}
