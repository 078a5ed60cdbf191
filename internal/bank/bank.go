// Package bank simulates shared-memory bank conflicts.
//
// GT200 shared memory spreads successive 4-byte words across 16
// banks; a half-warp whose threads touch different words in the same
// bank serializes into one transaction per distinct word (paper
// §4.2). Barra does not collect conflict information, so the paper
// adds an automated tool that derives the *effective* number of
// shared-memory transactions; this package is that tool, generalized
// to arbitrary bank counts (the paper's §5.2 proposes a prime count
// such as 17) — its future-work item 2, a general bank-conflict
// simulator driven by actual addresses.
//
// Most half-warp accesses are conflict-free, so the count first ORs
// each lane's bank into a 64-bit mask and returns 1 when no bank
// repeats. On a power-of-two bank count a lane's bank is a shift and
// a mask, so that path does no division. Broadcasts, conflicts and
// a lane on a bank above 63 take the general count: sort the words,
// then count the distinct ones per bank.
package bank

import (
	"fmt"
	"math/bits"

	"gpuperf/internal/gpu"
)

// Sim computes conflict degrees for one shared-memory geometry.
type Sim struct {
	banks     int
	wordBytes int
	shift     uint32 // log2(wordBytes)
	mask      uint32 // banks-1 for a power-of-two count above 1, else 0
}

// New creates a simulator; banks must be positive, wordBytes a
// positive power of two.
func New(banks, wordBytes int) (*Sim, error) {
	if banks <= 0 {
		return nil, fmt.Errorf("bank: non-positive bank count %d", banks)
	}
	if wordBytes <= 0 || wordBytes&(wordBytes-1) != 0 {
		return nil, fmt.Errorf("bank: word size %d not a positive power of two", wordBytes)
	}
	s := &Sim{banks: banks, wordBytes: wordBytes, shift: uint32(bits.TrailingZeros(uint(wordBytes)))}
	if banks > 1 && banks&(banks-1) == 0 {
		s.mask = uint32(banks - 1)
	}
	return s, nil
}

// ForGPU builds the simulator for a device configuration.
func ForGPU(c gpu.Config) (*Sim, error) { return New(c.SharedMemBanks, c.BankWidthBytes) }

// Transactions returns the number of serialized shared-memory
// transactions needed to service the given byte addresses, which
// must belong to one half-warp access (inactive lanes excluded by
// the caller). Threads reading the *same* word broadcast and cost
// nothing extra; threads touching different words in one bank
// serialize. The result is the maximum, over banks, of the distinct
// word count — 1 for conflict-free, k for a k-way conflict, 0 for no
// active lanes.
//
// The half-warp path (≤16 addresses — every call the execution
// engine makes) runs on fixed-size stack arrays and allocates
// nothing; it is safe for concurrent use from many workers.
//
//gpuperf:noalloc
func (s *Sim) Transactions(addrs []uint32) int {
	if len(addrs) == 0 {
		return 0
	}
	if len(addrs) <= gpu.HalfWarp {
		return s.transactionsHalfWarp(addrs)
	}
	return s.transactionsLarge(addrs)
}

// bank returns the bank of a word index.
func (s *Sim) bank(word uint32) uint32 {
	if s.mask != 0 {
		return word & s.mask
	}
	return word % uint32(s.banks)
}

// transactionsHalfWarp is the allocation-free conflict count for up
// to 16 lanes. A half-warp whose lanes all hit distinct banks below
// 64 costs one transaction, which a 64-bit bank mask shows. Any other
// access (a broadcast, a conflict, a bank above 63) takes
// countHalfWarp, on fixed-size arrays.
func (s *Sim) transactionsHalfWarp(addrs []uint32) int {
	var used uint64
	for _, a := range addrs {
		b := s.bank(a >> s.shift)
		if b >= 64 || used&(1<<b) != 0 {
			return s.countHalfWarp(addrs)
		}
		used |= 1 << b
	}
	return 1
}

// countHalfWarp is transactionsHalfWarp's general count. It sorts the
// words by insertion, which is linear on the ascending strided
// accesses that conflict, so repeats sit side by side. With at most 64
// banks a per-bank table counts the distinct words. More banks sort
// the distinct words' banks the same way; the longest run of one bank
// is the count.
func (s *Sim) countHalfWarp(addrs []uint32) int {
	var sorted [gpu.HalfWarp]uint32
	for i, a := range addrs {
		w, j := a>>s.shift, i
		for ; j > 0 && sorted[j-1] > w; j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = w
	}
	words := sorted[:len(addrs)]
	if words[0] == words[len(words)-1] {
		return 1 // a broadcast
	}
	most := 0
	if s.banks <= 64 {
		var perBank [64]uint8
		for i, w := range words {
			if i == 0 || w != words[i-1] {
				b := s.bank(w)
				perBank[b]++
				most = max(most, int(perBank[b]))
			}
		}
		return most
	}
	var bankOf [gpu.HalfWarp]uint32
	n := 0
	for i, w := range words {
		if i == 0 || w != words[i-1] {
			b, j := s.bank(w), n
			for ; j > 0 && bankOf[j-1] > b; j-- {
				bankOf[j] = bankOf[j-1]
			}
			bankOf[j] = b
			n++
		}
	}
	run := 0
	for i := 0; i < n; i++ {
		if i == 0 || bankOf[i] != bankOf[i-1] {
			run = 0
		}
		run++
		most = max(most, run)
	}
	return most
}

// transactionsLarge handles arbitrary address counts (synthetic
// sweeps beyond half-warp width) with per-bank tables.
func (s *Sim) transactionsLarge(addrs []uint32) int {
	perBank := make([][]uint32, s.banks) //gpuperf:alloc-ok beyond-half-warp path for synthetic sweeps; the engine always passes ≤16 lanes
	maxWords := 0
	for _, a := range addrs {
		word := a / uint32(s.wordBytes)
		b := int(word % uint32(s.banks))
		dup := false
		for _, w := range perBank[b] {
			if w == word {
				dup = true
				break
			}
		}
		if !dup {
			perBank[b] = append(perBank[b], word) //gpuperf:alloc-ok beyond-half-warp path for synthetic sweeps; the engine always passes ≤16 lanes
			if len(perBank[b]) > maxWords {
				maxWords = len(perBank[b])
			}
		}
	}
	return maxWords
}

// StrideConflict returns the conflict degree of a classic
// strided access: lanes i = 0..lanes-1 touching word index i*stride.
// Cyclic reduction's step s has stride 2^s, whose degree doubles
// every step on a 16-bank memory (paper Fig. 5) — and collapses to 1
// when the bank count is prime to the stride.
func (s *Sim) StrideConflict(lanes, stride int) int {
	if lanes <= 0 || stride <= 0 {
		return 0
	}
	addrs := make([]uint32, lanes)
	for i := range addrs {
		addrs[i] = uint32(i * stride * s.wordBytes)
	}
	return s.Transactions(addrs)
}

// PadAddress applies the paper's §5.2 padding remedy: it remaps a
// word index so that one pad word is inserted every banks words
// (index → index + index/banks). With 16 banks this is the "pad 1
// element per 16 elements" technique that removes all of cyclic
// reduction's conflicts.
func PadAddress(wordIndex, banks int) int {
	if banks <= 0 {
		return wordIndex
	}
	return wordIndex + wordIndex/banks
}

// PaddedSize returns the shared-memory words needed to hold n
// logical words under PadAddress padding.
func PaddedSize(n, banks int) int {
	if n <= 0 {
		return 0
	}
	return PadAddress(n-1, banks) + 1
}
