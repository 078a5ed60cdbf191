// Package gpu describes the hardware resources and architectural
// parameters of the simulated GPU.
//
// The default configuration models the NVIDIA GeForce GTX 285
// (GT200b, compute capability 1.3) studied by Zhang & Owens (HPCA
// 2011): 30 streaming multiprocessors grouped into 10 clusters of 3,
// 8 scalar processors per SM, 16 KB of shared memory organized in 16
// banks, a 16,384-entry register file, and a 512-bit GDDR3 memory
// interface. Architectural-improvement variants proposed in the paper
// (more resident blocks, a prime number of banks, larger register
// files, finer memory-transaction granularity) are expressed as
// functional options so ablation experiments can construct modified
// machines.
package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// WarpSize is the number of threads that execute one instruction in
// lockstep. All CUDA-class architectures modeled here use 32.
const WarpSize = 32

// HalfWarp is the memory-transaction issue granularity of compute
// capability 1.x devices: global memory coalescing is evaluated per
// group of 16 consecutive threads.
const HalfWarp = WarpSize / 2

// Config describes one GPU. The zero value is not useful; construct
// configurations with GTX285 and the With* options.
type Config struct {
	// Name identifies the configuration in reports.
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SPsPerSM is the number of scalar processors (CUDA cores) in
	// one SM. Type II instructions (mov/add/mad) issue on these.
	SPsPerSM int
	// SMsPerCluster is the number of SMs sharing one texture/memory
	// pipeline (TPC). The GTX 285 groups 30 SMs into 10 clusters of
	// 3; the shared pipeline produces the sawtooth in paper Fig. 3.
	SMsPerCluster int

	// CoreClockHz is the shader clock that times the instruction
	// pipeline and shared memory (1.476 GHz on the GTX 285).
	CoreClockHz float64
	// MemClockHz is the effective DRAM data clock (2.484 GHz).
	MemClockHz float64
	// MemBusBits is the width of the DRAM interface (512).
	MemBusBits int

	// RegistersPerSM is the size of the per-SM register file in
	// 32-bit registers (16,384 on CC 1.3).
	RegistersPerSM int
	// SharedMemPerSM is bytes of shared memory per SM (16 KB).
	SharedMemPerSM int
	// SharedMemBanks is the number of shared-memory banks (16).
	SharedMemBanks int
	// BankWidthBytes is the width of one shared-memory bank word (4).
	BankWidthBytes int

	// MaxThreadsPerSM, MaxBlocksPerSM and MaxWarpsPerSM are the
	// hardware occupancy ceilings (512 / 8 / 32 on CC 1.3).
	MaxThreadsPerSM int
	MaxBlocksPerSM  int
	MaxWarpsPerSM   int
	// MaxThreadsPerBlock is the largest legal block (512).
	MaxThreadsPerBlock int

	// MinSegmentBytes is the smallest global-memory transaction the
	// coalescer may issue (32 bytes on CC 1.2/1.3). Segment sizes
	// step by powers of two up to MaxSegmentBytes.
	MinSegmentBytes int
	// MaxSegmentBytes is the largest coalesced transaction (128).
	MaxSegmentBytes int

	// ALUPipelineDepth is the depth of the arithmetic pipeline in
	// issue slots; it sets how many independent warps saturate Type
	// II throughput (the paper infers ~6 from microbenchmarks).
	ALUPipelineDepth int
	// SharedPipelineDepth is the (deeper) shared-memory pipeline
	// depth; the paper observes shared memory needs more warps than
	// the ALU to saturate.
	SharedPipelineDepth int
	// GlobalLatencyCycles is the uncontended global-memory round
	// trip in core cycles (~500 on GT200).
	GlobalLatencyCycles int

	// EarlyRelease, when true, models the architectural improvement
	// of §5.2: a block's per-warp resources are released as soon as
	// the warp exits, so waiting blocks can be scheduled before the
	// whole block finishes. The timing simulator approximates this by
	// starting a block's one successor once half of its warps have
	// exited rather than when all have.
	EarlyRelease bool
}

// GTX285 returns the configuration of the paper's test platform,
// modified by any options.
func GTX285(opts ...Option) Config {
	c := Config{
		Name:                "GTX285",
		NumSMs:              30,
		SPsPerSM:            8,
		SMsPerCluster:       3,
		CoreClockHz:         1.476e9,
		MemClockHz:          2.484e9,
		MemBusBits:          512,
		RegistersPerSM:      16384,
		SharedMemPerSM:      16 * 1024,
		SharedMemBanks:      16,
		BankWidthBytes:      4,
		MaxThreadsPerSM:     1024,
		MaxBlocksPerSM:      8,
		MaxWarpsPerSM:       32,
		MaxThreadsPerBlock:  512,
		MinSegmentBytes:     32,
		MaxSegmentBytes:     128,
		ALUPipelineDepth:    6,
		SharedPipelineDepth: 9,
		GlobalLatencyCycles: 500,
	}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Option mutates a Config; used for the paper's architectural
// ablations.
type Option func(*Config)

// WithMaxBlocks raises or lowers the resident-block ceiling
// (paper §5.1 suggests 16).
func WithMaxBlocks(n int) Option {
	return func(c *Config) { c.MaxBlocksPerSM = n; c.Name += fmt.Sprintf("+blocks%d", n) }
}

// WithBanks changes the shared-memory bank count (paper §5.2 suggests
// a prime such as 17 to avoid stride conflicts).
func WithBanks(n int) Option {
	return func(c *Config) { c.SharedMemBanks = n; c.Name += fmt.Sprintf("+banks%d", n) }
}

// WithRegisters scales the per-SM register file.
func WithRegisters(n int) Option {
	return func(c *Config) { c.RegistersPerSM = n; c.Name += fmt.Sprintf("+regs%d", n) }
}

// WithSharedMem scales the per-SM shared memory, in bytes.
func WithSharedMem(n int) Option {
	return func(c *Config) { c.SharedMemPerSM = n; c.Name += fmt.Sprintf("+smem%d", n) }
}

// WithMinSegment changes the smallest global-memory transaction;
// paper §5.3 evaluates 16 bytes against the hardware's 32.
func WithMinSegment(n int) Option {
	return func(c *Config) { c.MinSegmentBytes = n; c.Name += fmt.Sprintf("+seg%d", n) }
}

// WithEarlyRelease enables the early-resource-release improvement of
// paper §5.2.
func WithEarlyRelease(on bool) Option {
	return func(c *Config) {
		c.EarlyRelease = on
		if on {
			c.Name += "+earlyrelease"
		}
	}
}

// NumClusters is the number of SM clusters sharing memory pipelines.
func (c Config) NumClusters() int { return c.NumSMs / c.SMsPerCluster }

// PeakInstrThroughput returns the theoretical peak throughput, in
// warp-instructions per second, of an instruction class executed on
// units functional units per SM:
//
//	units · coreClock · numSMs / warpSize
//
// For MAD on the GTX 285 this is 8·1.476 GHz·30/32 ≈ 11.1 Ginstr/s
// (paper §4.1).
func (c Config) PeakInstrThroughput(units int) float64 {
	return float64(units) * c.CoreClockHz * float64(c.NumSMs) / WarpSize
}

// PeakSharedBandwidth returns the theoretical shared-memory
// bandwidth in bytes/s: SPs · SMs · coreClock · bankWidth
// (≈1420 GB/s on the GTX 285, paper §4.2).
func (c Config) PeakSharedBandwidth() float64 {
	return float64(c.SPsPerSM) * float64(c.NumSMs) * c.CoreClockHz * float64(c.BankWidthBytes)
}

// PeakGlobalBandwidth returns the theoretical DRAM bandwidth in
// bytes/s: memClock · busWidth/8 (≈159 GB/s on the GTX 285,
// paper §4.3).
func (c Config) PeakGlobalBandwidth() float64 {
	return c.MemClockHz * float64(c.MemBusBits) / 8
}

// PeakGFLOPS returns the theoretical single-precision peak assuming
// one MAD (2 flops) per SP per cycle (≈710 GFLOPS, paper §4.1).
func (c Config) PeakGFLOPS() float64 {
	return c.PeakInstrThroughput(c.SPsPerSM) * WarpSize * 2 / 1e9
}

// Validate reports a configuration whose parameters are inconsistent
// (non-positive resources, cluster mismatch, or illegal segment
// sizes).
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0 || c.SPsPerSM <= 0 || c.SMsPerCluster <= 0:
		return fmt.Errorf("gpu: non-positive processor counts in %q", c.Name)
	case c.NumSMs%c.SMsPerCluster != 0:
		return fmt.Errorf("gpu: %d SMs not divisible into clusters of %d", c.NumSMs, c.SMsPerCluster)
	case c.RegistersPerSM <= 0 || c.SharedMemPerSM <= 0 || c.SharedMemBanks <= 0:
		return fmt.Errorf("gpu: non-positive memory resources in %q", c.Name)
	case c.MaxThreadsPerSM <= 0 || c.MaxBlocksPerSM <= 0 || c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("gpu: non-positive occupancy ceilings in %q", c.Name)
	case c.MinSegmentBytes <= 0 || c.MaxSegmentBytes < c.MinSegmentBytes:
		return fmt.Errorf("gpu: bad segment sizes [%d,%d]", c.MinSegmentBytes, c.MaxSegmentBytes)
	case c.MinSegmentBytes&(c.MinSegmentBytes-1) != 0 || c.MaxSegmentBytes&(c.MaxSegmentBytes-1) != 0:
		return fmt.Errorf("gpu: segment sizes must be powers of two, got [%d,%d]", c.MinSegmentBytes, c.MaxSegmentBytes)
	case c.CoreClockHz <= 0 || c.MemClockHz <= 0 || c.MemBusBits <= 0:
		return fmt.Errorf("gpu: non-positive clocks in %q", c.Name)
	}
	return nil
}

// Fingerprint returns a stable hexadecimal digest of every
// architectural parameter of c except its Name. Two configurations
// differing in any knob — bank count, register file, clocks, segment
// sizes, early release — have different fingerprints; renaming a
// configuration does not change its fingerprint. Calibration caches
// are keyed by this digest, so curves measured for one machine are
// never reused for a different one, however the machines are named.
func Fingerprint(c Config) string {
	c.Name = ""
	// Struct fields marshal in declaration order, so the JSON form is
	// canonical for a given package version.
	blob, err := json.Marshal(c)
	if err != nil {
		// Config is a flat struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("gpu: fingerprint: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

// GTX280 returns the GeForce GTX 280 — the GTX 285's predecessor:
// the same GT200 organization at lower clocks (1.296 GHz shader,
// 2.214 GHz effective GDDR3 on the same 512-bit bus).
func GTX280(opts ...Option) Config {
	c := GTX285()
	c.Name = "GTX280"
	c.CoreClockHz = 1.296e9
	c.MemClockHz = 2.214e9
	for _, o := range opts {
		o(&c)
	}
	return c
}

// TeslaC1060 returns the Tesla C1060 compute board: GT200 at
// 1.296 GHz with 800 MHz (1.6 GHz effective) GDDR3 — lower memory
// bandwidth than the GeForce parts, which shifts memory-bound
// crossovers.
func TeslaC1060(opts ...Option) Config {
	c := GTX285()
	c.Name = "TeslaC1060"
	c.CoreClockHz = 1.296e9
	c.MemClockHz = 1.6e9
	for _, o := range opts {
		o(&c)
	}
	return c
}
