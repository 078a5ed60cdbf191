// Package timing turns microbenchmark measurements into the
// throughput curves at the heart of the paper's model (§3-§4):
//
//   - instruction throughput per cost class as a function of warps
//     per SM (Fig. 2 left),
//   - shared-memory bandwidth as a function of warps per SM
//     (Fig. 2 right),
//   - global-memory bandwidth as a function of (blocks, threads per
//     block, transactions per thread) via an on-demand synthetic
//     benchmark of the same configuration (Fig. 3), cached per
//     configuration.
//
// The paper measures these on a GTX 285; this package measures them
// on the device simulator, preserving the methodology: the model
// never peeks at the simulator's internals, only at benchmark
// results.
package timing

import (
	"fmt"
	"sync"

	"gpuperf/internal/barra"
	"gpuperf/internal/device"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/microbench"
)

// chainOps picks the representative opcode benchmarked per class.
var chainOps = [isa.NumClasses]isa.Opcode{
	isa.ClassI:   isa.OpFMUL,
	isa.ClassII:  isa.OpFMAD,
	isa.ClassIII: isa.OpRCP,
	isa.ClassIV:  isa.OpDFMA,
}

// Calibration holds the measured throughput curves for one GPU
// configuration.
type Calibration struct {
	cfg gpu.Config

	// instr[class][w] is chip-level warp-instructions/s with w warps
	// resident per SM (index 0 unused).
	instr [isa.NumClasses][]float64
	// sharedTx[w] is chip-level shared-memory transactions/s
	// (half-warp transactions, the unit bank conflicts multiply).
	sharedTx []float64

	mu     sync.Mutex
	gcache map[gkey]float64
	// inflight holds the global-bandwidth simulation running for a
	// geometry, so concurrent misses wait for it instead of each
	// simulating; created on first miss.
	inflight map[gkey]*gcall
	gsims    int // global-bandwidth simulations started
}

type gkey struct {
	blocks, threads, trans int
}

// gcall is one in-flight global-bandwidth simulation; done closes
// once bw and err are set.
type gcall struct {
	done chan struct{}
	bw   float64
	err  error
}

// Config returns the calibrated configuration.
func (c *Calibration) Config() gpu.Config { return c.cfg }

// MaxWarps returns the largest calibrated warp count.
func (c *Calibration) MaxWarps() int { return len(c.sharedTx) - 1 }

const (
	chainLen   = 384
	sharedIter = 24
)

// Calibrate measures all curves for cfg by running the §4
// microbenchmarks on the device simulator. The per-SM curves are
// measured on a single-SM slice of cfg (SM behaviour is independent
// of the SM count) and scaled to the chip.
func Calibrate(cfg gpu.Config) (*Calibration, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Calibration{cfg: cfg, gcache: map[gkey]float64{}}

	one := cfg
	one.Name += "-1sm"
	one.NumSMs = 1
	one.SMsPerCluster = 1

	maxW := cfg.MaxWarpsPerSM
	scale := float64(cfg.NumSMs)

	// Instruction curves.
	for cls := isa.Class(0); int(cls) < isa.NumClasses; cls++ {
		prog, err := microbench.InstrChain(chainOps[cls], chainLen)
		if err != nil {
			return nil, err
		}
		curve := make([]float64, maxW+1)
		for w := 1; w <= maxW; w++ {
			grid, block, ok := blocksFor(one, w)
			if !ok {
				// Not launchable (e.g. odd warp count above the
				// per-block maximum): interpolate later.
				continue
			}
			res, err := device.Run(one, barra.Launch{Prog: prog, Grid: grid, Block: block}, barra.NewMemory(4096))
			if err != nil {
				return nil, fmt.Errorf("timing: instruction microbenchmark (%s, %d warps): %w", cls, w, err)
			}
			// Count only the chain's class to exclude prologue noise.
			curve[w] = float64(res.ByClass[cls]) / res.Seconds * scale
			if cls == isa.ClassII {
				// The chain itself is ClassII; prologue is too —
				// negligible (2 instructions vs chainLen).
				curve[w] = float64(res.WarpInstrs) / res.Seconds * scale
			}
		}
		fillGaps(curve)
		c.instr[cls] = curve
	}

	// Shared-memory curve, measured in half-warp transactions/s.
	prog, err := microbench.SharedCopy(sharedIter, 1)
	if err != nil {
		return nil, err
	}
	curve := make([]float64, maxW+1)
	for w := 1; w <= maxW; w++ {
		grid, block, ok := blocksFor(one, w)
		if !ok {
			continue
		}
		res, err := device.Run(one, barra.Launch{Prog: prog, Grid: grid, Block: block}, barra.NewMemory(4096))
		if err != nil {
			return nil, fmt.Errorf("timing: shared microbenchmark (%d warps): %w", w, err)
		}
		// The benchmark is conflict-free, so bytes/64 is the
		// half-warp transaction count.
		curve[w] = res.SharedBandwidth() / 64 * scale
	}
	fillGaps(curve)
	c.sharedTx = curve
	return c, nil
}

// blocksFor splits w warps-per-SM into a launchable (grid, block)
// on a one-SM device.
func blocksFor(one gpu.Config, w int) (grid, block int, ok bool) {
	maxWarpsPerBlock := one.MaxThreadsPerBlock / gpu.WarpSize
	if w <= maxWarpsPerBlock {
		return 1, w * gpu.WarpSize, true
	}
	if w%2 == 0 && w/2 <= maxWarpsPerBlock {
		return 2, w / 2 * gpu.WarpSize, true
	}
	return 0, 0, false
}

// fillGaps linearly interpolates zero entries from their calibrated
// neighbours (and clamps the edges).
func fillGaps(curve []float64) {
	last := 0
	for i := 1; i < len(curve); i++ {
		if curve[i] == 0 {
			continue
		}
		if last > 0 && i-last > 1 {
			for j := last + 1; j < i; j++ {
				f := float64(j-last) / float64(i-last)
				curve[j] = curve[last]*(1-f) + curve[i]*f
			}
		}
		if last == 0 && i > 1 {
			for j := 1; j < i; j++ {
				curve[j] = curve[i]
			}
		}
		last = i
	}
	for i := last + 1; i < len(curve); i++ {
		curve[i] = curve[last]
	}
}

func clampWarps(w, max int) int {
	if w < 1 {
		return 1
	}
	if w > max {
		return max
	}
	return w
}

// InstrThroughput returns chip-level warp-instructions/s for the
// class with warpsPerSM resident warps.
func (c *Calibration) InstrThroughput(cls isa.Class, warpsPerSM int) float64 {
	w := clampWarps(warpsPerSM, c.MaxWarps())
	return c.instr[cls][w]
}

// SharedTxRate returns chip-level shared-memory transactions/s
// (half-warp transactions) at warpsPerSM resident warps.
func (c *Calibration) SharedTxRate(warpsPerSM int) float64 {
	w := clampWarps(warpsPerSM, c.MaxWarps())
	return c.sharedTx[w]
}

// SharedBandwidth returns the conflict-free shared-memory bandwidth
// in bytes/s at warpsPerSM resident warps (the Fig. 2 right axis).
func (c *Calibration) SharedBandwidth(warpsPerSM int) float64 {
	return c.SharedTxRate(warpsPerSM) * 64
}

// maxSyntheticTrans caps the per-thread transaction count of the
// synthetic benchmark: bandwidth saturates in that parameter, and
// the cap keeps on-demand calibration runs cheap.
const maxSyntheticTrans = 64

// GlobalBandwidth returns the sustained global-memory bandwidth in
// bytes/s for a kernel with the given launch geometry and per-thread
// transaction count, by running (and caching) a synthetic benchmark
// of the same configuration — the paper's §4.3 methodology.
// Concurrent callers for one uncached geometry share a single run;
// an error reaches all of them and is not cached.
func (c *Calibration) GlobalBandwidth(blocks, threadsPerBlock, transPerThread int) (float64, error) {
	if blocks <= 0 || threadsPerBlock <= 0 {
		return 0, fmt.Errorf("timing: bad geometry %dx%d", blocks, threadsPerBlock)
	}
	if transPerThread < 1 {
		transPerThread = 1
	}
	if transPerThread > maxSyntheticTrans {
		transPerThread = maxSyntheticTrans
	}
	// Round the block size to a warp multiple (partial warps do not
	// change bandwidth behaviour).
	threadsPerBlock = (threadsPerBlock + gpu.WarpSize - 1) / gpu.WarpSize * gpu.WarpSize
	if threadsPerBlock > c.cfg.MaxThreadsPerBlock {
		threadsPerBlock = c.cfg.MaxThreadsPerBlock
	}
	k := gkey{blocks, threadsPerBlock, transPerThread}
	c.mu.Lock()
	if bw, ok := c.gcache[k]; ok {
		c.mu.Unlock()
		return bw, nil
	}
	if call, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		<-call.done
		return call.bw, call.err
	}
	if c.inflight == nil {
		c.inflight = map[gkey]*gcall{}
	}
	call := &gcall{done: make(chan struct{})}
	c.inflight[k] = call
	c.gsims++
	c.mu.Unlock()

	call.bw, call.err = c.simulateGlobal(k, streamBytes(k))
	c.mu.Lock()
	delete(c.inflight, k)
	if call.err == nil {
		c.gcache[k] = call.bw
	}
	c.mu.Unlock()
	close(call.done)
	return call.bw, call.err
}

// maxStreamBytes is the largest memory image the synthetic
// global-memory benchmark runs over.
const maxStreamBytes = 1 << 22

// streamBytes sizes k's memory image. Thread i's j-th load reads byte
// (i + j·T)·4 mod the image size, T the total thread count, so any
// power of two at least the T·trans·4-byte footprint gives the
// addresses a maxStreamBytes image gives, and a larger footprint
// wraps at the ceiling as it always did. Zeroing 4 MiB per geometry
// used to cost more than a small geometry's whole simulation.
func streamBytes(k gkey) int {
	n := 1 << 12
	for n < k.blocks*k.threads*k.trans*4 && n < maxStreamBytes {
		n <<= 1
	}
	return n
}

// simulateGlobal runs the synthetic global-memory benchmark for k
// over a zeroed memBytes image.
func (c *Calibration) simulateGlobal(k gkey, memBytes int) (float64, error) {
	prog, err := microbench.GlobalStream(k.trans, k.blocks*k.threads, memBytes)
	if err != nil {
		return 0, err
	}
	res, err := device.Run(c.cfg, barra.Launch{Prog: prog, Grid: k.blocks, Block: k.threads}, barra.NewMemory(memBytes))
	if err != nil {
		return 0, fmt.Errorf("timing: global synthetic benchmark %v: %w", k, err)
	}
	return res.GlobalBandwidth(), nil
}
