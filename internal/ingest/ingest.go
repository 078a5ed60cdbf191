// Package ingest turns untrusted user-submitted kernels into
// analyzable kernels — the service's bring-your-own-kernel boundary.
//
// A submission arrives as assembly text or a compiled container plus
// a launch geometry and a set of declared input buffers. Compile
// drives it through the same assembler/container toolchain the
// built-in microbenchmarks use, then hardens it: static ceilings
// (instruction count, registers, shared memory, footprint, total
// threads) and a bounds verifier that proves — by interval abstract
// interpretation over the decoded program — that every memory
// operand's reachable address range lies inside the declared buffer
// envelope. Programs whose addresses cannot be proven in bounds are
// rejected before any simulation runs, the same admission posture an
// eBPF-style verifier takes: reject what you cannot prove.
//
// Accepted submissions become content-addressed Submissions
// ("subm-<hash16>", the SHA-256 of the canonical container plus the
// launch/buffer spec) held in a Store bounded by count, bytes and
// TTL, optionally persisted as internal/slot files so a daemon
// restart keeps its submissions. The Store is a submission's only owner: the service
// resolves a submission id through Store.Get, which applies the TTL
// and refreshes the LRU recency, and keeps no copy of its own.
package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"gpuperf/internal/asm"
	"gpuperf/internal/barra"
	"gpuperf/internal/cubin"
	"gpuperf/internal/isa"
)

// IDPrefix starts every submission id; the kernel name of a
// submitted kernel is its id, so the prefix is how the service (and
// the router) recognizes submission traffic.
const IDPrefix = "subm-"

// Buffer element types.
const (
	ElemF32 = "f32"
	ElemU32 = "u32"
)

// Buffer fill modes.
const (
	FillZeros  = "zeros"
	FillRandom = "random" // seeded-random: deterministic per request seed
	FillAffine = "affine" // start + step*i
)

// BufferSpec declares one global-memory input buffer of a
// submission. Buffers are laid out contiguously in declaration order
// starting at global address 0, each element 4 bytes — the submitted
// program addresses them by those fixed offsets.
type BufferSpec struct {
	// Name labels the buffer in region-traffic attribution.
	Name string `json:"name"`
	// Elem is the element type: "f32" or "u32".
	Elem string `json:"elem"`
	// Count is the element count (bytes = 4*Count).
	Count int `json:"count"`
	// Fill selects the deterministic content: "zeros", "random"
	// (seeded by the analysis request's seed) or "affine"
	// (Start + Step*i).
	Fill string `json:"fill"`
	// Start and Step parameterize the affine fill.
	Start float64 `json:"start,omitempty"`
	Step  float64 `json:"step,omitempty"`
}

// Request is one submission, and the POST /v1/kernels body: exactly
// one of Source or Container, the launch geometry, and the declared
// global-memory buffers (laid out contiguously from address 0 in
// declaration order, 4 bytes per element).
type Request struct {
	// Label is an optional human name echoed in receipts; it does not
	// participate in the content hash, so relabeling a program does
	// not duplicate it.
	Label string `json:"label,omitempty"`
	// Source is assembly text (the gpuasm "as" syntax).
	Source string `json:"source,omitempty"`
	// Container is a compiled GCUB container (base64 in JSON).
	Container []byte `json:"container,omitempty"`
	// Kernel names the kernel within a multi-kernel source or
	// container; empty means the sole kernel.
	Kernel string `json:"kernel,omitempty"`
	// Grid and Block are the launch geometry.
	Grid  int `json:"grid"`
	Block int `json:"block"`
	// Buffers declares the global-memory envelope every access must
	// provably stay inside.
	Buffers []BufferSpec `json:"buffers"`
}

// Limits are the per-submission ceilings — the MaxSize regime for
// programs the operator has never seen. The zero value of any field
// means its default.
type Limits struct {
	// MaxInstructions caps the static instruction count.
	MaxInstructions int
	// MaxRegisters caps declared registers per thread.
	MaxRegisters int
	// MaxSharedBytes caps the static shared-memory allocation.
	MaxSharedBytes int
	// MaxFootprintBytes caps the declared buffer envelope.
	MaxFootprintBytes int64
	// MaxThreads caps grid*block; MaxBlockThreads caps one block.
	MaxThreads      int64
	MaxBlockThreads int
	// MaxWarpInstructions is the dynamic per-run instruction budget a
	// submission's simulation may burn (loops make static bounds
	// insufficient); the engine aborts past it.
	MaxWarpInstructions int64
	// Store budgets: at most MaxCount submissions totalling at most
	// MaxBytes of container+spec payload, each expiring TTL after
	// admission.
	MaxCount int
	MaxBytes int64
	TTL      time.Duration
}

// Default ceilings. Deliberately modest: a profiler-as-a-service
// analyzes kernels, it does not host workloads.
const (
	DefaultMaxInstructions     = 4096
	DefaultMaxRegisters        = 64
	DefaultMaxSharedBytes      = 16 * 1024
	DefaultMaxFootprintBytes   = 64 << 20
	DefaultMaxThreads          = 1 << 20
	DefaultMaxBlockThreads     = 512
	DefaultMaxWarpInstructions = 64 << 20
	DefaultMaxCount            = 256
	DefaultMaxBytes            = 16 << 20
	DefaultTTL                 = time.Hour
)

// withDefaults fills zero fields with the default ceilings.
func (l Limits) withDefaults() Limits {
	if l.MaxInstructions <= 0 {
		l.MaxInstructions = DefaultMaxInstructions
	}
	if l.MaxRegisters <= 0 {
		l.MaxRegisters = DefaultMaxRegisters
	}
	if l.MaxSharedBytes <= 0 {
		l.MaxSharedBytes = DefaultMaxSharedBytes
	}
	if l.MaxFootprintBytes <= 0 {
		l.MaxFootprintBytes = DefaultMaxFootprintBytes
	}
	if l.MaxThreads <= 0 {
		l.MaxThreads = DefaultMaxThreads
	}
	if l.MaxBlockThreads <= 0 {
		l.MaxBlockThreads = DefaultMaxBlockThreads
	}
	if l.MaxWarpInstructions <= 0 {
		l.MaxWarpInstructions = DefaultMaxWarpInstructions
	}
	if l.MaxCount <= 0 {
		l.MaxCount = DefaultMaxCount
	}
	if l.MaxBytes <= 0 {
		l.MaxBytes = DefaultMaxBytes
	}
	if l.TTL <= 0 {
		l.TTL = DefaultTTL
	}
	return l
}

// Submission is one accepted, content-addressed program: everything
// needed to rebuild its workload deterministically, in a form that
// serializes to the store's on-disk slots.
type Submission struct {
	// ID is "subm-" + the first 16 hex digits of the content hash —
	// also the submission's kernel name.
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// Container is the canonical single-kernel container.
	Container []byte `json:"container"`
	// Kernel is the program's name inside the container.
	Kernel string `json:"kernel"`
	// Grid and Block are the launch geometry.
	Grid  int `json:"grid"`
	Block int `json:"block"`
	// Buffers is the declared global-memory envelope.
	Buffers []BufferSpec `json:"buffers"`
	// CreatedAt drives TTL eviction.
	CreatedAt time.Time `json:"created_at"`

	// Static summary, echoed in receipts.
	Instructions   int   `json:"instructions"`
	Registers      int   `json:"registers"`
	SharedMemBytes int   `json:"shared_mem_bytes"`
	FootprintBytes int64 `json:"footprint_bytes"`
	// MaxWarpInstructions is the dynamic budget frozen at admission.
	MaxWarpInstructions int64 `json:"max_warp_instructions"`
}

// hashSpec is the canonical JSON the content hash covers alongside
// the container bytes. Field order is fixed by the struct.
type hashSpec struct {
	Grid    int          `json:"grid"`
	Block   int          `json:"block"`
	Buffers []BufferSpec `json:"buffers"`
}

// computeID derives the content-addressed id: SHA-256 over the
// canonical container bytes plus the launch/buffer spec.
func computeID(container []byte, grid, block int, buffers []BufferSpec) string {
	spec, _ := json.Marshal(hashSpec{Grid: grid, Block: block, Buffers: buffers})
	h := sha256.New()
	h.Write(container)
	h.Write([]byte{0})
	h.Write(spec)
	return IDPrefix + hex.EncodeToString(h.Sum(nil))[:16]
}

// IsSubmissionID reports whether a kernel name is a submission id —
// how the HTTP router recognizes submission traffic.
func IsSubmissionID(name string) bool { return strings.HasPrefix(name, IDPrefix) }

// resolve compiles the request's program: assemble or unmarshal, then
// pick the named (or sole) kernel.
func resolve(req Request) (*isa.Program, error) {
	var progs []*isa.Program
	switch {
	case req.Source != "" && len(req.Container) > 0:
		return nil, fmt.Errorf("submission carries both source and container; send one")
	case req.Source != "":
		var err error
		if progs, err = asm.AssembleAll(req.Source); err != nil {
			return nil, err
		}
	case len(req.Container) > 0:
		c, err := cubin.Unmarshal(req.Container)
		if err != nil {
			return nil, err
		}
		progs = c.Kernels
	default:
		return nil, fmt.Errorf("submission needs assembly source or a container")
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("submission contains no kernels")
	}
	if req.Kernel == "" {
		if len(progs) != 1 {
			names := make([]string, len(progs))
			for i, p := range progs {
				names[i] = p.Name
			}
			return nil, fmt.Errorf("submission contains %d kernels %v; name one", len(progs), names)
		}
		return progs[0], nil
	}
	for _, p := range progs {
		if p.Name == req.Kernel {
			return p, nil
		}
	}
	return nil, fmt.Errorf("submission has no kernel %q", req.Kernel)
}

// checkSpec validates the launch geometry and buffer declarations
// against the ceilings and returns the footprint in bytes. Every
// rejection names the violated ceiling.
func checkSpec(req Request, lim Limits) (int64, error) {
	if req.Grid <= 0 || req.Block <= 0 {
		return 0, fmt.Errorf("launch %dx%d: grid and block must be positive", req.Grid, req.Block)
	}
	if req.Block > lim.MaxBlockThreads {
		return 0, fmt.Errorf("block size %d exceeds the %d-thread block ceiling", req.Block, lim.MaxBlockThreads)
	}
	if threads := int64(req.Grid) * int64(req.Block); threads > lim.MaxThreads {
		return 0, fmt.Errorf("launch %dx%d = %d threads exceeds the %d-thread ceiling", req.Grid, req.Block, threads, lim.MaxThreads)
	}
	if len(req.Buffers) == 0 {
		return 0, fmt.Errorf("submission declares no buffers; every memory access must land in a declared buffer")
	}
	seen := map[string]bool{}
	var total int64
	for i, b := range req.Buffers {
		if b.Name == "" {
			return 0, fmt.Errorf("buffer %d: empty name", i)
		}
		if seen[b.Name] {
			return 0, fmt.Errorf("duplicate buffer name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Elem != ElemF32 && b.Elem != ElemU32 {
			return 0, fmt.Errorf("buffer %q: unknown element type %q (want %s or %s)", b.Name, b.Elem, ElemF32, ElemU32)
		}
		if b.Count <= 0 {
			return 0, fmt.Errorf("buffer %q: non-positive element count %d", b.Name, b.Count)
		}
		switch b.Fill {
		case FillZeros, FillRandom, FillAffine:
		default:
			return 0, fmt.Errorf("buffer %q: unknown fill %q (want %s, %s or %s)", b.Name, b.Fill, FillZeros, FillRandom, FillAffine)
		}
		total += 4 * int64(b.Count)
		if total > lim.MaxFootprintBytes {
			return 0, fmt.Errorf("declared buffers exceed the %d-byte footprint ceiling", lim.MaxFootprintBytes)
		}
	}
	if total > math.MaxUint32 {
		return 0, fmt.Errorf("declared buffers exceed the 32-bit address space")
	}
	return total, nil
}

// Compile validates a submission end to end and returns its
// content-addressed Submission: resolve the program, apply the static
// ceilings, prove every memory access inside the declared envelope,
// and canonicalize. now stamps CreatedAt (the store's TTL clock).
func Compile(req Request, lim Limits, now time.Time) (*Submission, error) {
	lim = lim.withDefaults()
	prog, err := resolve(req)
	if err != nil {
		return nil, err
	}
	footprint, err := checkSpec(req, lim)
	if err != nil {
		return nil, err
	}
	if n := len(prog.Code); n > lim.MaxInstructions {
		return nil, fmt.Errorf("program %q has %d instructions, exceeding the %d-instruction ceiling", prog.Name, n, lim.MaxInstructions)
	}
	if prog.RegsPerThread > lim.MaxRegisters {
		return nil, fmt.Errorf("program %q declares %d registers, exceeding the %d-register ceiling", prog.Name, prog.RegsPerThread, lim.MaxRegisters)
	}
	if prog.SharedMemBytes > lim.MaxSharedBytes {
		return nil, fmt.Errorf("program %q declares %d shared-memory bytes, exceeding the %d-byte ceiling", prog.Name, prog.SharedMemBytes, lim.MaxSharedBytes)
	}
	if err := verifyBounds(prog, req.Grid, req.Block, footprint); err != nil {
		return nil, err
	}
	// Canonicalize: a fresh single-kernel container, so source
	// formatting, comments and sibling kernels never perturb the hash.
	canon, err := (&cubin.Container{Kernels: []*isa.Program{prog}}).Marshal()
	if err != nil {
		return nil, err
	}
	return &Submission{
		ID:                  computeID(canon, req.Grid, req.Block, req.Buffers),
		Label:               req.Label,
		Container:           canon,
		Kernel:              prog.Name,
		Grid:                req.Grid,
		Block:               req.Block,
		Buffers:             append([]BufferSpec(nil), req.Buffers...),
		CreatedAt:           now,
		Instructions:        len(prog.Code),
		Registers:           prog.RegsPerThread,
		SharedMemBytes:      prog.SharedMemBytes,
		FootprintBytes:      footprint,
		MaxWarpInstructions: lim.MaxWarpInstructions,
	}, nil
}

// ID compiles just far enough to compute the submission's
// content-addressed id, with no ceilings applied — what a router
// needs to pick the owning shard without duplicating the workers'
// operator-set limits. The returned id matches what any worker's
// Compile produces for the same request.
func ID(req Request) (string, error) {
	prog, err := resolve(req)
	if err != nil {
		return "", err
	}
	canon, err := (&cubin.Container{Kernels: []*isa.Program{prog}}).Marshal()
	if err != nil {
		return "", err
	}
	return computeID(canon, req.Grid, req.Block, req.Buffers), nil
}

// Program decodes the submission's canonical container back to its
// program.
func (s *Submission) Program() (*isa.Program, error) {
	c, err := cubin.Unmarshal(s.Container)
	if err != nil {
		return nil, fmt.Errorf("submission %s: %w", s.ID, err)
	}
	return c.Find(s.Kernel)
}

// NewMemory builds the submission's global memory image for one
// request seed — deterministic per (submission, seed), like every
// registry builder — and the named regions attributing traffic to
// the declared buffers.
func (s *Submission) NewMemory(seed int64) (*barra.Memory, []barra.Region, error) {
	mem := barra.NewMemory(int(s.FootprintBytes))
	regions := make([]barra.Region, 0, len(s.Buffers))
	rng := rand.New(rand.NewSource(seed))
	var off uint32
	for _, b := range s.Buffers {
		bytes := uint32(4 * b.Count)
		regions = append(regions, barra.Region{Name: b.Name, Lo: off, Hi: off + bytes})
		words := make([]uint32, b.Count)
		switch b.Fill {
		case FillZeros:
			// NewMemory zeroes; nothing to draw. Still materialized via
			// WriteWords so every fill path shares the bounds check.
		case FillRandom:
			for i := range words {
				if b.Elem == ElemF32 {
					words[i] = math.Float32bits(rng.Float32())
				} else {
					words[i] = rng.Uint32()
				}
			}
		case FillAffine:
			for i := range words {
				v := b.Start + b.Step*float64(i)
				if b.Elem == ElemF32 {
					words[i] = math.Float32bits(float32(v))
				} else {
					words[i] = uint32(int64(v))
				}
			}
		default:
			return nil, nil, fmt.Errorf("submission %s: buffer %q: unknown fill %q", s.ID, b.Name, b.Fill)
		}
		if err := mem.WriteWords(off, words); err != nil {
			return nil, nil, fmt.Errorf("submission %s: buffer %q: %w", s.ID, b.Name, err)
		}
		off += bytes
	}
	return mem, regions, nil
}
