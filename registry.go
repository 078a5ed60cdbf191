package gpuperf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"gpuperf/internal/barra"
	"gpuperf/internal/kernels"
	"gpuperf/internal/sparse"
	"gpuperf/internal/tridiag"
)

// Params selects a kernel's problem instance. Input generation is
// deterministic: the same (Size, Seed) pair always produces the same
// device memory image, whatever else the process is doing — builders
// draw from their own rand.Rand seeded per request, never from the
// global math/rand stream.
type Params struct {
	// Size is the kernel-specific problem size (matrix dimension for
	// matmul, independent systems for cyclic reduction, block rows
	// for SpMV). 0 picks the kernel's default.
	Size int `json:"size,omitempty"`
	// Seed drives input generation. 0 means seed 1.
	Seed int64 `json:"seed,omitempty"`
}

func (p Params) normalize(def int) Params {
	if p.Size == 0 {
		p.Size = def
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Workload is one built problem instance: a launch plus its input
// memory, with the metadata the Analyzer folds into a Result. The
// launch and memory fields use internal engine types — consumers of
// the public API receive Workloads from a Registry and hand them
// back to an Analyzer rather than constructing them.
type Workload struct {
	// Launch is the kernel invocation; Mem its populated memory.
	Launch barra.Launch
	Mem    *barra.Memory
	// Regions optionally attributes global traffic to named arrays.
	Regions []barra.Region
	// FLOPs is the useful floating-point work of the instance
	// (0 when not meaningful), used for achieved-GFLOPS figures.
	FLOPs int64
	// Verify, when non-nil, checks the functional run's output in Mem
	// against a CPU reference and returns the worst absolute error
	// (or residual). Nil means the kernel has no checkable output.
	// Long-running references (matmul is O(n³) on one host thread)
	// observe ctx so an abandoned request stops burning CPU.
	Verify func(ctx context.Context, mem *barra.Memory) (float64, error)
	// MaxWarpInstructions, when > 0, caps the dynamic instruction
	// budget of the functional run and of the device-simulator run
	// below their defaults — the per-submission ceiling user-submitted
	// kernels carry from admission.
	MaxWarpInstructions int64
}

// BuildFunc constructs a Workload for one problem instance. p
// arrives normalized: Size and Seed are both concrete.
type BuildFunc func(dev Device, p Params) (*Workload, error)

// KernelSpec describes one named kernel: a built-in from the
// Registry or a user submission.
type KernelSpec struct {
	// Name is the kernel name (e.g. "matmul16", "spmv-bell-imiv", or a
	// submission's "subm-" id).
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description"`
	// DefaultSize is the problem size used when a request passes 0;
	// MaxSize bounds what a request may ask for — the ceiling on the
	// memory one (possibly network-originated) analysis can demand.
	DefaultSize int `json:"default_size"`
	MaxSize     int `json:"max_size"`
	// Family groups the optimization variants of one algorithm
	// ("matmul", "cr", "spmv"): the members share problem semantics
	// and input layout per (size, seed), so their measured times are
	// directly comparable — the measurable counterparts of the
	// advisor's counterfactual scenarios.
	Family string `json:"family,omitempty"`
	// Optimization names the advisor scenario this variant realizes
	// relative to its family's baseline (e.g. cr-nbc realizes
	// "conflict-free-shared" over cr); empty for the baseline itself
	// and for variants whose change no cataloged scenario models.
	Optimization string `json:"optimization,omitempty"`
	// Unverified marks a user-submitted kernel: it has no CPU
	// reference, so analysis always skips verification and results
	// carry Result.VerifyError saying so.
	Unverified bool `json:"unverified,omitempty"`
	// Build constructs the instance. Never nil.
	Build BuildFunc `json:"-"`
}

// checkSize validates normalized params against the spec's bounds,
// tagging violations as ErrInvalidRequest so front-ends can blame
// the caller.
func (s KernelSpec) checkSize(p Params) error {
	if p.Size < 0 {
		return fmt.Errorf("%w: negative size %d", ErrInvalidRequest, p.Size)
	}
	if s.MaxSize > 0 && p.Size > s.MaxSize {
		return fmt.Errorf("%w: size %d exceeds kernel %q limit %d", ErrInvalidRequest, p.Size, s.Name, s.MaxSize)
	}
	return nil
}

// build validates the normalized params and runs the builder.
// Builder rejections (wrong alignment, not a power of two, ...) are
// also tagged ErrInvalidRequest: they are overwhelmingly shape
// problems of the requested size. The known tradeoff is that a
// builder failing because the session's Device cannot host the
// kernel is misattributed to the caller.
func (s KernelSpec) build(dev Device, p Params) (*Workload, error) {
	if err := s.checkSize(p); err != nil {
		return nil, err
	}
	w, err := s.Build(dev, p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return w, nil
}

// Registry maps the built-in kernels' names to their specs. It is
// immutable once built, so it is safe for concurrent use without a
// lock. DefaultRegistry is its one instance: user-submitted kernels
// live in a fleet's submission store, and the fleet resolves each
// kernel name through one or the other (Fleet.lookup).
type Registry struct {
	specs map[string]KernelSpec
}

// Lookup returns the spec registered under name.
func (r *Registry) Lookup(name string) (KernelSpec, bool) {
	s, ok := r.specs[name]
	return s, ok
}

// Specs returns every registered spec, sorted by name.
func (r *Registry) Specs() []KernelSpec {
	out := make([]KernelSpec, 0, len(r.specs))
	for _, s := range r.specs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered kernel names, sorted.
func (r *Registry) Names() []string {
	specs := r.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ErrUnknownKernel reports a Build or Analyze request naming no
// built-in kernel and no resident submission; errors.Is-match it to
// map the condition (the HTTP front-end turns it into 404).
var ErrUnknownKernel = fmt.Errorf("gpuperf: unknown kernel")

// ErrInvalidRequest reports request parameters a kernel cannot
// satisfy — a size beyond the spec's MaxSize ceiling or one its
// builder rejects (the HTTP front-end turns it into 400).
var ErrInvalidRequest = fmt.Errorf("gpuperf: invalid request")

// ErrKernelFault reports a user-submitted kernel that faulted while
// it ran: an unaligned access, a barrier deadlock or a spent
// instruction budget. The fault is the kernel's, not the server's
// (the HTTP front-end turns it into 422); a built-in kernel's failure
// is never classified as one.
var ErrKernelFault = fmt.Errorf("gpuperf: kernel fault")

// unknown is the ErrUnknownKernel error for name, listing the
// built-in kernels.
func (r *Registry) unknown(name string) error {
	return fmt.Errorf("%w %q (have %v)", ErrUnknownKernel, name, r.Names())
}

// Build constructs the named kernel's workload for the device.
func (r *Registry) Build(dev Device, name string, p Params) (*Workload, error) {
	s, ok := r.Lookup(name)
	if !ok {
		return nil, r.unknown(name)
	}
	return s.build(dev, p.normalize(s.DefaultSize))
}

// DefaultRegistry returns the process-wide registry of the paper's
// case-study kernels, built once on first use:
//
//	matmul-naive, matmul8,
//	matmul16, matmul32              dense matrix multiply (§5.1; the
//	                                naive baseline starts the §4 walk)
//	cr, cr-nbc, cr-fwd              cyclic reduction (§5.2)
//	spmv-ell, spmv-bell-im,
//	spmv-bell-imiv                  sparse matrix-vector (§5.3)
func DefaultRegistry() *Registry { return defaultRegistry() }

var defaultRegistry = sync.OnceValue(func() *Registry {
	r := &Registry{specs: map[string]KernelSpec{}}
	for _, s := range builtinSpecs() {
		r.specs[s.Name] = s
	}
	return r
})

func builtinSpecs() []KernelSpec {
	specs := []KernelSpec{
		{
			Name:        "cr",
			Description: "cyclic-reduction tridiagonal solver, 512 equations/system (paper §5.2)",
			DefaultSize: 128,
			MaxSize:     16384,
			Family:      "cr",
			Build:       buildCR(false, false),
		},
		{
			Name:         "cr-nbc",
			Description:  "cyclic reduction with bank-conflict-removing padding (paper Fig. 8)",
			DefaultSize:  128,
			MaxSize:      16384,
			Family:       "cr",
			Optimization: "conflict-free-shared",
			Build:        buildCR(true, false),
		},
		{
			Name:        "cr-fwd",
			Description: "cyclic reduction, forward-reduction phase only (architect sweeps)",
			DefaultSize: 128,
			MaxSize:     16384,
			Family:      "cr",
			Build:       buildCR(false, true),
		},
		{
			Name:        "matmul-naive",
			Description: "one-thread-per-element dense matmul, uncoalesced column-order accesses (the §4 walk's starting point)",
			DefaultSize: 128,
			// The naive kernel refetches A and B per output element
			// (O(N³) global traffic); cap it well below the tiled
			// variants.
			MaxSize: 512,
			Family:  "matmul",
			Build:   buildMatmul(func(n int) (matmulKernel, error) { return kernels.NewMatmulNaive(n) }),
		},
	}
	for _, tile := range []int{8, 16, 32} {
		specs = append(specs, KernelSpec{
			Name:        fmt.Sprintf("matmul%d", tile),
			Description: fmt.Sprintf("Volkov dense matmul, %d×%d shared-memory tile (paper §5.1)", tile, tile),
			DefaultSize: 256,
			// 4096² keeps the three matrices within ~200 MB and far
			// from the kernel's uint32 address-space edge.
			MaxSize:      4096,
			Family:       "matmul",
			Optimization: "perfect-coalescing",
			Build:        buildMatmul(func(n int) (matmulKernel, error) { return kernels.NewMatmul(n, tile) }),
		})
	}
	for _, v := range []struct {
		name string
		kind kernels.SpMVKind
	}{
		{"spmv-ell", kernels.ELL},
		{"spmv-bell-im", kernels.BELLIM},
		{"spmv-bell-imiv", kernels.BELLIMIV},
	} {
		name, kind := v.name, v.kind
		specs = append(specs, KernelSpec{
			Name:        name,
			Description: fmt.Sprintf("QCD-like SpMV, %s storage (paper §5.3)", kind),
			DefaultSize: 8192,
			MaxSize:     262144,
			Family:      "spmv",
			Build:       buildSpMV(kind),
		})
	}
	return specs
}

// maxAbsDiff returns the worst absolute element difference, erroring
// past tol (a loose fp32 sanity bound — the reference is float64-free
// CPU arithmetic in a different summation order).
func maxAbsDiff(got, want []float32, tol float64) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("gpuperf: verify: %d results, want %d", len(got), len(want))
	}
	worst := 0.0
	for i := range want {
		d := math.Abs(float64(got[i] - want[i]))
		if math.IsNaN(d) {
			return math.NaN(), fmt.Errorf("gpuperf: verify: element %d is NaN (got %v, want %v)", i, got[i], want[i])
		}
		if d > worst {
			worst = d
		}
	}
	if worst > tol {
		return worst, fmt.Errorf("gpuperf: verify: max |error| %.3g exceeds %.3g", worst, tol)
	}
	return worst, nil
}

// matmulKernel is what buildMatmul needs of a matmul variant.
type matmulKernel interface {
	Launch() barra.Launch
	FLOPs() int64
	NewMemory(a, b []float32) (*barra.Memory, error)
	ReadC(mem *barra.Memory) ([]float32, error)
}

// buildMatmul builds one matmul variant from its constructor. Every
// variant draws the same inputs, so the same (size, seed) gives the
// whole family bit-identical A and B — measured times across the
// family compare one optimization at a time.
func buildMatmul(newKernel func(n int) (matmulKernel, error)) BuildFunc {
	return func(dev Device, p Params) (*Workload, error) {
		n := p.Size
		mm, err := newKernel(n)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(p.Seed))
		a := make([]float32, n*n)
		b := make([]float32, n*n)
		for i := range a {
			a[i], b[i] = rng.Float32(), rng.Float32()
		}
		mem, err := mm.NewMemory(a, b)
		if err != nil {
			return nil, err
		}
		return &Workload{
			Launch: mm.Launch(),
			Mem:    mem,
			FLOPs:  mm.FLOPs(),
			Verify: func(ctx context.Context, mem *barra.Memory) (float64, error) {
				got, err := mm.ReadC(mem)
				if err != nil {
					return 0, err
				}
				want, err := kernels.MulRef(ctx, n, a, b)
				if err != nil {
					return 0, err
				}
				// fp32 dot products of n terms: scale the bound with n.
				return maxAbsDiff(got, want, 1e-5*float64(n))
			},
		}, nil
	}
}

func buildCR(nbc, forwardOnly bool) BuildFunc {
	return func(dev Device, p Params) (*Workload, error) {
		const equations = 512
		solver, err := kernels.NewCR(dev, p.Size, equations, nbc, forwardOnly)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(p.Seed))
		systems := make([]tridiag.System, p.Size)
		for i := range systems {
			systems[i] = tridiag.NewRandom(equations, rng)
		}
		mem, err := solver.NewMemory(systems)
		if err != nil {
			return nil, err
		}
		w := &Workload{Launch: solver.Launch(), Mem: mem}
		if !forwardOnly {
			w.Verify = func(ctx context.Context, mem *barra.Memory) (float64, error) {
				worst := 0.0
				for i := range systems {
					if err := ctx.Err(); err != nil {
						return 0, err
					}
					x, err := solver.ReadX(mem, i)
					if err != nil {
						return 0, err
					}
					r := systems[i].Residual(x)
					if math.IsNaN(r) {
						return math.NaN(), fmt.Errorf("gpuperf: verify: system %d residual is NaN", i)
					}
					if r > worst {
						worst = r
					}
				}
				if worst > 1e-3 {
					return worst, fmt.Errorf("gpuperf: verify: worst residual %.3g exceeds 1e-3", worst)
				}
				return worst, nil
			}
		}
		return w, nil
	}
}

func buildSpMV(kind kernels.SpMVKind) BuildFunc {
	return func(dev Device, p Params) (*Workload, error) {
		rng := rand.New(rand.NewSource(p.Seed))
		m, err := sparse.GenQCDLike(p.Size, 9, rng)
		if err != nil {
			return nil, err
		}
		sp, err := kernels.NewSpMV(kind, m)
		if err != nil {
			return nil, err
		}
		x := make([]float32, m.Rows())
		for i := range x {
			x[i] = rng.Float32()
		}
		mem, err := sp.NewMemory(x)
		if err != nil {
			return nil, err
		}
		return &Workload{
			Launch:  sp.Launch(),
			Mem:     mem,
			Regions: sp.Regions(),
			FLOPs:   sp.FLOPs(),
			Verify: func(ctx context.Context, mem *barra.Memory) (float64, error) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				got, err := sp.ReadY(mem)
				if err != nil {
					return 0, err
				}
				want, err := m.MulDense(x)
				if err != nil {
					return 0, err
				}
				return maxAbsDiff(got, want, 1e-3)
			},
		}, nil
	}
}
