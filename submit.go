package gpuperf

import (
	"fmt"
	"time"

	"gpuperf/internal/barra"
	"gpuperf/internal/ingest"
)

// Bring-your-own-kernel: POST /v1/kernels accepts an untrusted
// program (assembly text or a compiled container) plus its launch
// geometry and declared input buffers, and runs it through the
// internal/ingest admission pipeline (static ceilings plus the bounds
// verifier). The fleet's submission store is the accepted
// submission's only owner; its content-addressed id is its kernel
// name, which the fleet resolves through the store on every request
// (see Fleet.lookup). From there the existing
// analyze/advise/measure/compare path serves it unchanged — including
// the result cache, whose keys are automatically content-addressed
// because the kernel name is.

// BufferSpec declares one input buffer of a kernel submission; see
// the field docs in internal/ingest.
type BufferSpec = ingest.BufferSpec

// SubmissionLimits are the per-submission ceilings and submission
// store budgets; see the field docs in internal/ingest. Zero fields
// take the package defaults.
type SubmissionLimits = ingest.Limits

// KernelSubmission is the POST /v1/kernels request body: exactly one
// of Source or Container, the launch geometry, and the declared
// global-memory buffers; see the field docs in internal/ingest.
type KernelSubmission = ingest.Request

// SubmissionReceipt is the POST /v1/kernels response: the accepted
// submission's content-addressed id (also its kernel name —
// pass it as Request.Kernel to analyze it) and the static summary the
// admission pass computed.
type SubmissionReceipt struct {
	// ID is "subm-<hash16>", the submission's kernel name.
	ID string `json:"id"`
	// Kernel is the program's own name inside the container.
	Kernel string `json:"kernel"`
	Label  string `json:"label,omitempty"`
	// Existing is true when an identical program+spec was already
	// resident — the submission was deduplicated, not re-admitted.
	Existing bool `json:"existing,omitempty"`
	Grid     int  `json:"grid"`
	Block    int  `json:"block"`
	// Static summary from admission.
	Instructions   int   `json:"instructions"`
	Registers      int   `json:"registers"`
	SharedMemBytes int   `json:"shared_mem_bytes"`
	FootprintBytes int64 `json:"footprint_bytes"`
	// MaxWarpInstructions is the dynamic instruction budget frozen at
	// admission; a run exceeding it aborts.
	MaxWarpInstructions int64 `json:"max_warp_instructions"`
	// CreatedAt stamps admission; ExpiresAt is when TTL eviction
	// retires the submission (absent further resubmissions).
	CreatedAt time.Time `json:"created_at"`
	ExpiresAt time.Time `json:"expires_at"`
}

// IsSubmissionID reports whether a kernel name is a submission id
// ("subm-" prefixed) — how front-ends recognize submission traffic.
func IsSubmissionID(name string) bool { return ingest.IsSubmissionID(name) }

// SubmissionID computes the content-addressed id a submission would
// receive, without applying any ceilings or admitting anything — what
// the HTTP router uses to pick the worker shard that owns it.
func SubmissionID(req KernelSubmission) (string, error) {
	id, err := ingest.ID(req)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return id, nil
}

// openSubmissions opens the fleet's submission store, which reloads
// any submissions persisted in SubmissionDir. An open failure (an
// unwritable directory) is deferred to the first SubmitKernel rather
// than failing fleet construction — the rest of the service works.
func (f *Fleet) openSubmissions() {
	lim := f.opt.SubmissionLimits
	f.subs, f.subsErr = ingest.NewStore(ingest.StoreConfig{
		MaxCount: lim.MaxCount,
		MaxBytes: lim.MaxBytes,
		TTL:      lim.TTL,
		Dir:      f.opt.SubmissionDir,
	})
}

// submissionSpec is the kernel spec a submission is served as. Its
// build closes over the immutable Submission: rebuilding per (size,
// seed) is exactly as deterministic as the built-ins. Size is pinned
// to 1 — a submission is one concrete problem instance, not a
// parameterized family.
func submissionSpec(sub *ingest.Submission) KernelSpec {
	desc := fmt.Sprintf("user-submitted kernel %q, %d×%d launch", sub.Kernel, sub.Grid, sub.Block)
	if sub.Label != "" {
		desc = fmt.Sprintf("user-submitted kernel %q (%s), %d×%d launch", sub.Kernel, sub.Label, sub.Grid, sub.Block)
	}
	return KernelSpec{
		Name:        sub.ID,
		Description: desc,
		DefaultSize: 1,
		MaxSize:     1,
		Family:      "submitted",
		Unverified:  true,
		Build: func(dev Device, p Params) (*Workload, error) {
			prog, err := sub.Program()
			if err != nil {
				return nil, err
			}
			mem, regions, err := sub.NewMemory(p.Seed)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Launch:              barra.Launch{Prog: prog, Grid: sub.Grid, Block: sub.Block},
				Mem:                 mem,
				Regions:             regions,
				MaxWarpInstructions: sub.MaxWarpInstructions,
			}, nil
		},
	}
}

// SubmitKernel admits one user-submitted kernel: compile it through
// the assembler/container toolchain, enforce the per-submission
// ceilings, prove every memory access inside the declared buffer
// envelope, and put the result in the fleet's submission store under
// its content-addressed id, which is then a kernel name. Rejections
// wrap ErrInvalidRequest and name the violated ceiling. Resubmitting
// an identical program+spec returns the same id with Existing set and
// refreshes its TTL.
func (f *Fleet) SubmitKernel(req KernelSubmission) (*SubmissionReceipt, error) {
	if f.subsErr != nil {
		return nil, f.subsErr
	}
	sub, err := ingest.Compile(req, f.opt.SubmissionLimits, time.Now())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	existing, err := f.subs.Put(sub)
	if err != nil {
		return nil, err
	}
	r := f.receipt(sub)
	r.Existing = existing
	return r, nil
}

// DeleteKernel evicts a submission by id, removing its on-disk slot.
// Unknown (or already expired) ids report ErrUnknownKernel.
func (f *Fleet) DeleteKernel(id string) error {
	if f.subsErr != nil {
		return f.subsErr
	}
	if !f.subs.Delete(id) {
		return fmt.Errorf("%w %q", ErrUnknownKernel, id)
	}
	return nil
}

// Submissions lists the resident submissions' receipts, most recently
// used first.
func (f *Fleet) Submissions() []*SubmissionReceipt {
	if f.subs == nil {
		return nil
	}
	subs := f.subs.List()
	out := make([]*SubmissionReceipt, len(subs))
	for i, sub := range subs {
		out[i] = f.receipt(sub)
	}
	return out
}

func (f *Fleet) receipt(sub *ingest.Submission) *SubmissionReceipt {
	return &SubmissionReceipt{
		ID:                  sub.ID,
		Kernel:              sub.Kernel,
		Label:               sub.Label,
		Grid:                sub.Grid,
		Block:               sub.Block,
		Instructions:        sub.Instructions,
		Registers:           sub.Registers,
		SharedMemBytes:      sub.SharedMemBytes,
		FootprintBytes:      sub.FootprintBytes,
		MaxWarpInstructions: sub.MaxWarpInstructions,
		CreatedAt:           sub.CreatedAt,
		ExpiresAt:           sub.CreatedAt.Add(f.subs.TTL()),
	}
}
