// Package barra is the functional GPU simulator — the stand-in for
// the Barra simulator the paper drives its model with.
//
// It executes native-ISA kernels warp by warp on real data and
// collects the dynamic program statistics the performance model
// consumes: instruction counts per cost class, shared-memory
// transactions with and without bank conflicts, hardware-level
// global-memory transactions under the coalescing protocol, and the
// program's division into stages by synchronization barriers
// (paper Fig. 1, "Info extractor" inputs).
//
// # Hot-path allocation contract
//
// The simulator's throughput rests on its inner loops allocating
// nothing: a warp executes millions of instructions per run, so one
// heap allocation per step is the difference between an L1-resident
// interpreter and a GC-bound one. The contract is enforced twice:
//
//   - Statically: functions annotated //gpuperf:noalloc in their doc
//     comment are roots for the noalloc analyzer (internal/lint, run
//     by cmd/gpuperflint in CI). Every function statically reachable
//     from a root inside this module is scanned for allocating
//     constructs — map/slice literals, make, new, append, closures,
//     go statements, fmt calls, string↔[]byte conversions, interface
//     boxing, and dynamic calls the analyzer cannot see through.
//   - Dynamically: the testing.AllocsPerRun pins in alloc_test.go
//     execute the same paths and fail on any measured allocation,
//     catching what escapes static analysis (stdlib internals,
//     escape-analysis regressions across Go releases).
//
// The annotated roots are Warp.Step and Warp.stepRun (the per-
// instruction interpreter), worker.leanBlock (the homogeneous-block
// lean pass), worker.record and worker.stageEnd (the live per-step
// stats accounting), bank.Sim.Transactions, coalesce.Sim.HalfWarpInto
// (the per-access memory models), and statsCollector.merge (the
// per-block stats fold).
//
// Where a reachable line deliberately allocates — amortized growth
// into caller-owned scratch, a cold fallback the engine never takes,
// the opt-in access hook — it carries //gpuperf:alloc-ok <why>. The
// justification is mandatory (the analyzer flags a bare directive),
// so every exception in the tree documents why the invariant
// legitimately bends there. Constructs inside a `return` that yields
// a freshly constructed error are exempt automatically: abort paths
// run at most once per run and sit outside the AllocsPerRun steady
// state.
//
// When adding code on an annotated path, prefer caller-provided
// scratch (see the worker type's reusable buffers and blockStatsPool)
// over fresh slices, and
// pointer-shaped values over interface boxing; if an allocation is
// genuinely amortized or cold, annotate it and say why.
package barra
