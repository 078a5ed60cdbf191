package barra_test

// Determinism tests for the sharded execution engine: running the
// three paper kernels (Volkov matmul, BELL+IMIV SpMV, cyclic
// reduction) at several Parallelism settings must produce Stats that
// are bit-identical to the serial path, identical final memory
// contents, and — for the GlobalAccessHook — an identical, block-
// ordered callback stream.

import (
	"math/rand"
	"reflect"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/kernels"
	"gpuperf/internal/sparse"
	"gpuperf/internal/tridiag"
)

// parallelisms exercises the serial path, a split grid, and more
// workers than some test grids have blocks.
var parallelisms = []int{1, 2, 8}

// detCase builds a fresh launch + memory per call (the functional run
// consumes the memory).
type detCase struct {
	name  string
	build func(t *testing.T) (barra.Launch, *barra.Memory, *barra.Options)
}

func detCases() []detCase {
	return []detCase{
		{"matmul16", func(t *testing.T) (barra.Launch, *barra.Memory, *barra.Options) {
			const n = 128
			mm, err := kernels.NewMatmul(n, 16)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			a := make([]float32, n*n)
			b := make([]float32, n*n)
			for i := range a {
				a[i], b[i] = rng.Float32(), rng.Float32()
			}
			mem, err := mm.NewMemory(a, b)
			if err != nil {
				t.Fatal(err)
			}
			return mm.Launch(), mem, nil
		}},
		{"spmv-bell-imiv", func(t *testing.T) (barra.Launch, *barra.Memory, *barra.Options) {
			m, err := sparse.GenQCDLike(1024, 9, rand.New(rand.NewSource(8)))
			if err != nil {
				t.Fatal(err)
			}
			sp, err := kernels.NewSpMV(kernels.BELLIMIV, m)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			x := make([]float32, m.Rows())
			for i := range x {
				x[i] = rng.Float32()
			}
			mem, err := sp.NewMemory(x)
			if err != nil {
				t.Fatal(err)
			}
			// Regions and extra granularities exercise the full
			// attribution surface of the stats merge.
			return sp.Launch(), mem, &barra.Options{
				Regions:       sp.Regions(),
				ExtraSegments: []int{16, 4},
			}
		}},
		{"cr", func(t *testing.T) (barra.Launch, *barra.Memory, *barra.Options) {
			const systems, eqs = 16, 512
			solver, err := kernels.NewCR(gpu.GTX285(), systems, eqs, false, false)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			sys := make([]tridiag.System, systems)
			for i := range sys {
				sys[i] = tridiag.NewRandom(eqs, rng)
			}
			mem, err := solver.NewMemory(sys)
			if err != nil {
				t.Fatal(err)
			}
			return solver.Launch(), mem, nil
		}},
	}
}

func runAt(t *testing.T, c detCase, p int) (*barra.Stats, []uint32) {
	t.Helper()
	l, mem, opt := c.build(t)
	if opt == nil {
		opt = &barra.Options{}
	}
	opt.Parallelism = p
	opt.VerifyBlockIsolation = true // the paper kernels honour the contract
	st, err := barra.Run(gpu.GTX285(), l, mem, opt)
	if err != nil {
		t.Fatalf("%s P=%d: %v", c.name, p, err)
	}
	words, err := mem.ReadWords(0, mem.Size()/4)
	if err != nil {
		t.Fatal(err)
	}
	return st, words
}

func TestParallelDeterminism(t *testing.T) {
	for _, c := range detCases() {
		t.Run(c.name, func(t *testing.T) {
			want, wantMem := runAt(t, c, 1)
			for _, p := range parallelisms[1:] {
				got, gotMem := runAt(t, c, p)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("P=%d Stats differ from serial run:\nserial:   %+v\nparallel: %+v", p, want, got)
				}
				if !reflect.DeepEqual(wantMem, gotMem) {
					t.Errorf("P=%d final memory differs from serial run", p)
				}
			}
		})
	}
}

// hookRecord is one captured GlobalAccessHook callback.
type hookRecord struct {
	block int
	load  bool
	addrs []uint32
}

// captureHooks runs the SpMV case at parallelism p with a recording
// GlobalAccessHook and returns the callback stream and the run's
// Stats.
func captureHooks(t *testing.T, p int) ([]hookRecord, *barra.Stats) {
	t.Helper()
	c := detCases()[1] // SpMV: the kernel Fig. 12 replays through the hook
	l, mem, opt := c.build(t)
	opt.Parallelism = p
	var recs []hookRecord
	opt.GlobalAccessHook = func(blockID int, load bool, addrs []uint32) {
		recs = append(recs, hookRecord{blockID, load, append([]uint32(nil), addrs...)})
	}
	st, err := barra.Run(gpu.GTX285(), l, mem, opt)
	if err != nil {
		t.Fatalf("P=%d: %v", p, err)
	}
	return recs, st
}

// TestHookOrdering: hook callbacks of a parallel run arrive in the
// exact order of the serial run — ascending block ID, program order
// within a block — so stateful replay consumers (the texture-cache
// experiments) see one stream regardless of Parallelism. A hooked run
// accounts like an unhooked one: its Stats, engine counters aside,
// equal the unhooked run's, and the hook fires once per global
// request.
func TestHookOrdering(t *testing.T) {
	want, _ := captureHooks(t, 1)
	for _, p := range parallelisms {
		got, hooked := captureHooks(t, p)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("P=%d hook stream differs from serial run (%d vs %d events)", p, len(got), len(want))
		}
		if int64(len(got)) != hooked.Total.GlobalRequests {
			t.Errorf("P=%d: hook fired %d times, stats count %d global requests", p, len(got), hooked.Total.GlobalRequests)
		}
		plain, _ := runAt(t, detCases()[1], p)
		hooked.Engine, plain.Engine = barra.EngineStats{}, barra.EngineStats{}
		if !reflect.DeepEqual(plain, hooked) {
			t.Errorf("P=%d hooked Stats differ from unhooked run:\nunhooked: %+v\nhooked:   %+v", p, plain, hooked)
		}
	}
	last := -1
	for i, r := range want {
		if r.block < last {
			t.Fatalf("event %d: block %d after block %d", i, r.block, last)
		}
		last = r.block
	}
}
