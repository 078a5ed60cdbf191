package experiments

import (
	"fmt"
	"math/rand"

	"gpuperf/internal/barra"
	"gpuperf/internal/device"
	"gpuperf/internal/kernels"
	"gpuperf/internal/model"
	"gpuperf/internal/sparse"
	"gpuperf/internal/texcache"
)

func (s *Suite) spmvBlockRows() int { return s.pick(4096, 16384) }

// spmvBlocksPerRow is the QCD-like degree: 9 3×3 blocks per row.
const spmvBlocksPerRow = 9

var spmvKinds = []kernels.SpMVKind{kernels.ELL, kernels.BELLIM, kernels.BELLIMIV}

func (s *Suite) spmvMatrix() (*sparse.Blocked, []float32, error) {
	m, err := sparse.GenQCDLike(s.spmvBlockRows(), spmvBlocksPerRow, rand.New(rand.NewSource(77)))
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(78))
	x := make([]float32, m.Rows())
	for i := range x {
		x[i] = 2*rng.Float32() - 1
	}
	return m, x, nil
}

func (s *Suite) spmvRun(kind kernels.SpMVKind, m *sparse.Blocked, x []float32, opt *barra.Options) (*kernels.SpMV, *barra.Stats, error) {
	sp, err := kernels.NewSpMV(kind, m)
	if err != nil {
		return nil, nil, err
	}
	mem, err := sp.NewMemory(x)
	if err != nil {
		return nil, nil, err
	}
	if opt == nil {
		opt = &barra.Options{}
	}
	opt.Regions = sp.Regions()
	opt.Parallelism = s.Parallelism
	st, err := barra.Run(s.ChipSlice(), sp.Launch(), mem, opt)
	if err != nil {
		return nil, nil, err
	}
	return sp, st, nil
}

// Figure11a reproduces paper Fig. 11(a): average bytes fetched per
// matrix entry, split into matrix / column-index / vector traffic,
// at 32-, 16- and 4-byte transaction granularities, for the three
// storage formats.
func (s *Suite) Figure11a() (*Table, error) {
	m, x, err := s.spmvMatrix()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 11a: bytes per matrix entry by traffic class and transaction granularity",
		Header: []string{"format", "granularity", "matrix", "colidx", "vector", "total"},
	}
	nnz := float64(m.NNZ())
	for _, kind := range spmvKinds {
		_, st, err := s.spmvRun(kind, m, x, &barra.Options{ExtraSegments: []int{16, 4}})
		if err != nil {
			return nil, err
		}
		for _, seg := range []int{32, 16, 4} {
			mt := float64(st.RegionTraffic["matrix"][seg].Bytes) / nnz
			ct := float64(st.RegionTraffic["colidx"][seg].Bytes) / nnz
			vt := float64(st.RegionTraffic["vector"][seg].Bytes) / nnz
			t.Add(kind.String(), fmt.Sprintf("%dB", seg), mt, ct, vt, mt+ct+vt)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: matrix 4B/entry everywhere; BELL cuts colidx to 1/9; IMIV cuts vector bytes; finer granularity cuts vector bytes further")
	return t, nil
}

// Figure11b reproduces paper Fig. 11(b): measured time and the
// model's per-component breakdown for the three formats.
func (s *Suite) Figure11b() (*Table, error) {
	cal, err := s.SliceCalibration()
	if err != nil {
		return nil, err
	}
	m, x, err := s.spmvMatrix()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 11b: SpMV time breakdown (%d rows, ms)", m.Rows()),
		Header: []string{"format", "instr", "shared", "global",
			"predicted", "measured", "err%", "bottleneck"},
	}
	for _, kind := range spmvKinds {
		sp, st, err := s.spmvRun(kind, m, x, nil)
		if err != nil {
			return nil, err
		}
		est, err := model.Analyze(cal, sp.Launch(), st)
		if err != nil {
			return nil, err
		}
		mem, err := sp.NewMemory(x)
		if err != nil {
			return nil, err
		}
		meas, err := device.Run(s.ChipSlice(), sp.Launch(), mem)
		if err != nil {
			return nil, err
		}
		t.Add(kind.String(),
			est.Component[model.CompInstruction]*1e3,
			est.Component[model.CompShared]*1e3,
			est.Component[model.CompGlobal]*1e3,
			est.TotalSeconds*1e3,
			meas.Seconds*1e3,
			est.CompareError(meas.Seconds)*100,
			est.Bottleneck.String())
	}
	t.Notes = append(t.Notes, "paper shape: all three formats global-memory bound; BELL+IMIV fastest")
	return t, nil
}

// Figure12 reproduces paper Fig. 12: achieved GFLOPS for the three
// formats with and without a texture cache for vector entries. The
// cache variants replay the kernel's vector-region accesses through
// the texture-cache simulator (one cache per block, reset per
// block, mirroring per-cluster locality) and discount the global
// time by the hit traffic.
func (s *Suite) Figure12() (*Table, error) {
	cal, err := s.SliceCalibration()
	if err != nil {
		return nil, err
	}
	m, x, err := s.spmvMatrix()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12: SpMV GFLOPS with optimization combinations",
		Header: []string{"variant", "GFLOPS", "vector hit rate"},
	}
	for _, kind := range spmvKinds {
		for _, cache := range []bool{false, true} {
			sp, err := kernels.NewSpMV(kind, m)
			if err != nil {
				return nil, err
			}
			vecLo, vecHi := vectorRegion(sp)
			var tc *texcache.Cache
			lastBlock := -1
			opt := s.runOptions()
			opt.Regions = sp.Regions()
			if cache {
				tc, err = texcache.New(texcache.Default())
				if err != nil {
					return nil, err
				}
				opt.GlobalAccessHook = func(blockID int, load bool, addrs []uint32) {
					if !load {
						return
					}
					if blockID != lastBlock {
						// Approximate per-cluster locality: a block's
						// working set does not persist across blocks.
						tc.Reset()
						lastBlock = blockID
					}
					for _, a := range addrs {
						if a >= vecLo && a < vecHi {
							tc.Access(a)
						}
					}
				}
			}
			mem, err := sp.NewMemory(x)
			if err != nil {
				return nil, err
			}
			st, err := barra.Run(s.ChipSlice(), sp.Launch(), mem, opt)
			if err != nil {
				return nil, err
			}
			est, err := model.Analyze(cal, sp.Launch(), st)
			if err != nil {
				return nil, err
			}
			total := est.TotalSeconds
			hitRate := 0.0
			if cache {
				hitRate = tc.HitRate()
				// Discount vector traffic by the hit rate: hits are
				// served by the texture cache, not DRAM.
				native := s.Cfg.MinSegmentBytes
				vecBytes := float64(st.RegionTraffic["vector"][native].Bytes)
				newGlobal := est.Component[model.CompGlobal] -
					vecBytes*hitRate/est.GlobalBandwidthUsed
				times := est.Component
				times[model.CompGlobal] = newGlobal
				total = times.Max()
			}
			name := kind.String()
			if cache {
				name += "+Cache"
			}
			t.Add(name, float64(sp.FLOPs())/total/1e9, hitRate)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: BELL+IMIV beats BELL+IM even without cache; BELL+IMIV+Cache best overall (paper: 37.7 vs 32.0 GFLOPS, +18%)")
	return t, nil
}

// vectorRegion returns the [lo,hi) byte range of the vector array.
func vectorRegion(sp *kernels.SpMV) (uint32, uint32) {
	for _, r := range sp.Regions() {
		if r.Name == "vector" {
			return r.Lo, r.Hi
		}
	}
	return 0, 0
}
