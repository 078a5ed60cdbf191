package main

import (
	"fmt"
	"math/rand"
)

// Op names a front-door operation.
type Op string

const (
	OpAnalyze Op = "analyze"
	OpAdvise  Op = "advise"
	OpCompare Op = "compare"
	OpMeasure Op = "measure"
)

// Devices are the two catalog entries the benchmark serves: the
// paper's stock part and its two-cluster slice.
var Devices = []string{"gtx285", "gtx285-6sm"}

// Request is one generated benchmark request. Compare requests name
// both devices; every other operation names one.
type Request struct {
	Op      Op
	Kernel  string
	Size    int
	Seed    int64
	Device  string
	Devices []string
	Measure bool
	// SkipVerify drops the CPU-reference check (warm-up requests only).
	SkipVerify bool
	// Revalidate marks a hot request that resends the tuple's ETag in
	// If-None-Match and expects 304.
	Revalidate bool
	// Tuple indexes the hot workload's tuple table (hot only).
	Tuple int
}

func (r Request) String() string {
	dev := r.Device
	if r.Op == OpCompare {
		dev = fmt.Sprint(r.Devices)
	}
	return fmt.Sprintf("%s %s n=%d seed=%d %s measure=%v", r.Op, r.Kernel, r.Size, r.Seed, dev, r.Measure)
}

// Family returns the kernel family a registry kernel belongs to.
func Family(kernel string) string {
	switch {
	case len(kernel) >= 6 && kernel[:6] == "matmul":
		return "matmul"
	case len(kernel) >= 4 && kernel[:4] == "spmv":
		return "spmv"
	default:
		return "cr"
	}
}

// KernelSize is one (kernel, size) problem shape.
type KernelSize struct {
	Kernel string
	Size   int
}

// predictShapes covers every built-in kernel from its registry default
// up to paper scale (matmul n ≤ 512, cr ≤ 512 systems, spmv ≤ 16384
// block rows). Shapes that share a launch geometry with an earlier
// entry (matmul32 at 512 and matmul8 at 256, cr and cr-nbc) still
// appear, because their engine, verify and build work differs. The
// order, most expensive global-bandwidth microbenchmark first, is the
// warm-up order, so two clients finish the warm-up close together.
var predictShapes = []KernelSize{
	{"cr", 512},
	{"spmv-ell", 8192},
	{"matmul16", 512},
	{"spmv-bell-imiv", 16384},
	{"cr", 128},
	{"cr-fwd", 128},
	{"matmul8", 256},
	{"spmv-bell-im", 8192},
	{"matmul16", 256},
	{"matmul32", 256},
	{"matmul32", 512},
	{"matmul-naive", 128},
	{"cr-nbc", 512},
	{"cr-nbc", 128},
	{"spmv-bell-imiv", 8192},
	{"spmv-bell-im", 16384},
}

// predictAdvise marks the shapes that also get an Advise request per
// round: 6 advise against 16 analyze, about 1:3.
func predictAdvise(i int) bool { return i%3 == 0 }

// seedStride separates the input-seed ranges of different workload
// seeds, so no two runs share a result-cache key or input.
const seedStride = 1_000_003

// inputSeed is the input seed of request i of a run with seed seed.
// Warm-up requests draw from a disjoint range (warm true).
func inputSeed(seed int64, i int, warm bool) int64 {
	s := seed*seedStride + int64(i) + 1
	if warm {
		s += 1 << 40
	}
	return s
}

// PredictWarmup returns the predict warm-up list: every shape once on
// the default device, verification off, with seeds disjoint from the
// timed requests'.
func PredictWarmup(seed int64) []Request {
	out := make([]Request, len(predictShapes))
	for i, ks := range predictShapes {
		out[i] = Request{Op: OpAnalyze, Kernel: ks.Kernel, Size: ks.Size,
			Seed: inputSeed(seed, i, true), Device: Devices[0], SkipVerify: true}
	}
	return out
}

// PredictRequests returns rounds predict requests: each round holds
// one Analyze per shape and one Advise per marked shape, in a
// seed-shuffled order, and every request has a fresh input seed so it
// misses the result cache.
func PredictRequests(seed int64, rounds int) []Request {
	rng := rand.New(rand.NewSource(seed))
	var out []Request
	for r := 0; r < rounds; r++ {
		var round []Request
		for i, ks := range predictShapes {
			round = append(round, Request{Op: OpAnalyze, Kernel: ks.Kernel, Size: ks.Size, Device: Devices[0]})
			if predictAdvise(i) {
				round = append(round, Request{Op: OpAdvise, Kernel: ks.Kernel, Size: ks.Size, Device: Devices[0]})
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	for i := range out {
		out[i].Seed = inputSeed(seed, i, false)
	}
	return out
}

// validateShapes returns the validate workload's shape sequence, each
// shape used once. Kernels that share a launch geometry at equal sizes
// (cr and cr-nbc, spmv-bell-im and -imiv) get disjoint sizes, so every
// shape pays its own global-bandwidth microbenchmark; cr-fwd moves
// fewer bytes per thread than both, so it shares their sizes. Each
// family's shapes are in one fixed shuffled order, the same for every
// seed, so the cost of a stretch of requests does not drift along the
// run. In every group of five shapes, two are cr and two spmv; the
// fifth is a matmul in every fifth group (the family has only eight
// small shapes) and otherwise alternates between spmv and cr.
func validateShapes() []KernelSize {
	var cr, spmv, mm []KernelSize
	for n := 4; n < 52; n++ {
		k := "cr"
		if n%2 == 1 {
			k = "cr-nbc"
		}
		cr = append(cr, KernelSize{k, n}, KernelSize{"cr-fwd", n})
	}
	for j := 0; j < 16; j++ {
		spmv = append(spmv, KernelSize{"spmv-ell", 128 * (1 + j)})
	}
	for j := 0; j < 40; j++ {
		spmv = append(spmv, KernelSize{"spmv-bell-im", 128 * (1 + 2*j)}, KernelSize{"spmv-bell-imiv", 128 * (2 + 2*j)})
	}
	for _, n := range []int{64, 128} {
		for _, k := range []string{"matmul8", "matmul16", "matmul32", "matmul-naive"} {
			mm = append(mm, KernelSize{k, n})
		}
	}
	fixed := rand.New(rand.NewSource(1))
	for _, fam := range [][]KernelSize{cr, spmv, mm} {
		fixed.Shuffle(len(fam), func(i, j int) { fam[i], fam[j] = fam[j], fam[i] })
	}
	var out []KernelSize
	take := func(fam *[]KernelSize) bool {
		if len(*fam) == 0 {
			return false
		}
		out = append(out, (*fam)[0])
		*fam = (*fam)[1:]
		return true
	}
	for g := 0; ; g++ {
		if !take(&cr) || !take(&spmv) || !take(&cr) || !take(&spmv) {
			break
		}
		fifth := &cr
		switch {
		case g%5 == 0 && len(mm) > 0:
			fifth = &mm
		case g%2 == 1:
			fifth = &spmv
		}
		if !take(fifth) {
			break
		}
	}
	return out[:len(out)/5*5]
}

// ValidateRequests returns the validate request list. Shapes are
// consumed in groups of five: two become a Compare across both
// devices, three become one request per device, so each group yields
// 4 Analyze (measure on), 2 Compare (measure on) and 2 Measure — the
// 2:1:1 mix — and no (kernel, size, device) tuple repeats. Requests
// are shuffled within each group of eight.
func ValidateRequests(seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	shapes := validateShapes()
	var out []Request
	for g := 0; g+5 <= len(shapes); g += 5 {
		grp := shapes[g : g+5]
		a, b := Devices[0], Devices[1]
		if (g/5)%2 == 1 {
			a, b = b, a
		}
		round := []Request{
			{Op: OpCompare, Kernel: grp[0].Kernel, Size: grp[0].Size, Devices: Devices, Measure: true},
			{Op: OpCompare, Kernel: grp[1].Kernel, Size: grp[1].Size, Devices: Devices, Measure: true},
			{Op: OpAnalyze, Kernel: grp[2].Kernel, Size: grp[2].Size, Device: a, Measure: true},
			{Op: OpAnalyze, Kernel: grp[2].Kernel, Size: grp[2].Size, Device: b, Measure: true},
			{Op: OpAnalyze, Kernel: grp[3].Kernel, Size: grp[3].Size, Device: a, Measure: true},
			{Op: OpMeasure, Kernel: grp[3].Kernel, Size: grp[3].Size, Device: b},
			{Op: OpAnalyze, Kernel: grp[4].Kernel, Size: grp[4].Size, Device: b, Measure: true},
			{Op: OpMeasure, Kernel: grp[4].Kernel, Size: grp[4].Size, Device: a},
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	for i := range out {
		out[i].Seed = inputSeed(seed, i, false)
	}
	return out
}

// hotTuple is one entry of the hot workload's repeat-traffic table.
type hotTuple struct {
	op      Op
	kernel  string
	size    int
	measure bool
}

// hotTable holds the 16 single-device shapes (each asked on both
// devices) and 8 cross-device comparisons of the hot workload: 32
// cache slots at small sizes.
var hotTable = []hotTuple{
	{OpAnalyze, "matmul16", 64, true},
	{OpAnalyze, "cr", 16, true},
	{OpAnalyze, "spmv-ell", 256, true},
	{OpAnalyze, "spmv-bell-imiv", 512, true},
	{OpAnalyze, "matmul32", 128, false},
	{OpAnalyze, "cr-nbc", 32, false},
	{OpAnalyze, "cr-fwd", 16, false},
	{OpAnalyze, "spmv-bell-im", 1024, false},
	{OpAdvise, "matmul8", 64, false},
	{OpAdvise, "cr", 32, false},
	{OpAdvise, "spmv-ell", 512, false},
	{OpAdvise, "matmul-naive", 64, false},
	{OpCompare, "matmul16", 128, true},
	{OpCompare, "cr-nbc", 16, true},
	{OpCompare, "spmv-bell-im", 512, true},
	{OpCompare, "cr-fwd", 32, true},
	{OpCompare, "matmul8", 128, true},
	{OpCompare, "spmv-ell", 1024, true},
	{OpCompare, "cr", 8, true},
	{OpCompare, "spmv-bell-imiv", 256, true},
}

// HotTuples expands hotTable into the hot workload's 32 requests,
// with input seeds drawn from seed.
func HotTuples(seed int64) []Request {
	var out []Request
	for _, t := range hotTable {
		if t.op == OpCompare {
			out = append(out, Request{Op: t.op, Kernel: t.kernel, Size: t.size, Devices: Devices, Measure: t.measure})
			continue
		}
		for _, d := range Devices {
			out = append(out, Request{Op: t.op, Kernel: t.kernel, Size: t.size, Device: d, Measure: t.measure})
		}
	}
	for i := range out {
		out[i].Seed = inputSeed(seed, i, false)
		out[i].Tuple = i
	}
	return out
}

// HotSequence is the hot workload's endless repeat traffic: tuples in
// a seed-shuffled cyclic order, every other visit to a tuple
// revalidating with If-None-Match.
type HotSequence struct {
	tuples []Request
	order  []int
}

// NewHotSequence shuffles the tuple order from seed.
func NewHotSequence(seed int64, tuples []Request) *HotSequence {
	rng := rand.New(rand.NewSource(seed))
	return &HotSequence{tuples: tuples, order: rng.Perm(len(tuples))}
}

// At returns request i.
func (s *HotSequence) At(i int) Request {
	n := len(s.order)
	r := s.tuples[s.order[i%n]]
	r.Revalidate = (i/n+r.Tuple)%2 == 1
	return r
}
