package device

// Golden-result tests: the timing simulator's Result for the paper
// kernels, on the full GTX 285 and on its 6-SM slice, is pinned to
// fingerprints recorded before the event queue was rewritten, so any
// change that moves a single cycle, busy sum or byte of final device
// memory fails loudly. The fingerprint is a SHA-256 over a canonical
// rendering of every Result field (floats as their IEEE-754 bit
// patterns) plus the final memory image.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gpuperf/internal/barra"
	"gpuperf/internal/gpu"
	"gpuperf/internal/kernels"
	"gpuperf/internal/sparse"
	"gpuperf/internal/tridiag"
)

// goldenCase builds a fresh launch and memory per call: a timed run
// consumes its memory.
type goldenCase struct {
	name  string
	build func(tb testing.TB) (barra.Launch, *barra.Memory)
}

// goldenCases are the paper kernels at small sizes. Grids exceed the
// 6-SM slice's resident-block slots, so block refill is covered.
func goldenCases() []goldenCase {
	cr := func(nbc bool) func(tb testing.TB) (barra.Launch, *barra.Memory) {
		return func(tb testing.TB) (barra.Launch, *barra.Memory) {
			const systems, eqs = 40, 256
			solver, err := kernels.NewCR(gpu.GTX285(), systems, eqs, nbc, false)
			if err != nil {
				tb.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			sys := make([]tridiag.System, systems)
			for i := range sys {
				sys[i] = tridiag.NewRandom(eqs, rng)
			}
			mem, err := solver.NewMemory(sys)
			if err != nil {
				tb.Fatal(err)
			}
			return solver.Launch(), mem
		}
	}
	spmv := func(kind kernels.SpMVKind, blockRows int) func(tb testing.TB) (barra.Launch, *barra.Memory) {
		return func(tb testing.TB) (barra.Launch, *barra.Memory) {
			m, err := sparse.GenQCDLike(blockRows, 9, rand.New(rand.NewSource(8)))
			if err != nil {
				tb.Fatal(err)
			}
			sp, err := kernels.NewSpMV(kind, m)
			if err != nil {
				tb.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			x := make([]float32, m.Rows())
			for i := range x {
				x[i] = rng.Float32()
			}
			mem, err := sp.NewMemory(x)
			if err != nil {
				tb.Fatal(err)
			}
			return sp.Launch(), mem
		}
	}
	return []goldenCase{
		{"matmul16", func(tb testing.TB) (barra.Launch, *barra.Memory) {
			const n = 128
			mm, err := kernels.NewMatmul(n, 16)
			if err != nil {
				tb.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			a := make([]float32, n*n)
			b := make([]float32, n*n)
			for i := range a {
				a[i], b[i] = rng.Float32(), rng.Float32()
			}
			mem, err := mm.NewMemory(a, b)
			if err != nil {
				tb.Fatal(err)
			}
			return mm.Launch(), mem
		}},
		{"cr", cr(false)},
		{"cr-nbc", cr(true)},
		{"spmv-ell", spmv(kernels.ELL, 512)},
		{"spmv-bell-imiv", spmv(kernels.BELLIMIV, 1024)},
	}
}

// goldenDevices are the full chip and the 6-SM slice the fleet
// serves as "gtx285-6sm", both with EarlyRelease off.
func goldenDevices() []gpu.Config {
	six := gpu.GTX285()
	six.Name += "-6sm"
	six.NumSMs = 6
	return []gpu.Config{gpu.GTX285(), six}
}

// canonicalResult renders every Result field, recursing into structs
// and arrays, with floats as bit patterns so a one-ulp drift shows.
func canonicalResult(r Result) string {
	var b strings.Builder
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
			}
		case reflect.Float64:
			fmt.Fprintf(&b, "%s=%#016x (%v)\n", name, math.Float64bits(v.Float()), v.Float())
		default:
			fmt.Fprintf(&b, "%s=%v\n", name, v)
		}
	}
	walk("Result", reflect.ValueOf(r))
	return b.String()
}

func resultFingerprint(r Result, mem []uint32) string {
	h := sha256.New()
	h.Write([]byte(canonicalResult(r)))
	var w [4]byte
	for _, v := range mem {
		w[0], w[1], w[2], w[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenResults were recorded with the container/heap event queue;
// every later simulator change must reproduce them bit-identically.
var goldenResults = map[string]string{
	"GTX285/matmul16":           "4d719e1ce58aa40c89528f06fb72dbf72e6d747cd38c3dd9846d920e4226e72e",
	"GTX285/cr":                 "ff8c4b3e3db8157b960458b361a9989cec66717b3dc8a2770b1888695c2f2459",
	"GTX285/cr-nbc":             "409dd703cf7b04cf99e35b2af8f7dac3d8a5560c63a32724a9b3c945e1655017",
	"GTX285/spmv-ell":           "6725baca903cb48f5d7c5f946c579f76f358dd7c27662e05119b098e7de57efa",
	"GTX285/spmv-bell-imiv":     "699ac0826e515bad1325002c69337a46eed9e419f366ad8c64fb67188472a106",
	"GTX285-6sm/matmul16":       "c7ad89a72a4106229933f5ca3568bc0b02c4d8618c66f5a234a53bdeb51d79bf",
	"GTX285-6sm/cr":             "6874e769a3440b8f26c0f3c99246f8455a10a04c20fb866b34e0df156c0322ac",
	"GTX285-6sm/cr-nbc":         "35a2f031b05c36493201b4c5d2b53dcf4dc400cc246712cafc2b7de36e1aac47",
	"GTX285-6sm/spmv-ell":       "25222edfc5611894baf88b2eb02e4b555501fdc3713b0c524f632defbb25fe68",
	"GTX285-6sm/spmv-bell-imiv": "4cede2efd6d7eee4662cec982fac31de3c29af50bd195b33a55af6b5fb383471",
}

func TestGoldenResults(t *testing.T) {
	for _, cfg := range goldenDevices() {
		for _, c := range goldenCases() {
			key := cfg.Name + "/" + c.name
			t.Run(key, func(t *testing.T) {
				l, mem := c.build(t)
				r, err := Run(cfg, l, mem)
				if err != nil {
					t.Fatal(err)
				}
				words, err := mem.ReadWords(0, mem.Size()/4)
				if err != nil {
					t.Fatal(err)
				}
				got := resultFingerprint(r, words)
				want, ok := goldenResults[key]
				if !ok {
					t.Fatalf("no golden recorded for %q (got %s)", key, got)
				}
				if got != want {
					t.Errorf("fingerprint drift: got %s want %s\ncanonical result:\n%s",
						got, want, canonicalResult(r))
				}
			})
		}
	}
}
