package gpuperf

import (
	"bytes"
	"testing"

	"gpuperf/internal/asm"
)

// Fuzz targets for the toolchain's two front doors. POST /v1/kernels
// feeds both with network input (assembly text via Source, container
// bytes via Container), so neither may panic on arbitrary bytes, and
// everything they accept must survive the disassemble/reassemble
// roundtrip the rest of the system leans on.

// fuzzSeedTexts disassembles a few registry kernels so the corpus
// starts from real programs (guards, shared memory, branches, float
// immediates) rather than random bytes.
func fuzzSeedTexts(f *testing.F) []string {
	dev := DefaultDevice()
	reg := DefaultRegistry()
	var out []string
	for _, name := range []string{"matmul16", "matmul-naive", "spmv-ell"} {
		w, err := reg.Build(dev, name, Params{})
		if err != nil {
			f.Fatalf("seeding from registry kernel %s: %v", name, err)
		}
		out = append(out, asm.Disassemble(w.Launch.Prog))
	}
	return out
}

// FuzzAssembleText: any text the assembler accepts must disassemble
// and reassemble to a byte-identical container — the property `gpuasm
// as -roundtrip` asserts per invocation, checked here over the whole
// accepted language.
func FuzzAssembleText(f *testing.F) {
	for _, src := range fuzzSeedTexts(f) {
		f.Add(src)
	}
	f.Add(".kernel k\n.regs 3\nmov r1, 0x7\nfadd r2, r1, f:1.5\nexit\n")
	f.Add(".kernel g\n.regs 5\n@!p1 bra @2\nisetp.lt p0, r1, 0x20\nsld r4, r3\nbar.sync\nexit ; tail\n")
	f.Fuzz(func(t *testing.T, src string) {
		raw, err := AssembleText(src)
		if err != nil {
			return
		}
		text, err := DisassembleContainer(raw)
		if err != nil {
			t.Fatalf("assembled container does not disassemble: %v\nsource:\n%s", err, src)
		}
		raw2, err := AssembleText(text)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\ndisassembly:\n%s", err, text)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("reassembly is not byte-identical (%d vs %d bytes)\nsource:\n%s", len(raw), len(raw2), src)
		}
	})
}

// FuzzDisassembleContainer: any container bytes the parser accepts
// must render as text the assembler takes back, and that text must be
// a disassembly fixed point. (Bytes are not compared — a container
// may encode an instruction non-canonically — but the text must be.)
func FuzzDisassembleContainer(f *testing.F) {
	for _, src := range fuzzSeedTexts(f) {
		raw, err := AssembleText(src)
		if err != nil {
			f.Fatalf("seeding container: %v", err)
		}
		f.Add(raw)
	}
	f.Add([]byte("GCUB"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		text, err := DisassembleContainer(raw)
		if err != nil {
			return
		}
		raw2, err := AssembleText(text)
		if err != nil {
			t.Fatalf("accepted container's disassembly does not reassemble: %v\ndisassembly:\n%s", err, text)
		}
		text2, err := DisassembleContainer(raw2)
		if err != nil {
			t.Fatalf("reassembled container does not disassemble: %v", err)
		}
		if text2 != text {
			t.Fatalf("disassembly is not a fixed point:\n%s\nvs\n%s", text, text2)
		}
	})
}
