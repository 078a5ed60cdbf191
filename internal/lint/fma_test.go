package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gpuperf/internal/lint"
)

// fusedOp matches one fused multiply-add in the compiler's arm64
// assembly listing, capturing the source file and line.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\s`)

// TestNoFusedMultiplyAddOnArm64 cross-compiles the deterministic code
// (RepoDeterminismPolicy) for arm64 and fails on any fused
// multiply-add in its assembly. The Go spec lets a compiler fuse
// x*y + z into one instruction with a single rounding, and the arm64
// backend does, so wherever the product is inexact arm64 would compute
// other bits than the amd64 goldens record. An explicit conversion of
// the product, float32(x*y) or float64(x*y), forbids the fusion.
// Reading the compiler's output also catches a product and a sum in
// different statements, which a syntactic check would miss.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the deterministic packages; run without -short")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pol := lint.RepoDeterminismPolicy()
	// The root package holds the policy's Files; only they count.
	args := append([]string{"build", "-gcflags=-S"}, pol.Packages...)
	args = append(args, "gpuperf")
	cmd := exec.Command(goCmd, args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		rel, ok := strings.CutPrefix(m[1], root+string(filepath.Separator))
		if !ok {
			rel = strings.TrimPrefix(m[1], "gpuperf/") // a -trimpath build
		}
		rel = filepath.ToSlash(rel)
		if !strings.Contains(rel, "/") && !slices.Contains(pol.Files, rel) {
			continue
		}
		t.Errorf("%s:%s: %s fuses a product into a sum on arm64; round the product with an explicit float conversion", rel, m[2], m[3])
	}
}
