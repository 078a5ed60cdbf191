// Package tridiag provides tridiagonal linear systems: generators,
// a sequential Thomas-algorithm reference solver, and a CPU cyclic
// reduction whose index pattern mirrors the GPU kernels of paper
// §5.2 (so kernel and reference can be cross-checked step by step).
package tridiag

import (
	"fmt"
	"math"
	"math/rand"
)

// System is one tridiagonal system: A (sub-diagonal), B (diagonal),
// C (super-diagonal) and D (right-hand side). A[0] and C[n-1] are
// outside the matrix and must be zero.
type System struct {
	A, B, C, D []float32
}

// Size returns the number of equations.
func (s System) Size() int { return len(s.B) }

// Validate checks shape and boundary invariants.
func (s System) Validate() error {
	n := len(s.B)
	if n == 0 {
		return fmt.Errorf("tridiag: empty system")
	}
	if len(s.A) != n || len(s.C) != n || len(s.D) != n {
		return fmt.Errorf("tridiag: ragged system %d/%d/%d/%d", len(s.A), n, len(s.C), len(s.D))
	}
	if s.A[0] != 0 || s.C[n-1] != 0 {
		return fmt.Errorf("tridiag: boundary coefficients must be zero")
	}
	return nil
}

// NewRandom builds a diagonally dominant random system of size n
// (dominance keeps both Thomas and cyclic reduction stable in
// float32).
func NewRandom(n int, rng *rand.Rand) System {
	s := System{
		A: make([]float32, n),
		B: make([]float32, n),
		C: make([]float32, n),
		D: make([]float32, n),
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			s.A[i] = -(0.2 + float32(0.8*rng.Float32()))
		}
		if i < n-1 {
			s.C[i] = -(0.2 + float32(0.8*rng.Float32()))
		}
		s.B[i] = 2.5 + float32(math.Abs(float64(s.A[i]))) + float32(math.Abs(float64(s.C[i]))) + rng.Float32()
		s.D[i] = float32(2*rng.Float32()) - 1
	}
	return s
}

// Clone deep-copies the system.
func (s System) Clone() System {
	return System{
		A: append([]float32(nil), s.A...),
		B: append([]float32(nil), s.B...),
		C: append([]float32(nil), s.C...),
		D: append([]float32(nil), s.D...),
	}
}

// SolveThomas solves the system with the sequential Thomas
// algorithm in float64 and returns x.
func (s System) SolveThomas() ([]float32, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Size()
	cp := make([]float64, n)
	dp := make([]float64, n)
	b0 := float64(s.B[0])
	if b0 == 0 {
		return nil, fmt.Errorf("tridiag: zero pivot at 0")
	}
	cp[0] = float64(s.C[0]) / b0
	dp[0] = float64(s.D[0]) / b0
	for i := 1; i < n; i++ {
		den := float64(s.B[i]) - float64(float64(s.A[i])*cp[i-1])
		if den == 0 {
			return nil, fmt.Errorf("tridiag: zero pivot at %d", i)
		}
		cp[i] = float64(s.C[i]) / den
		dp[i] = (float64(s.D[i]) - float64(float64(s.A[i])*dp[i-1])) / den
	}
	x := make([]float32, n)
	acc := dp[n-1]
	x[n-1] = float32(acc)
	for i := n - 2; i >= 0; i-- {
		acc = dp[i] - float64(cp[i]*float64(x[i+1]))
		x[i] = float32(acc)
	}
	return x, nil
}

// SolveCR solves the system with cyclic reduction in float32, using
// exactly the index pattern of the GPU kernels: forward reduction
// eliminates odd-position unknowns with doubling stride (paper
// Fig. 5), then backward substitution recovers them with halving
// stride. The system size must be a power of two.
func (s System) SolveCR() ([]float32, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Size()
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("tridiag: cyclic reduction needs power-of-two size, got %d", n)
	}
	w := s.Clone()
	a, b, c, d := w.A, w.B, w.C, w.D

	// Forward reduction: at stride step, equations at
	// i ≡ 2·step−1 (mod 2·step) absorb their neighbours at ±step.
	for step := 1; step < n; step *= 2 {
		for i := 2*step - 1; i < n; i += 2 * step {
			im := i - step
			ip := i + step
			k1 := a[i] / b[im]
			var k2 float32
			if ip < n {
				k2 = c[i] / b[ip]
			}
			newB := b[i] - float32(c[im]*k1)
			newD := d[i] - float32(d[im]*k1)
			newA := -a[im] * k1
			newC := float32(0)
			if ip < n {
				newB -= float32(a[ip] * k2)
				newD -= float32(d[ip] * k2)
				newC = -c[ip] * k2
			}
			a[i], b[i], c[i], d[i] = newA, newB, newC, newD
		}
	}

	x := make([]float32, n)
	x[n-1] = d[n-1] / b[n-1]
	// Backward substitution: unknowns at i ≡ step−1 (mod 2·step)
	// use the already-solved x at i ± step.
	for step := n / 2; step >= 1; step /= 2 {
		for i := step - 1; i < n; i += 2 * step {
			if i == n-1 {
				continue
			}
			num := d[i] - float32(c[i]*x[i+step])
			if i-step >= 0 {
				num -= float32(a[i] * x[i-step])
			}
			x[i] = num / b[i]
		}
	}
	return x, nil
}

// Residual returns the max-norm of A·x − d relative to the max-norm
// of d (a scale-free accuracy measure).
func (s System) Residual(x []float32) float64 {
	n := s.Size()
	var maxR, maxD float64
	for i := 0; i < n; i++ {
		r := float64(float64(s.B[i]) * float64(x[i]))
		if i > 0 {
			r += float64(float64(s.A[i]) * float64(x[i-1]))
		}
		if i < n-1 {
			r += float64(float64(s.C[i]) * float64(x[i+1]))
		}
		r -= float64(s.D[i])
		if math.Abs(r) > maxR {
			maxR = math.Abs(r)
		}
		if math.Abs(float64(s.D[i])) > maxD {
			maxD = math.Abs(float64(s.D[i]))
		}
	}
	if maxD == 0 {
		return maxR
	}
	return maxR / maxD
}
