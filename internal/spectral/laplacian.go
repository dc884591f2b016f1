// Package spectral computes the normalized-Laplacian spectrum bounds the
// paper reports: λ1, the smallest nonzero eigenvalue, and λ_{n−1}, the
// largest eigenvalue. The Laplacian is the paper's (and Chung's) normalized
// form: L_ij = 1 for i = j, −1/√(k_i·k_j) for edges (i,j), 0 otherwise;
// all eigenvalues lie in [0, 2], and on a connected graph the single zero
// eigenvalue has the known eigenvector v0 ∝ D^{1/2}·1.
//
// Large graphs use a from-scratch Lanczos iteration with full
// reorthogonalization, deflating the known nullvector so the bottom Ritz
// value converges to λ1 rather than 0. Small graphs (and the test suite)
// can use the dense Jacobi eigensolver for exact cross-validation.
package spectral

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Laplacian is a matrix-free normalized Laplacian operator over a graph.
type Laplacian struct {
	s       *graph.CSR
	invSqrt []float64 // 1/√deg per node
}

// NewLaplacian wraps s, whose windows the operator reads in place: s must
// not be mutated while the operator is in use. Every node must have
// degree >= 1 (run on a giant connected component); it returns an error
// otherwise.
func NewLaplacian(s *graph.CSR) (*Laplacian, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("spectral: empty graph")
	}
	inv := make([]float64, n)
	for u := 0; u < n; u++ {
		d := s.Degree(u)
		if d == 0 {
			return nil, fmt.Errorf("spectral: node %d has degree 0; extract the GCC first", u)
		}
		inv[u] = 1 / math.Sqrt(float64(d))
	}
	return &Laplacian{s: s, invSqrt: inv}, nil
}

// N returns the dimension.
func (l *Laplacian) N() int { return l.s.N() }

// MatVec computes y = L·x.
func (l *Laplacian) MatVec(x, y []float64) {
	n := l.s.N()
	for u := 0; u < n; u++ {
		sum := 0.0
		iu := l.invSqrt[u]
		for _, v := range l.s.Neighbors(u) {
			sum += x[v] * l.invSqrt[v]
		}
		y[u] = x[u] - iu*sum
	}
}

// NullVector returns the normalized known zero-eigenvector of a connected
// graph: v0[u] = √deg(u), normalized to unit length.
func (l *Laplacian) NullVector() []float64 {
	n := l.s.N()
	v := make([]float64, n)
	var norm float64
	for u := 0; u < n; u++ {
		v[u] = 1 / l.invSqrt[u] // √deg
		norm += v[u] * v[u]
	}
	norm = math.Sqrt(norm)
	for u := range v {
		v[u] /= norm
	}
	return v
}

// Dense materializes the full Laplacian matrix (row-major), for use with
// the Jacobi solver on small graphs.
func (l *Laplacian) Dense() [][]float64 {
	n := l.s.N()
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = 1
	}
	for u := 0; u < n; u++ {
		for _, v32 := range l.s.Neighbors(u) {
			v := int(v32)
			a[u][v] = -l.invSqrt[u] * l.invSqrt[v]
		}
	}
	return a
}

// Extremes returns (λ1, λ_{n−1}) of the normalized Laplacian of a
// connected graph: the smallest nonzero and the largest eigenvalue. Graphs
// up to the dense threshold are solved exactly with Jacobi; larger ones
// use deflated Lanczos with maxIter iterations (0 means an automatic
// budget). rng seeds the Lanczos start vector.
func Extremes(s *graph.CSR, rng *rand.Rand, maxIter int) (lambda1, lambdaN float64, err error) {
	l, err := NewLaplacian(s)
	if err != nil {
		return 0, 0, err
	}
	if !graph.IsConnected(s) {
		return 0, 0, fmt.Errorf("spectral: graph is disconnected; extract the GCC first")
	}
	const denseThreshold = 220
	if s.N() <= denseThreshold {
		vals := Jacobi(l.Dense())
		// vals sorted ascending; vals[0] ≈ 0 is the trivial eigenvalue.
		return vals[1], vals[len(vals)-1], nil
	}
	return lanczosExtremes(l, rng, maxIter)
}
