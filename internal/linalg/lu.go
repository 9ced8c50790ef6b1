// Package linalg provides the dense LU factorizations (real and complex)
// that back the circuit simulator's modified-nodal-analysis solves. Only
// what the simulator needs is implemented: factor once, solve many
// right-hand sides, with partial pivoting for numerical robustness on the
// poorly scaled matrices MOS stamps produce (conductances spanning 1e-12
// to 1e-1 S).
//
// The factorizations are workspaces: Factor factors a matrix in its own
// storage and SolveInto writes into a caller's slice, so a Newton loop or
// a frequency sweep that keeps one matrix and one LU holds one n² buffer
// and allocates nothing per solve.
package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular reports a numerically singular matrix (a pivot below the
// absolute threshold after partial pivoting).
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

const pivotTiny = 1e-30

// Real is a dense real matrix stored row-major.
type Real struct {
	N int
	A []float64
}

// NewReal allocates an n×n zero matrix.
func NewReal(n int) *Real { return &Real{N: n, A: make([]float64, n*n)} }

// At returns element (i,j).
func (m *Real) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set assigns element (i,j).
func (m *Real) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// Add accumulates into element (i,j) — the natural MNA stamping primitive.
func (m *Real) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// Zero clears the matrix for restamping.
func (m *Real) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// LUReal is an LU factorization with partial pivoting, held in the
// storage of the matrix it factored. The zero value is ready to use; each
// Factor reuses the pivot storage of the previous one.
type LUReal struct {
	n   int
	lu  []float64 // the factored matrix's storage: L below the diagonal, U on and above
	piv []int
}

// Factor computes the LU factorization of m in place: afterwards m holds
// the factors, not the matrix, and f solves from m's storage until the
// next Factor, so m must not be restamped while f is in use. On
// ErrSingular f holds no usable factorization until the next successful
// Factor.
func (f *LUReal) Factor(m *Real) error {
	n := m.N
	f.n = n
	f.lu = m.A
	f.piv = grow(f.piv, n)
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |a[i][k]| for i ≥ k.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			rowK := lu[k*n : k*n+n]
			rowP := lu[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			rowK := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b for the last factored A, writing x. Both
// slices have the matrix dimension and must not overlap.
func (f *LUReal) SolveInto(x, b []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// Complex is a dense complex matrix stored row-major.
type Complex struct {
	N int
	A []complex128
}

// NewComplex allocates an n×n zero matrix.
func NewComplex(n int) *Complex { return &Complex{N: n, A: make([]complex128, n*n)} }

// At returns element (i,j).
func (m *Complex) At(i, j int) complex128 { return m.A[i*m.N+j] }

// Set assigns element (i,j).
func (m *Complex) Set(i, j int, v complex128) { m.A[i*m.N+j] = v }

// Add accumulates into element (i,j).
func (m *Complex) Add(i, j int, v complex128) { m.A[i*m.N+j] += v }

// Zero clears the matrix for restamping.
func (m *Complex) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// LUComplex is the complex analogue of LUReal.
type LUComplex struct {
	n   int
	lu  []complex128 // the factored matrix's storage
	piv []int
}

// Factor computes the LU factorization of m in place, with the same
// storage and failure contract as LUReal.Factor.
func (f *LUComplex) Factor(m *Complex) error {
	n := m.N
	f.n = n
	f.lu = m.A
	f.piv = grow(f.piv, n)
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			rowK := lu[k*n : k*n+n]
			rowP := lu[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			rowK := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b for the last factored A, writing x. Both
// slices have the matrix dimension and must not overlap.
func (f *LUComplex) SolveInto(x, b []complex128) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
