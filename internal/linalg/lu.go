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
//
// A matrix records which entries Add and Set wrote since Zero, and Factor
// skips the entries no stamp reached. Those hold exactly +0, and no entry
// of the submatrix still to be eliminated is ever −0: stamps accumulate
// from +0, and an exact cancellation rounds to +0. So a − l·0 = a for
// every finite multiplier l, and the skipped terms are the ones that
// could not change a bit. The pivot search ignores zeros in any case,
// since it compares with a strict >, so the complex one skips them and
// the real one, where |x| is cheaper than a branch, compares every row.
// The factors, pivots and solutions are
// those of the dense elimination, bit for bit; only which payload a NaN
// carries may differ, as it may between two compilations of one
// expression.
package linalg

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
)

// ErrSingular reports a numerically singular matrix (a pivot below the
// absolute threshold after partial pivoting).
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

const pivotTiny = 1e-30

// pattern records which entries of an n×n matrix were written since the
// matrix's last Zero: one bit per entry, each row in w 64-bit words.
// Untracked, every entry counts as written.
type pattern struct {
	bits    []uint64
	w       int
	tracked bool
}

// reset clears the pattern of an n×n matrix and starts tracking. The bit
// storage is reused where its capacity suffices.
func (p *pattern) reset(n int) {
	p.w = (n + 63) >> 6
	p.bits = grow(p.bits, n*p.w)
	clear(p.bits)
	p.tracked = true
}

// mark records a write to entry (i, j).
func (p *pattern) mark(i, j int) {
	if p.tracked {
		p.bits[i*p.w+j>>6] |= 1 << (j & 63)
	}
}

// keep records a Set of entry (i, j) to v. Only Set can write a −0, the
// one value a skipped a − l·0 changes, so a −0 ends tracking: the next
// Factor is dense.
func (p *pattern) keep(i, j int, v float64) {
	if v == 0 && math.Signbit(v) {
		p.tracked = false
	}
	p.mark(i, j)
}

// take hands Factor the pattern of an n×n matrix it is about to factor:
// the written entries when tracked, all of them otherwise. Factor
// overwrites the matrix, so the pattern stops tracking until the next
// Zero.
func (p *pattern) take(n int) (b []uint64, w int) {
	if !p.tracked {
		p.w = (n + 63) >> 6
		p.bits = grow(p.bits, n*p.w)
		for i := 0; i < n; i++ {
			fillRow(p.bits[i*p.w:(i+1)*p.w], 0, n)
		}
	}
	p.tracked = false
	return p.bits, p.w
}

// fillRow marks columns from..n-1 of one row's words written.
func fillRow(row []uint64, from, n int) {
	for wi := from >> 6; wi < len(row); wi++ {
		row[wi] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		row[len(row)-1] &= 1<<r - 1
	}
}

// above returns the columns after k in word k>>6 of a row's pattern.
func above(word uint64, k int) uint64 {
	return word &^ (2<<(k&63) - 1)
}

// swapRows exchanges rows k and p of a row-major matrix of the given
// row width.
func swapRows[E any](s []E, width, k, p int) {
	rowK, rowP := s[k*width:(k+1)*width], s[p*width:(p+1)*width]
	for j := range rowK {
		rowK[j], rowP[j] = rowP[j], rowK[j]
	}
}

// factor is the elimination LUReal.Factor and LUComplex.Factor run, in
// place in the n×n row-major storage a, with a's w-word pattern of
// written entries and the pivot order piv. search returns the row p ≥ k
// whose entry in column k has the largest magnitude, the first of any
// tie, and that magnitude; plusZero reports whether a value is +0 in
// every part.
//
// The divisions visit only the rows whose pivot column was written.
// Every other row's multiplier is the single value z = 0/pivot: it is
// stored only when it is not +0, which the entry already holds, and it
// updates the row only when it is NaN. A row is updated in the pivot
// row's written columns, which join its pattern, unless its multiplier
// is not finite: then l·0 is NaN, so the row takes the dense update and
// every column after the pivot counts as written.
func factor[T float64 | complex128](a []T, n int, pat []uint64, w int, piv []int, search func(k int) (int, float64), plusZero func(T) bool) error {
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		kw, kb := k>>6, uint64(1)<<(k&63)
		p, maxAbs := search(k)
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			swapRows(a, n, k, p)
			swapRows(pat, w, k, p)
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := a[k*n+k]
		z := 0 / pivot
		zHeld := plusZero(z) // every entry never written holds z already
		rowK, patK := a[k*n:k*n+n], pat[k*w:k*w+w]
		for i := k + 1; i < n; i++ {
			l := z
			if pat[i*w+kw]&kb != 0 {
				l = a[i*n+k] / pivot
			} else if zHeld {
				continue
			}
			a[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI, patI := a[i*n:i*n+n], pat[i*w:i*w+w]
			if l-l != 0 { // l is infinite or NaN in some part
				for j := k + 1; j < n; j++ {
					rowI[j] -= l * rowK[j]
				}
				fillRow(patI, k+1, n)
				continue
			}
			for wi := kw; wi < w; wi++ {
				cols := patK[wi]
				if wi == kw {
					cols = above(cols, k)
				}
				patI[wi] |= cols
				for ; cols != 0; cols &= cols - 1 {
					j := wi<<6 + bits.TrailingZeros64(cols)
					rowI[j] -= l * rowK[j]
				}
			}
		}
	}
	return nil
}

// solve solves A·x = b from the factors in lu and the pivot order piv,
// densely: with a −0 in b, a skipped term could flip the sign of a zero.
func solve[T float64 | complex128](lu []T, piv []int, x, b []T) {
	n := len(piv)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// Real is a dense real matrix stored row-major. After Zero it records
// which entries Add and Set write; entries written through A directly
// are not seen, so a zeroed matrix is restamped through Add and Set
// only. A matrix not zeroed since its creation, Resize or last Factor
// factors densely.
type Real struct {
	N   int
	A   []float64
	pat pattern
}

// NewReal allocates an n×n zero matrix.
func NewReal(n int) *Real { return &Real{N: n, A: make([]float64, n*n)} }

// Resize makes m an n×n matrix, keeping its storage, and the pattern's,
// where the capacity suffices. The entries are stale until the next Zero.
func (m *Real) Resize(n int) {
	m.N = n
	m.A = grow(m.A, n*n)
	m.pat.tracked = false
}

// At returns element (i,j).
func (m *Real) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set assigns element (i,j).
func (m *Real) Set(i, j int, v float64) {
	m.A[i*m.N+j] = v
	m.pat.keep(i, j, v)
}

// Add accumulates into element (i,j) — the natural MNA stamping primitive.
func (m *Real) Add(i, j int, v float64) {
	m.A[i*m.N+j] += v
	m.pat.mark(i, j)
}

// Zero clears the matrix for restamping.
func (m *Real) Zero() {
	clear(m.A)
	m.pat.reset(m.N)
}

// LUReal is an LU factorization with partial pivoting, held in the
// storage of the matrix it factored. The zero value is ready to use; each
// Factor reuses the pivot storage of the previous one.
type LUReal struct {
	lu  []float64 // the factored matrix's storage: L below the diagonal, U on and above
	piv []int
}

// Factor computes the LU factorization of m in place: afterwards m holds
// the factors, not the matrix, and f solves from m's storage until the
// next Factor, so m must not be restamped while f is in use. On
// ErrSingular f holds no usable factorization until the next successful
// Factor. The elimination skips the entries m's pattern says were never
// written, as factor describes. The pivot search compares every row:
// a real |x| costs less than the mispredicted branch that would skip an
// unwritten one, and a zero never wins the strict >.
func (f *LUReal) Factor(m *Real) error {
	a, n := m.A, m.N
	f.lu = a
	f.piv = grow(f.piv, n)
	pat, w := m.pat.take(n)
	return factor(a, n, pat, w, f.piv, func(k int) (int, float64) {
		p, maxAbs := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		return p, maxAbs
	}, func(z float64) bool {
		return math.Float64bits(z) == 0
	})
}

// SolveInto solves A·x = b for the last factored A, writing x. Both
// slices have the matrix dimension and must not overlap.
func (f *LUReal) SolveInto(x, b []float64) { solve(f.lu, f.piv, x, b) }

// Complex is a dense complex matrix stored row-major, with Real's
// record of written entries.
type Complex struct {
	N   int
	A   []complex128
	pat pattern
}

// NewComplex allocates an n×n zero matrix.
func NewComplex(n int) *Complex { return &Complex{N: n, A: make([]complex128, n*n)} }

// Resize makes m an n×n matrix, as Real.Resize does.
func (m *Complex) Resize(n int) {
	m.N = n
	m.A = grow(m.A, n*n)
	m.pat.tracked = false
}

// At returns element (i,j).
func (m *Complex) At(i, j int) complex128 { return m.A[i*m.N+j] }

// Set assigns element (i,j).
func (m *Complex) Set(i, j int, v complex128) {
	m.A[i*m.N+j] = v
	m.pat.keep(i, j, real(v))
	m.pat.keep(i, j, imag(v))
}

// Add accumulates into element (i,j).
func (m *Complex) Add(i, j int, v complex128) {
	m.A[i*m.N+j] += v
	m.pat.mark(i, j)
}

// Zero clears the matrix for restamping.
func (m *Complex) Zero() {
	clear(m.A)
	m.pat.reset(m.N)
}

// LUComplex is the complex analogue of LUReal.
type LUComplex struct {
	lu  []complex128 // the factored matrix's storage
	piv []int
}

// Factor computes the LU factorization of m in place, with the same
// storage and failure contract as LUReal.Factor. Its pivot search
// compares only the rows whose column was written: a complex magnitude
// is a hypot, dearer than the branch that skips a zero.
func (f *LUComplex) Factor(m *Complex) error {
	a, n := m.A, m.N
	f.lu = a
	f.piv = grow(f.piv, n)
	pat, w := m.pat.take(n)
	return factor(a, n, pat, w, f.piv, func(k int) (int, float64) {
		kw, kb := k>>6, uint64(1)<<(k&63)
		p, maxAbs := k, cmplx.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if pat[i*w+kw]&kb == 0 {
				continue
			}
			if v := cmplx.Abs(a[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		return p, maxAbs
	}, func(z complex128) bool {
		return math.Float64bits(real(z))|math.Float64bits(imag(z)) == 0
	})
}

// SolveInto solves A·x = b for the last factored A, writing x. Both
// slices have the matrix dimension and must not overlap.
func (f *LUComplex) SolveInto(x, b []complex128) { solve(f.lu, f.piv, x, b) }

// grow returns s resliced to length n, reallocating only when its
// capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
