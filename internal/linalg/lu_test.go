package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRealSolveIdentity(t *testing.T) {
	m := NewReal(3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	b := []float64{1, 2, 3}
	x := solveReal(t, m, b)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-14 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestRealSolveKnown(t *testing.T) {
	// [2 1; 1 3]·x = [3; 5] → x = [4/5, 7/5]
	m := NewReal(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x := solveReal(t, m, []float64{3, 5})
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("got %v, want [0.8 1.4]", x)
	}
}

func TestRealPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewReal(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x := solveReal(t, m, []float64{7, 9})
	if math.Abs(x[0]-9) > 1e-12 || math.Abs(x[1]-7) > 1e-12 {
		t.Fatalf("got %v, want [9 7]", x)
	}
}

func TestRealSingular(t *testing.T) {
	m := NewReal(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	var lu LUReal
	if err := lu.Factor(m); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestRealResidualProperty(t *testing.T) {
	// Property: for random diagonally dominant systems, A·x ≈ b.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		m := NewReal(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i != j {
					v := r.NormFloat64()
					m.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			m.Set(i, i, rowSum+1+r.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		var lu LUReal
		if err := lu.Factor(m.Clone()); err != nil {
			return false
		}
		x := make([]float64, n)
		lu.SolveInto(x, b)
		ax := MulVecReal(m, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestComplexSolveKnown(t *testing.T) {
	// (1+1i)·x = 2 → x = 1−1i
	m := NewComplex(1)
	m.Set(0, 0, complex(1, 1))
	var lu LUComplex
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 1)
	lu.SolveInto(x, []complex128{2})
	if cmplx.Abs(x[0]-complex(1, -1)) > 1e-14 {
		t.Fatalf("got %v, want (1-1i)", x[0])
	}
}

func TestComplexPivotAndResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		m := NewComplex(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i != j {
					v := complex(rng.NormFloat64(), rng.NormFloat64())
					m.Set(i, j, v)
					rowSum += cmplx.Abs(v)
				}
			}
			m.Set(i, i, complex(rowSum+1, rng.NormFloat64()))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		var lu LUComplex
		if err := lu.Factor(cloneComplex(m)); err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		lu.SolveInto(x, b)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += m.At(i, j) * x[j]
			}
			if cmplx.Abs(s-b[i]) > 1e-9 {
				t.Fatalf("trial %d: residual row %d = %g", trial, i, cmplx.Abs(s-b[i]))
			}
		}
	}
}

func TestComplexSingular(t *testing.T) {
	m := NewComplex(2)
	m.Set(0, 0, 1+2i)
	m.Set(0, 1, 2+4i)
	m.Set(1, 0, 0.5+1i)
	m.Set(1, 1, 1+2i)
	var lu LUComplex
	if err := lu.Factor(m); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewReal(2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestZeroClears(t *testing.T) {
	m := NewReal(3)
	m.Set(1, 2, 4)
	m.Zero()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("(%d,%d) not cleared", i, j)
			}
		}
	}
}

func TestAddAccumulates(t *testing.T) {
	m := NewReal(2)
	m.Add(0, 1, 2)
	m.Add(0, 1, 3)
	if m.At(0, 1) != 5 {
		t.Fatalf("Add: got %g want 5", m.At(0, 1))
	}
}

// Clone returns a deep copy.
func (m *Real) Clone() *Real {
	c := NewReal(m.N)
	copy(c.A, m.A)
	return c
}

// cloneComplex returns a deep copy of m.
func cloneComplex(m *Complex) *Complex {
	c := NewComplex(m.N)
	copy(c.A, m.A)
	return c
}

// MulVecReal computes y = A·x for a real matrix, the residual check the
// property tests use.
func MulVecReal(m *Real, x []float64) []float64 {
	y := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		row := m.A[i*m.N : i*m.N+m.N]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// solveReal factors m in place into a fresh LU and solves for b.
func solveReal(t *testing.T, m *Real, b []float64) []float64 {
	t.Helper()
	var lu LUReal
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.N)
	lu.SolveInto(x, b)
	return x
}

// randReal returns an n×n matrix of standard normal entries: no diagonal
// dominance, so the factorization pivots.
func randReal(r *rand.Rand, n int) *Real {
	m := NewReal(n)
	for i := range m.A {
		m.A[i] = r.NormFloat64()
	}
	return m
}

func randComplex(r *rand.Rand, n int) *Complex {
	m := NewComplex(n)
	for i := range m.A {
		m.A[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

// TestLURealReuseMatchesFresh: an LU last used at a larger dimension, or
// left behind by ErrSingular, factors and solves bit-identically to a
// fresh one — the contract that lets the simulator keep one LU per
// engine. Factor works in place, so every factorization gets its own
// copy of the matrix.
func TestLURealReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	small, big := randReal(r, 6), randReal(r, 11)
	singular := NewReal(8)
	for i := 0; i < 8; i++ {
		singular.Set(i, 0, r.NormFloat64()) // rank one
	}
	b := make([]float64, small.N)
	for i := range b {
		b[i] = r.NormFloat64()
	}

	var fresh LUReal
	if err := fresh.Factor(small.Clone()); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, small.N)
	fresh.SolveInto(want, b)

	for _, prev := range []struct {
		name string
		m    *Real
		err  error
	}{{"larger n", big, nil}, {"after ErrSingular", singular, ErrSingular}} {
		var lu LUReal
		if err := lu.Factor(prev.m.Clone()); err != prev.err {
			t.Fatalf("%s: priming Factor = %v, want %v", prev.name, err, prev.err)
		}
		if err := lu.Factor(small.Clone()); err != nil {
			t.Fatalf("%s: %v", prev.name, err)
		}
		got := make([]float64, small.N)
		lu.SolveInto(got, b)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: x[%d] = %x, fresh %x", prev.name, i, got[i], want[i])
			}
		}
		for i := range fresh.piv {
			if lu.piv[i] != fresh.piv[i] {
				t.Fatalf("%s: pivot order differs: %v vs %v", prev.name, lu.piv, fresh.piv)
			}
		}
	}
}

func TestLUComplexReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	small, big := randComplex(r, 6), randComplex(r, 11)
	singular := NewComplex(8)
	for i := 0; i < 8; i++ {
		singular.Set(i, 0, complex(r.NormFloat64(), r.NormFloat64()))
	}
	b := make([]complex128, small.N)
	for i := range b {
		b[i] = complex(r.NormFloat64(), r.NormFloat64())
	}

	var fresh LUComplex
	if err := fresh.Factor(cloneComplex(small)); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, small.N)
	fresh.SolveInto(want, b)

	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, prev := range []struct {
		name string
		m    *Complex
		err  error
	}{{"larger n", big, nil}, {"after ErrSingular", singular, ErrSingular}} {
		var lu LUComplex
		if err := lu.Factor(cloneComplex(prev.m)); err != prev.err {
			t.Fatalf("%s: priming Factor = %v, want %v", prev.name, err, prev.err)
		}
		if err := lu.Factor(cloneComplex(small)); err != nil {
			t.Fatalf("%s: %v", prev.name, err)
		}
		got := make([]complex128, small.N)
		lu.SolveInto(got, b)
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%s: x[%d] = %v, fresh %v", prev.name, i, got[i], want[i])
			}
		}
	}
}

// TestFactorSolveAllocFree pins the workspace contract: a warm LU
// factors and solves without allocating, from a matrix written straight
// into A or from one restamped through Zero and Add, whose pattern of
// written entries Factor reads. Each run restamps the work matrices, as
// the simulator does, since Factor overwrites them.
func TestFactorSolveAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	mr, mc := randReal(r, 9), randComplex(r, 9)
	wr, wc := NewReal(9), NewComplex(9)
	xr, br := make([]float64, 9), make([]float64, 9)
	xc, bc := make([]complex128, 9), make([]complex128, 9)
	var lr LUReal
	var lc LUComplex
	// The tracked matrices stamp a band around the diagonal and a last
	// column, as a circuit's branch unknown does.
	stamped := func(i, j int) bool { return i-j <= 1 && j-i <= 1 || j == 8 }
	for _, tracked := range []bool{false, true} {
		if n := testing.AllocsPerRun(20, func() {
			if tracked {
				wr.Zero()
				wc.Zero()
				for i := 0; i < 9; i++ {
					for j := 0; j < 9; j++ {
						if stamped(i, j) {
							wr.Add(i, j, mr.At(i, j))
							wc.Add(i, j, mc.At(i, j))
						}
					}
				}
			} else {
				copy(wr.A, mr.A)
				copy(wc.A, mc.A)
			}
			if err := lr.Factor(wr); err != nil {
				t.Fatal(err)
			}
			lr.SolveInto(xr, br)
			if err := lc.Factor(wc); err != nil {
				t.Fatal(err)
			}
			lc.SolveInto(xc, bc)
		}); n != 0 {
			t.Fatalf("warm Factor+SolveInto (tracked %v) allocates %v times per run", tracked, n)
		}
	}
}

// TestFactorInPlace: Factor keeps no copy of the matrix. The factors
// overwrite m's own storage, and solving from them still gives A·x = b.
func TestFactorInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	orig := randReal(r, 7)
	m := orig.Clone()
	var lu LUReal
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	if &lu.lu[0] != &m.A[0] {
		t.Fatal("LU holds a copy of the matrix, not the matrix's storage")
	}
	same := true
	for i := range m.A {
		same = same && m.A[i] == orig.A[i]
	}
	if same {
		t.Fatal("Factor left the matrix untouched; the factors live elsewhere")
	}
	b := make([]float64, 7)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x := make([]float64, 7)
	lu.SolveInto(x, b)
	for i, v := range MulVecReal(orig, x) {
		if math.Abs(v-b[i]) > 1e-9 {
			t.Fatalf("residual row %d = %g", i, v-b[i])
		}
	}
}

// denseFactorReal is the dense elimination LUReal.Factor was before it
// read the pattern of written entries, kept as the reference Factor is
// held to bit for bit: every pivot candidate compared, every row
// divided, and every row with a nonzero multiplier updated in every
// column after the pivot.
func denseFactorReal(f *LUReal, m *Real) error {
	n := m.N
	f.lu = m.A
	f.piv = grow(f.piv, n)
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
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

// denseFactorComplex is denseFactorReal for complex matrices.
func denseFactorComplex(f *LUComplex, m *Complex) error {
	n := m.N
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

// stamp is one Add of a test matrix; real matrices take real(v).
type stamp struct {
	i, j int
	v    complex128
}

// sparseCase is a random n×n matrix given as stamps, and how to write
// it: fill says whether through Zero and Add, through Zero and Set of
// each stamped entry's sum, or straight into A; transpose writes entry
// (j, i) for stamp (i, j), as the noise analysis' adjoint does.
type sparseCase struct {
	n         int
	stamps    []stamp
	fill      string
	transpose bool
	negZero   bool // Set also writes −0 to every other row's unstamped last entry, which ends tracking
}

// sparseStamps returns the stamps of a random n×n matrix in which about
// a fraction zeros of the entries receive none. Values span 1e-12 to
// 1e-1 in magnitude, as MNA conductances do. About one stamped entry in
// eight is cancelled by its negation, leaving a written +0, and one in
// eight receives a second stamp. special adds a NaN, an Inf and a −0
// stamp to row n/2; emptyCol leaves column n−1 unstamped, which makes
// the matrix singular.
func sparseStamps(r *rand.Rand, n int, zeros float64, special, emptyCol bool) []stamp {
	val := func() complex128 {
		mag := math.Pow(10, -12+11*r.Float64())
		return complex(mag*r.NormFloat64(), mag*r.NormFloat64())
	}
	var st []stamp
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < zeros || emptyCol && j == n-1 {
				continue
			}
			v := val()
			st = append(st, stamp{i, j, v})
			switch r.Intn(8) {
			case 0:
				st = append(st, stamp{i, j, -v})
			case 1:
				st = append(st, stamp{i, j, val()})
			}
		}
	}
	if special {
		negZero := math.Copysign(0, -1)
		row := n / 2
		st = append(st,
			stamp{row, r.Intn(n), complex(math.NaN(), 1)},
			stamp{row, r.Intn(n), complex(math.Inf(1), math.Inf(-1))},
			stamp{row, r.Intn(n), complex(negZero, negZero)})
	}
	return st
}

// dense returns the case's matrix entries, each the sum of its stamps
// from +0 in stamp order, as Add computes it, and which entries were
// stamped.
func (c *sparseCase) dense() ([]complex128, []bool) {
	a, hit := make([]complex128, c.n*c.n), make([]bool, c.n*c.n)
	for _, s := range c.stamps {
		i, j := s.i, s.j
		if c.transpose {
			i, j = j, i
		}
		a[i*c.n+j] += s.v
		hit[i*c.n+j] = true
	}
	if c.negZero {
		negZero := math.Copysign(0, -1)
		for e := c.n - 1; e < len(a); e += 2 * c.n {
			if !hit[e] {
				a[e], hit[e] = complex(negZero, negZero), true
			}
		}
	}
	return a, hit
}

// writeReal writes the case's real parts into m, by the case's fill.
func (c *sparseCase) writeReal(t testing.TB, m *Real) {
	a, hit := c.dense()
	m.Resize(c.n)
	switch c.fill {
	case "add":
		m.Zero()
		for _, s := range c.stamps {
			if c.transpose {
				m.Add(s.j, s.i, real(s.v))
			} else {
				m.Add(s.i, s.j, real(s.v))
			}
		}
	case "set":
		m.Zero()
		for e, v := range a {
			if hit[e] {
				m.Set(e/c.n, e%c.n, real(v))
			}
		}
	case "A":
		for e, v := range a {
			m.A[e] = real(v)
		}
	}
	for e, v := range a {
		if !sameFloat(m.A[e], real(v)) {
			t.Fatalf("fill %s wrote entry %d as %x, want %x", c.fill, e, m.A[e], real(v))
		}
	}
}

// writeComplex is writeReal for complex matrices.
func (c *sparseCase) writeComplex(t testing.TB, m *Complex) {
	a, hit := c.dense()
	m.Resize(c.n)
	switch c.fill {
	case "add":
		m.Zero()
		for _, s := range c.stamps {
			if c.transpose {
				m.Add(s.j, s.i, s.v)
			} else {
				m.Add(s.i, s.j, s.v)
			}
		}
	case "set":
		m.Zero()
		for e, v := range a {
			if hit[e] {
				m.Set(e/c.n, e%c.n, v)
			}
		}
	case "A":
		copy(m.A, a)
	}
	for e, v := range a {
		if !sameComplex(m.A[e], v) {
			t.Fatalf("fill %s wrote entry %d as %v, want %v", c.fill, e, m.A[e], v)
		}
	}
}

// sameFloat reports bit equality, treating any two NaNs as equal. Which
// of two NaN operands an instruction passes on depends on the order the
// compiler gives a commutative operation's operands, not on the
// algorithm: an elimination compiled generically adds a complex
// product's two parts in the other order than the reference does.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameComplex(a, b complex128) bool {
	return sameFloat(real(a), real(b)) && sameFloat(imag(a), imag(b))
}

// rhs returns a right-hand side of standard normal entries with every
// fourth a −0.
func rhs(r *rand.Rand, n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(r.NormFloat64(), r.NormFloat64())
		if i%4 == 3 {
			b[i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
		}
	}
	return b
}

// checkFactorMatchesDense factors the case, real and complex, in the
// work matrices and LUs (reused across cases, as a simulator reuses
// them) and in fresh ones by the dense reference, and requires the same
// error, factored storage, pivots and solution, bit for bit (any NaN
// matching any other).
func checkFactorMatchesDense(t testing.TB, c *sparseCase, b []complex128, wr *Real, lr *LUReal, wc *Complex, lc *LUComplex) {
	t.Helper()
	name := func() string {
		return fmt.Sprintf("n=%d fill=%s transpose=%v", c.n, c.fill, c.transpose)
	}
	c.writeReal(t, wr)
	ref := NewReal(c.n)
	copy(ref.A, wr.A)
	var dr LUReal
	gotErr, wantErr := lr.Factor(wr), denseFactorReal(&dr, ref)
	if gotErr != wantErr {
		t.Fatalf("%s: real Factor = %v, dense %v", name(), gotErr, wantErr)
	}
	for e := range ref.A {
		if !sameFloat(wr.A[e], ref.A[e]) {
			t.Fatalf("%s: real factors differ at (%d,%d): %x, dense %x", name(), e/c.n, e%c.n, wr.A[e], ref.A[e])
		}
	}
	for i := range dr.piv {
		if lr.piv[i] != dr.piv[i] {
			t.Fatalf("%s: real pivots %v, dense %v", name(), lr.piv, dr.piv)
		}
	}
	if gotErr == nil {
		br := make([]float64, c.n)
		for i := range br {
			br[i] = real(b[i])
		}
		got, want := make([]float64, c.n), make([]float64, c.n)
		lr.SolveInto(got, br)
		dr.SolveInto(want, br)
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s: real x[%d] = %x, dense %x", name(), i, got[i], want[i])
			}
		}
	}

	c.writeComplex(t, wc)
	refC := NewComplex(c.n)
	copy(refC.A, wc.A)
	var dc LUComplex
	gotErr, wantErr = lc.Factor(wc), denseFactorComplex(&dc, refC)
	if gotErr != wantErr {
		t.Fatalf("%s: complex Factor = %v, dense %v", name(), gotErr, wantErr)
	}
	for e := range refC.A {
		if !sameComplex(wc.A[e], refC.A[e]) {
			t.Fatalf("%s: complex factors differ at (%d,%d): %v, dense %v", name(), e/c.n, e%c.n, wc.A[e], refC.A[e])
		}
	}
	for i := range dc.piv {
		if lc.piv[i] != dc.piv[i] {
			t.Fatalf("%s: complex pivots %v, dense %v", name(), lc.piv, dc.piv)
		}
	}
	if gotErr == nil {
		got, want := make([]complex128, c.n), make([]complex128, c.n)
		lc.SolveInto(got, b)
		dc.SolveInto(want, b)
		for i := range want {
			if !sameComplex(got[i], want[i]) {
				t.Fatalf("%s: complex x[%d] = %v, dense %v", name(), i, got[i], want[i])
			}
		}
	}
}

// TestFactorMatchesDense holds Factor to the dense reference over random
// matrices with 5–90% of their entries never written, at sizes on both
// sides of the 64-column word of the pattern, written in every way a
// matrix can be: through Zero and Add, through Set, straight into A,
// transposed, with a row holding a NaN, an Inf and a −0 stamp, with a
// −0 written by Set, and singular.
func TestFactorMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var wr Real
	var wc Complex
	var lr LUReal
	var lc LUComplex
	singular := 0
	for _, n := range []int{1, 2, 7, 21, 64, 65, 130} {
		for _, zeros := range []float64{0.05, 0.3, 0.6, 0.9} {
			for _, fill := range []string{"add", "set", "A"} {
				for variant := 0; variant < 4; variant++ {
					c := &sparseCase{
						n:         n,
						stamps:    sparseStamps(r, n, zeros, variant == 2, variant == 3),
						fill:      fill,
						transpose: variant == 1,
						negZero:   variant == 2 && fill == "set",
					}
					checkFactorMatchesDense(t, c, rhs(r, n), &wr, &lr, &wc, &lc)
					if variant == 3 {
						singular++
					}
				}
			}
		}
	}
	if singular == 0 {
		t.Fatal("no singular case ran")
	}
}

// TestFactorSetNegativeZero: a −0 in the submatrix still to be
// eliminated is the one value a skipped a − l·0 changes, since with
// l < 0 the dense update turns it into +0. Stamps through Add never
// leave one, but Set can write it, so such a Set ends tracking and the
// factors stay the dense elimination's: here entry (1,1) is −0 before
// the first step and +0 after it.
func TestFactorSetNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var m Real
	m.Resize(2)
	m.Zero()
	m.Set(0, 0, 1)
	m.Set(1, 0, -1)
	m.Set(1, 1, negZero)
	ref := NewReal(2)
	copy(ref.A, m.A)
	var lu, dense LUReal
	if err, want := lu.Factor(&m), denseFactorReal(&dense, ref); err != want {
		t.Fatalf("real Factor = %v, dense %v", err, want)
	}
	var mc Complex
	mc.Resize(2)
	mc.Zero()
	mc.Set(0, 0, 1)
	mc.Set(1, 0, -1)
	mc.Set(1, 1, complex(negZero, 0))
	refC := NewComplex(2)
	copy(refC.A, mc.A)
	var luC, denseC LUComplex
	if err, want := luC.Factor(&mc), denseFactorComplex(&denseC, refC); err != want {
		t.Fatalf("complex Factor = %v, dense %v", err, want)
	}
	for e := range ref.A {
		if math.Float64bits(m.A[e]) != math.Float64bits(ref.A[e]) {
			t.Fatalf("real entry %d = %x, dense %x", e, m.A[e], ref.A[e])
		}
		if !sameComplex(mc.A[e], refC.A[e]) || math.Signbit(real(mc.A[e])) != math.Signbit(real(refC.A[e])) {
			t.Fatalf("complex entry %d = %v, dense %v", e, mc.A[e], refC.A[e])
		}
	}
}

// FuzzFactorMatchesDense is TestFactorMatchesDense at fuzzed sizes,
// densities and fills: n is 1 + size%80, the fraction of entries never
// written is zeros%100 percent, and mode picks the fill (mode%3: Add,
// Set, A) and turns on the transpose (bit 2), the NaN/Inf/−0 row
// (bit 3) and the empty column (bit 4).
func FuzzFactorMatchesDense(f *testing.F) {
	for _, n := range []uint8{0, 1, 6, 20, 63, 64} {
		for mode := uint8(0); mode < 32; mode += 5 {
			f.Add(int64(n)*31+int64(mode), n, uint8(40), mode)
		}
	}
	var wr Real
	var wc Complex
	var lr LUReal
	var lc LUComplex
	f.Fuzz(func(t *testing.T, seed int64, size, zeros, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%80
		special := mode&8 != 0
		c := &sparseCase{
			n:         n,
			stamps:    sparseStamps(r, n, float64(zeros%100)/100, special, mode&16 != 0),
			fill:      [...]string{"add", "set", "A"}[mode%3],
			transpose: mode&4 != 0,
			negZero:   special && mode%3 == 1,
		}
		checkFactorMatchesDense(t, c, rhs(r, n), &wr, &lr, &wc, &lc)
	})
}
