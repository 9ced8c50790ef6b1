package linalg

import (
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
// factors and solves without allocating. Each run restamps the work
// matrices, as the simulator does, since Factor overwrites them.
func TestFactorSolveAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	mr, mc := randReal(r, 9), randComplex(r, 9)
	wr, wc := NewReal(9), NewComplex(9)
	xr, br := make([]float64, 9), make([]float64, 9)
	xc, bc := make([]complex128, 9), make([]complex128, 9)
	var lr LUReal
	var lc LUComplex
	if n := testing.AllocsPerRun(20, func() {
		copy(wr.A, mr.A)
		if err := lr.Factor(wr); err != nil {
			t.Fatal(err)
		}
		lr.SolveInto(xr, br)
		copy(wc.A, mc.A)
		if err := lc.Factor(wc); err != nil {
			t.Fatal(err)
		}
		lc.SolveInto(xc, bc)
	}); n != 0 {
		t.Fatalf("warm Factor+SolveInto allocates %v times per run", n)
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
