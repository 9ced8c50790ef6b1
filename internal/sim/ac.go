package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"loas/internal/circuit"
	"loas/internal/linalg"
)

// acStamps is the linearized circuit at a DC operating point, precompiled
// into flat stamp lists so a frequency sweep only re-assembles jωC terms.
type acStamps struct {
	e *Engine
	// conductance entries G[i][j] += g (i, j are unknown indices ≥ 0).
	gRow, gCol []int
	gVal       []float64
	// capacitance entries Y[i][j] += jω·c.
	cRow, cCol []int
	cVal       []float64
	// constant ±1 incidence entries (voltage source branches etc.).
	uRow, uCol []int
	uVal       []float64
	// AC excitation vector (frequency-independent phasors).
	rhs []complex128
}

// addG accumulates the two-terminal conductance stamp between unknowns a,b.
func (s *acStamps) addG(a, b int, g float64) {
	s.add4(&s.gRow, &s.gCol, &s.gVal, a, b, g)
}

// addC accumulates the two-terminal capacitance stamp between unknowns a,b.
func (s *acStamps) addC(a, b int, c float64) {
	s.add4(&s.cRow, &s.cCol, &s.cVal, a, b, c)
}

func (s *acStamps) add4(rows, cols *[]int, vals *[]float64, a, b int, v float64) {
	if v == 0 {
		return
	}
	if a >= 0 {
		*rows = append(*rows, a)
		*cols = append(*cols, a)
		*vals = append(*vals, v)
		if b >= 0 {
			*rows = append(*rows, a)
			*cols = append(*cols, b)
			*vals = append(*vals, -v)
		}
	}
	if b >= 0 {
		*rows = append(*rows, b)
		*cols = append(*cols, b)
		*vals = append(*vals, v)
		if a >= 0 {
			*rows = append(*rows, b)
			*cols = append(*cols, a)
			*vals = append(*vals, -v)
		}
	}
}

// addEntry records a single raw matrix entry.
func (s *acStamps) addEntry(i, j int, v float64) {
	if i < 0 || j < 0 || v == 0 {
		return
	}
	s.uRow = append(s.uRow, i)
	s.uCol = append(s.uCol, j)
	s.uVal = append(s.uVal, v)
}

// compileAC linearizes the circuit at op.
func (e *Engine) compileAC(op *OPResult) *acStamps {
	s := &acStamps{e: e, rhs: make([]complex128, e.size)}
	// op.V is indexed by node, i.e. by unknown+1 (ground = 0).
	volt := func(u int) float64 { return op.V[u+1] }
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Resistor:
			s.addG(ei.u[0], ei.u[1], 1/t.R)

		case *circuit.Capacitor:
			s.addC(ei.u[0], ei.u[1], t.C)

		case *circuit.ISource:
			if t.ACMag != 0 {
				ph := cmplx.Rect(t.ACMag, t.ACPhase*math.Pi/180)
				if a := ei.u[0]; a >= 0 {
					s.rhs[a] -= ph // current leaves Pos through the source
				}
				if b := ei.u[1]; b >= 0 {
					s.rhs[b] += ph
				}
			}

		case *circuit.VSource:
			br := ei.br
			a, b := ei.u[0], ei.u[1]
			s.addEntry(a, br, 1)
			s.addEntry(b, br, -1)
			s.addEntry(br, a, 1)
			s.addEntry(br, b, -1)
			if t.ACMag != 0 {
				s.rhs[br] += cmplx.Rect(t.ACMag, t.ACPhase*math.Pi/180)
			}

		case *circuit.VCVS:
			br := ei.br
			a, b, ca, cb := ei.u[0], ei.u[1], ei.u[2], ei.u[3]
			s.addEntry(a, br, 1)
			s.addEntry(b, br, -1)
			s.addEntry(br, a, 1)
			s.addEntry(br, b, -1)
			s.addEntry(br, ca, -t.Gain)
			s.addEntry(br, cb, t.Gain)

		case *circuit.MOSFET:
			d, g, srcU, bk := ei.u[0], ei.u[1], ei.u[2], ei.u[3]
			_, dd, dg, ds, db := mosPartials(t, volt(d), volt(g), volt(srcU), volt(bk), e.Temp)
			// Drain current linearization: i_d = dd·vd + dg·vg + ds·vs + db·vb,
			// entering the drain and leaving the source.
			for _, tm := range [4]struct {
				u int
				p float64
			}{{d, dd}, {g, dg}, {srcU, ds}, {bk, db}} {
				if tm.p == 0 {
					continue
				}
				s.addEntry(d, tm.u, tm.p)
				if srcU >= 0 {
					s.addEntry(srcU, tm.u, -tm.p)
				}
			}
			// Small-signal capacitances at the bias point.
			mop := op.MOSOPs[t.Name]
			cs := t.Dev.Caps(mop, e.Temp)
			s.addC(g, srcU, cs.CGS)
			s.addC(g, d, cs.CGD)
			s.addC(g, bk, cs.CGB)
			s.addC(d, bk, cs.CDB)
			s.addC(srcU, bk, cs.CSB)

		default:
			panic(fmt.Sprintf("sim: unsupported element %T", t))
		}
	}
	return s
}

// assemble restamps y with the complex MNA matrix at angular frequency
// w, or with its transpose (the adjoint system noise analysis solves).
// Every element receives the same sequence of additions either way.
func (s *acStamps) assemble(y *linalg.Complex, w float64, transpose bool) {
	gRow, gCol := s.gRow, s.gCol
	uRow, uCol := s.uRow, s.uCol
	cRow, cCol := s.cRow, s.cCol
	if transpose {
		gRow, gCol = gCol, gRow
		uRow, uCol = uCol, uRow
		cRow, cCol = cCol, cRow
	}
	y.Zero()
	for k, v := range s.gVal {
		y.Add(gRow[k], gCol[k], complex(v, 0))
	}
	for k, v := range s.uVal {
		y.Add(uRow[k], uCol[k], complex(v, 0))
	}
	for k, v := range s.cVal {
		y.Add(cRow[k], cCol[k], complex(0, w*v))
	}
}

// ACResult holds one frequency point.
type ACResult struct {
	Freq float64
	// V holds node phasors indexed by circuit node index (0 = ground).
	V []complex128
}

// Volt returns the phasor at a named node.
func (r *ACResult) Volt(ckt *circuit.Circuit, node string) complex128 {
	i, ok := ckt.NodeIndex(node)
	if !ok {
		return cmplx.NaN()
	}
	if i == 0 {
		return 0
	}
	return r.V[i]
}

// ACSolver is a compiled small-signal linearization at one operating
// point. Compiling once and solving many frequency points skips the
// per-call re-linearization (every MOSFET's central-difference partials
// and capacitances) that AC pays on each invocation; the per-frequency
// assembly and factorization are unchanged, so the phasors are
// bit-identical to a fresh AC call at the same operating point.
//
// The solver owns its MNA matrix, LU and solution vector and reuses them
// at every frequency, so, like its Engine, it is a single-goroutine
// object.
type ACSolver struct {
	e  *Engine
	st *acStamps
	y  *linalg.Complex
	lu linalg.LUComplex
	x  []complex128
}

// PrepareAC linearizes the circuit at op once, for repeated Solve calls.
func (e *Engine) PrepareAC(op *OPResult) *ACSolver {
	return &ACSolver{e: e, st: e.compileAC(op), y: linalg.NewComplex(e.size), x: make([]complex128, e.size)}
}

// solveAt assembles, factors and solves the system at frequency f (Hz)
// — with transpose, its adjoint for the right-hand side rhs — in the
// solver's workspace. The returned unknown vector is overwritten by the
// next call.
func (s *ACSolver) solveAt(f float64, transpose bool, rhs []complex128) ([]complex128, error) {
	s.st.assemble(s.y, 2*math.Pi*f, transpose)
	if err := s.lu.Factor(s.y); err != nil {
		return nil, err
	}
	s.lu.SolveInto(s.x, rhs)
	return s.x, nil
}

// Solve runs the compiled linearization over the given frequencies (Hz).
func (s *ACSolver) Solve(freqs []float64) ([]*ACResult, error) {
	e := s.e
	out := make([]*ACResult, 0, len(freqs))
	for _, f := range freqs {
		x, err := s.solveAt(f, false, s.st.rhs)
		if err != nil {
			return nil, fmt.Errorf("sim: AC matrix singular at %g Hz: %w", f, err)
		}
		r := &ACResult{Freq: f, V: make([]complex128, e.Ckt.NumNodes())}
		for i := 1; i < e.Ckt.NumNodes(); i++ {
			r.V[i] = x[e.nodeUnknown(i)]
		}
		out = append(out, r)
	}
	return out, nil
}

// AC runs a small-signal analysis at the operating point over the given
// frequencies (Hz). The sources' ACMag/ACPhase fields define the
// excitation.
func (e *Engine) AC(op *OPResult, freqs []float64) ([]*ACResult, error) {
	return e.PrepareAC(op).Solve(freqs)
}

// LogSpace returns n logarithmically spaced frequencies from f1 to f2.
func LogSpace(f1, f2 float64, n int) []float64 {
	if n < 2 {
		return []float64{f1}
	}
	out := make([]float64, n)
	l1, l2 := math.Log10(f1), math.Log10(f2)
	for i := range out {
		out[i] = math.Pow(10, l1+(l2-l1)*float64(i)/float64(n-1))
	}
	return out
}
