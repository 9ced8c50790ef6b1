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
	g []acEntry // conductances: G[i][j] += v
	c []acEntry // capacitances: Y[i][j] += jω·v
	u []acEntry // constant incidence and controlled-source entries
	// AC excitation vector (frequency-independent phasors).
	rhs []complex128
}

// acEntry is one matrix entry (i, j are unknown indices ≥ 0).
type acEntry struct {
	i, j int
	v    float64
}

// at returns the entry's position in the matrix, or in its transpose.
func (en acEntry) at(transpose bool) (int, int) {
	if transpose {
		return en.j, en.i
	}
	return en.i, en.j
}

// add4 appends the two-terminal stamp of value v between unknowns a, b.
func add4(list []acEntry, a, b int, v float64) []acEntry {
	if v == 0 {
		return list
	}
	if a >= 0 {
		list = append(list, acEntry{a, a, v})
		if b >= 0 {
			list = append(list, acEntry{a, b, -v})
		}
	}
	if b >= 0 {
		list = append(list, acEntry{b, b, v})
		if a >= 0 {
			list = append(list, acEntry{b, a, -v})
		}
	}
	return list
}

// addEntry records a single raw matrix entry.
func (s *acStamps) addEntry(i, j int, v float64) {
	if i < 0 || j < 0 || v == 0 {
		return
	}
	s.u = append(s.u, acEntry{i, j, v})
}

// compileAC linearizes the circuit at op into s. The stamp lists are
// sized from the element counts: a two-terminal stamp and a source
// branch have at most 4 entries each, and a MOSFET 8 partials and 5
// capacitances. Lists with that capacity already are refilled in place.
func (e *Engine) compileAC(s *acStamps, op *OPResult) {
	s.g = resize(s.g, 4*e.nRes)[:0]
	s.c = resize(s.c, 4*(e.nCap+5*e.nMOS))[:0]
	s.u = resize(s.u, 4*e.nBranch+8*e.nMOS)[:0]
	s.rhs = resize(s.rhs, e.size)
	e.excitation(s.rhs)
	// op.V is indexed by node, i.e. by unknown+1 (ground = 0).
	volt := func(u int) float64 { return op.V[u+1] }
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Resistor:
			s.g = add4(s.g, ei.u[0], ei.u[1], 1/t.R)

		case *circuit.Capacitor:
			s.c = add4(s.c, ei.u[0], ei.u[1], t.C)

		case *circuit.ISource:
			// Excitation only.

		case *circuit.VSource:
			br := ei.br
			a, b := ei.u[0], ei.u[1]
			s.addEntry(a, br, 1)
			s.addEntry(b, br, -1)
			s.addEntry(br, a, 1)
			s.addEntry(br, b, -1)

		case *circuit.MOSFET:
			d, g, srcU, bk := ei.u[0], ei.u[1], ei.u[2], ei.u[3]
			vd, vg, vs, vb := volt(d), volt(g), volt(srcU), volt(bk)
			_, dd, dg, ds, db := mosPartials(t, &ei.u, vd, vg, vs, vb, e.Temp)
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
			// Small-signal capacitances at the bias point: Caps of the
			// device's OP there, bit for bit.
			cs := t.Dev.CapsAt(vg, vd, vs, vb, e.Temp)
			s.c = add4(s.c, g, srcU, cs.CGS)
			s.c = add4(s.c, g, d, cs.CGD)
			s.c = add4(s.c, g, bk, cs.CGB)
			s.c = add4(s.c, d, bk, cs.CDB)
			s.c = add4(s.c, srcU, bk, cs.CSB)

		default:
			panic(fmt.Sprintf("sim: unsupported element %T", t))
		}
	}
}

// excitation writes the AC right-hand side the sources' ACMag and
// ACPhase fields define now.
func (e *Engine) excitation(rhs []complex128) {
	clear(rhs)
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.ISource:
			if t.ACMag != 0 {
				ph := cmplx.Rect(t.ACMag, t.ACPhase*math.Pi/180)
				if a := ei.u[0]; a >= 0 {
					rhs[a] -= ph // current leaves Pos through the source
				}
				if b := ei.u[1]; b >= 0 {
					rhs[b] += ph
				}
			}
		case *circuit.VSource:
			if t.ACMag != 0 {
				rhs[ei.br] += cmplx.Rect(t.ACMag, t.ACPhase*math.Pi/180)
			}
		}
	}
}

// assemble restamps y with the complex MNA matrix at angular frequency
// w, or with its transpose (the adjoint system noise analysis solves).
// Every element receives the same sequence of additions either way.
func (s *acStamps) assemble(y *linalg.Complex, w float64, transpose bool) {
	y.Zero()
	for _, en := range s.g {
		i, j := en.at(transpose)
		y.Add(i, j, complex(en.v, 0))
	}
	for _, en := range s.u {
		i, j := en.at(transpose)
		y.Add(i, j, complex(en.v, 0))
	}
	for _, en := range s.c {
		i, j := en.at(transpose)
		y.Add(i, j, complex(0, w*en.v))
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
// The solver owns its MNA matrix (factored in place), pivots and
// solution vector and reuses them at every frequency, so, like its
// Engine, it is a single-goroutine object.
type ACSolver struct {
	e  *Engine
	op *OPResult
	st acStamps
	y  linalg.Complex
	lu linalg.LUComplex
	x  []complex128
}

// PrepareAC linearizes the circuit at op once, for repeated Solve calls:
// a new solver relinearized at op.
func (e *Engine) PrepareAC(op *OPResult) *ACSolver {
	s := &ACSolver{}
	s.Relinearize(op)
	return s
}

// Relinearize linearizes op's circuit at op into the solver, in place of
// whatever it held: its stamp lists, MNA matrix, pivots and solution
// vector are reused where their capacity suffices. It then solves bit
// for bit as PrepareAC(op) would, since each solve restamps the matrix
// from the lists and overwrites the vector. op may come from any
// engine; the solver reads that engine from then on.
func (s *ACSolver) Relinearize(op *OPResult) {
	e := op.e
	s.e, s.op = e, op
	e.compileAC(&s.st, op)
	s.y.Resize(e.size)
	s.x = resize(s.x, e.size)
}

// ReadExcitation reloads the excitation from the sources' ACMag and
// ACPhase fields. The linearization stays, so after editing those fields
// a caller drives the same operating point from other sources without
// compiling it again.
func (s *ACSolver) ReadExcitation() { s.e.excitation(s.st.rhs) }

// solveAt assembles, factors and solves the system at frequency f (Hz)
// — with transpose, its adjoint for the right-hand side rhs — in the
// solver's workspace. The returned unknown vector is overwritten by the
// next call.
func (s *ACSolver) solveAt(f float64, transpose bool, rhs []complex128) ([]complex128, error) {
	s.st.assemble(&s.y, 2*math.Pi*f, transpose)
	if err := s.lu.Factor(&s.y); err != nil {
		return nil, err
	}
	s.lu.SolveInto(s.x, rhs)
	return s.x, nil
}

// solve is solveAt on the excitation, with Solve's error text.
func (s *ACSolver) solve(f float64) ([]complex128, error) {
	x, err := s.solveAt(f, false, s.st.rhs)
	if err != nil {
		return nil, fmt.Errorf("sim: AC matrix singular at %g Hz: %w", f, err)
	}
	return x, nil
}

// Solve runs the compiled linearization over the given frequencies (Hz).
func (s *ACSolver) Solve(freqs []float64) ([]*ACResult, error) {
	e := s.e
	out := make([]*ACResult, 0, len(freqs))
	for _, f := range freqs {
		x, err := s.solve(f)
		if err != nil {
			return nil, err
		}
		r := &ACResult{Freq: f, V: make([]complex128, e.Ckt.NumNodes())}
		for i := 1; i < e.Ckt.NumNodes(); i++ {
			r.V[i] = x[e.nodeUnknown(i)]
		}
		out = append(out, r)
	}
	return out, nil
}

// Phasor solves at one frequency f (Hz) and returns the phasor at node,
// read from the solver's workspace: the value Solve would report for
// that node, without allocating. A node the circuit lacks reads NaN, as
// ACResult.Volt does.
func (s *ACSolver) Phasor(f float64, node string) (complex128, error) {
	x, err := s.solve(f)
	if err != nil {
		return 0, err
	}
	i, ok := s.e.Ckt.NodeIndex(node)
	switch {
	case !ok:
		return cmplx.NaN(), nil
	case i == 0:
		return 0, nil
	}
	return x[s.e.nodeUnknown(i)], nil
}

// NoCrossingError reports a sweep whose gain at the probed node never
// fell below unity. Gain is |H| at the sweep's last frequency.
type NoCrossingError struct {
	Gain float64
}

func (e *NoCrossingError) Error() string {
	return fmt.Sprintf("sim: no unity crossing (|H| = %g at the last frequency)", e.Gain)
}

// UnityCrossing finds the unity-gain frequency fu of the phasor at node
// and the phase margin there, PM = 180° + ∠H(fu) wrapped to at most
// 180°. It solves freqs in order and brackets the crossing between the
// first point after freqs[0] whose gain is below unity and the point
// before it; no later point is solved. It then bisects the bracket
// geometrically steps times and takes fu at the bracket's geometric
// mean. A sweep that never falls below unity returns a bare
// *NoCrossingError, which callers match by type assertion; a solve's
// error is returned as is.
func (s *ACSolver) UnityCrossing(node string, freqs []float64, steps int) (fu, pm float64, err error) {
	var fLo, fHi, g float64
	for i, f := range freqs {
		h, err := s.Phasor(f, node)
		if err != nil {
			return 0, 0, err
		}
		if g = cmplx.Abs(h); i > 0 && g < 1 {
			fLo, fHi = freqs[i-1], f
			break
		}
	}
	if fHi == 0 {
		return 0, 0, &NoCrossingError{Gain: g}
	}
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(fLo * fHi)
		h, err := s.Phasor(mid, node)
		if err != nil {
			return 0, 0, err
		}
		if cmplx.Abs(h) >= 1 {
			fLo = mid
		} else {
			fHi = mid
		}
	}
	fu = math.Sqrt(fLo * fHi)
	h, err := s.Phasor(fu, node)
	if err != nil {
		return 0, 0, err
	}
	pm = 180 + cmplx.Phase(h)*180/math.Pi
	for pm > 180 {
		pm -= 360
	}
	return fu, pm, nil
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
