package sim

import (
	"fmt"
	"math"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/linalg"
)

// OPOptions tunes the DC solver.
type OPOptions struct {
	// NodeSet seeds initial node voltages by name (good seeds from the
	// sizing tool make convergence immediate).
	NodeSet map[string]float64
	// MaxIter per gmin step (default 200).
	MaxIter int
	// VTol is the voltage convergence tolerance (default 1 µV).
	VTol float64
	// MaxStep clamps the Newton update per unknown (default 0.5 V).
	MaxStep float64
	// GminStart/GminEnd bound the gmin continuation (defaults 1e-2 → 1e-12).
	GminStart, GminEnd float64
}

func (o *OPOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.VTol <= 0 {
		o.VTol = 1e-6
	}
	if o.MaxStep <= 0 {
		o.MaxStep = 0.5
	}
	if o.GminStart <= 0 {
		o.GminStart = 1e-2
	}
	if o.GminEnd <= 0 {
		o.GminEnd = 1e-12
	}
}

// OPResult is a converged DC operating point: the solution vector, and
// nothing derived from it. Accessors derive a branch current or a
// transistor's bias point on demand.
type OPResult struct {
	// V holds node voltages indexed by circuit node index (0 = ground).
	V []float64
	// Iterations is the total Newton iteration count: every gmin rung,
	// the source-stepping fallback when the ladder fails, and the polish.
	Iterations int

	// br holds the branch currents of the voltage sources in circuit
	// order; positive current flows from Pos through the source
	// to Neg.
	br []float64
	e  *Engine
}

// Volt returns the voltage of a named node.
func (r *OPResult) Volt(ckt *circuit.Circuit, node string) float64 {
	i, ok := ckt.NodeIndex(node)
	if !ok {
		return math.NaN()
	}
	return r.V[i]
}

// BranchCurrent returns the branch current of the named voltage source,
// positive from Pos through the source to Neg, and whether the circuit
// has such a source.
func (r *OPResult) BranchCurrent(name string) (float64, bool) {
	for k := range r.e.elems {
		if ei := &r.e.elems[k]; ei.br >= 0 && ei.el.ElemName() == name {
			return r.br[ei.br-r.e.nNodes], true
		}
	}
	return 0, false
}

// SupplyCurrent returns the magnitude of the current delivered by the
// named supply source (0 when there is no such source).
func (r *OPResult) SupplyCurrent(name string) float64 {
	i, _ := r.BranchCurrent(name)
	return math.Abs(i)
}

// MOSOP evaluates the named transistor's bias data at this operating
// point; a name no MOSFET carries gives the zero OP.
func (r *OPResult) MOSOP(name string) device.OP {
	for k := range r.e.elems {
		if m, ok := r.e.elems[k].el.(*circuit.MOSFET); ok && m.Name == name {
			return r.e.mosOP(m, &r.e.elems[k].u, r.V)
		}
	}
	return device.OP{}
}

// mosOP evaluates transistor m, whose terminal unknowns are u (D, G, S,
// B), at node voltages v indexed by node, that is by unknown+1.
func (e *Engine) mosOP(m *circuit.MOSFET, u *[4]int, v []float64) device.OP {
	return m.Dev.Eval(v[u[1]+1], v[u[0]+1], v[u[2]+1], v[u[3]+1], e.Temp)
}

// mosPartials evaluates the drain current (into the drain terminal) and
// its partial derivatives with respect to the four terminal voltages,
// using central differences on the full device model. This sidesteps all
// polarity/swap bookkeeping: whatever the model does, the Jacobian matches
// it exactly. The model values come from one EvalIDStencil call,
// bit-identical to the EvalID calls it replaces but sharing their
// sub-expressions. u holds the terminals' unknowns (D, G, S, B): a
// grounded one (−1) is never stamped, so its probes are skipped and its
// partial reads 0.
func mosPartials(m *circuit.MOSFET, u *[4]int, vd, vg, vs, vb, temp float64) (id, dd, dg, ds, db float64) {
	const h = 1e-6
	var probes device.Probes
	for i, p := range [4]device.Probes{device.ProbeD, device.ProbeG, device.ProbeS, device.ProbeB} {
		if u[i] >= 0 {
			probes |= p
		}
	}
	st := m.Dev.EvalIDStencil(vg, vd, vs, vb, h, temp, probes)
	id = st.Base
	dd = (st.DUp - st.DDn) / (2 * h)
	dg = (st.GUp - st.GDn) / (2 * h)
	ds = (st.SUp - st.SDn) / (2 * h)
	db = (st.BUp - st.BDn) / (2 * h)
	return id, dd, dg, ds, db
}

// stampDC assembles the Jacobian J and residual f at candidate solution x
// for a given gmin and source scale (0..1). The residual convention is
// f(x) = 0 at solution; Newton solves J·Δ = −f.
// tNow < 0 means pure DC (sources at their DC values); tNow ≥ 0 evaluates
// time-dependent sources at that instant (used by transient analysis).
func (e *Engine) stampDC(x []float64, gmin, srcScale, tNow float64, j *linalg.Real, f []float64) {
	j.Zero()
	for i := range f {
		f[i] = 0
	}
	// gmin from every node to ground keeps the Jacobian non-singular
	// through continuation.
	for i := 0; i < e.nNodes; i++ {
		j.Add(i, i, gmin)
		f[i] += gmin * x[i]
	}

	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Resistor:
			a, b := ei.u[0], ei.u[1]
			g := 1 / t.R
			va, vb := voltsAt(x, a), voltsAt(x, b)
			i := g * (va - vb)
			if a >= 0 {
				j.Add(a, a, g)
				f[a] += i
				if b >= 0 {
					j.Add(a, b, -g)
				}
			}
			if b >= 0 {
				j.Add(b, b, g)
				f[b] -= i
				if a >= 0 {
					j.Add(b, a, -g)
				}
			}

		case *circuit.Capacitor:
			// Open at DC.

		case *circuit.ISource:
			a, b := ei.u[0], ei.u[1]
			val := t.DC
			if tNow >= 0 {
				val = t.Value(tNow)
			}
			cur := srcScale * val
			if a >= 0 {
				f[a] += cur
			}
			if b >= 0 {
				f[b] -= cur
			}

		case *circuit.VSource:
			br := ei.br
			a, b := ei.u[0], ei.u[1]
			// KCL: branch current leaves Pos, enters Neg.
			if a >= 0 {
				j.Add(a, br, 1)
				f[a] += x[br]
			}
			if b >= 0 {
				j.Add(b, br, -1)
				f[b] -= x[br]
			}
			// Branch equation: V(pos) − V(neg) − E = 0.
			if a >= 0 {
				j.Add(br, a, 1)
			}
			if b >= 0 {
				j.Add(br, b, -1)
			}
			val := t.DC
			if tNow >= 0 {
				val = t.Value(tNow)
			}
			f[br] += voltsAt(x, a) - voltsAt(x, b) - srcScale*val

		case *circuit.MOSFET:
			d, g, s, bk := ei.u[0], ei.u[1], ei.u[2], ei.u[3]
			vd, vg, vs, vb := voltsAt(x, d), voltsAt(x, g), voltsAt(x, s), voltsAt(x, bk)
			id, dd, dg, ds, db := mosPartials(t, &ei.u, vd, vg, vs, vb, e.Temp)
			// Current id enters the drain node and leaves the source node.
			terms := [4]struct {
				u int
				p float64
			}{{d, dd}, {g, dg}, {s, ds}, {bk, db}}
			if d >= 0 {
				f[d] += id
				for _, tm := range terms {
					if tm.u >= 0 {
						j.Add(d, tm.u, tm.p)
					}
				}
			}
			if s >= 0 {
				f[s] -= id
				for _, tm := range terms {
					if tm.u >= 0 {
						j.Add(s, tm.u, -tm.p)
					}
				}
			}

		default:
			panic(fmt.Sprintf("sim: unsupported element %T", t))
		}
	}
}

// newtonSolve runs damped Newton at a fixed gmin/source scale.
func (e *Engine) newtonSolve(x []float64, gmin, srcScale float64, opts *OPOptions) (int, error) {
	return e.newtonSolveAt(x, gmin, srcScale, -1, nil, opts)
}

// newtonSolveAt optionally adds extra linear stamps (transient companions)
// through the extra callback. It works in the engine's Newton workspace,
// so a warm solve allocates nothing.
func (e *Engine) newtonSolveAt(x []float64, gmin, srcScale, tNow float64, extra func(x []float64, j *linalg.Real, f []float64), opts *OPOptions) (int, error) {
	j, f, dx := &e.jac, e.res, e.dx
	for iter := 1; iter <= opts.MaxIter; iter++ {
		e.stampDC(x, gmin, srcScale, tNow, j, f)
		if extra != nil {
			extra(x, j, f)
		}
		if err := e.lu.Factor(j); err != nil {
			return iter, fmt.Errorf("sim: singular Jacobian at gmin=%.3g iter=%d: %w", gmin, iter, err)
		}
		for i := range f {
			f[i] = -f[i]
		}
		e.lu.SolveInto(dx, f)
		var maxDx float64
		for i := range dx {
			d := dx[i]
			if math.IsNaN(d) || math.IsInf(d, 0) {
				// The clamp and the maxDx comparison are false for NaN,
				// which would leave maxDx at 0 and pass for convergence.
				return iter, fmt.Errorf("sim: non-finite Newton step at gmin=%.3g iter=%d", gmin, iter)
			}
			if d > opts.MaxStep {
				d = opts.MaxStep
			} else if d < -opts.MaxStep {
				d = -opts.MaxStep
			}
			x[i] += d
			if a := math.Abs(d); a > maxDx {
				maxDx = a
			}
		}
		if maxDx < opts.VTol {
			return iter, nil
		}
	}
	return opts.MaxIter, fmt.Errorf("sim: DC Newton did not converge (gmin=%.3g)", gmin)
}

// OP computes the DC operating point.
func (e *Engine) OP(opts OPOptions) (*OPResult, error) {
	opts.defaults()
	x := e.x
	clear(x)
	for name, v := range opts.NodeSet {
		if i, ok := e.Ckt.NodeIndex(name); ok && i > 0 {
			x[e.nodeUnknown(i)] = v
		}
	}

	totalIter := 0
	// Gmin continuation: sweep gmin down in decades, warm-starting each
	// solve from the previous one.
	for gmin := opts.GminStart; ; gmin /= 10 {
		if gmin < opts.GminEnd {
			gmin = opts.GminEnd
		}
		it, err := e.newtonSolve(x, gmin, 1.0, &opts)
		totalIter += it
		if err != nil {
			// Retrying a failed rung from where it stopped is pointless:
			// fall back to source stepping from scratch.
			return e.opSourceStepping(opts, totalIter)
		}
		if gmin == opts.GminEnd {
			break
		}
	}
	e.polish(x, &opts, &totalIter)
	return e.finishOP(x, totalIter), nil
}

// polish runs a final Newton pass with gmin removed entirely, so the
// reported solution carries no continuation bias. Failure (a circuit that
// genuinely needs gmin, e.g. a floating node) keeps the last good point.
func (e *Engine) polish(x []float64, opts *OPOptions, totalIter *int) {
	copy(e.backup, x)
	it, err := e.newtonSolve(x, 0, 1.0, opts)
	*totalIter += it
	if err != nil {
		copy(x, e.backup)
	}
}

// opSourceStepping ramps all independent sources from 0 to full value,
// starting from zero. spent is the Newton iteration count the gmin
// ladder already used; the result's Iterations includes it.
func (e *Engine) opSourceStepping(opts OPOptions, spent int) (*OPResult, error) {
	x := e.x
	clear(x)
	total := spent
	for _, scale := range []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0} {
		it, err := e.newtonSolve(x, 1e-9, scale, &opts)
		total += it
		if err != nil {
			return nil, fmt.Errorf("sim: source stepping failed at scale %.2f: %w", scale, err)
		}
	}
	e.polish(x, &opts, &total)
	return e.finishOP(x, total), nil
}

// finishOP packages the solution vector: node voltages and branch
// currents share one allocation, and no device is evaluated.
func (e *Engine) finishOP(x []float64, iters int) *OPResult {
	nv := e.nNodes + 1
	buf := make([]float64, nv+e.nBranch)
	r := &OPResult{V: buf[:nv:nv], br: buf[nv:], Iterations: iters, e: e}
	copy(r.V[1:], x[:e.nNodes]) // node i is unknown i-1
	copy(r.br, x[e.nNodes:])
	return r
}

// KCLResidual recomputes the DC residual vector norm at a solution — used
// by tests to assert physical consistency of converged points.
func (e *Engine) KCLResidual(r *OPResult) float64 {
	x := e.packSolution(r)
	e.stampDC(x, 0, 1.0, -1, &e.jac, e.res)
	var norm float64
	for _, v := range e.res[:e.nNodes] { // node KCL rows only
		norm = math.Max(norm, math.Abs(v))
	}
	return norm
}
