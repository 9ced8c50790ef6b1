package sim

import (
	"fmt"
	"math"

	"loas/internal/circuit"
	"loas/internal/linalg"
)

// TranResult is a fixed-step transient: the waveforms of the nodes the
// caller probed.
type TranResult struct {
	T []float64
	// V[j][k] is the voltage of the j-th probed node at T[k].
	V [][]float64

	probes []string
}

// Waveform returns a probed node's waveform (nil for a node Tran did not
// record). The slice is the result's own storage.
func (r *TranResult) Waveform(node string) []float64 {
	for j, p := range r.probes {
		if p == node {
			return r.V[j]
		}
	}
	return nil
}

// MaxSlope returns the maximum |dv/dt| of a probed node's waveform (V/s)
// and the time at which it occurs — the slew-rate measurement primitive.
func (r *TranResult) MaxSlope(node string) (slope, at float64) {
	w := r.Waveform(node)
	for k := 1; k < len(w); k++ {
		dt := r.T[k] - r.T[k-1]
		if dt <= 0 {
			continue
		}
		s := math.Abs(w[k]-w[k-1]) / dt
		if s > slope {
			slope, at = s, r.T[k]
		}
	}
	return slope, at
}

// capState tracks one companion-model capacitor across time steps.
type capState struct {
	a, b  int // unknown indices (−1 = ground)
	c     float64
	vPrev float64
	iPrev float64
}

// Tran runs a fixed-step trapezoidal transient from 0 to tstop and
// records the waveforms of the probed nodes only. The initial condition
// is the static solution with time-dependent sources evaluated at t = 0,
// solved from the node set's voltages through the gmin ladder.
// MOS capacitances are re-evaluated at the start of every step
// (piecewise-constant within a step), which is accurate enough for
// slewing and settling measurements while keeping the Newton loop linear
// in the capacitances.
//
// A non-nil stop is called after each recorded step with the result so
// far; when it returns true the transient ends there. Step k always
// lands on t = k·h whatever tstop is, so a stopped run is an exact
// prefix of the run to tstop. A nil stop runs to tstop.
func (e *Engine) Tran(tstop, h float64, nodeSet map[string]float64, stop func(*TranResult) bool, probes ...string) (*TranResult, error) {
	if h <= 0 || tstop <= 0 {
		return nil, fmt.Errorf("sim: transient needs positive tstop and step, got %g, %g", tstop, h)
	}
	pu := make([]int, len(probes))
	for j, p := range probes {
		i, ok := e.Ckt.NodeIndex(p)
		if !ok {
			return nil, fmt.Errorf("sim: transient probe %q not in circuit %q", p, e.Ckt.Name)
		}
		pu[j] = e.nodeUnknown(i)
	}

	// Static solution at t = 0 with gmin continuation, in the OP's
	// solution vector.
	x := e.seed(nodeSet)
	for _, gmin := range gminLadder {
		if _, err := e.newtonSolveAt(x, gmin, 1.0, 0, nil, maxIter); err != nil {
			return nil, fmt.Errorf("sim: transient initial condition: %w", err)
		}
	}

	// The waveforms live in one backing array, one row per probe. Each
	// row grows with T inside its own slot, so a stopped run's
	// waveforms have len(T) points too. Without a stop hook the slots
	// hold the whole window. A run that may stop starts them at a
	// quarter of it, and a row that outgrows its slot moves out to a
	// larger array by append; storage never enters the arithmetic.
	nSteps := int(math.Ceil(tstop / h))
	nt := nSteps + 1
	if stop != nil {
		nt = nt/4 + 1
	}
	wave := make([]float64, nt*len(probes))
	res := &TranResult{T: make([]float64, 0, nt), V: make([][]float64, len(probes)), probes: probes}
	for j := range res.V {
		res.V[j] = wave[j*nt : j*nt : (j+1)*nt]
	}
	record := func(t float64) {
		for j, u := range pu {
			res.V[j] = append(res.V[j], voltsAt(x, u))
		}
		res.T = append(res.T, t)
	}
	record(0)

	// Companion capacitor states, refreshed per step for MOS caps.
	caps := e.collectCaps(x)
	extra := func(xc []float64, j *linalg.Real, f []float64) {
		for i := range caps {
			cs := &caps[i]
			geq := 2 * cs.c / h
			ieq := geq*cs.vPrev + cs.iPrev
			v := capVolt(xc, cs)
			icap := geq*v - ieq
			if cs.a >= 0 {
				f[cs.a] += icap
				j.Add(cs.a, cs.a, geq)
				if cs.b >= 0 {
					j.Add(cs.a, cs.b, -geq)
				}
			}
			if cs.b >= 0 {
				f[cs.b] -= icap
				j.Add(cs.b, cs.b, geq)
				if cs.a >= 0 {
					j.Add(cs.b, cs.a, -geq)
				}
			}
		}
	}

	for k := 1; k <= nSteps; k++ {
		t := float64(k) * h
		// Refresh MOS capacitance values at the previous solution while
		// keeping each state's accumulated charge history.
		e.refreshMOSCaps(caps, x)
		for i := range caps {
			caps[i].vPrev = capVolt(x, &caps[i])
		}
		if _, err := e.newtonSolveAt(x, gminEnd, 1.0, t, extra, maxIter); err != nil {
			return nil, fmt.Errorf("sim: transient step %d (t=%.4g s): %w", k, t, err)
		}
		// Commit capacitor states.
		for i := range caps {
			cs := &caps[i]
			geq := 2 * cs.c / h
			v := capVolt(x, cs)
			cs.iPrev = geq*v - (geq*cs.vPrev + cs.iPrev)
		}
		record(t)
		if stop != nil && stop(res) {
			break
		}
	}
	return res, nil
}

func capVolt(x []float64, cs *capState) float64 {
	return voltsAt(x, cs.a) - voltsAt(x, cs.b)
}

// collectCaps builds the companion-capacitor list in element order: one
// entry per fixed capacitor, five per MOSFET (CGS, CGD, CGB, CDB, CSB)
// whose values are refreshed every step.
func (e *Engine) collectCaps(x []float64) []capState {
	out := make([]capState, 0, e.nCap+5*e.nMOS)
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Capacitor:
			cs := capState{a: ei.u[0], b: ei.u[1], c: t.C}
			cs.vPrev = capVolt(x, &cs)
			out = append(out, cs)
		case *circuit.MOSFET:
			d, g, s, b := ei.u[0], ei.u[1], ei.u[2], ei.u[3]
			pairs := [5][2]int{{g, s}, {g, d}, {g, b}, {d, b}, {s, b}}
			for _, p := range pairs {
				cs := capState{a: p[0], b: p[1]}
				cs.vPrev = capVolt(x, &cs)
				out = append(out, cs)
			}
		}
	}
	e.refreshMOSCaps(out, x)
	return out
}

// refreshMOSCaps re-evaluates the five MOS capacitances at the solution x.
// The cap list layout must match collectCaps.
func (e *Engine) refreshMOSCaps(caps []capState, x []float64) {
	idx := 0
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Capacitor:
			idx++
		case *circuit.MOSFET:
			vd, vg := voltsAt(x, ei.u[0]), voltsAt(x, ei.u[1])
			vs, vb := voltsAt(x, ei.u[2]), voltsAt(x, ei.u[3])
			cset := t.Dev.CapsAt(vg, vd, vs, vb, e.Temp)
			vals := [5]float64{cset.CGS, cset.CGD, cset.CGB, cset.CDB, cset.CSB}
			for _, v := range vals {
				caps[idx].c = v
				idx++
			}
		}
	}
}
