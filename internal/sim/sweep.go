package sim

import (
	"fmt"

	"loas/internal/circuit"
)

// DCSweep steps the DC value of a named voltage source through the given
// values, warm-starting each solve from the previous solution — the
// standard way to trace transfer characteristics through high-gain
// transitions. The source's original value is restored afterwards.
func (e *Engine) DCSweep(srcName string, values []float64, opts OPOptions) ([]*OPResult, error) {
	opts.defaults()
	var src *circuit.VSource
	for _, v := range e.Ckt.VSources() {
		if v.Name == srcName {
			src = v
		}
	}
	if src == nil {
		return nil, fmt.Errorf("sim: sweep source %q not found", srcName)
	}
	orig := src.DC
	defer func() { src.DC = orig }()

	out := make([]*OPResult, 0, len(values))
	var x []float64
	for i, val := range values {
		src.DC = val
		if i == 0 {
			// Cold start through the full continuation.
			r, err := e.OP(opts)
			if err != nil {
				return nil, fmt.Errorf("sim: sweep point %d (%.4g V): %w", i, val, err)
			}
			out = append(out, r)
			x = e.packSolution(r)
			continue
		}
		// Warm start: a plain Newton from the previous point; fall back
		// to the full continuation if the step was too large.
		it, err := e.newtonSolve(x, opts.GminEnd, 1.0, &opts)
		if err != nil {
			r, err2 := e.OP(opts)
			if err2 != nil {
				return nil, fmt.Errorf("sim: sweep point %d (%.4g V): %w", i, val, err)
			}
			out = append(out, r)
			x = e.packSolution(r)
			continue
		}
		_ = it
		e.polish(x, &opts, &it)
		out = append(out, e.finishOP(x, it))
	}
	return out, nil
}

// packSolution flattens an OPResult back into an unknown vector.
func (e *Engine) packSolution(r *OPResult) []float64 {
	x := make([]float64, e.size)
	copy(x, r.V[1:])
	copy(x[e.nNodes:], r.br)
	return x
}
