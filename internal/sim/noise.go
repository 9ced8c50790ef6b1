package sim

import (
	"fmt"
	"math"

	"loas/internal/circuit"
	"loas/internal/device"
)

// noiseSource is one physical noise generator in the circuit.
type noiseSource struct {
	// a, b are the unknown indices the noise current flows between
	// (into a, out of b); −1 is ground.
	a, b int
	// white is a thermal generator's current PSD (A²/Hz), the same at
	// every frequency.
	white float64
	// mos and op, set on a flicker generator, give its current PSD at f:
	// mos.NoisePSD(op, f, T)'s 1/f part.
	mos *device.MOS
	op  device.OP
}

// psd returns the generator's one-sided current PSD (A²/Hz) at f.
func (s *noiseSource) psd(f, temp float64) float64 {
	if s.mos == nil {
		return s.white
	}
	_, fl := s.mos.NoisePSD(s.op, f, temp)
	return fl
}

// NoisePoint is the noise analysis result at one frequency.
type NoisePoint struct {
	Freq float64
	// OutPSD is the total output noise voltage PSD (V²/Hz).
	OutPSD float64
	// Sources names every generator "elem/kind" in circuit order; all
	// points of one analysis share the list.
	Sources []string
	// Contrib[i] is Sources[i]'s output PSD contribution (V²/Hz). The
	// points of one analysis share one backing array.
	Contrib []float64
}

// noiseSources enumerates every generator with its attachment nodes and
// its "elem/kind" name, evaluating each MOSFET's bias point from op.
func (e *Engine) noiseSources(op *OPResult) ([]noiseSource, []string) {
	n := e.nRes + 2*e.nMOS
	srcs := make([]noiseSource, 0, n)
	names := make([]string, 0, n)
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Resistor:
			srcs = append(srcs, noiseSource{a: ei.u[0], b: ei.u[1],
				white: device.ResistorNoisePSD(t.R, e.Temp)})
			names = append(names, t.Name+"/thermal")
		case *circuit.MOSFET:
			mop := e.mosOP(t, &ei.u, op.V)
			th, _ := t.Dev.NoisePSD(mop, 0, e.Temp)
			a, b := ei.u[0], ei.u[2] // drain, source
			srcs = append(srcs,
				noiseSource{a: a, b: b, white: th},
				noiseSource{a: a, b: b, mos: &t.Dev, op: mop})
			names = append(names, t.Name+"/thermal", t.Name+"/flicker")
		}
	}
	return srcs, names
}

// Noise computes the output noise voltage PSD at node out for each
// frequency, using the adjoint (transposed-system) method: one extra solve
// per frequency yields the transimpedance from every internal node to the
// output simultaneously. The generators, their names, the right-hand
// side and the contributions' backing array are built once per call;
// the solver's matrix and LU serve every frequency.
func (s *ACSolver) Noise(out string, freqs []float64) ([]NoisePoint, error) {
	e := s.e
	outIdx := e.unknownOf(out)
	if outIdx < 0 {
		return nil, fmt.Errorf("sim: noise output node %q is ground", out)
	}
	sources, names := e.noiseSources(s.op)
	rhs := make([]complex128, e.size)
	rhs[outIdx] = 1
	ns := len(sources)
	contrib := make([]float64, len(freqs)*ns)

	points := make([]NoisePoint, 0, len(freqs))
	for k, f := range freqs {
		z, err := s.solveAt(f, true, rhs)
		if err != nil {
			return nil, fmt.Errorf("sim: noise adjoint singular at %g Hz: %w", f, err)
		}

		pt := NoisePoint{Freq: f, Sources: names, Contrib: contrib[k*ns : (k+1)*ns : (k+1)*ns]}
		for i := range sources {
			src := &sources[i]
			var tz complex128
			if src.a >= 0 {
				tz += z[src.a]
			}
			if src.b >= 0 {
				tz -= z[src.b]
			}
			mag2 := real(tz)*real(tz) + imag(tz)*imag(tz)
			c := src.psd(f, e.Temp) * mag2
			pt.Contrib[i] = c
			pt.OutPSD += c
		}
		points = append(points, pt)
	}
	return points, nil
}

// IntegratePSD integrates a PSD given as parallel freq/psd slices using
// log-trapezoidal quadrature and returns the RMS value (e.g. volts).
func IntegratePSD(freqs, psd []float64) float64 {
	if len(freqs) != len(psd) || len(freqs) < 2 {
		return math.NaN()
	}
	var total float64
	for i := 1; i < len(freqs); i++ {
		df := freqs[i] - freqs[i-1]
		total += 0.5 * (psd[i] + psd[i-1]) * df
	}
	return math.Sqrt(total)
}
