package sim

import (
	"fmt"
	"math"
	"sort"

	"loas/internal/circuit"
	"loas/internal/device"
)

// NoiseSource is one physical noise generator in the circuit.
type NoiseSource struct {
	Elem string // owning element instance name
	Kind string // "thermal" or "flicker"
	// a, b are the unknown indices the noise current flows between
	// (into a, out of b); −1 is ground.
	a, b int
	// psd returns the one-sided current PSD (A²/Hz) at frequency f.
	psd func(f float64) float64
}

// NoisePoint is the noise analysis result at one frequency.
type NoisePoint struct {
	Freq float64
	// OutPSD is the total output noise voltage PSD (V²/Hz).
	OutPSD float64
	// BySource maps "elem/kind" to its output PSD contribution (V²/Hz).
	BySource map[string]float64
}

// noiseSources enumerates every generator with its attachment nodes.
func (e *Engine) noiseSources(op *OPResult) []NoiseSource {
	var out []NoiseSource
	for k := range e.elems {
		ei := &e.elems[k]
		switch t := ei.el.(type) {
		case *circuit.Resistor:
			r := t.R
			out = append(out, NoiseSource{
				Elem: t.Name, Kind: "thermal",
				a: ei.u[0], b: ei.u[1],
				psd: func(float64) float64 { return device.ResistorNoisePSD(r, e.Temp) },
			})
		case *circuit.MOSFET:
			mop := op.MOSOPs[t.Name]
			dev := &t.Dev
			a, b := ei.u[0], ei.u[2] // drain, source
			out = append(out, NoiseSource{
				Elem: t.Name, Kind: "thermal", a: a, b: b,
				psd: func(float64) float64 {
					th, _ := dev.NoisePSD(mop, 0, e.Temp)
					return th
				},
			})
			out = append(out, NoiseSource{
				Elem: t.Name, Kind: "flicker", a: a, b: b,
				psd: func(f float64) float64 {
					_, fl := dev.NoisePSD(mop, f, e.Temp)
					return fl
				},
			})
		}
	}
	return out
}

// Noise computes the output noise voltage PSD at node out for each
// frequency, using the adjoint (transposed-system) method: one extra solve
// per frequency yields the transimpedance from every internal node to the
// output simultaneously. The adjoint matrix, its LU, the right-hand side
// and the per-source report keys are built once and reused at every
// frequency.
func (e *Engine) Noise(op *OPResult, out string, freqs []float64) ([]NoisePoint, error) {
	outIdx := e.unknownOf(out)
	if outIdx < 0 {
		return nil, fmt.Errorf("sim: noise output node %q is ground", out)
	}
	solver := e.PrepareAC(op)
	sources := e.noiseSources(op)
	keys := make([]string, len(sources))
	for i, s := range sources {
		keys[i] = s.Elem + "/" + s.Kind
	}
	rhs := make([]complex128, e.size)
	rhs[outIdx] = 1

	points := make([]NoisePoint, 0, len(freqs))
	for _, f := range freqs {
		z, err := solver.solveAt(f, true, rhs)
		if err != nil {
			return nil, fmt.Errorf("sim: noise adjoint singular at %g Hz: %w", f, err)
		}

		pt := NoisePoint{Freq: f, BySource: make(map[string]float64, len(keys))}
		for i, s := range sources {
			var tz complex128
			if s.a >= 0 {
				tz += z[s.a]
			}
			if s.b >= 0 {
				tz -= z[s.b]
			}
			mag2 := real(tz)*real(tz) + imag(tz)*imag(tz)
			contrib := s.psd(f) * mag2
			pt.BySource[keys[i]] += contrib
			pt.OutPSD += contrib
		}
		points = append(points, pt)
	}
	return points, nil
}

// TopNoiseContributors returns the n largest contributors at a point,
// formatted for reports.
func (p *NoisePoint) TopNoiseContributors(n int) []string {
	type kv struct {
		k string
		v float64
	}
	var all []kv
	for k, v := range p.BySource {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, 0, n)
	for _, e := range all[:n] {
		out = append(out, fmt.Sprintf("%s: %.3g V²/Hz", e.k, e.v))
	}
	return out
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
