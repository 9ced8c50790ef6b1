package sizing

import (
	"fmt"
	"math"
	"math/cmplx"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/sim"
	"loas/internal/techno"
)

// AssumedNetlist builds the amplifier netlist under the sizing-time
// parasitic assumptions: junction geometries as the ParasiticState
// resolved them (already baked into the device table) plus, when routing
// awareness is on, the last layout report's wiring/coupling/well
// capacitance lumped onto each signal net — the internal nets whose
// wiring capacitance matters to the small-signal behaviour. This is the
// netlist whose simulation gives the paper's unbracketed "synthesized"
// column.
func (d *FoldedCascode) AssumedNetlist(name string) *circuit.Circuit {
	return d.assumed(d.Netlist(name),
		NetOut, NetFN1, NetFN2, NetMO1, NetN3, NetN4, NetTail, NetInP, NetInN)
}

// EvalGBWPM measures the unity-gain frequency and phase margin of a
// prepared differential testbench circuit (AC drive and load already
// attached). Shared by every design plan's evaluation step.
func EvalGBWPM(tech *techno.Tech, ckt *circuit.Circuit, out string, nodeset map[string]float64) (gbw, pm float64, err error) {
	eng := sim.NewEngine(ckt, tech.Temp)
	op, err := eng.OP(sim.OPOptions{NodeSet: nodeset})
	if err != nil {
		return 0, 0, fmt.Errorf("sizing: evaluation OP: %w", err)
	}

	// One linearization serves the sweep and every bisection probe: the
	// ~26 gainAt calls below used to re-derive the MOSFET partials each
	// time, which profiling showed dominating the sizing evaluation.
	solver := eng.PrepareAC(op)
	gainAt := func(f float64) (complex128, error) {
		res, err := solver.Solve([]float64{f})
		if err != nil {
			return 0, err
		}
		return res[0].Volt(ckt, out), nil
	}
	freqs := sim.LogSpace(1e6, 3e9, 40)
	res, err := solver.Solve(freqs)
	if err != nil {
		return 0, 0, err
	}
	var fLo, fHi float64
	for i := 1; i < len(res); i++ {
		if cmplx.Abs(res[i].Volt(ckt, out)) < 1 {
			fLo, fHi = freqs[i-1], freqs[i]
			break
		}
	}
	if fHi == 0 {
		return 0, 0, fmt.Errorf("sizing: no unity crossing below 3 GHz")
	}
	for i := 0; i < 25; i++ {
		mid := math.Sqrt(fLo * fHi)
		h, err := gainAt(mid)
		if err != nil {
			return 0, 0, err
		}
		if cmplx.Abs(h) >= 1 {
			fLo = mid
		} else {
			fHi = mid
		}
	}
	fu := math.Sqrt(fLo * fHi)
	h, err := gainAt(fu)
	if err != nil {
		return 0, 0, err
	}
	phase := cmplx.Phase(h) * 180 / math.Pi
	pm = 180 + phase
	for pm > 180 {
		pm -= 360
	}
	return fu, pm, nil
}

// BiasFor computes the four bias voltages on the exact model of tech for
// the same device sizes and node targets — the "DC bias conditions …
// calculated in order to satisfy the given specifications". The plan
// calls it on the sizing technology; corner verification calls it on a
// process corner, the role of an on-chip bias generator that tracks the
// process (Design).
func (d *FoldedCascode) BiasFor(tech *techno.Tech) (map[string]float64, error) {
	out := make(map[string]float64, 4)

	// vbn: gate of MN5/MN6 sinking In5 with source at ground.
	n5 := d.Devices[MN5]
	mn5 := device.MOS{Card: &tech.N, W: n5.W, L: n5.L}
	vgs, err := mn5.VGSForCurrent(n5.ID, d.NodeEst[NetFN1], 0, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: vbn: %w", err)
	}
	out[NetVBN] = vgs

	// vc1: gate of the NMOS cascodes (source at the fold node).
	c := d.Devices[MN1C]
	mn1c := device.MOS{Card: &tech.N, W: c.W, L: c.L}
	vgsC, err := mn1c.VGSForCurrent(c.ID, d.NodeEst[NetMO1]-d.NodeEst[NetFN1], c.VSB, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: vc1: %w", err)
	}
	out[NetVC1] = d.NodeEst[NetFN1] + vgsC

	// vbp: gate of the tail source (PMOS, mirrored).
	if out[NetVBP], err = d.tailBias(tech, MP5); err != nil {
		return nil, fmt.Errorf("sizing: vbp: %w", err)
	}

	// vc3: gate of the PMOS cascodes (source at n3/n4 below VDD).
	pc := d.Devices[MP3C]
	mp3c := device.MOS{Card: &tech.P, W: pc.W, L: pc.L}
	vgsPC, err := mp3c.VGSForCurrent(pc.ID, d.NodeEst[NetN3]-d.NodeEst[NetMO1], pc.VSB, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: vc3: %w", err)
	}
	out[NetVC3] = d.NodeEst[NetN3] - vgsPC
	return out, nil
}
