package sizing

import (
	"fmt"

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

// evaluator is the simulation workspace of one sizing pass: one engine
// and one AC solver, rebound to each evaluation netlist in turn, so an
// evaluation allocates neither. Rebinding keeps the bits, because an
// analysis clears or overwrites the workspace before it reads it. Each
// sizing call owns its evaluator: the calls of Table 1 run concurrently,
// and an engine is a single-goroutine object. Nothing outside the pass
// holds it, so its workspace is garbage when the pass returns.
type evaluator struct {
	eng    sim.Engine
	solver sim.ACSolver
}

// gbwPM measures the unity-gain frequency and phase margin of a prepared
// differential testbench circuit (AC drive and load already attached).
// Shared by every design plan's evaluation step. It rebinds the engine,
// which invalidates the previous evaluation's operating point and
// solver; nothing keeps them past the call.
func (ev *evaluator) gbwPM(tech *techno.Tech, ckt *circuit.Circuit, out string, nodeset map[string]float64) (gbw, pm float64, err error) {
	ev.eng.Temp = tech.Temp
	ev.eng.Rebind(ckt)
	op, err := ev.eng.OP(sim.OPOptions{NodeSet: nodeset})
	if err != nil {
		return 0, 0, fmt.Errorf("sizing: evaluation OP: %w", err)
	}

	// One linearization serves the sweep and every bisection probe, and
	// each probe solves for the output phasor alone.
	ev.solver.Relinearize(op)
	gbw, pm, err = ev.solver.UnityCrossing(out, sim.LogSpace(1e6, 3e9, 40), 25)
	if _, ok := err.(*sim.NoCrossingError); ok {
		return 0, 0, fmt.Errorf("sizing: no unity crossing below 3 GHz")
	}
	return gbw, pm, err
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
