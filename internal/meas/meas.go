// Package meas measures opamp performance on a netlist by simulation —
// the role Cadence extraction + simulation play in the paper's Table 1
// (the bracketed numbers). Every figure of merit in the table has a
// measurement here: DC gain, GBW, phase margin, slew rate, CMRR,
// systematic offset, output resistance, input-referred noise (integrated,
// thermal plateau, 1/f at 1 Hz) and power.
package meas

import (
	"fmt"
	"math"
	"math/cmplx"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/sizing"
)

// Bench describes how to test an OTA netlist builder.
type Bench struct {
	// Build returns a fresh copy of the amplifier netlist. It must
	// contain nodes InP, InN, Out and a supply source named SupplyName;
	// input sources and the load are added by the harness. A fresh copy
	// per measurement keeps testbench edits from leaking between runs.
	Build func() *circuit.Circuit

	InP, InN, Out string
	SupplyName    string  // voltage source name measured for power
	CL            float64 // load capacitance (F)
	VicmDC        float64 // input common-mode voltage (V)
	VoutMid       float64 // target quiescent output voltage (V)
	Temp          float64 // K
	NodeSet       map[string]float64
}

// Report is the measured Performance.
type Report struct {
	Perf sizing.Performance
}

// Measure runs the full suite.
func Measure(b Bench) (*Report, error) {
	rep := &Report{}

	// 1. Systematic offset: differential input voltage that centres the
	// output. Everything small-signal is measured at that bias.
	voff, op, eng, ckt, err := b.findOffset()
	if err != nil {
		return nil, fmt.Errorf("meas: offset search: %w", err)
	}
	rep.Perf.Offset = voff
	rep.Perf.Power = op.SupplyCurrent(b.SupplyName) * supplyVoltage(ckt, b.SupplyName)

	// 2. Differential AC: gain, GBW, phase margin.
	if err := b.acGainSweep(eng, ckt, op, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: AC: %w", err)
	}

	// 3. CMRR at low frequency.
	if err := b.cmrr(voff, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: CMRR: %w", err)
	}

	// 4. Output resistance.
	if err := b.rout(voff, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: Rout: %w", err)
	}

	// 5. Noise.
	if err := b.noise(eng, ckt, op, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: noise: %w", err)
	}

	// 6. Slew rate (unity-gain step).
	if err := b.slewRate(&rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: slew rate: %w", err)
	}
	return rep, nil
}

func supplyVoltage(ckt *circuit.Circuit, name string) float64 {
	for _, v := range ckt.VSources() {
		if v.Name == name {
			return math.Abs(v.DC)
		}
	}
	return math.NaN()
}

// bench construction helpers -------------------------------------------

// openLoop builds the open-loop testbench: differential sources around
// the common mode, load at the output.
func (b *Bench) openLoop(vid float64, acDiff, acCM bool) *circuit.Circuit {
	ckt := b.Build()
	vp := &circuit.VSource{Name: "tbip", Pos: b.InP, Neg: circuit.Ground, DC: b.VicmDC + vid/2}
	vn := &circuit.VSource{Name: "tbin", Pos: b.InN, Neg: circuit.Ground, DC: b.VicmDC - vid/2}
	if acDiff {
		vp.ACMag, vp.ACPhase = 0.5, 0
		vn.ACMag, vn.ACPhase = 0.5, 180
	}
	if acCM {
		vp.ACMag, vp.ACPhase = 1, 0
		vn.ACMag, vn.ACPhase = 1, 0
	}
	ckt.Add(vp, vn,
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL})
	return ckt
}

func (b *Bench) nodeSet() map[string]float64 {
	ns := map[string]float64{b.InP: b.VicmDC, b.InN: b.VicmDC, b.Out: b.VoutMid}
	for k, v := range b.NodeSet {
		ns[k] = v
	}
	return ns
}

// findOffset bisects the differential input for V(out) = VoutMid.
func (b *Bench) findOffset() (float64, *sim.OPResult, *sim.Engine, *circuit.Circuit, error) {
	solve := func(vid float64) (*sim.OPResult, *sim.Engine, *circuit.Circuit, error) {
		ckt := b.openLoop(vid, true, false)
		eng := sim.NewEngine(ckt, b.Temp)
		op, err := eng.OP(sim.OPOptions{NodeSet: b.nodeSet()})
		return op, eng, ckt, err
	}
	f := func(op *sim.OPResult, ckt *circuit.Circuit) float64 {
		return op.Volt(ckt, b.Out) - b.VoutMid
	}
	lo, hi := -20e-3, 20e-3
	opLo, _, cktLo, err := solve(lo)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	opHi, _, cktHi, err := solve(hi)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	fLo, fHi := f(opLo, cktLo), f(opHi, cktHi)
	if math.Signbit(fLo) == math.Signbit(fHi) {
		// Gain polarity or extreme offset: report the midpoint result
		// rather than failing (the numbers will say what is wrong).
		op, eng, ckt, err := solve(0)
		return 0, op, eng, ckt, err
	}
	// With V(out) monotone in vid (positive gain through InP), bisect.
	var op *sim.OPResult
	var eng *sim.Engine
	var ckt *circuit.Circuit
	vid := 0.0
	for i := 0; i < 40; i++ {
		vid = 0.5 * (lo + hi)
		var err error
		op, eng, ckt, err = solve(vid)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		fm := f(op, ckt)
		if math.Abs(fm) < 1e-4 || hi-lo < 1e-9 {
			break
		}
		if math.Signbit(fm) == math.Signbit(fLo) {
			lo = vid
		} else {
			hi = vid
		}
	}
	return vid, op, eng, ckt, nil
}

// acGainSweep measures DC gain, GBW and phase margin from the
// differential AC response.
func (b *Bench) acGainSweep(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, p *sizing.Performance) error {
	// One linearization at the bias point serves the DC-gain probe, the
	// bracketing sweep and every bisection step below.
	solver := eng.PrepareAC(op)
	gainAt := func(freq float64) (complex128, error) {
		res, err := solver.Solve([]float64{freq})
		if err != nil {
			return 0, err
		}
		return res[0].Volt(ckt, b.Out), nil
	}
	h0, err := gainAt(1.0)
	if err != nil {
		return err
	}
	p.DCGainDB = sizing.DB(cmplx.Abs(h0))

	// Bracket the unity crossing on a log sweep, then bisect.
	freqs := sim.LogSpace(1e3, 3e9, 130)
	res, err := solver.Solve(freqs)
	if err != nil {
		return err
	}
	if g0 := cmplx.Abs(res[0].Volt(ckt, b.Out)); g0 < 1 {
		return fmt.Errorf("gain already below unity at %g Hz (|H| = %g)", freqs[0], g0)
	}
	var fLo, fHi float64
	for i := 1; i < len(res); i++ {
		if cmplx.Abs(res[i].Volt(ckt, b.Out)) < 1 {
			fLo, fHi = freqs[i-1], freqs[i]
			break
		}
	}
	if fHi == 0 {
		return fmt.Errorf("no unity crossing below 3 GHz (|H(3G)| = %g)",
			cmplx.Abs(res[len(res)-1].Volt(ckt, b.Out)))
	}
	for i := 0; i < 50; i++ {
		mid := math.Sqrt(fLo * fHi)
		h, err := gainAt(mid)
		if err != nil {
			return err
		}
		if cmplx.Abs(h) >= 1 {
			fLo = mid
		} else {
			fHi = mid
		}
	}
	fu := math.Sqrt(fLo * fHi)
	p.GBW = fu
	hU, err := gainAt(fu)
	if err != nil {
		return err
	}
	// Differential drive is +0.5/−0.5 so phase(H) at DC is 0° for the
	// non-inverting path; PM = 180° + phase at unity.
	ph := cmplx.Phase(hU) * 180 / math.Pi
	pm := 180 + ph
	for pm > 180 {
		pm -= 360
	}
	p.PhaseDeg = pm
	return nil
}

// cmrr measures Adm/Acm at 1 kHz.
func (b *Bench) cmrr(voff float64, p *sizing.Performance) error {
	const f = 1e3
	// Differential gain.
	cktD := b.openLoop(voff, true, false)
	engD := sim.NewEngine(cktD, b.Temp)
	opD, err := engD.OP(sim.OPOptions{NodeSet: b.nodeSet()})
	if err != nil {
		return err
	}
	resD, err := engD.AC(opD, []float64{f})
	if err != nil {
		return err
	}
	adm := cmplx.Abs(resD[0].Volt(cktD, b.Out))

	cktC := b.openLoop(voff, false, true)
	engC := sim.NewEngine(cktC, b.Temp)
	opC, err := engC.OP(sim.OPOptions{NodeSet: b.nodeSet()})
	if err != nil {
		return err
	}
	resC, err := engC.AC(opC, []float64{f})
	if err != nil {
		return err
	}
	acm := cmplx.Abs(resC[0].Volt(cktC, b.Out))
	if acm == 0 {
		p.CMRRDB = 200 // perfectly matched ideal — report a ceiling
		return nil
	}
	p.CMRRDB = sizing.DB(adm / acm)
	return nil
}

// rout injects an AC test current at the output with inputs AC-grounded.
func (b *Bench) rout(voff float64, p *sizing.Performance) error {
	ckt := b.openLoop(voff, false, false)
	ckt.Add(&circuit.ISource{Name: "tbrout", Pos: b.Out, Neg: circuit.Ground, ACMag: 1})
	eng := sim.NewEngine(ckt, b.Temp)
	op, err := eng.OP(sim.OPOptions{NodeSet: b.nodeSet()})
	if err != nil {
		return err
	}
	res, err := eng.AC(op, []float64{1.0})
	if err != nil {
		return err
	}
	p.Rout = cmplx.Abs(res[0].Volt(ckt, b.Out))
	return nil
}

// noise computes output noise via the adjoint method, refers it to the
// input with the differential gain, and extracts the three Table-1 noise
// figures.
func (b *Bench) noise(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("noise needs GBW first")
	}
	freqs := sim.LogSpace(1, p.GBW, 200)
	pts, err := eng.Noise(op, b.Out, freqs)
	if err != nil {
		return err
	}
	acs, err := eng.AC(op, freqs)
	if err != nil {
		return err
	}
	// Input-referred PSD.
	svin := make([]float64, len(freqs))
	for i := range freqs {
		g := cmplx.Abs(acs[i].Volt(ckt, b.Out))
		if g < 1e-12 {
			g = 1e-12
		}
		svin[i] = pts[i].OutPSD / (g * g)
	}
	p.NoiseRMS = sim.IntegratePSD(freqs, svin)
	p.NoiseFl1 = math.Sqrt(svin[0])
	// White plateau: sample two decades below the unity frequency, where
	// 1/f has died out but the gain is still flat.
	plateau := p.GBW / 100
	for i, f := range freqs {
		if f >= plateau {
			p.NoiseTh = math.Sqrt(svin[i])
			break
		}
	}
	return nil
}

// slewRate steps a unity-gain buffer and measures the max output slope.
func (b *Bench) slewRate(p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("slew rate needs GBW first")
	}
	ckt := b.Build()
	// Unity feedback: inn follows out. A 1 Ω resistor closes the
	// unity-gain loop and keeps out and inn separate nodes, so the
	// builder's netlist stays untouched.
	step := 0.8
	ckt.Add(
		&circuit.Resistor{Name: "tbfb", A: b.Out, B: b.InN, R: 1.0},
		&circuit.VSource{Name: "tbstep", Pos: b.InP, Neg: circuit.Ground,
			DC: b.VicmDC - step/2,
			Pulse: &circuit.Pulse{
				V1: b.VicmDC - step/2, V2: b.VicmDC + step/2,
				Delay: 4 / p.GBW, Rise: 1e-10,
			}},
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL},
	)
	eng := sim.NewEngine(ckt, b.Temp)
	ns := b.nodeSet()
	ns[b.InP] = b.VicmDC - step/2
	ns[b.InN] = b.VicmDC - step/2
	ns[b.Out] = b.VicmDC - step/2
	tstop := 60 / p.GBW
	h := 0.02 / p.GBW
	res, err := eng.Tran(tstop, h, sim.OPOptions{NodeSet: ns})
	if err != nil {
		return err
	}
	slope, _ := res.MaxSlope(ckt, b.Out)
	p.SlewRate = slope
	return nil
}
