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
	// input sources and the load are added by the harness. Measure
	// builds two benches from it: the open-loop bench, whose one netlist
	// and engine serve the offset search and every small-signal
	// measurement, and the unity-gain bench of the slew transient. A
	// fresh copy per bench keeps one bench's edits out of the other.
	Build func() *circuit.Circuit

	InP, InN, Out string
	SupplyName    string  // voltage source name measured for power
	CL            float64 // load capacitance (F)
	VicmDC        float64 // input common-mode voltage (V)
	VoutMid       float64 // target quiescent output voltage (V)
	Temp          float64 // K
	NodeSet       map[string]float64
}

// Measure runs the full suite.
func Measure(b Bench) (sizing.Performance, error) {
	var p sizing.Performance

	// 1. Systematic offset: differential input voltage that centres the
	// output. Everything small-signal is measured at that bias, through
	// one linearization of the offset search's own engine.
	ol := b.openLoop()
	voff, op, err := ol.findOffset()
	if err != nil {
		return p, fmt.Errorf("meas: offset search: %w", err)
	}
	p.Offset = voff
	p.Power = op.SupplyCurrent(b.SupplyName) * supplyVoltage(ol.ckt, b.SupplyName)
	ac := ol.eng.PrepareAC(op)

	// 2. Differential AC: gain, GBW, phase margin.
	if err := ol.acGainSweep(ac, &p); err != nil {
		return p, fmt.Errorf("meas: AC: %w", err)
	}

	// 3. CMRR at low frequency.
	if err := ol.cmrr(ac, &p); err != nil {
		return p, fmt.Errorf("meas: CMRR: %w", err)
	}

	// 4. Output resistance.
	if err := ol.rout(ac, &p); err != nil {
		return p, fmt.Errorf("meas: Rout: %w", err)
	}

	// 5. Noise.
	if err := ol.noise(ac, &p); err != nil {
		return p, fmt.Errorf("meas: noise: %w", err)
	}

	// 6. Slew rate (unity-gain step).
	if err := b.slewRate(&p); err != nil {
		return p, fmt.Errorf("meas: slew rate: %w", err)
	}
	return p, nil
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

// openLoop is the open-loop testbench: the amplifier with input sources
// tbip and tbin around the common mode, the load at the output, and
// tbrout, a test current into the output with zero DC. One netlist and
// engine serve a whole measurement. The offset search moves the inputs'
// DC levels; each small-signal measurement selects its drive through
// the sources' AC fields. Neither the AC fields nor tbrout's zero DC
// enter the DC solution, so every operating point is the one a netlist
// built for that measurement alone would give.
type openLoop struct {
	b      *Bench
	ckt    *circuit.Circuit
	eng    *sim.Engine
	vp, vn *circuit.VSource
	iout   *circuit.ISource
	ns     map[string]float64
}

func (b *Bench) openLoop() *openLoop {
	ol := &openLoop{
		b:    b,
		ckt:  b.Build(),
		vp:   &circuit.VSource{Name: "tbip", Pos: b.InP, Neg: circuit.Ground},
		vn:   &circuit.VSource{Name: "tbin", Pos: b.InN, Neg: circuit.Ground},
		iout: &circuit.ISource{Name: "tbrout", Pos: b.Out, Neg: circuit.Ground},
		ns:   b.nodeSet(),
	}
	ol.ckt.Add(ol.vp, ol.vn,
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL},
		ol.iout)
	ol.eng = sim.NewEngine(ol.ckt, b.Temp)
	return ol
}

// setInput places the inputs vid apart around the common mode.
func (ol *openLoop) setInput(vid float64) {
	ol.vp.DC = ol.b.VicmDC + vid/2
	ol.vn.DC = ol.b.VicmDC - vid/2
}

// solve sets the differential input to vid and solves the operating
// point.
func (ol *openLoop) solve(vid float64) (*sim.OPResult, error) {
	ol.setInput(vid)
	return ol.eng.OP(sim.OPOptions{NodeSet: ol.ns})
}

// drive is the small-signal excitation a measurement applies.
type drive int

const (
	diffDrive drive = iota // 0.5 V on each input, 180° apart
	cmDrive                // 1 V on both inputs, in phase
	outDrive               // 1 A into the output, inputs AC-grounded
)

// drive writes d into the sources' AC fields and reloads them into the
// linearization ac. Every measurement sets its drive before it solves.
func (ol *openLoop) drive(ac *sim.ACSolver, d drive) {
	vp, vn := ol.vp, ol.vn
	vp.ACMag, vp.ACPhase, vn.ACMag, vn.ACPhase, ol.iout.ACMag = 0, 0, 0, 0, 0
	switch d {
	case diffDrive:
		vp.ACMag, vn.ACMag, vn.ACPhase = 0.5, 0.5, 180
	case cmDrive:
		vp.ACMag, vn.ACMag = 1, 1
	case outDrive:
		ol.iout.ACMag = 1
	}
	ac.ReadExcitation()
}

func (b *Bench) nodeSet() map[string]float64 {
	ns := map[string]float64{b.InP: b.VicmDC, b.InN: b.VicmDC, b.Out: b.VoutMid}
	for k, v := range b.NodeSet {
		ns[k] = v
	}
	return ns
}

// findOffset bisects the differential input for V(out) = VoutMid and
// returns it with the operating point there, where it leaves the inputs.
func (ol *openLoop) findOffset() (float64, *sim.OPResult, error) {
	var op *sim.OPResult
	vid, ok, err := NullInput(func(vid float64) (float64, error) {
		var err error
		if op, err = ol.solve(vid); err != nil {
			return 0, err
		}
		return op.Volt(ol.ckt, ol.b.Out) - ol.b.VoutMid, nil
	}, 20e-3, 27, 1e-4)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		// Gain polarity or extreme offset: report the midpoint result
		// rather than failing (the numbers will say what is wrong).
		op, err = ol.solve(0)
		return 0, op, err
	}
	// The last probe was at vid, so op is the operating point there.
	return vid, op, nil
}

// NullInput bisects f, a function of the differential input vid that is
// monotone over [−window, window], for its zero. It probes both ends
// first and returns ok = false after those two probes when f has one
// sign at both. Otherwise it probes up to steps midpoints, stopping
// early once |f| < tol (tol = 0 never stops early), and returns the last
// midpoint it probed. An error from f ends the search and is returned
// as is.
func NullInput(f func(vid float64) (float64, error), window float64, steps int, tol float64) (vid float64, ok bool, err error) {
	lo, hi := -window, window
	fLo, err := f(lo)
	if err != nil {
		return 0, false, err
	}
	fHi, err := f(hi)
	if err != nil || math.Signbit(fLo) == math.Signbit(fHi) {
		return 0, false, err
	}
	for i := 0; i < steps; i++ {
		vid = 0.5 * (lo + hi)
		fm, err := f(vid)
		if err != nil {
			return 0, false, err
		}
		if math.Abs(fm) < tol {
			break
		}
		if math.Signbit(fm) == math.Signbit(fLo) {
			lo = vid
		} else {
			hi = vid
		}
	}
	return vid, true, nil
}

// acGainSweep measures DC gain, GBW and phase margin from the
// differential AC response, probing the output phasor alone. The unity
// crossing is bracketed on a 130-point log sweep from 1 kHz, where the
// gain must still be above unity, and bisected 50 times.
func (ol *openLoop) acGainSweep(ac *sim.ACSolver, p *sizing.Performance) error {
	out := ol.b.Out
	ol.drive(ac, diffDrive)
	h0, err := ac.Phasor(1.0, out)
	if err != nil {
		return err
	}
	p.DCGainDB = sizing.DB(cmplx.Abs(h0))

	freqs := sim.LogSpace(1e3, 3e9, 130)
	h, err := ac.Phasor(freqs[0], out)
	if err != nil {
		return err
	}
	if g := cmplx.Abs(h); g < 1 {
		return fmt.Errorf("gain already below unity at %g Hz (|H| = %g)", freqs[0], g)
	}
	// Differential drive is +0.5/−0.5 so phase(H) at DC is 0° for the
	// non-inverting path; PM = 180° + phase at unity.
	p.GBW, p.PhaseDeg, err = ac.UnityCrossing(out, freqs, 50)
	if nc, ok := err.(*sim.NoCrossingError); ok {
		return fmt.Errorf("no unity crossing below 3 GHz (|H(3G)| = %g)", nc.Gain)
	}
	return err
}

// cmrr measures Adm/Acm at 1 kHz: the differential and the common-mode
// drive through the same linearization.
func (ol *openLoop) cmrr(ac *sim.ACSolver, p *sizing.Performance) error {
	const f = 1e3
	ol.drive(ac, diffDrive)
	hd, err := ac.Phasor(f, ol.b.Out)
	if err != nil {
		return err
	}
	adm := cmplx.Abs(hd)

	ol.drive(ac, cmDrive)
	hc, err := ac.Phasor(f, ol.b.Out)
	if err != nil {
		return err
	}
	acm := cmplx.Abs(hc)
	if acm == 0 {
		p.CMRRDB = 200 // perfectly matched ideal — report a ceiling
		return nil
	}
	p.CMRRDB = sizing.DB(adm / acm)
	return nil
}

// rout injects an AC test current at the output with inputs AC-grounded.
func (ol *openLoop) rout(ac *sim.ACSolver, p *sizing.Performance) error {
	ol.drive(ac, outDrive)
	h, err := ac.Phasor(1.0, ol.b.Out)
	if err != nil {
		return err
	}
	p.Rout = cmplx.Abs(h)
	return nil
}

// noise computes output noise via the adjoint method, refers it to the
// input with the differential gain, and extracts the three Table-1 noise
// figures.
func (ol *openLoop) noise(ac *sim.ACSolver, p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("noise needs GBW first")
	}
	out := ol.b.Out
	freqs := sim.LogSpace(1, p.GBW, 200)
	pts, err := ac.Noise(out, freqs)
	if err != nil {
		return err
	}
	// Input-referred PSD.
	ol.drive(ac, diffDrive)
	svin := make([]float64, len(freqs))
	for i, f := range freqs {
		h, err := ac.Phasor(f, out)
		if err != nil {
			return err
		}
		g := cmplx.Abs(h)
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

// The slew transient's grid and stop rule, in units of 1/GBW and of the
// running maximum slope.
const (
	slewStep   = 0.02 // time step, in 1/GBW
	slewWindow = 60   // the full window, in 1/GBW
	slewSettle = 2    // settled stretch after the edge that ends the run, in 1/GBW
	slewQuiet  = 1e-3 // a step is settled below this fraction of the running maximum slope
)

// slewRate steps a unity-gain buffer and measures the max output slope.
func (b *Bench) slewRate(p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("slew rate needs GBW first")
	}
	res, err := b.slewTran(p.GBW)
	if err != nil {
		return err
	}
	p.SlewRate, _ = res.MaxSlope(b.Out)
	return nil
}

// slewTran runs the unity-gain step transient, probing the output. It
// stops once the input edge has passed and every step of the last
// slewSettle/GBW was settled; otherwise it runs the full slewWindow/GBW.
// The steps lie on one grid, so a stopped run is a prefix of the full
// one and its maximum slope keeps its bits whenever the steepest step
// lies inside the prefix.
func (b *Bench) slewTran(gbw float64) (*sim.TranResult, error) {
	ckt := b.Build()
	// Unity feedback: inn follows out. A 1 Ω resistor closes the
	// unity-gain loop and keeps out and inn separate nodes, so the
	// builder's netlist stays untouched.
	step := 0.8
	pulse := &circuit.Pulse{
		V1: b.VicmDC - step/2, V2: b.VicmDC + step/2,
		Delay: 4 / gbw, Rise: 1e-10,
	}
	ckt.Add(
		&circuit.Resistor{Name: "tbfb", A: b.Out, B: b.InN, R: 1.0},
		&circuit.VSource{Name: "tbstep", Pos: b.InP, Neg: circuit.Ground,
			DC: b.VicmDC - step/2, Pulse: pulse},
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL},
	)
	eng := sim.NewEngine(ckt, b.Temp)
	ns := b.nodeSet()
	ns[b.InP] = b.VicmDC - step/2
	ns[b.InN] = b.VicmDC - step/2
	ns[b.Out] = b.VicmDC - step/2

	edge := pulse.Delay + pulse.Rise
	var maxSlope float64
	quiet := 0 // settled steps in a row since the edge
	stop := func(r *sim.TranResult) bool {
		k := len(r.T) - 1
		w := r.V[0] // b.Out, the only probe
		s := math.Abs(w[k]-w[k-1]) / (r.T[k] - r.T[k-1])
		maxSlope = max(maxSlope, s)
		if r.T[k] <= edge || s >= slewQuiet*maxSlope {
			quiet = 0
			return false
		}
		quiet++
		return quiet >= slewSettle/slewStep
	}
	return eng.Tran(slewWindow/gbw, slewStep/gbw, sim.OPOptions{NodeSet: ns}, stop, b.Out)
}
