package meas

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// The measurement harness is validated on the case-1 folded-cascode OTA
// (cheap: no layout loop) against the sizing tool's own evaluation — the
// two share models, so they must agree where they model the same things.

var (
	once    sync.Once
	design  *sizing.FoldedCascode
	report  sizing.Performance
	measErr error
)

func measured(t *testing.T) (*sizing.FoldedCascode, sizing.Performance) {
	t.Helper()
	once.Do(func() {
		tech := techno.Default060()
		ps, _ := sizing.Case(1)
		d, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
		if err != nil {
			measErr = err
			return
		}
		design = d
		b := Bench{
			Build:      func() *circuit.Circuit { return d.AssumedNetlist("meas") },
			InP:        sizing.NetInP,
			InN:        sizing.NetInN,
			Out:        sizing.NetOut,
			SupplyName: "dd",
			CL:         d.Spec.CL,
			VicmDC:     0.645,
			VoutMid:    1.41,
			Temp:       tech.Temp,
			NodeSet:    d.NodeSet(),
		}
		report, measErr = Measure(b)
	})
	if measErr != nil {
		t.Fatal(measErr)
	}
	return design, report
}

func TestMeasureAgreesWithSizingEvaluation(t *testing.T) {
	d, rep := measured(t)
	// GBW and PM were *simulated* by the sizing plan on the same
	// netlist; the harness must agree closely.
	if rel := math.Abs(rep.GBW-d.Predicted.GBW) / d.Predicted.GBW; rel > 0.02 {
		t.Fatalf("GBW: harness %.2f MHz vs plan %.2f MHz",
			rep.GBW/1e6, d.Predicted.GBW/1e6)
	}
	if math.Abs(rep.PhaseDeg-d.Predicted.PhaseDeg) > 1.0 {
		t.Fatalf("PM: harness %.2f° vs plan %.2f°",
			rep.PhaseDeg, d.Predicted.PhaseDeg)
	}
}

func TestMeasureGainAndRout(t *testing.T) {
	_, rep := measured(t)
	if rep.DCGainDB < 60 || rep.DCGainDB > 90 {
		t.Fatalf("gain %.1f dB outside the folded-cascode ballpark", rep.DCGainDB)
	}
	if rep.Rout < 0.5e6 || rep.Rout > 20e6 {
		t.Fatalf("Rout %.2f MΩ implausible", rep.Rout/1e6)
	}
	// Self-consistency: Av ≈ gm1·Rout within a factor ~2 (gm1 from the
	// unity frequency: gm1 = 2π·GBW·CL plus internal caps).
	gmEst := 2 * math.Pi * rep.GBW * 3e-12
	avEst := sizing.DB(gmEst * rep.Rout)
	if math.Abs(avEst-rep.DCGainDB) > 6 {
		t.Fatalf("gain %.1f dB inconsistent with gm·Rout %.1f dB",
			rep.DCGainDB, avEst)
	}
}

func TestMeasureOffsetTiny(t *testing.T) {
	_, rep := measured(t)
	// The schematic is symmetric: only second-order systematic offset
	// remains.
	if math.Abs(rep.Offset) > 2e-3 {
		t.Fatalf("offset %.3f mV too large for a symmetric OTA", rep.Offset*1e3)
	}
}

func TestMeasureNoiseOrdering(t *testing.T) {
	_, p := measured(t)
	if p.NoiseTh <= 0 || p.NoiseFl1 <= 0 || p.NoiseRMS <= 0 {
		t.Fatal("noise figures missing")
	}
	// 1/f dominates at 1 Hz: flicker density far above the plateau.
	if p.NoiseFl1 < 10*p.NoiseTh {
		t.Fatalf("flicker at 1 Hz (%.3g) should dwarf the plateau (%.3g)",
			p.NoiseFl1, p.NoiseTh)
	}
	// Total integrated noise roughly thermal × √(π/2·GBW).
	est := p.NoiseTh * math.Sqrt(math.Pi/2*p.GBW)
	if p.NoiseRMS < 0.5*est || p.NoiseRMS > 2*est {
		t.Fatalf("integrated noise %.3g vs thermal estimate %.3g", p.NoiseRMS, est)
	}
}

func TestMeasureSlewRate(t *testing.T) {
	d, rep := measured(t)
	if rep.SlewRate <= 0 {
		t.Fatal("slew rate not measured")
	}
	// Bounded by the theoretical tail-current limit.
	limit := d.Itail / d.Spec.CL
	if rep.SlewRate > 1.2*limit {
		t.Fatalf("SR %.1f V/µs above the Itail/CL bound %.1f",
			rep.SlewRate/1e6, limit/1e6)
	}
	if rep.SlewRate < 0.3*limit {
		t.Fatalf("SR %.1f V/µs suspiciously far below Itail/CL %.1f",
			rep.SlewRate/1e6, limit/1e6)
	}
}

func TestMeasureCMRRAndPower(t *testing.T) {
	d, rep := measured(t)
	if rep.CMRRDB < 60 {
		t.Fatalf("CMRR %.1f dB too low", rep.CMRRDB)
	}
	wantP := d.Spec.VDD * (d.Itail + 2*d.Icasc)
	if math.Abs(rep.Power-wantP)/wantP > 0.05 {
		t.Fatalf("power %.3f mW vs budget %.3f mW",
			rep.Power*1e3, wantP*1e3)
	}
}

// TestMeasureRejectsBrokenBench: an output a source pins, with no gain
// path from the inputs, fails the unity-crossing search with meas' texts
// at 0 V and at 10 V of AC.
func TestMeasureRejectsBrokenBench(t *testing.T) {
	for _, c := range []struct {
		acMag float64
		want  string
	}{
		{0, "meas: AC: gain already below unity at 1000 Hz (|H| = 0)"},
		{10, "meas: AC: no unity crossing below 3 GHz (|H(3G)| = 10)"},
	} {
		b := Bench{
			Build: func() *circuit.Circuit {
				return circuit.New("pinned").Add(&circuit.VSource{Name: "o", Pos: "out", Neg: "0", ACMag: c.acMag})
			},
			InP: "inp", InN: "inn", Out: "out", CL: 1e-12, VicmDC: 1, VoutMid: 1, Temp: techno.TempNominal,
		}
		if _, err := Measure(b); err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
	}
}

// TestNullInput drives the offset bisection on straight lines: a window
// without a null, the step bound, the early exit, findOffset's ±20 mV
// window at its 27 steps and a failing probe.
func TestNullInput(t *testing.T) {
	var probes []float64
	line := func(zero float64) func(float64) (float64, error) {
		probes = nil
		return func(v float64) (float64, error) {
			probes = append(probes, v)
			return v - zero, nil
		}
	}
	for _, c := range []struct {
		name              string
		zero, window, tol float64
		steps, probes     int
		ok                bool
	}{
		{"one sign", 0.5, 0.1, 0, 40, 2, false},
		{"steps bound", 0.3e-3, 1e-3, 0, 5, 7, true},
		{"tol exits early", 0.26e-3, 1e-3, 2e-5, 40, 5, true},
		{"findOffset budget", 1e-3 / 3, 20e-3, 0, 27, 29, true},
	} {
		vid, ok, err := NullInput(line(c.zero), c.window, c.steps, c.tol)
		last := 0.0
		if ok {
			last = probes[len(probes)-1]
		}
		if err != nil || ok != c.ok || len(probes) != c.probes || vid != last {
			t.Errorf("%s: vid %g (last probe %g), ok %v, err %v after %d probes", c.name, vid, last, ok, err, len(probes))
		}
	}
	fail := fmt.Errorf("no DC")
	if _, ok, err := NullInput(func(float64) (float64, error) { return 0, fail }, 1, 40, 0); ok || err != fail {
		t.Fatalf("failing probe: ok %v, err %v", ok, err)
	}
}

// SlewEnd runs Measure's slew transient of b at unity frequency gbw and
// returns where it ended, in units of 1/gbw.
func SlewEnd(b Bench, gbw float64) (float64, error) {
	res, err := b.slewTran(gbw)
	if err != nil {
		return 0, err
	}
	return res.T[len(res.T)-1] * gbw, nil
}

// RefMeasure is the measurement path as it stood before Measure shared
// one open-loop bench: one fresh netlist and engine per offset probe
// and per measurement, full AC sweeps, a second AC sweep for the noise
// gain, and the slew rate from the full waveform. It stays as the
// reference that the differential test holds Measure to, bit for bit.
func RefMeasure(b Bench) (sizing.Performance, error) {
	var rep sizing.Performance
	voff, op, eng, ckt, err := b.refFindOffset()
	if err != nil {
		return rep, fmt.Errorf("meas: offset search: %w", err)
	}
	rep.Offset = voff
	rep.Power = op.SupplyCurrent(b.SupplyName) * supplyVoltage(ckt, b.SupplyName)
	if err := b.refACGainSweep(eng, ckt, op, &rep); err != nil {
		return rep, fmt.Errorf("meas: AC: %w", err)
	}
	if err := b.refCMRR(voff, &rep); err != nil {
		return rep, fmt.Errorf("meas: CMRR: %w", err)
	}
	if err := b.refRout(voff, &rep); err != nil {
		return rep, fmt.Errorf("meas: Rout: %w", err)
	}
	if err := b.refNoise(eng, ckt, op, &rep); err != nil {
		return rep, fmt.Errorf("meas: noise: %w", err)
	}
	if err := b.refSlewRate(&rep); err != nil {
		return rep, fmt.Errorf("meas: slew rate: %w", err)
	}
	return rep, nil
}

// refOpenLoop builds a fresh open-loop testbench: differential sources
// around the common mode, load at the output.
func (b *Bench) refOpenLoop(vid float64, acDiff, acCM bool) *circuit.Circuit {
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

// refOP solves a fresh engine for ckt at the bench's node set.
func (b *Bench) refOP(ckt *circuit.Circuit) (*sim.OPResult, *sim.Engine, error) {
	eng := sim.NewEngine(ckt, b.Temp)
	op, err := eng.OP(sim.OPOptions{NodeSet: b.nodeSet()})
	return op, eng, err
}

func (b *Bench) refFindOffset() (float64, *sim.OPResult, *sim.Engine, *circuit.Circuit, error) {
	solve := func(vid float64) (*sim.OPResult, *sim.Engine, *circuit.Circuit, error) {
		ckt := b.refOpenLoop(vid, true, false)
		op, eng, err := b.refOP(ckt)
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
		op, eng, ckt, err := solve(0)
		return 0, op, eng, ckt, err
	}
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

func (b *Bench) refACGainSweep(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, p *sizing.Performance) error {
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
	pm := 180 + cmplx.Phase(hU)*180/math.Pi
	for pm > 180 {
		pm -= 360
	}
	p.PhaseDeg = pm
	return nil
}

// refGainAt solves a fresh engine for ckt and returns |V(out)| at f.
func (b *Bench) refGainAt(ckt *circuit.Circuit, f float64) (float64, error) {
	op, eng, err := b.refOP(ckt)
	if err != nil {
		return 0, err
	}
	res, err := eng.AC(op, []float64{f})
	if err != nil {
		return 0, err
	}
	return cmplx.Abs(res[0].Volt(ckt, b.Out)), nil
}

func (b *Bench) refCMRR(voff float64, p *sizing.Performance) error {
	const f = 1e3
	adm, err := b.refGainAt(b.refOpenLoop(voff, true, false), f)
	if err != nil {
		return err
	}
	acm, err := b.refGainAt(b.refOpenLoop(voff, false, true), f)
	if err != nil {
		return err
	}
	if acm == 0 {
		p.CMRRDB = 200
		return nil
	}
	p.CMRRDB = sizing.DB(adm / acm)
	return nil
}

func (b *Bench) refRout(voff float64, p *sizing.Performance) error {
	ckt := b.refOpenLoop(voff, false, false)
	ckt.Add(&circuit.ISource{Name: "tbrout", Pos: b.Out, Neg: circuit.Ground, ACMag: 1})
	rout, err := b.refGainAt(ckt, 1.0)
	p.Rout = rout
	return err
}

func (b *Bench) refNoise(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("noise needs GBW first")
	}
	freqs := sim.LogSpace(1, p.GBW, 200)
	pts, err := eng.PrepareAC(op).Noise(b.Out, freqs)
	if err != nil {
		return err
	}
	acs, err := eng.AC(op, freqs)
	if err != nil {
		return err
	}
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
	plateau := p.GBW / 100
	for i, f := range freqs {
		if f >= plateau {
			p.NoiseTh = math.Sqrt(svin[i])
			break
		}
	}
	return nil
}

func (b *Bench) refSlewRate(p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("slew rate needs GBW first")
	}
	ckt := b.Build()
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
	// Every node's waveform, as the transient stored it before probes.
	res, err := eng.Tran(60/p.GBW, 0.02/p.GBW, sim.OPOptions{NodeSet: ns}, nil, ckt.Nodes()...)
	if err != nil {
		return err
	}
	w := res.Waveform(b.Out)
	for k := 1; k < len(w); k++ {
		dt := res.T[k] - res.T[k-1]
		if dt <= 0 {
			continue
		}
		if s := math.Abs(w[k]-w[k-1]) / dt; s > p.SlewRate {
			p.SlewRate = s
		}
	}
	return nil
}
