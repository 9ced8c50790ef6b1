package sim

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/techno"
)

const um = techno.Micron

func TestOPResistorDivider(t *testing.T) {
	c := circuit.New("divider")
	c.Add(
		&circuit.VSource{Name: "dd", Pos: "in", Neg: "0", DC: 3.0},
		&circuit.Resistor{Name: "1", A: "in", B: "mid", R: 1e3},
		&circuit.Resistor{Name: "2", A: "mid", B: "0", R: 2e3},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Volt(c, "mid"); math.Abs(v-2.0) > 1e-9 {
		t.Fatalf("V(mid) = %g, want 2", v)
	}
	if i, _ := r.BranchCurrent("dd"); math.Abs(i+1e-3) > 1e-9 {
		t.Fatalf("source current = %g, want −1 mA", i)
	}
	if res := e.KCLResidual(r); res > 1e-9 {
		t.Fatalf("KCL residual %g", res)
	}
}

func TestOPDiodeConnectedNMOS(t *testing.T) {
	tech := techno.Default060()
	c := circuit.New("diode")
	m := &circuit.MOSFET{Name: "1", D: "d", G: "d", S: "0", B: "0",
		Dev: device.MOS{Card: &tech.N, W: 20 * um, L: 1 * um}}
	c.Add(
		&circuit.ISource{Name: "b", Pos: "vdd", Neg: "d", DC: 50e-6},
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		m,
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	op := r.MOSOP("1")
	if math.Abs(op.ID-50e-6)/50e-6 > 1e-4 {
		t.Fatalf("diode current %g, want 50 µA", op.ID)
	}
	vgs := r.Volt(c, "d")
	if vgs < tech.N.VT0 || vgs > tech.N.VT0+0.6 {
		t.Fatalf("diode VGS = %g, implausible", vgs)
	}
	if res := e.KCLResidual(r); res > 1e-9 {
		t.Fatalf("KCL residual %g", res)
	}
}

func TestOPCurrentMirrorRatio(t *testing.T) {
	tech := techno.Default060()
	c := circuit.New("mirror")
	mk := func(name string, w float64, d string) *circuit.MOSFET {
		return &circuit.MOSFET{Name: name, D: d, G: "g", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: w, L: 2 * um}}
	}
	c.Add(
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		&circuit.ISource{Name: "ref", Pos: "vdd", Neg: "g", DC: 20e-6},
		mk("1", 10*um, "g"),
		mk("2", 30*um, "out"),
		&circuit.Resistor{Name: "l", A: "vdd", B: "out", R: 10e3},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	iOut := r.MOSOP("2").ID
	// 3:1 mirror with mild CLM mismatch: within 15% of 60 µA.
	if iOut < 55e-6 || iOut > 75e-6 {
		t.Fatalf("mirror output %g, want ≈ 60 µA", iOut)
	}
}

func TestOPPMOSCommonSource(t *testing.T) {
	tech := techno.Default060()
	c := circuit.New("pcs")
	c.Add(
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		&circuit.VSource{Name: "in", Pos: "g", Neg: "0", DC: 2.2},
		&circuit.MOSFET{Name: "p", D: "out", G: "g", S: "vdd", B: "vdd",
			Dev: device.MOS{Card: &tech.P, W: 40 * um, L: 1 * um}},
		&circuit.Resistor{Name: "l", A: "out", B: "0", R: 20e3},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	op := r.MOSOP("p")
	// |VGS| = 1.1 V > |VT0p| = 0.8 V → conducting; V(out) = −ID·(−RL)…
	if op.ID >= 0 {
		t.Fatalf("PMOS drain current should be negative (out of drain into node): %g", op.ID)
	}
	vout := r.Volt(c, "out")
	if vout < 0.05 || vout > 3.3 {
		t.Fatalf("V(out) = %g out of range", vout)
	}
	if want := -op.ID * 20e3; math.Abs(vout-want) > 1e-6 {
		t.Fatalf("V(out) = %g inconsistent with ID·RL = %g", vout, want)
	}
}

// fiveTransistorOTA builds the classic 5T OTA used to validate OP/AC/noise
// against hand analysis.
func fiveTransistorOTA(tech *techno.Tech) (*circuit.Circuit, map[string]float64) {
	c := circuit.New("ota5t")
	wIn, wMir, wTail := 60*um, 30*um, 40*um
	l := 1 * um
	geomN := device.OneFoldGeom(tech, wMir)
	geomP := device.OneFoldGeom(tech, wIn)
	c.Add(
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		&circuit.VSource{Name: "inp", Pos: "vip", Neg: "0", DC: 1.6, ACMag: 0.5},
		&circuit.VSource{Name: "inn", Pos: "vin", Neg: "0", DC: 1.6, ACMag: 0.5, ACPhase: 180},
		&circuit.ISource{Name: "b", Pos: "vbn", Neg: "0", DC: 20e-6},
		// Bias mirror for the tail.
		&circuit.MOSFET{Name: "b1", D: "vbn", G: "vbn", S: "vdd", B: "vdd",
			Dev: device.MOS{Card: &tech.P, W: wTail, L: l, Geom: device.OneFoldGeom(tech, wTail)}},
		&circuit.MOSFET{Name: "t", D: "tail", G: "vbn", S: "vdd", B: "vdd",
			Dev: device.MOS{Card: &tech.P, W: 2 * wTail, L: l, Geom: device.OneFoldGeom(tech, 2*wTail)}},
		// Input pair (PMOS).
		&circuit.MOSFET{Name: "1", D: "x", G: "vip", S: "tail", B: "vdd",
			Dev: device.MOS{Card: &tech.P, W: wIn, L: l, Geom: geomP}},
		&circuit.MOSFET{Name: "2", D: "out", G: "vin", S: "tail", B: "vdd",
			Dev: device.MOS{Card: &tech.P, W: wIn, L: l, Geom: geomP}},
		// NMOS mirror load.
		&circuit.MOSFET{Name: "3", D: "x", G: "x", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: wMir, L: l, Geom: geomN}},
		&circuit.MOSFET{Name: "4", D: "out", G: "x", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: wMir, L: l, Geom: geomN}},
		&circuit.Capacitor{Name: "l", A: "out", B: "0", C: 2e-12},
	)
	seeds := map[string]float64{
		"vdd": 3.3, "vbn": 2.3, "tail": 2.4, "x": 0.9, "out": 0.9,
		"vip": 1.6, "vin": 1.6,
	}
	return c, seeds
}

func TestOP5TOTA(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Pair must split the tail current evenly (symmetric bias).
	i1, i2 := r.MOSOP("1").ID, r.MOSOP("2").ID
	if math.Abs(i1-i2) > 0.02*math.Abs(i1) {
		t.Fatalf("pair imbalance: %g vs %g", i1, i2)
	}
	// All devices saturated.
	for _, name := range []string{"1", "2", "3", "4", "t"} {
		op := r.MOSOP(name)
		if op.Region != device.RegionSaturation {
			t.Fatalf("M%s region = %v at VDS=%.3g, want saturation", name, op.Region, op.VDS)
		}
	}
	if res := e.KCLResidual(r); res > 1e-8 {
		t.Fatalf("KCL residual %g", res)
	}
}

func TestAC5TOTAGainAndPole(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Hand estimate: Av = gm1/(gds2+gds4).
	gm := r.MOSOP("1").Gm
	gds := r.MOSOP("2").Gds + r.MOSOP("4").Gds
	want := gm / gds

	acr, err := e.AC(r, []float64{10, 1e3})
	if err != nil {
		t.Fatal(err)
	}
	got := cmplx.Abs(acr[0].Volt(c, "out"))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("DC gain %g, hand analysis %g", got, want)
	}
	// Gain still flat at 1 kHz.
	if g2 := cmplx.Abs(acr[1].Volt(c, "out")); math.Abs(g2-got)/got > 0.02 {
		t.Fatalf("gain droop too early: %g vs %g", g2, got)
	}

	// −3 dB pole ≈ gds/(2π·CL); unity gain ≈ gm/(2π·CL).
	fu := gm / (2 * math.Pi * 2e-12)
	acu, err := e.AC(r, []float64{fu})
	if err != nil {
		t.Fatal(err)
	}
	gu := cmplx.Abs(acu[0].Volt(c, "out"))
	if gu < 0.5 || gu > 2 {
		t.Fatalf("|H| at estimated unity frequency = %g, want ≈ 1", gu)
	}
}

func TestACRCLowpass(t *testing.T) {
	c := circuit.New("rc")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0, ACMag: 1},
		&circuit.Resistor{Name: "r", A: "a", B: "b", R: 1e3},
		&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 1e-9},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := 1 / (2 * math.Pi * 1e3 * 1e-9)
	acr, err := e.AC(r, []float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(acr[0].Volt(c, "b")); math.Abs(g-1) > 1e-3 {
		t.Fatalf("passband gain %g", g)
	}
	if g := cmplx.Abs(acr[1].Volt(c, "b")); math.Abs(g-1/math.Sqrt2) > 1e-3 {
		t.Fatalf("gain at fc = %g, want 0.707", g)
	}
	ph := cmplx.Phase(acr[1].Volt(c, "b")) * 180 / math.Pi
	if math.Abs(ph+45) > 0.5 {
		t.Fatalf("phase at fc = %g°, want −45°", ph)
	}
	if g := cmplx.Abs(acr[2].Volt(c, "b")); math.Abs(g-0.01) > 2e-3 {
		t.Fatalf("stopband gain %g, want ≈ 0.01", g)
	}
}

// TestUnityCrossing: an RC low-pass driven at 10 V crosses unity at
// √99/(2πRC) with PM = 180° − atan √99; a sweep that ends above unity
// reports the gain at its last point.
func TestUnityCrossing(t *testing.T) {
	c := circuit.New("rc")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", ACMag: 10},
		&circuit.Resistor{Name: "r", A: "a", B: "b", R: 1e3},
		&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 1e-9},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	ac := e.PrepareAC(r)
	fu, pm, err := ac.UnityCrossing("b", LogSpace(1e3, 1e8, 50), 40)
	wantFu := math.Sqrt(99) / (2 * math.Pi * 1e-6)
	wantPM := 180 - math.Atan(math.Sqrt(99))*180/math.Pi
	if err != nil || math.Abs(fu/wantFu-1) > 1e-9 || math.Abs(pm-wantPM) > 1e-6 {
		t.Fatalf("fu %g Hz, PM %g°, err %v; want %g Hz, %g°", fu, pm, err, wantFu, wantPM)
	}
	_, _, err = ac.UnityCrossing("b", LogSpace(1e3, 1e5, 20), 40)
	nc, ok := err.(*NoCrossingError)
	if want := 10 / math.Hypot(1, 2*math.Pi*1e5*1e-6); !ok || math.Abs(nc.Gain-want) > 1e-9 {
		t.Fatalf("no-crossing sweep: err %v, want gain %g", err, want)
	}
}

func TestNoiseResistorMatchesTheory(t *testing.T) {
	// Output noise of an RC lowpass: S = 4kTR/(1+(f/fc)²).
	c := circuit.New("rcnoise")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0},
		&circuit.Resistor{Name: "r", A: "a", B: "b", R: 10e3},
		&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 1e-12},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.PrepareAC(r).Noise("b", []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * techno.KBoltzmann * techno.TempNominal * 10e3
	if got := pts[0].OutPSD; math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("noise PSD %g, want %g", got, want)
	}
}

func TestNoiseKTOverC(t *testing.T) {
	// Total integrated output noise of RC must be kT/C (independent of R).
	c := circuit.New("ktc")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0},
		&circuit.Resistor{Name: "r", A: "a", B: "b", R: 1e3},
		&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 10e-12},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := 1 / (2 * math.Pi * 1e3 * 10e-12)
	freqs := LogSpace(fc/1e4, fc*1e4, 400)
	pts, err := e.PrepareAC(r).Noise("b", freqs)
	if err != nil {
		t.Fatal(err)
	}
	psd := make([]float64, len(pts))
	for i, p := range pts {
		psd[i] = p.OutPSD
	}
	vn := IntegratePSD(freqs, psd)
	want := math.Sqrt(techno.KBoltzmann * techno.TempNominal / 10e-12)
	if math.Abs(vn-want)/want > 0.02 {
		t.Fatalf("integrated noise %g, want kT/C %g", vn, want)
	}
}

// TestTranStopIsPrefix: a transient that its stop hook ends at step k
// equals the first k+1 points of the run to tstop, bit for bit, in T and
// in every probed waveform, and each waveform has len(T) points. A hook
// that never stops gives the nil hook's run: ceil(tstop/h)+1 points on
// the grid t = k·h. The 5T OTA's positive input steps by 100 mV at 20 ns
// so that the probed nodes move.
func TestTranStopIsPrefix(t *testing.T) {
	tech := techno.Default060()
	const tstop, h = 300e-9, 1e-9
	probes := []string{"out", "x", "tail"}
	run := func(stop func(*TranResult) bool) *TranResult {
		t.Helper()
		c, seeds := fiveTransistorOTA(tech)
		for _, v := range c.VSources() {
			if v.Name == "inp" {
				v.Pulse = &circuit.Pulse{V1: v.DC, V2: v.DC + 0.1, Delay: 20e-9, Rise: 1e-9}
			}
		}
		res, err := NewEngine(c, techno.TempNominal).Tran(tstop, h, seeds, stop, probes...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameBits := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %x, want %x", name, i, got[i], want[i])
			}
		}
	}

	full := run(nil)
	nSteps := int(math.Ceil(tstop / h))
	if len(full.T) != nSteps+1 {
		t.Fatalf("nil hook: %d points, want %d", len(full.T), nSteps+1)
	}
	for k, tk := range full.T {
		if tk != float64(k)*h {
			t.Fatalf("T[%d] = %g, want %g", k, tk, float64(k)*h)
		}
	}
	if lo, hi := full.Waveform("out")[0], full.Waveform("out")[nSteps]; math.Abs(hi-lo) < 1e-3 {
		t.Fatalf("out moved only %g V: the step does not drive the prefix check", hi-lo)
	}

	never := run(func(r *TranResult) bool { return false })
	sameBits("never-stop T", never.T, full.T)
	for _, p := range probes {
		sameBits("never-stop "+p, never.Waveform(p), full.Waveform(p))
	}

	for _, k := range []int{1, 19, 21, 150, nSteps} {
		calls := 0
		got := run(func(r *TranResult) bool {
			calls++
			if len(r.T) != calls+1 {
				t.Fatalf("hook call %d sees %d points, want %d", calls, len(r.T), calls+1)
			}
			for j := range r.V {
				if len(r.V[j]) != len(r.T) {
					t.Fatalf("hook call %d: waveform %d has %d points for %d times", calls, j, len(r.V[j]), len(r.T))
				}
			}
			return len(r.T)-1 == k
		})
		if calls != k {
			t.Fatalf("stop at step %d: hook called %d times", k, calls)
		}
		sameBits("T", got.T, full.T[:k+1])
		for _, p := range probes {
			sameBits(p, got.Waveform(p), full.Waveform(p)[:k+1])
		}
	}
}

func TestTranRCStep(t *testing.T) {
	c := circuit.New("rcstep")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0,
			Pulse: &circuit.Pulse{V1: 0, V2: 1, Delay: 0, Rise: 1e-12, Width: 1}},
		&circuit.Resistor{Name: "r", A: "a", B: "b", R: 1e3},
		&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 1e-9},
	)
	e := NewEngine(c, techno.TempNominal)
	tau := 1e-6
	res, err := e.Tran(5*tau, tau/100, nil, nil, "b")
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waveform("b")
	// Compare against the analytic exponential at t = tau.
	idx := 100
	want := 1 - math.Exp(-1)
	if math.Abs(w[idx]-want) > 0.01 {
		t.Fatalf("v(tau) = %g, want %g", w[idx], want)
	}
	if final := w[len(w)-1]; math.Abs(final-(1-math.Exp(-5))) > 0.01 {
		t.Fatalf("v(5tau) = %g", final)
	}
}

func TestTranPulseShape(t *testing.T) {
	p := &circuit.Pulse{V1: 0, V2: 2, Delay: 1e-9, Rise: 1e-9, Width: 3e-9, Fall: 1e-9, Period: 10e-9}
	cases := []struct{ t, v float64 }{
		{0, 0}, {1e-9, 0}, {1.5e-9, 1}, {2e-9, 2}, {4e-9, 2}, {5.5e-9, 1}, {6.1e-9, 0},
		{11.5e-9, 1}, // periodic repeat
	}
	for _, c := range cases {
		if got := p.At(c.t); math.Abs(got-c.v) > 1e-9 {
			t.Fatalf("pulse at %g = %g, want %g", c.t, got, c.v)
		}
	}
}

func TestOPNoConvergenceReportsError(t *testing.T) {
	// Two ideal voltage sources fighting on one node → singular system.
	c := circuit.New("conflict")
	c.Add(
		&circuit.VSource{Name: "a", Pos: "x", Neg: "0", DC: 1},
		&circuit.VSource{Name: "b", Pos: "x", Neg: "0", DC: 2},
	)
	e := NewEngine(c, techno.TempNominal)
	if _, err := e.OP(nil); err == nil {
		t.Fatal("conflicting sources must not converge")
	}
}

// TestOPNonFiniteStepFails: a 1 mA source into a 0 Ω resistor stamps an
// infinite conductance, and the Newton step is NaN. OP must fail, naming
// the gmin and the iteration, not report V(a) = NaN as converged.
func TestOPNonFiniteStepFails(t *testing.T) {
	c := circuit.New("short")
	c.Add(
		&circuit.ISource{Name: "i", Pos: "0", Neg: "a", DC: 1e-3},
		&circuit.Resistor{Name: "r", A: "a", B: "0", R: 0},
	)
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(nil)
	if err == nil {
		t.Fatalf("OP converged to V(a) = %g", r.Volt(c, "a"))
	}
	if msg := err.Error(); !strings.Contains(msg, "non-finite Newton step at gmin=1e-09 iter=1") {
		t.Fatalf("error %q does not name the non-finite step, its gmin and its iteration", msg)
	}
}

func TestEngineBranchIndexing(t *testing.T) {
	c := circuit.New("idx")
	c.Add(
		&circuit.VSource{Name: "v1", Pos: "a", Neg: "0", DC: 1},
		&circuit.Resistor{Name: "r", A: "a", B: "0", R: 1},
	)
	e := NewEngine(c, techno.TempNominal)
	if e.Size() != 2 { // one node + one branch
		t.Fatalf("size = %d, want 2", e.Size())
	}
	r, err := e.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := r.BranchCurrent("v1"); !ok {
		t.Fatal("v1 branch missing")
	} else if math.Abs(i+1) > 1e-9 {
		t.Fatalf("v1 branch current = %g, want −1 A", i)
	}
	if _, ok := r.BranchCurrent("nope"); ok {
		t.Fatal("phantom branch")
	}
	if i := r.SupplyCurrent("nope"); i != 0 {
		t.Fatalf("phantom supply current %g", i)
	}
}
