package meas

import (
	"fmt"
	"math"
	"testing"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/techno"
)

// OutputRange measures the usable output voltage range of the amplifier:
// the output span over which the incremental open-loop gain stays above
// the given fraction of its peak (devices saturated). This validates the
// output-range specification the design plan derives its cascode
// overdrives from. Only the tests below run it and InputCMRange.
func OutputRange(b Bench, keepFraction float64) (lo, hi float64, err error) {
	if keepFraction <= 0 || keepFraction >= 1 {
		keepFraction = 0.25
	}
	// Open loop: sweep the differential input through the transition.
	// With gain A, the output traverses the full range over ~VDD/A of
	// input; sweep ±4× that around the nulling point.
	ol := b.openLoop()
	vdd := supplyVoltage(ol.ckt, b.SupplyName)
	if math.IsNaN(vdd) || vdd <= 0 {
		return 0, 0, fmt.Errorf("meas: cannot determine the supply voltage")
	}

	// Rough gain from a two-point probe for the sweep span.
	probe := func(vid float64) (float64, error) {
		r, err := ol.solve(vid)
		if err != nil {
			return 0, err
		}
		return r.Volt(ol.ckt, b.Out), nil
	}
	v1, err := probe(-1e-3)
	if err != nil {
		return 0, 0, err
	}
	v2, err := probe(1e-3)
	if err != nil {
		return 0, 0, err
	}
	gain := math.Abs(v2-v1) / 2e-3
	if gain < 1 {
		return 0, 0, fmt.Errorf("meas: no gain transition found (|Δ| = %.3g)", math.Abs(v2-v1))
	}
	span := 4 * vdd / gain

	const n = 160
	// Drive the positive input around the common mode; the negative
	// input stays fixed. This sweeps vid directly.
	ol.setInput(0)
	values := make([]float64, n)
	for i := range values {
		values[i] = b.VicmDC - span/2 + span*float64(i)/float64(n-1)
	}
	results, err := ol.eng.DCSweep("tbip", values, sim.OPOptions{NodeSet: ol.ns})
	if err != nil {
		return 0, 0, err
	}
	vout := make([]float64, n)
	for i, r := range results {
		vout[i] = r.Volt(ol.ckt, b.Out)
	}

	// Incremental gain per segment; keep the output interval where it
	// stays above keepFraction of the peak.
	step := span / float64(n-1)
	slopes := make([]float64, n-1)
	var peak float64
	for i := range slopes {
		slopes[i] = math.Abs(vout[i+1]-vout[i]) / step
		if slopes[i] > peak {
			peak = slopes[i]
		}
	}
	if peak <= 0 {
		return 0, 0, fmt.Errorf("meas: flat transfer curve")
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, s := range slopes {
		if s >= keepFraction*peak {
			a, c := vout[i], vout[i+1]
			if a > c {
				a, c = c, a
			}
			if a < lo {
				lo = a
			}
			if c > hi {
				hi = c
			}
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("meas: no high-gain region found")
	}
	return lo, hi, nil
}

// InputCMRange measures the usable input common-mode range in a
// unity-gain buffer: the input interval over which the output tracks the
// input within the given error (V). The sweep covers [0, VDD]; a lower
// limit below ground (possible for a folded-cascode PMOS input) is
// reported as the sweep floor.
func InputCMRange(b Bench, maxErr float64) (lo, hi float64, err error) {
	if maxErr <= 0 {
		maxErr = 50e-3
	}
	ckt := b.Build()
	ckt.Add(
		&circuit.Resistor{Name: "tbfb", A: b.Out, B: b.InN, R: 1.0},
		&circuit.VSource{Name: "tbip", Pos: b.InP, Neg: circuit.Ground, DC: b.VicmDC},
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL},
	)
	vdd := supplyVoltage(ckt, b.SupplyName)
	const n = 100
	values := make([]float64, n)
	for i := range values {
		values[i] = vdd * float64(i) / float64(n-1)
	}
	eng := sim.NewEngine(ckt, b.Temp)
	results, err := eng.DCSweep("tbip", values, sim.OPOptions{NodeSet: b.nodeSet()})
	if err != nil {
		return 0, 0, err
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, r := range results {
		if math.Abs(r.Volt(ckt, b.Out)-values[i]) <= maxErr {
			if values[i] < lo {
				lo = values[i]
			}
			if values[i] > hi {
				hi = values[i]
			}
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("meas: buffer never tracks within %.0f mV", maxErr*1e3)
	}
	return lo, hi, nil
}

func TestDCSweepWarmStart(t *testing.T) {
	// Sweep the input of a resistor divider: exact linear response.
	c := circuit.New("dv")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0},
		&circuit.Resistor{Name: "1", A: "a", B: "m", R: 1e3},
		&circuit.Resistor{Name: "2", A: "m", B: "0", R: 1e3},
	)
	eng := sim.NewEngine(c, techno.TempNominal)
	vals := []float64{0, 0.5, 1.0, 1.5, 2.0}
	res, err := eng.DCSweep("in", vals, sim.OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if got := r.Volt(c, "m"); math.Abs(got-vals[i]/2) > 1e-9 {
			t.Fatalf("point %d: V(m) = %g, want %g", i, got, vals[i]/2)
		}
	}
	// The source value must be restored.
	if c.VSources()[0].DC != 0 {
		t.Fatal("sweep did not restore the source")
	}
	if _, err := eng.DCSweep("ghost", vals, sim.OPOptions{}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestOutputRangeCoversSpec(t *testing.T) {
	d, _ := measured(t)
	b := benchFor(d)
	lo, hi, err := OutputRange(b, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	spec := d.Spec
	// The plan derived its cascode overdrives from [OutLow, OutHigh];
	// the measured high-gain output range must cover that window.
	if lo > spec.OutLow+0.1 {
		t.Fatalf("measured low edge %.2f V above spec %.2f V", lo, spec.OutLow)
	}
	if hi < spec.OutHigh-0.1 {
		t.Fatalf("measured high edge %.2f V below spec %.2f V", hi, spec.OutHigh)
	}
	if hi-lo > d.Spec.VDD {
		t.Fatalf("range [%.2f, %.2f] exceeds the rails", lo, hi)
	}
}

func TestInputCMRange(t *testing.T) {
	d, _ := measured(t)
	b := benchFor(d)
	lo, hi, err := InputCMRange(b, 50e-3)
	if err != nil {
		t.Fatal(err)
	}
	// PMOS-input folded cascode: tracks from the bottom of the sweep
	// (true limit is below ground) up to ≈ min(ICMHigh, OutHigh).
	if lo > 0.7 {
		t.Fatalf("CM low edge %.2f V too high", lo)
	}
	if hi < 1.7 {
		t.Fatalf("CM high edge %.2f V below the ICM spec region", hi)
	}
}

// benchFor rebuilds the standard bench (helper for the range tests).
func benchFor(d interface {
	AssumedNetlist(string) *circuit.Circuit
	NodeSet() map[string]float64
}) Bench {
	tech := techno.Default060()
	return Bench{
		Build:      func() *circuit.Circuit { return d.AssumedNetlist("rng") },
		InP:        "inp",
		InN:        "inn",
		Out:        "out",
		SupplyName: "dd",
		CL:         3e-12,
		VicmDC:     0.645,
		VoutMid:    1.41,
		Temp:       tech.Temp,
		NodeSet:    d.NodeSet(),
	}
}
