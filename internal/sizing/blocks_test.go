package sizing

import (
	"math"
	"testing"

	"loas/internal/circuit"
	"loas/internal/layout/cairo"
	"loas/internal/sim"
	"loas/internal/techno"
)

func TestSizeMirrorRoundTrip(t *testing.T) {
	tech := techno.Default060()
	m, err := SizeMirror(tech, MirrorSpec{
		Type: techno.NMOS, IRef: 20e-6, Ratios: []int{3, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.WUnit <= 0 {
		t.Fatal("no unit width")
	}
	// Simulate: reference current in, branch currents out at 3× and 6×.
	ckt, err := m.Netlist("mir", "vdd", "ref", []string{"o1", "o2"})
	if err != nil {
		t.Fatal(err)
	}
	ckt.Add(
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		&circuit.ISource{Name: "ir", Pos: "vdd", Neg: "ref", DC: 20e-6},
		&circuit.Resistor{Name: "l1", A: "vdd", B: "o1", R: 10e3},
		&circuit.Resistor{Name: "l2", A: "vdd", B: "o2", R: 5e3},
	)
	eng := sim.NewEngine(ckt, tech.Temp)
	r, err := eng.OP(sim.OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i1 := r.MOSOP("mir_o1").ID
	i2 := r.MOSOP("mir_o2").ID
	if math.Abs(i1-60e-6)/60e-6 > 0.15 {
		t.Fatalf("3x branch = %.1f µA, want ≈ 60", i1*1e6)
	}
	if math.Abs(i2-120e-6)/120e-6 > 0.15 {
		t.Fatalf("6x branch = %.1f µA, want ≈ 120", i2*1e6)
	}
	// The 6x branch must mirror at 2x the 3x branch far more accurately
	// (ratio errors cancel).
	if math.Abs(i2/i1-2) > 0.05 {
		t.Fatalf("branch ratio = %.3f, want 2", i2/i1)
	}
}

func TestSizeMirrorValidation(t *testing.T) {
	tech := techno.Default060()
	if _, err := SizeMirror(tech, MirrorSpec{Type: techno.NMOS, IRef: 0}); err == nil {
		t.Fatal("zero reference accepted")
	}
	if _, err := SizeMirror(tech, MirrorSpec{Type: techno.NMOS, IRef: 1e-6, Ratios: []int{0}}); err == nil {
		t.Fatal("zero ratio accepted")
	}
}

func TestMirrorStackModuleBuilds(t *testing.T) {
	tech := techno.Default060()
	m, err := SizeMirror(tech, MirrorSpec{Type: techno.NMOS, IRef: 20e-6, Ratios: []int{3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := m.StackModule("mir", "ref", []string{"o1", "o2"}, "gnd", "gnd")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mod.Build(tech, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Geoms) != 3 {
		t.Fatalf("stack module built %d devices, want 3", len(b.Geoms))
	}
	if _, err := m.StackModule("mir", "ref", []string{"only-one"}, "gnd", "gnd"); err == nil {
		t.Fatal("mismatched branch nets accepted")
	}
}

func fiveTSpec() OTASpec {
	return OTASpec{VDD: 3.3, GBW: 30e6, PM: 60, CL: 2e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.5, OutHigh: 2.8}
}

func TestSizeFiveT(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	d, err := SizeFiveT(tech, fiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if d.Predicted.GBW < 0.97*30e6 {
		t.Fatalf("GBW %.1f MHz misses target", d.Predicted.GBW/1e6)
	}
	if d.Predicted.PhaseDeg < 60 {
		t.Fatalf("PM %.1f° misses target", d.Predicted.PhaseDeg)
	}
	// Single stage: modest gain.
	if d.Predicted.DCGainDB < 25 || d.Predicted.DCGainDB > 60 {
		t.Fatalf("5T gain %.1f dB implausible", d.Predicted.DCGainDB)
	}

	// DC check: all saturated.
	ckt := d.Netlist("5t")
	vcm := d.NodeEst[NetInP]
	ckt.Add(
		&circuit.VSource{Name: "ip", Pos: NetInP, Neg: "0", DC: vcm},
		&circuit.VSource{Name: "in", Pos: NetInN, Neg: "0", DC: vcm},
		&circuit.Capacitor{Name: "load", A: NetOut, B: "0", C: 2e-12},
	)
	eng := sim.NewEngine(ckt, tech.Temp)
	r, err := eng.OP(sim.OPOptions{NodeSet: d.NodeSet()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MF1, MF2, MF3, MF4, MF5} {
		if r.MOSOP(name).Region.String() != "saturation" {
			t.Fatalf("%s in %v", name, r.MOSOP(name).Region)
		}
	}
}

func TestFiveTLayout(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	d, err := SizeFiveT(tech, fiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.Layout().Plan(tech, cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{MF1, MF2, MF3, MF4, MF5} {
		if _, ok := plan.Parasitics.DeviceGeom[inst]; !ok {
			t.Fatalf("%s missing from the layout", inst)
		}
	}
	if plan.Parasitics.NetCap[NetOut] <= 0 {
		t.Fatal("out unrouted")
	}
}

func TestFiveTRejectsTightPM(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	spec := fiveTSpec()
	spec.GBW = 3e9 // beyond the 0.6 µm device fT — must be rejected
	if _, err := SizeFiveT(tech, spec, ps); err == nil {
		t.Fatal("absurd GBW accepted")
	}
}
