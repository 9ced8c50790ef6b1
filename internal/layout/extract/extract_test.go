package extract

import (
	"strings"
	"testing"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout/route"
	"loas/internal/techno"
)

func sampleCircuit(tech *techno.Tech) *circuit.Circuit {
	c := circuit.New("t")
	c.Add(
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		&circuit.MOSFET{Name: "M1", D: "out", G: "in", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: 20e-6, L: 1e-6}},
	)
	return c
}

func sampleParasitics() *Parasitics {
	p := New()
	p.DeviceGeom["M1"] = device.DiffGeom{AD: 1e-11, PD: 1e-5, AS: 2e-11, PS: 2e-5}
	p.Folds["M1"] = device.FoldPlan{Folds: 4, FingerW: 5.05e-6}
	p.NetCap["out"] = 10e-15
	p.NetCap["in"] = 5e-15
	p.NetCap["vdd"] = 80e-15
	p.Coupling[route.OrderedPair("out", "in")] = 1e-15
	p.Coupling[route.OrderedPair("out", "vdd")] = 2e-15
	p.WellCap["out"] = 3e-15
	return p
}

func TestApplyExactGeometry(t *testing.T) {
	tech := techno.Default060()
	c := sampleCircuit(tech)
	sampleParasitics().Apply(c)
	m := c.FindMOS("M1")
	if m.Dev.Geom.AD != 1e-11 {
		t.Fatalf("exact AD = %g", m.Dev.Geom.AD)
	}
	if m.Dev.W != 4*5.05e-6 {
		t.Fatalf("realized width not applied: %g", m.Dev.W)
	}
}

func TestApplyRoutingCaps(t *testing.T) {
	tech := techno.Default060()
	par := sampleParasitics()
	c := sampleCircuit(tech)
	par.Apply(c, "vdd")

	// out gets wiring + well lumped; vdd skipped (AC ground).
	if got := c.NodeCap("out"); got < 13e-15-1e-20 {
		t.Fatalf("out lumped cap = %g, want ≥ 13 fF (wiring+well, + coupling)", got)
	}
	found := false
	for _, e := range c.Elements {
		if cap, ok := e.(*circuit.Capacitor); ok && strings.HasPrefix(cap.Name, "par_vdd") {
			found = true
		}
	}
	if found {
		t.Fatal("vdd should be skipped as AC ground")
	}
	// Coupling out↔vdd becomes out↔gnd.
	var cpl *circuit.Capacitor
	for _, e := range c.Elements {
		if cap, ok := e.(*circuit.Capacitor); ok && strings.HasPrefix(cap.Name, "cc_out_vdd") {
			cpl = cap
		}
	}
	if cpl == nil || cpl.B != circuit.Ground && cpl.A != circuit.Ground {
		t.Fatalf("out↔vdd coupling not grounded: %+v", cpl)
	}
}

func TestApplySkipsLayoutOnlyNets(t *testing.T) {
	tech := techno.Default060()
	par := sampleParasitics()
	par.NetCap["dummies"] = 1e-15
	c := sampleCircuit(tech)
	before := len(c.Elements)
	par.Apply(c, "vdd")
	for _, e := range c.Elements[before:] {
		if strings.Contains(e.ElemName(), "dummies") {
			t.Fatal("layout-only net leaked into the netlist")
		}
	}
}

func TestMaxDelta(t *testing.T) {
	a := sampleParasitics()
	b := sampleParasitics()
	if d := MaxDelta(a, b); d != 0 {
		t.Fatalf("identical reports differ by %g", d)
	}
	b.NetCap["out"] += 2e-15
	if d := MaxDelta(a, b); d < 1.9e-15 || d > 2.1e-15 {
		t.Fatalf("net delta = %g, want 2 fF", d)
	}
	b = sampleParasitics()
	b.DeviceGeom["M1"] = device.DiffGeom{AD: 2e-11, PD: 1e-5, AS: 2e-11, PS: 2e-5}
	if d := MaxDelta(a, b); d <= 0 {
		t.Fatal("junction delta invisible")
	}
	// Symmetric.
	if MaxDelta(a, b) != MaxDelta(b, a) {
		t.Fatal("MaxDelta not symmetric")
	}
}

func TestTotalAndCouplingQueries(t *testing.T) {
	p := sampleParasitics()
	if got := p.TotalNetCap("out"); got != 13e-15 {
		t.Fatalf("TotalNetCap = %g", got)
	}
	if got := p.CouplingTo("out"); got < 3e-15-1e-24 || got > 3e-15+1e-24 {
		t.Fatalf("CouplingTo = %g", got)
	}
}

func TestSummaryRenders(t *testing.T) {
	p := sampleParasitics()
	p.WidthUM, p.HeightUM, p.AreaUM2, p.LayoutCalls = 100, 50, 5000, 3
	s := p.Summary()
	for _, want := range []string{"100.0 x 50.0", "(3 layout call", "out", "coupling in <-> out"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestJunctionModelString(t *testing.T) {
	if JunctionNone.String() != "none" || JunctionOneFold.String() != "one-fold" ||
		JunctionExact.String() != "exact" {
		t.Fatal("junction model names wrong")
	}
}
