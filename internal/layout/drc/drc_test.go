package drc

import (
	"testing"

	"loas/internal/layout/cairo"
	"loas/internal/layout/geom"
	"loas/internal/layout/motif"
	"loas/internal/layout/stack"
	"loas/internal/sizing"
	"loas/internal/techno"
)

const um = techno.Micron

func TestGeneratedMotifIsClean(t *testing.T) {
	tech := techno.Default060()
	for _, nf := range []int{1, 2, 4, 7} {
		m, err := motif.Build(tech, motif.Spec{
			Name: "m", Type: techno.NMOS,
			W: 40 * um, L: 1 * um, Folds: nf,
			DrainNet: "d", GateNet: "g", SourceNet: "s", BulkNet: "s",
			IDrain: 200e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := Check(tech, m.Cell); len(v) > 0 {
			t.Fatalf("motif nf=%d has %d DRC violations, first: %s", nf, len(v), v[0])
		}
	}
}

func TestGeneratedStackIsClean(t *testing.T) {
	tech := techno.Default060()
	pat, err := stack.Generate(stack.PatternSpec{
		Devices: []stack.Device{
			{Name: "A", Units: 2, DrainNet: "da", GateNet: "ga"},
			{Name: "B", Units: 4, DrainNet: "db", GateNet: "ga"},
		},
		SourceNet: "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stack.Build(tech, pat, stack.BuildSpec{
		Name: "st", Type: techno.PMOS, UnitW: 12 * um, L: 1 * um, BulkNet: "vdd",
		Currents: map[string]float64{"da": 100e-6, "db": 200e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(tech, st.Cell); len(v) > 0 {
		t.Fatalf("stack has %d DRC violations, first: %s", len(v), v[0])
	}
}

func TestDetectsNarrowWire(t *testing.T) {
	tech := techno.Default060()
	c := geom.NewCell("bad")
	c.Add(techno.LayerMetal1, geom.XYWH(0, 0, 10000, 400), "x") // 0.4 µm < 0.8
	v := Check(tech, c)
	if len(v) == 0 || v[0].Rule != "min-width" {
		t.Fatalf("narrow wire not flagged: %v", v)
	}
}

func TestDetectsSpacingViolation(t *testing.T) {
	tech := techno.Default060()
	c := geom.NewCell("bad")
	c.Add(techno.LayerMetal1, geom.XYWH(0, 0, 1000, 1000), "a")
	c.Add(techno.LayerMetal1, geom.XYWH(1400, 0, 1000, 1000), "b") // 0.4 µm < 0.8
	v := Check(tech, c)
	found := false
	for _, x := range v {
		if x.Rule == "min-space" {
			found = true
		}
	}
	if !found {
		t.Fatalf("spacing violation not flagged: %v", v)
	}
}

func TestSameNetSpacingAllowed(t *testing.T) {
	tech := techno.Default060()
	c := geom.NewCell("ok")
	c.Add(techno.LayerMetal1, geom.XYWH(0, 0, 1000, 1000), "a")
	c.Add(techno.LayerMetal1, geom.XYWH(1100, 0, 1000, 1000), "a")
	for _, x := range Check(tech, c) {
		if x.Rule == "min-space" {
			t.Fatalf("same-net spacing flagged: %s", x)
		}
	}
}

func TestDetectsFloatingContact(t *testing.T) {
	tech := techno.Default060()
	c := geom.NewCell("bad")
	c.Add(techno.LayerContact, geom.XYWH(0, 0, 600, 600), "x")
	v := Check(tech, c)
	var bottom, top bool
	for _, x := range v {
		if x.Rule == "contact-bottom" {
			bottom = true
		}
		if x.Rule == "contact-top" {
			top = true
		}
	}
	if !bottom || !top {
		t.Fatalf("floating contact not fully flagged: %v", v)
	}
}

func TestDetectsOffGrid(t *testing.T) {
	tech := techno.Default060()
	c := geom.NewCell("bad")
	c.Add(techno.LayerMetal1, geom.XYWH(25, 0, 1000, 1000), "x")
	v := Check(tech, c)
	if len(v) == 0 || v[0].Rule != "grid" {
		t.Fatalf("off-grid not flagged: %v", v)
	}
}

func TestCurrentDensity(t *testing.T) {
	tech := techno.Default060()
	c := geom.NewCell("w")
	c.Add(techno.LayerMetal1, geom.XYWH(0, 0, 100000, 800), "hot") // 0.8 µm
	// 0.8 µm at 1 mA/µm carries 0.8 mA.
	if v := CheckCurrentDensity(tech, c, "hot", 0.5e-3); len(v) != 0 {
		t.Fatalf("0.5 mA on 0.8 µm wrongly flagged: %v", v)
	}
	if v := CheckCurrentDensity(tech, c, "hot", 2e-3); len(v) == 0 {
		t.Fatal("2 mA on 0.8 µm not flagged")
	}
	if v := CheckCurrentDensity(tech, c, "cold", 2e-3); len(v) != 0 {
		t.Fatal("other nets must not be flagged")
	}
	if v := CheckCurrentDensity(tech, c, "hot", 0); len(v) != 0 {
		t.Fatal("zero current must not be flagged")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "min-width", Layer: techno.LayerPoly, Note: "too thin"}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}

func TestFullOTALayoutIsClean(t *testing.T) {
	tech := techno.Default060()
	ps, err := sizing.Case(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.Layout().Plan(tech, cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	v := Check(tech, plan.Cell)
	// Module-internal geometry must be clean; top-level routing may abut
	// module ports (same net, never flagged). Report everything found.
	if len(v) > 0 {
		for i, x := range v {
			if i > 8 {
				break
			}
			t.Logf("violation: %s", x)
		}
		t.Fatalf("%d DRC violations in the generated OTA", len(v))
	}
}

func TestTwoStageLayoutIsClean(t *testing.T) {
	tech := techno.Default060()
	ps, _ := sizing.Case(1)
	spec := sizing.OTASpec{VDD: 3.3, GBW: 20e6, PM: 65, CL: 5e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.4, OutHigh: 2.9}
	d, err := sizing.SizeTwoStage(tech, spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.Layout().Plan(tech, cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(tech, plan.Cell); len(v) > 0 {
		for i, x := range v {
			if i > 8 {
				break
			}
			t.Logf("violation: %s", x)
		}
		t.Fatalf("%d DRC violations in the generated two-stage OTA", len(v))
	}
}
