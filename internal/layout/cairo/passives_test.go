package cairo

import (
	"fmt"
	"math"
	"testing"

	"loas/internal/techno"
)

func TestCapModuleRealizesValue(t *testing.T) {
	tech := techno.Default060()
	for _, target := range []float64{0.5e-12, 1.25e-12, 4e-12} {
		c := &CapModule{Inst: "c", C: target, TopNet: "a", BottomNet: "b"}
		for _, choice := range c.Choices() {
			got, err := c.RealizedCap(tech, choice)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got-target) / target; rel > 0.02 {
				t.Fatalf("C=%g choice %d realized %g (%.1f%% off)",
					target, choice, got, rel*100)
			}
		}
	}
}

func TestCapModuleAspects(t *testing.T) {
	tech := techno.Default060()
	c := &CapModule{Inst: "c", C: 2e-12, TopNet: "a", BottomNet: "b"}
	b0, err := c.Build(tech, 0) // square
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Build(tech, 2) // 4:1 wide
	if err != nil {
		t.Fatal(err)
	}
	bb0, bb2 := b0.Cell.BBox(), b2.Cell.BBox()
	if bb2.W() <= bb0.W() || bb2.H() >= bb0.H() {
		t.Fatalf("aspect choice had no effect: %v vs %v", bb0, bb2)
	}
	// Ports on both nets.
	if len(b0.Cell.PortsOnNet("a")) != 1 || len(b0.Cell.PortsOnNet("b")) != 1 {
		t.Fatal("cap ports missing")
	}
	// Bottom-plate parasitic reported on the bottom net only.
	if b0.RailCap["b"] <= 0 || b0.RailCap["a"] != 0 {
		t.Fatalf("bottom-plate parasitic wrong: %v", b0.RailCap)
	}
}

func TestCapModuleValidation(t *testing.T) {
	tech := techno.Default060()
	if _, err := (&CapModule{Inst: "c", C: 0}).Build(tech, 0); err == nil {
		t.Fatal("zero cap accepted")
	}
	noPoly2 := techno.Default060()
	noPoly2.Wire.CPolyPoly = 0
	if _, err := (&CapModule{Inst: "c", C: 1e-12}).Build(noPoly2, 0); err == nil {
		t.Fatal("technology without poly2 accepted")
	}
}

func TestResistorModuleRealizesValue(t *testing.T) {
	tech := techno.Default060()
	for _, target := range []float64{100, 313, 2500} {
		m := &ResistorModule{Inst: "r", R: target, ANet: "a", BNet: "b"}
		got, err := m.RealizedRes(tech)
		if err != nil {
			t.Fatal(err)
		}
		// Snapping plus the contact-pad minimum length bound the error.
		if rel := math.Abs(got-target) / target; rel > 0.35 {
			t.Fatalf("R=%g realized %g (%.0f%% off)", target, got, rel*100)
		}
	}
	if _, err := (&ResistorModule{Inst: "r", R: 0}).Build(tech, 0); err == nil {
		t.Fatal("zero resistance accepted")
	}
}

func TestPassivesOnGrid(t *testing.T) {
	tech := techno.Default060()
	c := &CapModule{Inst: "c", C: 1.3e-12, TopNet: "a", BottomNet: "b"}
	bc, err := c.Build(tech, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Cell.CheckGrid(tech.Rules.Grid); err != nil {
		t.Fatal(err)
	}
	r := &ResistorModule{Inst: "r", R: 450, ANet: "a", BNet: "b"}
	br, err := r.Build(tech, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Cell.CheckGrid(tech.Rules.Grid); err != nil {
		t.Fatal(err)
	}
}

// RealizedCap returns the capacitance the snapped geometry actually
// implements for a given choice — the analogue of the fold-snap feedback
// for passives.
func (c *CapModule) RealizedCap(tech *techno.Tech, choice int) (float64, error) {
	b, err := c.Build(tech, choice)
	if err != nil {
		return 0, err
	}
	for _, s := range b.Cell.Shapes {
		if s.Layer == techno.LayerPoly2 {
			return s.R.AreaM2() * tech.Wire.CPolyPoly, nil
		}
	}
	return 0, fmt.Errorf("cairo: cap %s built no plate", c.Inst)
}

// RealizedRes returns the resistance the snapped bar implements.
func (m *ResistorModule) RealizedRes(tech *techno.Tech) (float64, error) {
	b, err := m.Build(tech, 0)
	if err != nil {
		return 0, err
	}
	for _, s := range b.Cell.Shapes {
		if s.Layer == techno.LayerPoly {
			return tech.Wire.RSheetPoly * float64(s.R.W()) / float64(s.R.H()), nil
		}
	}
	return 0, fmt.Errorf("cairo: resistor %s built no bar", m.Inst)
}
