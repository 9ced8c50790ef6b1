package cairo

import (
	"fmt"
	"math"

	"loas/internal/layout/geom"
	"loas/internal/techno"
)

// CapModule generates a poly–poly2 plate capacitor. The bottom plate
// carries a substantial parasitic to substrate (reported on BottomNet),
// which is why SC circuits orient the bottom plate towards the driven
// side — the kind of layout knowledge the paper's language encodes.
type CapModule struct {
	Inst string
	// C is the target capacitance (F).
	C                 float64
	TopNet, BottomNet string
	// Aspects lists width/height ratios offered as shape alternatives
	// (default 1, 2, 4 — wider than tall).
	Aspects []float64
}

// Name implements Module.
func (c *CapModule) Name() string { return c.Inst }

// Choices implements Module.
func (c *CapModule) Choices() []int {
	n := len(c.Aspects)
	if n == 0 {
		n = 3
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (c *CapModule) aspect(choice int) float64 {
	aspects := c.Aspects
	if len(aspects) == 0 {
		aspects = []float64{1, 2, 4}
	}
	if choice < 0 || choice >= len(aspects) {
		return 1
	}
	return aspects[choice]
}

// Build implements Module.
func (c *CapModule) Build(tech *techno.Tech, choice int) (*Built, error) {
	if c.C <= 0 {
		return nil, fmt.Errorf("cairo: cap %s: non-positive value %g", c.Inst, c.C)
	}
	if tech.Wire.CPolyPoly <= 0 {
		return nil, fmt.Errorf("cairo: technology %s has no poly2 capacitor", tech.Name)
	}
	r := &tech.Rules
	area := c.C / tech.Wire.CPolyPoly // m²
	asp := c.aspect(choice)
	wNM := r.SnapNM(techno.MetersToNM(math.Sqrt(area * asp)))
	hNM := r.SnapNM(techno.MetersToNM(area / techno.NMToMeters(wNM)))
	if wNM < 4*r.ContactSize {
		wNM = r.SnapNM(4 * r.ContactSize)
	}
	if hNM < 4*r.ContactSize {
		hNM = r.SnapNM(4 * r.ContactSize)
	}

	cell := geom.NewCell(c.Inst)
	enc := r.ContactPolyEnc + r.ContactSize // bottom plate margin around poly2
	top := geom.XYWH(0, 0, wNM, hNM)
	bottom := top.Expand(enc)
	cell.Add(techno.LayerPoly, bottom, c.BottomNet)
	cell.Add(techno.LayerPoly2, top, c.TopNet)

	// Terminal pads: top plate contact column on the left inside poly2,
	// bottom plate contacts on the right margin.
	pad := func(x, y int64, net string) geom.Rect {
		x, y = r.SnapDownNM(x), r.SnapDownNM(y)
		p := geom.XYWH(x, y, r.ContactSize+2*r.ContactMetalEnc, r.ContactSize+2*r.ContactMetalEnc)
		cell.Add(techno.LayerContact,
			geom.XYWH(x+r.ContactMetalEnc, y+r.ContactMetalEnc, r.ContactSize, r.ContactSize), net)
		cell.Add(techno.LayerMetal1, p, net)
		return p
	}
	topPad := pad(r.ContactPolyEnc, hNM/2-r.ContactSize, c.TopNet)
	botPad := pad(bottom.R-enc, hNM/2-r.ContactSize, c.BottomNet)
	cell.AddPort("T", c.TopNet, techno.LayerMetal1, topPad)
	cell.AddPort("B", c.BottomNet, techno.LayerMetal1, botPad)

	b := &Built{
		Cell:    cell,
		Geoms:   nil,
		Folds:   nil,
		RailCap: map[string]float64{},
	}
	// Bottom-plate parasitic to substrate: poly over field.
	b.RailCap[c.BottomNet] = geom.WireCapM(bottom, tech.Wire.CPolyArea, tech.Wire.CPolyFringe)
	return b, nil
}

// ResistorModule generates a straight poly resistor bar.
type ResistorModule struct {
	Inst string
	// R is the target resistance (Ω).
	R          float64
	ANet, BNet string
	// WidthNM is the bar width (defaults to 2× min poly width for
	// matching robustness).
	WidthNM int64
}

// Name implements Module.
func (m *ResistorModule) Name() string { return m.Inst }

// Choices implements Module.
func (m *ResistorModule) Choices() []int { return []int{0} }

// Build implements Module.
func (m *ResistorModule) Build(tech *techno.Tech, choice int) (*Built, error) {
	if m.R <= 0 {
		return nil, fmt.Errorf("cairo: resistor %s: non-positive value %g", m.Inst, m.R)
	}
	r := &tech.Rules
	w := m.WidthNM
	if w <= 0 {
		w = 2 * r.PolyWidth
	}
	w = r.SnapNM(w)
	squares := m.R / tech.Wire.RSheetPoly
	length := r.SnapNM(int64(squares * float64(w)))
	minL := 2 * (r.ContactSize + 2*r.ContactPolyEnc)
	if length < minL {
		length = minL
	}

	cell := geom.NewCell(m.Inst)
	bar := geom.XYWH(0, 0, length, w)
	cell.Add(techno.LayerPoly, bar, m.ANet)

	pad := func(x int64, net string) geom.Rect {
		x = r.SnapDownNM(x)
		p := geom.XYWH(x, 0, r.ContactSize+2*r.ContactPolyEnc, w)
		cell.Add(techno.LayerContact,
			geom.XYWH(x+r.ContactPolyEnc, r.SnapDownNM((w-r.ContactSize)/2), r.ContactSize, r.ContactSize), net)
		cell.Add(techno.LayerMetal1, p, net)
		return p
	}
	pa := pad(0, m.ANet)
	pb := pad(length-r.ContactSize-2*r.ContactPolyEnc, m.BNet)
	cell.AddPort("A", m.ANet, techno.LayerMetal1, pa)
	cell.AddPort("B", m.BNet, techno.LayerMetal1, pb)

	b := &Built{Cell: cell, RailCap: map[string]float64{}}
	half := geom.WireCapM(bar, tech.Wire.CPolyArea, tech.Wire.CPolyFringe) / 2
	b.RailCap[m.ANet] += half
	b.RailCap[m.BNet] += half
	return b, nil
}
