// Package motif generates the geometry of a single (possibly folded) MOS
// transistor: alternating source/drain diffusion strips, vertical poly
// gate fingers joined by a poly bar, contact columns, metal-1 straps and
// horizontal drain/source rails.
//
// It is the "single motif generator which allows total control over
// terminals and wires" of the paper's layout language: the same code path
// produces the physical geometry (generation mode) and the junction/wire
// parasitics (parasitic-calculation mode), so the two can never disagree.
//
// Orientation: gate fingers run vertically; the transistor's W direction
// is vertical (finger height), its L direction horizontal. The drain rail
// runs along the top, the source rail along the bottom, the gate bar just
// above the active area with its contact on the left.
package motif

import (
	"fmt"

	"loas/internal/device"
	"loas/internal/layout/geom"
	"loas/internal/techno"
)

// Spec describes one folded transistor to generate.
type Spec struct {
	Name string
	Type techno.MOSType
	// W is the requested total gate width (m); L the gate length (m).
	W, L float64
	// Folds is the gate finger count (≥1). The drain occupies the
	// shared strips: the paper folds frequency-critical drains internal.
	Folds int
	// Net names for the four terminals.
	DrainNet, GateNet, SourceNet, BulkNet string
	// IDrain is the DC drain current magnitude (A) used for
	// reliability-driven wire widths and contact counts.
	IDrain float64
}

// Motif is the generated transistor: its geometry plus the electrical
// summary the sizing tool consumes.
type Motif struct {
	Cell *geom.Cell
	Plan device.FoldPlan
	// Geom is the junction geometry extracted from the generated strips.
	Geom device.DiffGeom
	// RailCap is the wiring capacitance (F) of the internal metal
	// straps/rails per net (keyed by net name), part of the routing
	// parasitics reported to the sizing tool.
	RailCap map[string]float64
	// ContactsPerStrip records the reliability-driven contact count.
	ContactsPerStrip int
	// Width, Height of the cell (nm).
	Width, Height int64
}

// WireWidthNM returns the metal-1 width (nm) needed to carry current i (A)
// under the electromigration limit, at least the minimum width, snapped to
// grid.
func WireWidthNM(tech *techno.Tech, i float64) int64 {
	w := tech.Rules.Metal1Width
	if i > 0 {
		need := int64(i / tech.Wire.JMax * 1e9) // JMax in A/m of width
		if need > w {
			w = need
		}
	}
	return tech.Rules.SnapNM(w)
}

// ContactsForCurrent returns how many contacts carry current i reliably,
// clamped to [1, fit].
func ContactsForCurrent(tech *techno.Tech, i float64, fit int) int {
	n := 1
	if tech.Wire.IContact > 0 && i > 0 {
		n = int(i/tech.Wire.IContact) + 1
	}
	if n > fit {
		n = fit
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EnsureMinDim grows a rectangle symmetrically until both dimensions meet
// the minimum, keeping edges on the grid.
func EnsureMinDim(rc geom.Rect, minDim, grid int64) geom.Rect {
	grow := func(lo, hi int64) (int64, int64) {
		if hi-lo >= minDim {
			return lo, hi
		}
		d := (minDim - (hi - lo) + 1) / 2
		d = (d + grid - 1) / grid * grid
		return lo - d, hi + d
	}
	rc.L, rc.R = grow(rc.L, rc.R)
	rc.B, rc.T = grow(rc.B, rc.T)
	return rc
}

// contactFit returns how many contacts fit in a column of height h.
func contactFit(r *techno.Rules, h int64) int {
	usable := h - 2*r.ContactActiveEnc
	if usable < r.ContactSize {
		return 1
	}
	return int((usable-r.ContactSize)/(r.ContactSize+r.ContactSpace)) + 1
}

// Build generates the transistor.
func Build(tech *techno.Tech, spec Spec) (*Motif, error) {
	if spec.Folds < 1 {
		spec.Folds = 1
	}
	if spec.W <= 0 || spec.L <= 0 {
		return nil, fmt.Errorf("motif %s: non-positive size W=%g L=%g", spec.Name, spec.W, spec.L)
	}
	r := &tech.Rules
	plan := device.PlanFolds(r, spec.W, spec.Folds, device.DrainInternal)

	lNM := r.SnapNM(techno.MetersToNM(spec.L))
	if lNM < r.PolyWidth {
		lNM = r.PolyWidth
	}
	fwNM := r.SnapNM(techno.MetersToNM(plan.FingerW))
	stripW := r.SnapNM(techno.MetersToNM(tech.DiffExtContacted))

	nf := plan.Folds
	cell := geom.NewCell(spec.Name)

	// Strip nets alternate from the source, so an even fold count
	// starts and ends with source.
	stripNet := make([]string, nf+1)
	for i := range stripNet {
		if i%2 == 0 {
			stripNet[i] = spec.SourceNet
		} else {
			stripNet[i] = spec.DrainNet
		}
	}

	// Horizontal extent: strip 0, gate 0, strip 1, …, gate nf-1, strip nf.
	x := int64(0)
	stripX := make([]int64, nf+1)
	gateX := make([]int64, nf)
	for i := 0; i <= nf; i++ {
		stripX[i] = x
		x += stripW
		if i < nf {
			gateX[i] = x
			x += lNM
		}
	}
	totalW := x

	// Vertical layout.
	yActiveB := int64(0)
	yActiveT := fwNM
	polyExt := r.PolyExtGate
	barB := yActiveT + polyExt
	barT := barB + r.PolyWidth

	drainI := spec.IDrain
	perStripDrain := drainI
	if plan.DrainStrips > 0 {
		perStripDrain = drainI / float64(plan.DrainStrips)
	}
	railW := WireWidthNM(tech, drainI)
	strapW := r.ContactSize + 2*r.ContactMetalEnc
	if need := WireWidthNM(tech, perStripDrain); need > strapW {
		strapW = need
	}

	drainRailB := barT + r.Metal1Space
	drainRailT := drainRailB + railW
	srcRailT := yActiveB - polyExt - r.Metal1Space
	srcRailB := srcRailT - railW

	fit := contactFit(r, fwNM)
	ncont := ContactsForCurrent(tech, perStripDrain, fit)
	nTaps := int(totalW / (2 * (r.ContactSize + r.ContactSpace)))
	if nTaps < 1 {
		nTaps = 1
	}
	// Room for every shape below: active, fingers, gate bar, gate
	// contact and metal, each strip's contacts and strap, two rails,
	// implant, tap active, tap metal, tap contacts and a PMOS well; and
	// the four ports.
	cell.Reserve(nf+(nf+1)*(ncont+1)+nTaps+10, 4)

	// Active area: one rectangle spanning all strips and channels.
	cell.Add(techno.LayerActive, geom.Rect{L: 0, B: yActiveB, R: totalW, T: yActiveT}, "")

	// Gate fingers + bar.
	for i := 0; i < nf; i++ {
		cell.Add(techno.LayerPoly,
			geom.Rect{L: gateX[i], B: yActiveB - polyExt, R: gateX[i] + lNM, T: barT},
			spec.GateNet)
	}
	gateBarL := -(stripW + r.Metal1Space)
	cell.Add(techno.LayerPoly, geom.Rect{L: gateBarL, B: barB, R: totalW, T: barT}, spec.GateNet)
	// Gate contact pad (poly→metal1) on the left extension.
	gPad := geom.Rect{L: gateBarL, B: barB, R: gateBarL + r.ContactSize + 2*r.ContactPolyEnc, T: barT}
	cell.Add(techno.LayerContact,
		geom.XYWH(gPad.L+r.ContactPolyEnc, barB+(barT-barB-r.ContactSize)/2, r.ContactSize, r.ContactSize),
		spec.GateNet)
	gMet := EnsureMinDim(gPad, r.Metal1Width, r.Grid)
	cell.Add(techno.LayerMetal1, gMet, spec.GateNet)
	cell.AddPort("G", spec.GateNet, techno.LayerMetal1, gMet)

	// Diffusion strips: contacts, straps, rail hookup.
	railCap := map[string]float64{}
	addWireCap := func(net string, rect geom.Rect) {
		railCap[net] += geom.WireCapM(rect, tech.Wire.CAreaM1, tech.Wire.CFringeM1)
	}
	for i := 0; i <= nf; i++ {
		net := stripNet[i]
		cx := r.SnapDownNM(stripX[i] + stripW/2)
		// Contact column, centred.
		pitch := r.ContactSize + r.ContactSpace
		colH := int64(ncont)*pitch - r.ContactSpace
		y0 := r.SnapDownNM(yActiveB + (fwNM-colH)/2)
		if y0 < yActiveB+r.ContactActiveEnc {
			y0 = yActiveB + r.ContactActiveEnc
		}
		for k := 0; k < ncont; k++ {
			cell.Add(techno.LayerContact,
				geom.XYWH(cx-r.ContactSize/2, y0+int64(k)*pitch, r.ContactSize, r.ContactSize), net)
		}
		// Vertical metal strap to the proper rail.
		var strap geom.Rect
		if net == spec.DrainNet {
			strap = geom.Rect{L: cx - strapW/2, B: yActiveB, R: cx + strapW/2, T: drainRailT}
		} else {
			strap = geom.Rect{L: cx - strapW/2, B: srcRailB, R: cx + strapW/2, T: yActiveT}
		}
		cell.Add(techno.LayerMetal1, strap, net)
		addWireCap(net, strap)
	}

	// Rails.
	dRail := geom.Rect{L: 0, B: drainRailB, R: totalW, T: drainRailT}
	sRail := geom.Rect{L: 0, B: srcRailB, R: totalW, T: srcRailT}
	cell.Add(techno.LayerMetal1, dRail, spec.DrainNet)
	cell.Add(techno.LayerMetal1, sRail, spec.SourceNet)
	addWireCap(spec.DrainNet, dRail)
	addWireCap(spec.SourceNet, sRail)
	cell.AddPort("D", spec.DrainNet, techno.LayerMetal1, dRail)
	cell.AddPort("S", spec.SourceNet, techno.LayerMetal1, sRail)

	// Bulk: implant over active; PMOS additionally gets an enclosing
	// n-well and an n-tap strip below the source rail, NMOS a p-tap.
	imp := techno.LayerNImplant
	if spec.Type == techno.PMOS {
		imp = techno.LayerPImplant
	}
	cell.Add(imp, geom.Rect{L: -r.ContactActiveEnc, B: yActiveB - r.ContactActiveEnc,
		R: totalW + r.ContactActiveEnc, T: yActiveT + r.ContactActiveEnc}, "")

	tapH := r.ContactSize + 2*r.ContactActiveEnc
	tapB := srcRailB - r.ActiveSpace - tapH
	tapRect := geom.Rect{L: 0, B: tapB, R: totalW, T: tapB + tapH}
	cell.Add(techno.LayerActive, tapRect, spec.BulkNet)
	tapMet := tapRect
	cell.Add(techno.LayerMetal1, tapMet, spec.BulkNet)
	cell.AddPort("B", spec.BulkNet, techno.LayerMetal1, tapMet)
	for k := 0; k < nTaps; k++ {
		cx := r.SnapDownNM(totalW * int64(2*k+1) / int64(2*nTaps))
		cell.Add(techno.LayerContact,
			geom.XYWH(cx-r.ContactSize/2, tapB+r.ContactActiveEnc, r.ContactSize, r.ContactSize),
			spec.BulkNet)
	}

	if spec.Type == techno.PMOS {
		enc := r.NWellEncActive
		bb := cell.BBox()
		cell.Add(techno.LayerNWell, bb.Expand(enc), spec.BulkNet)
	}

	bb := cell.BBox()
	m := &Motif{
		Cell:             cell,
		Plan:             plan,
		Geom:             plan.Geom(tech),
		RailCap:          railCap,
		ContactsPerStrip: ncont,
		Width:            bb.W(),
		Height:           bb.H(),
	}
	return m, nil
}
