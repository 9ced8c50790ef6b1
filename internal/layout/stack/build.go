package stack

import (
	"fmt"
	"sort"

	"loas/internal/device"
	"loas/internal/layout/geom"
	"loas/internal/layout/motif"
	"loas/internal/techno"
)

// BuildSpec describes the physical realization of a pattern.
type BuildSpec struct {
	Name string
	Type techno.MOSType
	// UnitW is the drawn width of one unit transistor (m); L the gate
	// length (m).
	UnitW, L float64
	BulkNet  string
	// Currents maps drain nets to DC current magnitude (A) for
	// reliability-driven wire sizing; the common source rail is sized for
	// the sum.
	Currents map[string]float64
}

// Stack is the generated geometry plus the electrical summary.
type Stack struct {
	Cell    *geom.Cell
	Pattern *Pattern
	// Geoms maps device name → junction geometry from the actual strips.
	Geoms map[string]device.DiffGeom
	// RailCap maps net → internal wiring capacitance (F).
	RailCap map[string]float64
	// UnitW is the realized (grid-snapped) unit gate width (m).
	UnitW  float64
	Width  int64
	Height int64
}

// Build renders the pattern into geometry and computes the per-device
// junction parasitics from the strips actually drawn.
func Build(tech *techno.Tech, p *Pattern, spec BuildSpec) (*Stack, error) {
	r := &tech.Rules
	if spec.UnitW <= 0 || spec.L <= 0 {
		return nil, fmt.Errorf("stack %s: non-positive unit size", spec.Name)
	}
	// Validate drain nets unique per device.
	seen := map[string]string{}
	for _, d := range p.Spec.Devices {
		if owner, dup := seen[d.DrainNet]; dup {
			return nil, fmt.Errorf("stack %s: drain net %q shared by %s and %s",
				spec.Name, d.DrainNet, owner, d.Name)
		}
		seen[d.DrainNet] = d.Name
	}
	// Group gate nets: at most two distinct nets (top and bottom bars).
	var gateNets []string
	for _, d := range p.Spec.Devices {
		found := false
		for _, g := range gateNets {
			if g == d.GateNet {
				found = true
			}
		}
		if !found {
			gateNets = append(gateNets, d.GateNet)
		}
	}
	if len(gateNets) > 2 {
		return nil, fmt.Errorf("stack %s: %d distinct gate nets; a single row supports 2",
			spec.Name, len(gateNets))
	}

	lNM := r.SnapNM(techno.MetersToNM(spec.L))
	if lNM < r.PolyWidth {
		lNM = r.PolyWidth
	}
	wuNM := r.SnapNM(techno.MetersToNM(spec.UnitW))
	if wuNM < r.ActiveWidth {
		wuNM = r.ActiveWidth
	}
	stripW := r.SnapNM(techno.MetersToNM(tech.DiffExtContacted))

	cell := geom.NewCell(spec.Name)
	n := len(p.Units)

	// x positions.
	stripX := make([]int64, n+1)
	gateX := make([]int64, n)
	x := int64(0)
	for i := 0; i <= n; i++ {
		stripX[i] = x
		x += stripW
		if i < n {
			gateX[i] = x
			x += lNM
		}
	}
	totalW := x

	// Vertical stackup (bottom-up): tap row, source rail, bottom gate
	// bar, active row, top gate bar, drain rails (metal2). Fingers that
	// do not connect to a bar stop PolySpace short of it.
	yActiveB := int64(0)
	yActiveT := wuNM
	polyExt := r.PolyExtGate
	topBarB := yActiveT + polyExt + r.PolySpace
	topBarT := topBarB + r.PolyWidth
	botBarT := yActiveB - polyExt - r.PolySpace
	botBarB := botBarT - r.PolyWidth

	var totalI float64
	for _, i := range spec.Currents {
		totalI += i
	}
	srcRailW := motif.WireWidthNM(tech, totalI)
	// The source rail hosts the dummy-gate tie contacts, so it must
	// enclose a contact.
	if minRail := r.SnapNM(r.ContactSize + 2*r.ContactMetalEnc); srcRailW < minRail {
		srcRailW = minRail
	}
	srcRailT := botBarB - r.Metal1Space
	srcRailB := srcRailT - srcRailW

	// Distinct drain nets in first-appearance order for rail stacking.
	var drainNets []string
	for _, d := range p.Spec.Devices {
		drainNets = append(drainNets, d.DrainNet)
	}
	sort.Strings(drainNets)
	railY := map[string][2]int64{}
	y := topBarT + r.Metal2Space
	for _, net := range drainNets {
		w := r.Metal2Width
		if need := motif.WireWidthNM(tech, spec.Currents[net]); need > w {
			w = need
		}
		railY[net] = [2]int64{y, y + w}
		y += w + r.Metal2Space
	}

	railCap := map[string]float64{}
	addM1 := func(net string, rect geom.Rect) {
		railCap[net] += geom.WireCapM(rect, tech.Wire.CAreaM1, tech.Wire.CFringeM1)
	}
	addM2 := func(net string, rect geom.Rect) {
		railCap[net] += geom.WireCapM(rect, tech.Wire.CAreaM2, tech.Wire.CFringeM2)
	}
	addPoly := func(net string, rect geom.Rect) {
		railCap[net] += geom.WireCapM(rect, tech.Wire.CPolyArea, tech.Wire.CPolyFringe)
	}

	sourceNet := p.Spec.SourceNet
	// stripCurrent is the current one strip of net carries: the net's
	// current, the source rail's being the total, shared among its strips.
	stripCurrent := func(net string) float64 {
		cur := spec.Currents[net]
		if net == sourceNet {
			cur = totalI
		}
		if k := stripCountForNet(p, net); k > 0 {
			cur /= float64(k)
		}
		return cur
	}
	fit := contactFitStack(r, wuNM)
	nTaps := int(totalW / (2 * (r.ContactSize + r.ContactSpace)))
	if nTaps < 1 {
		nTaps = 1
	}
	// Room for every shape below: the active row, the top gate bar with
	// its contact and pad, the source rail, implant, tap row and tap
	// metal, a PMOS well, a finger per unit and a tie contact per dummy,
	// each strip's contacts, strap and (drain strips) via, the drain
	// rails, the tap contacts and a second gate net's bar, stub and pad;
	// and the ports.
	shapes := 9 + len(p.Units) + len(drainNets) + nTaps
	for _, u := range p.Units {
		if u.IsDummy() {
			shapes++
		}
	}
	for _, net := range p.Strips {
		shapes += motif.ContactsForCurrent(tech, stripCurrent(net), fit) + 2
		if net == sourceNet {
			shapes--
		}
	}
	if len(gateNets) == 2 {
		shapes += 5
	}
	cell.Reserve(shapes, len(drainNets)+4)

	// Active row.
	cell.Add(techno.LayerActive, geom.Rect{L: 0, B: yActiveB, R: totalW, T: yActiveT}, "")

	// Gate fingers. Dummies tie into the source rail (they sit next to a
	// source strip, so VGS = 0 keeps them off); fingers of the first
	// gate net rise to the top bar, of the second net drop to the bottom
	// bar, and everything else stops PolySpace clear of both bars.
	var botSpanL, botSpanR int64 = 1 << 62, -(1 << 62)
	for i, u := range p.Units {
		if u.IsDummy() {
			continue
		}
		if p.Spec.Devices[u.Dev].GateNet != gateNets[0] {
			if gateX[i] < botSpanL {
				botSpanL = gateX[i]
			}
			if gateX[i]+lNM > botSpanR {
				botSpanR = gateX[i] + lNM
			}
		}
	}
	for i, u := range p.Units {
		g := geom.Rect{L: gateX[i], B: yActiveB - polyExt, R: gateX[i] + lNM, T: yActiveT + polyExt}
		switch {
		case u.IsDummy():
			// Dummies extend down into the source rail and contact it.
			// They must not cross the (trimmed) bottom gate bar.
			if len(gateNets) == 2 && g.L < botSpanR && g.R > botSpanL {
				// An interior dummy inside the bottom-bar span would
				// short the bar; the pattern generator avoids this for
				// the supported pair/mirror stacks.
				panic(fmt.Sprintf("stack %s: dummy at position %d crosses the bottom gate bar", spec.Name, i))
			}
			g.B = srcRailB
			cell.Add(techno.LayerPoly, g, sourceNet)
			cell.Add(techno.LayerContact,
				geom.XYWH(r.SnapDownNM(g.L+(lNM-r.ContactSize)/2),
					r.SnapDownNM((srcRailB+srcRailT-r.ContactSize)/2),
					r.ContactSize, r.ContactSize), sourceNet)
		default:
			dev := p.Spec.Devices[u.Dev]
			if dev.GateNet == gateNets[0] {
				g.T = topBarT
			} else {
				g.B = botBarB
			}
			cell.Add(techno.LayerPoly, g, dev.GateNet)
		}
	}

	// Gate bars.
	topBar := geom.Rect{L: -(stripW + r.Metal1Space), B: topBarB, R: totalW, T: topBarT}
	cell.Add(techno.LayerPoly, topBar, gateNets[0])
	addPoly(gateNets[0], topBar)
	gPad := geom.Rect{L: topBar.L, B: topBarB, R: topBar.L + r.ContactSize + 2*r.ContactPolyEnc, T: topBarT}
	cell.Add(techno.LayerContact,
		geom.XYWH(gPad.L+r.ContactPolyEnc, topBarB+(topBarT-topBarB-r.ContactSize)/2,
			r.ContactSize, r.ContactSize), gateNets[0])
	gPadM := motif.EnsureMinDim(gPad, r.Metal1Width, r.Grid)
	cell.Add(techno.LayerMetal1, gPadM, gateNets[0])
	cell.AddPort("G0", gateNets[0], techno.LayerMetal1, gPadM)

	tapH := r.ContactSize + 2*r.ContactActiveEnc
	tapB := srcRailB - r.ActiveSpace - tapH
	var stub geom.Rect // poly stub carrying the bottom bar to its pad
	if len(gateNets) == 2 {
		// The bar spans only its own fingers so dummies can pass on
		// either side; its contact rides a poly stub from the leftmost
		// finger down past the tap row.
		botBar := geom.Rect{L: botSpanL, B: botBarB, R: botSpanR, T: botBarT}
		cell.Add(techno.LayerPoly, botBar, gateNets[1])
		addPoly(gateNets[1], botBar)
		padSize := r.ContactSize + 2*r.ContactPolyEnc
		padB := tapB - r.Metal1Space - padSize
		stub = geom.Rect{L: botSpanL, B: padB, R: botSpanL + lNM, T: botBarB}
		cell.Add(techno.LayerPoly, stub, gateNets[1])
		gPad2 := geom.Rect{L: r.SnapDownNM(stub.L + (lNM-padSize)/2), B: padB,
			R: r.SnapDownNM(stub.L+(lNM-padSize)/2) + padSize, T: padB + padSize}
		cell.Add(techno.LayerPoly, gPad2, gateNets[1])
		cell.Add(techno.LayerContact,
			geom.XYWH(gPad2.L+r.ContactPolyEnc, gPad2.B+r.ContactPolyEnc,
				r.ContactSize, r.ContactSize), gateNets[1])
		gPad2M := motif.EnsureMinDim(gPad2, r.Metal1Width, r.Grid)
		cell.Add(techno.LayerMetal1, gPad2M, gateNets[1])
		cell.AddPort("G1", gateNets[1], techno.LayerMetal1, gPad2M)
	}

	// Strips: contacts + straps to rails.
	for i := 0; i <= n; i++ {
		net := p.Strips[i]
		cx := r.SnapDownNM(stripX[i] + stripW/2)
		perStrip := stripCurrent(net)
		ncont := motif.ContactsForCurrent(tech, perStrip, fit)
		pitch := r.ContactSize + r.ContactSpace
		colH := int64(ncont)*pitch - r.ContactSpace
		y0 := r.SnapDownNM(yActiveB + (wuNM-colH)/2)
		if y0 < yActiveB+r.ContactActiveEnc {
			y0 = yActiveB + r.ContactActiveEnc
		}
		for k := 0; k < ncont; k++ {
			cell.Add(techno.LayerContact,
				geom.XYWH(cx-r.ContactSize/2, y0+int64(k)*pitch, r.ContactSize, r.ContactSize), net)
		}
		strapW := r.ContactSize + 2*r.ContactMetalEnc
		if need := motif.WireWidthNM(tech, perStrip); need > strapW {
			strapW = need
		}
		if net == sourceNet {
			strap := geom.Rect{L: cx - strapW/2, B: srcRailB, R: cx + strapW/2, T: yActiveT}
			cell.Add(techno.LayerMetal1, strap, net)
			addM1(net, strap)
			continue
		}
		ry := railY[net]
		strap := geom.Rect{L: cx - strapW/2, B: yActiveB, R: cx + strapW/2, T: ry[1]}
		cell.Add(techno.LayerMetal1, strap, net)
		addM1(net, strap)
		cell.Add(techno.LayerVia1,
			geom.XYWH(cx-r.Via1Size/2, r.SnapDownNM((ry[0]+ry[1])/2-r.Via1Size/2), r.Via1Size, r.Via1Size), net)
	}

	// Rails.
	sRail := geom.Rect{L: 0, B: srcRailB, R: totalW, T: srcRailT}
	cell.Add(techno.LayerMetal1, sRail, sourceNet)
	addM1(sourceNet, sRail)
	cell.AddPort("S", sourceNet, techno.LayerMetal1, sRail)
	for _, net := range drainNets {
		ry := railY[net]
		rail := geom.Rect{L: 0, B: ry[0], R: totalW, T: ry[1]}
		cell.Add(techno.LayerMetal2, rail, net)
		addM2(net, rail)
		cell.AddPort("D_"+net, net, techno.LayerMetal2, rail)
	}

	// Bulk tap row + implant + well.
	imp := techno.LayerNImplant
	if spec.Type == techno.PMOS {
		imp = techno.LayerPImplant
	}
	cell.Add(imp, geom.Rect{L: -r.ContactActiveEnc, B: yActiveB - r.ContactActiveEnc,
		R: totalW + r.ContactActiveEnc, T: yActiveT + r.ContactActiveEnc}, "")
	tapRect := geom.Rect{L: 0, B: tapB, R: totalW, T: tapB + tapH}
	cell.Add(techno.LayerActive, tapRect, spec.BulkNet)
	cell.Add(techno.LayerMetal1, tapRect, spec.BulkNet)
	cell.AddPort("B", spec.BulkNet, techno.LayerMetal1, tapRect)
	for k := 0; k < nTaps; k++ {
		cx := r.SnapDownNM(totalW * int64(2*k+1) / int64(2*nTaps))
		ct := geom.XYWH(cx-r.ContactSize/2, tapB+r.ContactActiveEnc, r.ContactSize, r.ContactSize)
		// The bottom-bar stub passes through the tap row: keep tap
		// contacts clear of it.
		if stub.Valid() && ct.Expand(r.ContactToGate).Intersects(stub) {
			continue
		}
		cell.Add(techno.LayerContact, ct, spec.BulkNet)
	}
	if spec.Type == techno.PMOS {
		bb := cell.BBox()
		cell.Add(techno.LayerNWell, bb.Expand(r.NWellEncActive), spec.BulkNet)
	}
	st := &Stack{
		Cell:    cell,
		Pattern: p,
		Geoms:   stripGeoms(tech, p, spec, wuNM, stripW),
		RailCap: railCap,
		UnitW:   techno.NMToMeters(wuNM),
	}
	bb := cell.BBox()
	st.Width, st.Height = bb.W(), bb.H()
	return st, nil
}

func contactFitStack(r *techno.Rules, h int64) int {
	usable := h - 2*r.ContactActiveEnc
	if usable < r.ContactSize {
		return 1
	}
	return int((usable-r.ContactSize)/(r.ContactSize+r.ContactSpace)) + 1
}

// stripCountForNet counts strips carrying a net.
func stripCountForNet(p *Pattern, net string) int {
	n := 0
	for _, s := range p.Strips {
		if s == net {
			n++
		}
	}
	return n
}

// stripGeoms computes per-device junction geometry from the strip list.
// Strip bottom area = unitW·stripW; perimeter = the two horizontal edges
// plus any vertical edge not covered by a gate (only stack ends; dummy
// gates cover their edges like real ones). The common source net is
// divided among devices in proportion to their unit counts.
func stripGeoms(tech *techno.Tech, p *Pattern, spec BuildSpec, wuNM, stripWNM int64) map[string]device.DiffGeom {
	wu := techno.NMToMeters(wuNM)
	sw := techno.NMToMeters(stripWNM)
	type ap struct{ a, p float64 }
	nets := map[string]ap{}
	last := len(p.Strips) - 1
	for i, net := range p.Strips {
		g := nets[net]
		g.a += wu * sw
		g.p += 2 * sw
		if i == 0 || i == last {
			g.p += wu
		}
		nets[net] = g
	}

	out := map[string]device.DiffGeom{}
	src := nets[p.Spec.SourceNet]
	var totalUnits int
	for _, d := range p.Spec.Devices {
		totalUnits += d.Units
	}
	for _, d := range p.Spec.Devices {
		dg := nets[d.DrainNet]
		share := float64(d.Units) / float64(totalUnits)
		out[d.Name] = device.DiffGeom{
			AD: dg.a, PD: dg.p,
			AS: src.a * share, PS: src.p * share,
		}
	}
	return out
}

// WellAreaM2 returns n-well area (m²) and perimeter (m) of the stack.
func (s *Stack) WellAreaM2() (area, perim float64) {
	for _, sh := range s.Cell.Shapes {
		if sh.Layer == techno.LayerNWell {
			area += sh.R.AreaM2()
			perim += sh.R.PerimM()
		}
	}
	return area, perim
}
