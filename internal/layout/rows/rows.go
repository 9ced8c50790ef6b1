// Package rows is the second layout backend: a row-based placer in the
// style of analog row layout generators (Gebru et al.; Badaoui &
// Vemuri). Instead of a slicing tree it imposes a row discipline — an
// NFET row at the bottom, a passive row in the middle, a PFET row on
// top — with routing channels between the rows. Matched structures keep
// their interdigitation and common-centroid ordering because the
// modules themselves (cairo.MatchedStack over motif/stack primitives)
// already encode it; the placer adds row-level symmetry by centering
// the widest matched stacks in each row.
//
// The placer enumerates a small deterministic set of candidate
// placements (placement styles × fold policies), realizes and routes
// every one through the shared route + extract stages, and picks the
// winner by extracted parasitics, then area — the multi-placement-style
// selection loop of Badaoui & Vemuri, with the paper's
// parasitic-driven objective.
package rows

import (
	"fmt"
	"sort"
	"strings"

	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/layout/extract"
	"loas/internal/layout/geom"
	"loas/internal/layout/route"
	"loas/internal/layout/slicing"
	"loas/internal/techno"
)

// Row indices, bottom to top. NMOS devices sit nearest the substrate
// rail, PMOS devices nearest their n-wells at the top, and passives
// (capacitors, resistors — no bulk terminal) fill the middle row.
const (
	rowNMOS = iota
	rowPassive
	rowPMOS
	rowCount
)

// Style names one candidate placement: an ordering discipline crossed
// with a fold (shape-choice) policy.
//
//   - "sym" orders each row center-out — matched stacks first, then
//     descending width — so the differential structures sit on the row's
//     symmetry axis; "alpha" orders alphabetically (the naive baseline).
//   - "quant" quantizes module heights up toward the row height (taller
//     folds → narrower modules → shorter rows); "flat" picks each
//     module's minimal-height realization.
var styles = []struct{ name, order, policy string }{
	{"sym-quant", "sym", "quant"},
	{"sym-flat", "sym", "flat"},
	{"alpha-quant", "alpha", "quant"},
	{"alpha-flat", "alpha", "flat"},
}

// Candidate is one realized (or failed) placement style. Tests run DRC
// over every candidate's Cell; Plan picks the winner.
type Candidate struct {
	Style string
	Plan  *cairo.Plan
	Err   error
}

// backend registers the placer as layout backend "rows".
type backend struct{}

func (backend) Info() layout.Info {
	return layout.Info{
		Name: "rows",
		Description: "row-based placement: NFET/passive/PFET rows with routing " +
			"channels between them; candidate placements scored by extracted " +
			"parasitics, then area",
		Constraints: []string{"max_w", "max_h"},
	}
}

func init() { layout.Register(backend{}) }

// Plan realizes every candidate placement, drops the ones that fail to
// route or violate the shape constraint, and returns the winner:
// minimal total extracted capacitance, ties broken by area, then by
// candidate order. Deterministic.
func (backend) Plan(tech *techno.Tech, d *cairo.Design, c layout.Constraint, _ *layout.Session) (*layout.Plan, error) {
	cands := Candidates(tech, d)
	var best *Candidate
	var reasons []string
	for i := range cands {
		cand := &cands[i]
		if cand.Err != nil {
			reasons = append(reasons, cand.Style+": "+cand.Err.Error())
			continue
		}
		p := cand.Plan.Parasitics
		if c.MaxW > 0 && p.WidthUM*1e3 > float64(c.MaxW) {
			reasons = append(reasons, fmt.Sprintf("%s: width %.1fµm exceeds max_w", cand.Style, p.WidthUM))
			continue
		}
		if c.MaxH > 0 && p.HeightUM*1e3 > float64(c.MaxH) {
			reasons = append(reasons, fmt.Sprintf("%s: height %.1fµm exceeds max_h", cand.Style, p.HeightUM))
			continue
		}
		if best == nil || betterThan(cand, best) {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("rows: design %s: no feasible placement (%s)",
			d.Name, strings.Join(reasons, "; "))
	}
	return best.Plan, nil
}

// betterThan reports whether a beats b: primary objective is total
// extracted capacitance, secondary is bounding-box area. Strict
// comparisons keep the earlier candidate on exact ties.
func betterThan(a, b *Candidate) bool {
	ca, cb := a.Plan.Parasitics.TotalCap(), b.Plan.Parasitics.TotalCap()
	if ca != cb {
		return ca < cb
	}
	return a.Plan.Parasitics.AreaUM2 < b.Plan.Parasitics.AreaUM2
}

// moduleSlot is one module with its realized alternatives.
type moduleSlot struct {
	m       cairo.Module
	name    string
	row     int
	stack   bool
	choices []int
	builds  map[int]*cairo.Built
}

// rowOf classifies a module into its row by device type; modules
// without a MOS type (capacitors, resistors) take the passive row.
func rowOf(m cairo.Module) (row int, isStack bool) {
	switch t := m.(type) {
	case *cairo.Transistor:
		if t.Type == techno.PMOS {
			return rowPMOS, false
		}
		return rowNMOS, false
	case *cairo.MatchedStack:
		if t.Type == techno.PMOS {
			return rowPMOS, true
		}
		return rowNMOS, true
	default:
		return rowPassive, false
	}
}

// Candidates realizes every placement style for the design, routing and
// extracting each one. Failed styles (typically unroutable placements)
// carry their error; tests DRC-check every successful candidate.
func Candidates(tech *techno.Tech, d *cairo.Design) []Candidate {
	slots, err := buildSlots(tech, d)
	out := make([]Candidate, 0, len(styles))
	for _, st := range styles {
		cand := Candidate{Style: st.name}
		if err != nil {
			cand.Err = err
		} else {
			cand.Plan, cand.Err = realize(tech, d, slots, st.order, st.policy)
		}
		out = append(out, cand)
	}
	return out
}

// buildSlots realizes every alternative of every module once and
// classifies modules into rows.
func buildSlots(tech *techno.Tech, d *cairo.Design) ([]moduleSlot, error) {
	slots := make([]moduleSlot, 0, len(d.Modules))
	for _, m := range d.Modules {
		row, isStack := rowOf(m)
		slot := moduleSlot{
			m: m, name: m.Name(), row: row, stack: isStack,
			choices: m.Choices(), builds: map[int]*cairo.Built{},
		}
		if len(slot.choices) == 0 {
			return nil, fmt.Errorf("rows: module %s offers no shape choices", slot.name)
		}
		for _, choice := range slot.choices {
			b, err := m.Build(tech, choice)
			if err != nil {
				return nil, fmt.Errorf("rows: module %s choice %d: %w", slot.name, choice, err)
			}
			slot.builds[choice] = b
		}
		slots = append(slots, slot)
	}
	return slots, nil
}

func dims(b *cairo.Built) (w, h int64) {
	bb := b.Cell.BBox()
	return bb.W(), bb.H()
}

// minHeightChoice picks the module's shortest realization; ties prefer
// the narrower, then the earlier choice.
func minHeightChoice(slot moduleSlot) int {
	best := slot.choices[0]
	bw, bh := dims(slot.builds[best])
	for _, c := range slot.choices[1:] {
		w, h := dims(slot.builds[c])
		if h < bh || (h == bh && w < bw) {
			best, bw, bh = c, w, h
		}
	}
	return best
}

// quantChoice quantizes the module's height up toward the row target:
// the tallest realization not exceeding target (every module's minimal
// height is ≤ target by construction); ties prefer the narrower, then
// the earlier choice.
func quantChoice(slot moduleSlot, target int64) int {
	best, found := 0, false
	var bw, bh int64
	for _, c := range slot.choices {
		w, h := dims(slot.builds[c])
		if h > target {
			continue
		}
		if !found || h > bh || (h == bh && w < bw) {
			best, bw, bh, found = c, w, h, true
		}
	}
	if !found {
		return minHeightChoice(slot)
	}
	return best
}

// chooseFolds applies the fold policy to one row's modules and returns
// the chosen alternative per module name.
func chooseFolds(row []moduleSlot, policy string) map[string]int {
	chosen := map[string]int{}
	if policy == "quant" {
		var target int64
		for _, slot := range row {
			_, h := dims(slot.builds[minHeightChoice(slot)])
			if h > target {
				target = h
			}
		}
		for _, slot := range row {
			chosen[slot.name] = quantChoice(slot, target)
		}
		return chosen
	}
	for _, slot := range row {
		chosen[slot.name] = minHeightChoice(slot)
	}
	return chosen
}

// orderRow fixes the left-to-right module order of one row.
//
// "alpha" is alphabetical. "sym" builds a symmetric arrangement: rank
// modules by (matched stack first, width descending, name), then fan
// out from the center — rank 0 in the middle, successive ranks
// alternating right and left — so matched differential structures land
// on the row's symmetry axis with progressively smaller devices flanking
// them, the row-level mirror symmetry of analog row placers.
func orderRow(row []moduleSlot, chosen map[string]int, order string) []moduleSlot {
	sorted := append([]moduleSlot(nil), row...)
	if order == "alpha" {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
		return sorted
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.stack != b.stack {
			return a.stack
		}
		wa, _ := dims(a.builds[chosen[a.name]])
		wb, _ := dims(b.builds[chosen[b.name]])
		if wa != wb {
			return wa > wb
		}
		return a.name < b.name
	})
	var left, right []moduleSlot
	for i, slot := range sorted {
		if i%2 == 0 {
			right = append(right, slot)
		} else {
			left = append(left, slot)
		}
	}
	out := make([]moduleSlot, 0, len(sorted))
	for i := len(left) - 1; i >= 0; i-- {
		out = append(out, left[i])
	}
	return append(out, right...)
}

func snapDown(v, grid int64) int64 {
	if grid <= 1 {
		return v
	}
	return (v / grid) * grid
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// realize places one candidate: rows stacked bottom-up with
// channel-height gaps between them, each row centered on the common
// vertical axis, then routes and extracts exactly like the slicing
// backend.
func realize(tech *techno.Tech, d *cairo.Design, slots []moduleSlot, order, policy string) (*cairo.Plan, error) {
	byRow := make([][]moduleSlot, rowCount)
	for _, slot := range slots {
		byRow[slot.row] = append(byRow[slot.row], slot)
	}

	need := d.ChannelNeedNM(tech)
	// Intra-row gap: wide enough for adjacent n-wells on different nets
	// (the 6 µm the slicing designs use between vertically-cut siblings).
	gapX := max64(6000, tech.Rules.NWellSpace)

	type placedRow struct {
		slots  []moduleSlot
		chosen map[string]int
		w, h   int64
	}
	var rows []placedRow
	var maxW int64
	for r := 0; r < rowCount; r++ {
		if len(byRow[r]) == 0 {
			continue
		}
		chosen := chooseFolds(byRow[r], policy)
		ordered := orderRow(byRow[r], chosen, order)
		pr := placedRow{slots: ordered, chosen: chosen}
		for i, slot := range ordered {
			w, h := dims(slot.builds[chosen[slot.name]])
			if i > 0 {
				pr.w += gapX
			}
			pr.w += w
			if h > pr.h {
				pr.h = h
			}
		}
		if pr.w > maxW {
			maxW = pr.w
		}
		rows = append(rows, pr)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("rows: design %s has no modules", d.Name)
	}

	var builds []*cairo.Built
	for _, pr := range rows {
		for _, slot := range pr.slots {
			builds = append(builds, slot.builds[pr.chosen[slot.name]])
		}
	}
	top := cairo.TopCell(d.Name, builds)
	par := extract.New()
	choices := make(map[string]int, len(builds))
	placed := make(map[string]slicing.Placed, len(builds))
	obstacles := make([]geom.Rect, 0, len(builds))

	var y int64
	for ri, pr := range rows {
		if ri > 0 {
			y += need
		}
		x := snapDown((maxW-pr.w)/2, tech.Rules.Grid)
		for _, slot := range pr.slots {
			choice := pr.chosen[slot.name]
			b := slot.builds[choice]
			bb := b.Cell.BBox()
			top.Merge(b.Cell, x-bb.L, y-bb.B)
			r := geom.XYWH(x, y, bb.W(), bb.H())
			placed[slot.name] = slicing.Placed{Name: slot.name, Rect: r, Choice: choice}
			obstacles = append(obstacles, r)
			choices[slot.name] = choice
			for inst, g := range b.Geoms {
				par.DeviceGeom[inst] = g
			}
			for inst, f := range b.Folds {
				par.Folds[inst] = f
			}
			for net, cap := range b.RailCap {
				par.NetCap[net] += cap
			}
			if b.WellNet != "" && b.WellArea > 0 {
				par.WellCap[b.WellNet] += b.WellArea*tech.Wire.CWellArea + b.WellPerim*tech.Wire.CWellPerim
			}
			x += bb.W() + gapX
		}
		y += pr.h
	}

	channels := route.Channels(obstacles, need)
	rres, err := route.Route(tech, top, d.Nets, channels)
	if err != nil {
		return nil, fmt.Errorf("rows: design %s (%s-%s): %w", d.Name, order, policy, err)
	}
	for net, cap := range rres.NetCap {
		par.NetCap[net] += cap
	}
	for pair, cap := range rres.Coupling {
		par.Coupling[pair] += cap
	}

	bb := top.BBox()
	par.WidthUM = float64(bb.W()) * 1e-3
	par.HeightUM = float64(bb.H()) * 1e-3
	par.AreaUM2 = bb.AreaUM2()
	par.LayoutCalls = 1

	fp := &slicing.Floorplan{W: maxW, H: y, Placed: placed}
	return &cairo.Plan{Parasitics: par, Cell: top, Floorplan: fp, ChoiceOf: choices}, nil
}
