// Package cairo is the procedural layout driver — the role of the CAIRO
// layout language in the paper. Circuit generators describe a layout as
// modules (folded transistors, matched stacks) arranged in a slicing
// tree. The paper's CAIRO runs in two modes: a parasitic-calculation
// mode in which "no layout is physically generated", and a generation
// mode. Here the geometry is cheap enough to build on every call, so
// Plan is both: area optimization under the shape constraint decides
// every fold count and wire position, and the returned Plan carries the
// parasitic report together with the full cell, ready for SVG export.
package cairo

import (
	"fmt"

	"loas/internal/device"
	"loas/internal/layout/geom"
	"loas/internal/layout/motif"
	"loas/internal/layout/stack"
	"loas/internal/techno"
)

// Built is a module realized for one shape choice.
type Built struct {
	Cell *geom.Cell
	// Geoms / Folds are keyed by circuit transistor instance name.
	Geoms map[string]device.DiffGeom
	Folds map[string]device.FoldPlan
	// RailCap is module-internal wiring capacitance per net (F).
	RailCap map[string]float64
	// WellNet receives the floating-well capacitance (empty = none or
	// tied to supply).
	WellNet             string
	WellArea, WellPerim float64
}

// Module is a placeable layout block with enumerable shape alternatives.
type Module interface {
	Name() string
	// Choices lists the shape alternative identifiers.
	Choices() []int
	// Build realizes one alternative.
	Build(tech *techno.Tech, choice int) (*Built, error)
}

// Transistor wraps a single folded transistor; choices are fold counts.
// Every transistor folds its drain internal, the paper's rule for
// frequency-critical drains, so its fold counts are even (or 1) and the
// drain stays fully internal.
type Transistor struct {
	Inst string // circuit instance name (keys the parasitic report)
	Type techno.MOSType
	W, L float64
	// Net names for the four terminals, and the DC drain current.
	DrainNet, GateNet, SourceNet, BulkNet string
	IDrain                                float64
	// MaxFolds bounds the alternatives (default 8).
	MaxFolds int
}

// Name implements Module.
func (t *Transistor) Name() string { return t.Inst }

// Choices implements Module: 1, 2, 4, … up to MaxFolds.
func (t *Transistor) Choices() []int {
	maxf := t.MaxFolds
	if maxf < 1 {
		maxf = 8
	}
	out := []int{1}
	for nf := 2; nf <= maxf; nf += 2 {
		out = append(out, nf)
	}
	return out
}

// Build implements Module.
func (t *Transistor) Build(tech *techno.Tech, choice int) (*Built, error) {
	m, err := motif.Build(tech, motif.Spec{
		Name:      t.Inst,
		Type:      t.Type,
		W:         t.W,
		L:         t.L,
		Folds:     choice,
		DrainNet:  t.DrainNet,
		GateNet:   t.GateNet,
		SourceNet: t.SourceNet,
		BulkNet:   t.BulkNet,
		IDrain:    t.IDrain,
	})
	if err != nil {
		return nil, err
	}
	return &Built{
		Cell:    m.Cell,
		Geoms:   map[string]device.DiffGeom{t.Inst: m.Geom},
		Folds:   map[string]device.FoldPlan{t.Inst: m.Plan},
		RailCap: m.RailCap,
	}, nil
}

// MatchedStack wraps a matched multi-device stack (mirror, pair); choices
// multiply the unit count per device, trading height for width.
type MatchedStack struct {
	Label string
	Type  techno.MOSType
	// Devices holds per-device ratios and nets; Units is the *base* unit
	// count, scaled by the split choice.
	Devices   []stack.Device
	SourceNet string
	BulkNet   string
	// WidthPerBaseUnit is the gate width (m) of one base unit: device i
	// has total width Units_i · WidthPerBaseUnit.
	WidthPerBaseUnit float64
	L                float64
	Currents         map[string]float64
	// Splits lists unit multipliers to offer as shape alternatives
	// (default {1, 2}).
	Splits []int
	// WellNet, when set on a PMOS stack, reports the floating-well
	// capacitance onto that net (e.g. a source-tied well).
	WellNet string
}

// Name implements Module.
func (s *MatchedStack) Name() string { return s.Label }

// Choices implements Module.
func (s *MatchedStack) Choices() []int {
	if len(s.Splits) == 0 {
		return []int{1, 2}
	}
	return append([]int(nil), s.Splits...)
}

// Build implements Module.
func (s *MatchedStack) Build(tech *techno.Tech, choice int) (*Built, error) {
	if choice < 1 {
		return nil, fmt.Errorf("cairo: stack %s: split %d", s.Label, choice)
	}
	devs := make([]stack.Device, len(s.Devices))
	for i, d := range s.Devices {
		d.Units *= choice
		devs[i] = d
	}
	pat, err := stack.Generate(stack.PatternSpec{Devices: devs, SourceNet: s.SourceNet})
	if err != nil {
		return nil, fmt.Errorf("cairo: stack %s: %w", s.Label, err)
	}
	st, err := stack.Build(tech, pat, stack.BuildSpec{
		Name:     s.Label,
		Type:     s.Type,
		UnitW:    s.WidthPerBaseUnit / float64(choice),
		L:        s.L,
		BulkNet:  s.BulkNet,
		Currents: s.Currents,
	})
	if err != nil {
		return nil, fmt.Errorf("cairo: stack %s: %w", s.Label, err)
	}
	b := &Built{
		Cell:    st.Cell,
		Geoms:   map[string]device.DiffGeom{},
		Folds:   map[string]device.FoldPlan{},
		RailCap: st.RailCap,
		WellNet: s.WellNet,
	}
	for name, g := range st.Geoms {
		b.Geoms[name] = g
	}
	for _, d := range devs {
		b.Folds[d.Name] = device.FoldPlan{
			Folds:   d.Units,
			FingerW: st.UnitW, // realized, grid-snapped
			Style:   device.DrainInternal,
		}
	}
	b.WellArea, b.WellPerim = st.WellAreaM2()
	return b, nil
}
