package cairo

import (
	"fmt"
	"sort"

	"loas/internal/layout/extract"
	"loas/internal/layout/geom"
	"loas/internal/layout/route"
	"loas/internal/layout/slicing"
	"loas/internal/obs"
	"loas/internal/techno"
)

// Tree describes the slicing structure over module names — the
// "language constructs [that] allow to build up the appropriate slicing
// structure for the circuit".
type Tree struct {
	// Vertical: children placed side by side (widths add).
	Vertical bool
	// GapNM separates children; it is the routing channel width.
	GapNM int64
	// Leaves lists module names placed directly at this level.
	Leaves []string
	// Children are nested cuts (composed after Leaves, in order).
	Children []*Tree
}

// Design is a complete layout description: modules, slicing structure and
// the nets to route.
type Design struct {
	Name    string
	Modules []Module
	Tree    *Tree
	// Nets lists top-level nets to route with their DC currents.
	Nets []route.Net
}

// Constraint re-exports the slicing constraint for callers.
type Constraint = slicing.Constraint

// Plan is the result of either mode: the parasitic report plus the
// geometry that produced it.
type Plan struct {
	Parasitics *extract.Parasitics
	Cell       *geom.Cell
	Floorplan  *slicing.Floorplan
	// ChoiceOf records the selected shape alternative per module.
	ChoiceOf map[string]int
}

func (d *Design) module(name string) Module {
	for _, m := range d.Modules {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// slicingNode converts the tree spec into slicing nodes backed by real
// module builds, so the shape function reflects exact geometry. Every
// alternative of every module is built once and recorded in builds.
func (d *Design) slicingNode(tech *techno.Tech, t *Tree, builds map[string]map[int]*Built) (slicing.Node, error) {
	var children []slicing.Node
	for _, name := range t.Leaves {
		m := d.module(name)
		if m == nil {
			return nil, fmt.Errorf("cairo: tree references unknown module %q", name)
		}
		var alts []slicing.Option
		built := map[int]*Built{}
		for _, choice := range m.Choices() {
			b, err := m.Build(tech, choice)
			if err != nil {
				return nil, fmt.Errorf("cairo: module %s choice %d: %w", name, choice, err)
			}
			bb := b.Cell.BBox()
			alts = append(alts, slicing.Option{W: bb.W(), H: bb.H(), Choice: choice})
			built[choice] = b
		}
		builds[name] = built
		children = append(children, slicing.NewLeaf(name, alts))
	}
	for _, sub := range t.Children {
		n, err := d.slicingNode(tech, sub, builds)
		if err != nil {
			return nil, err
		}
		children = append(children, n)
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("cairo: empty tree node in design %s", d.Name)
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return slicing.NewCut(t.Vertical, t.GapNM, children...), nil
}

// ChannelNeedNM sizes the routing channels from the net count: one
// metal-2 track per net plus slack, so trunk stacking never overflows
// into a module row. Every backend that routes this design should open
// channels at least this tall.
func (d *Design) ChannelNeedNM(tech *techno.Tech) int64 {
	pitch := tech.Rules.Metal2Width + tech.Rules.Metal2Space
	return int64(len(d.Nets)+2)*pitch + 2*tech.Rules.Metal2Space
}

// widenGaps returns a copy of the tree with horizontal-cut gaps widened
// to the routing-channel requirement.
func widenGaps(t *Tree, need int64) *Tree {
	c := *t
	if !c.Vertical && c.GapNM < need {
		c.GapNM = need
	}
	c.Children = make([]*Tree, len(t.Children))
	for i, ch := range t.Children {
		c.Children[i] = widenGaps(ch, need)
	}
	return &c
}

// routeShapesPerPort is the top-cell room TopCell leaves per module
// port for the router's wires: the branch, rail extension and via1 of a
// routed port, with each net's trunk, trunk vias and spine spread over
// its ports.
const routeShapesPerPort = 4

// TopCell returns the empty top cell of a plan, reserved for the shapes
// and ports of the placed builds and for the wires the router adds to
// them, so that merging and routing grow it at most rarely.
func TopCell(name string, placed []*Built) *geom.Cell {
	var shapes, ports int
	for _, b := range placed {
		shapes += len(b.Cell.Shapes)
		ports += len(b.Cell.Ports)
	}
	top := geom.NewCell(name)
	top.Reserve(shapes+routeShapesPerPort*ports, ports)
	return top
}

// layoutPlans counts layout-tool invocations process-wide — the
// CAIRO-side half of the loasd /metrics convergence picture (plans per
// synthesis ≈ the paper's "three calls of the layout tool").
var layoutPlans = obs.Default.Counter("loas_layout_plans_total",
	"layout plan calls (area optimization + realization + extraction)")

// Plan runs the flow: area optimization under the shape constraint,
// module realization, routing, extraction.
func (d *Design) Plan(tech *techno.Tech, c Constraint) (*Plan, error) {
	layoutPlans.Inc()
	builds := map[string]map[int]*Built{}
	need := d.ChannelNeedNM(tech)
	root, err := d.slicingNode(tech, widenGaps(d.Tree, need), builds)
	if err != nil {
		return nil, err
	}
	fp, err := slicing.Optimize(root, c)
	if err != nil {
		return nil, fmt.Errorf("cairo: design %s: %w", d.Name, err)
	}

	// Deterministic module order.
	names := make([]string, 0, len(fp.Placed))
	for name := range fp.Placed {
		names = append(names, name)
	}
	sort.Strings(names)
	placed := make([]*Built, len(names))
	for i, name := range names {
		pl := fp.Placed[name]
		if placed[i] = builds[name][pl.Choice]; placed[i] == nil {
			return nil, fmt.Errorf("cairo: missing build for %s choice %d", name, pl.Choice)
		}
	}

	top := TopCell(d.Name, placed)
	par := extract.New()
	choices := make(map[string]int, len(names))
	for i, name := range names {
		pl := fp.Placed[name]
		b := placed[i]
		choices[name] = pl.Choice
		bb := b.Cell.BBox()
		top.Merge(b.Cell, pl.Rect.L-bb.L, pl.Rect.B-bb.B)
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
	}

	// Routing channels: the module-free horizontal bands of the
	// floorplan, plus margins above and below.
	obstacles := make([]geom.Rect, 0, len(names))
	for _, name := range names {
		obstacles = append(obstacles, fp.Placed[name].Rect)
	}
	channels := route.Channels(obstacles, need)
	rres, err := route.Route(tech, top, d.Nets, channels)
	if err != nil {
		return nil, fmt.Errorf("cairo: design %s: %w", d.Name, err)
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

	return &Plan{Parasitics: par, Cell: top, Floorplan: fp, ChoiceOf: choices}, nil
}
