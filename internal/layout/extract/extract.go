// Package extract defines the parasitic report that flows from the layout
// tool back to the sizing tool — the heart of the paper's methodology —
// and applies it to a circuit netlist to build the "extracted netlist"
// used for verification.
//
// The report carries exactly the information the paper lists in §2:
// per-transistor layout style (folds, finger widths, internal/external
// diffusions), routing capacitance including coupling between wires, and
// exact well sizes for floating-well capacitance.
package extract

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout/route"
)

// Parasitics is the layout tool's report.
type Parasitics struct {
	// DeviceGeom holds the exact junction geometry per transistor name.
	DeviceGeom map[string]device.DiffGeom
	// Folds holds the chosen fold plan per transistor name.
	Folds map[string]device.FoldPlan
	// NetCap is the wiring capacitance to substrate per net (F), from
	// module-internal rails plus top-level routing.
	NetCap map[string]float64
	// Coupling is inter-net coupling capacitance (F).
	Coupling map[route.NetPair]float64
	// WellCap is the floating-well capacitance per bulk net (F).
	WellCap map[string]float64
	// WidthUM, HeightUM, AreaUM2 summarize the floorplan.
	WidthUM, HeightUM, AreaUM2 float64
	// LayoutCalls counts how many times the layout tool ran to produce
	// this report (for the convergence experiment).
	LayoutCalls int
}

// New returns an empty report.
func New() *Parasitics {
	return &Parasitics{
		DeviceGeom: map[string]device.DiffGeom{},
		Folds:      map[string]device.FoldPlan{},
		NetCap:     map[string]float64{},
		Coupling:   map[route.NetPair]float64{},
		WellCap:    map[string]float64{},
	}
}

// TotalNetCap returns wiring + well capacitance attached to a net.
func (p *Parasitics) TotalNetCap(net string) float64 {
	return p.NetCap[net] + p.WellCap[net]
}

// TotalCap sums wiring + well capacitance over every net in the report —
// the single scalar the convergence trace plots per layout call. Summed
// in sorted net order so the float result is run-to-run reproducible.
func (p *Parasitics) TotalCap() float64 {
	var c float64
	for _, n := range sortedKeys(p.NetCap) {
		c += p.NetCap[n]
	}
	for _, n := range sortedKeys(p.WellCap) {
		c += p.WellCap[n]
	}
	return c
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TotalFolds sums the gate-finger counts of the fold plan across all
// devices (the trace's layout-style snapshot).
func (p *Parasitics) TotalFolds() int {
	var f int
	for _, fp := range p.Folds {
		f += fp.Folds
	}
	return f
}

// CouplingTo sums coupling capacitance between net and every other net
// (the worst-case grounded approximation the sizing plan lumps onto a
// node). Pairs are summed in sorted order: this sum feeds the sizing
// evaluation, so its float result must not depend on map iteration
// order. The pairs are sorted in a stack buffer, which holds the few
// pairs one net has without a heap allocation.
func (p *Parasitics) CouplingTo(net string) float64 {
	var buf [16]route.NetPair
	pairs := buf[:0]
	for pair := range p.Coupling {
		if pair.A == net || pair.B == net {
			pairs = append(pairs, pair)
		}
	}
	slices.SortFunc(pairs, func(a, b route.NetPair) int {
		if c := strings.Compare(a.A, b.A); c != 0 {
			return c
		}
		return strings.Compare(a.B, b.B)
	})
	var c float64
	for _, pair := range pairs {
		c += p.Coupling[pair]
	}
	return c
}

// MaxDelta returns the largest absolute difference between two reports'
// per-net capacitances and per-device junction areas, the convergence
// criterion of the synthesis loop ("repeated till the calculated
// parasitics remain unchanged").
func MaxDelta(a, b *Parasitics) float64 {
	var d float64
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	nets := map[string]bool{}
	for n := range a.NetCap {
		nets[n] = true
	}
	for n := range b.NetCap {
		nets[n] = true
	}
	for n := range nets {
		if dd := abs(a.TotalNetCap(n) - b.TotalNetCap(n)); dd > d {
			d = dd
		}
	}
	devs := map[string]bool{}
	for n := range a.DeviceGeom {
		devs[n] = true
	}
	for n := range b.DeviceGeom {
		devs[n] = true
	}
	// Junction geometry differences expressed as capacitance-equivalent
	// using a representative 0.5 fF/µm² bottom + 0.35 fF/µm sidewall.
	for n := range devs {
		ga, gb := a.DeviceGeom[n], b.DeviceGeom[n]
		dd := abs(ga.AD-gb.AD)*0.5e-3 + abs(ga.PD-gb.PD)*0.35e-9
		dd += abs(ga.AS-gb.AS)*0.5e-3 + abs(ga.PS-gb.PS)*0.35e-9
		if dd > d {
			d = dd
		}
	}
	return d
}

// ApplyOptions selects which parasitics enter a netlist — these map
// one-to-one onto the four sizing cases of the paper's Table 1.
type ApplyOptions struct {
	// Junction selects the diffusion model: None (case 1), OneFold
	// (case 2) or Exact (cases 3–4, uses DeviceGeom).
	Junction JunctionModel
	// Routing attaches wiring + coupling + well capacitances (case 4 and
	// every extracted netlist).
	Routing bool
	// GroundNet is the netlist node treated as AC ground for lumping
	// (defaults to circuit.Ground).
	GroundNet string
}

// JunctionModel enumerates diffusion-parasitic treatments.
type JunctionModel int

// Junction models, in increasing fidelity.
const (
	JunctionNone JunctionModel = iota
	JunctionOneFold
	JunctionExact
)

// String implements fmt.Stringer.
func (j JunctionModel) String() string {
	switch j {
	case JunctionNone:
		return "none"
	case JunctionOneFold:
		return "one-fold"
	case JunctionExact:
		return "exact"
	}
	return fmt.Sprintf("junction(%d)", int(j))
}

// Apply writes the report into a netlist: every MOSFET gets its junction
// geometry, and (with Routing) every net gets a lumped wiring capacitor
// plus explicit coupling capacitors. Supply-like nets (those named in
// acGround) are skipped for lumping since they are AC ground anyway.
func (p *Parasitics) Apply(ckt *circuit.Circuit, opts ApplyOptions, oneFold func(name string, w float64) device.DiffGeom, acGround ...string) {
	gnd := opts.GroundNet
	if gnd == "" {
		gnd = circuit.Ground
	}
	isGround := map[string]bool{gnd: true}
	for _, g := range acGround {
		isGround[g] = true
	}

	for _, m := range ckt.MOSFETs() {
		switch opts.Junction {
		case JunctionNone:
			m.Dev.Geom = device.DiffGeom{}
		case JunctionOneFold:
			m.Dev.Geom = oneFold(m.Name, m.Dev.W)
		case JunctionExact:
			if g, ok := p.DeviceGeom[m.Name]; ok {
				m.Dev.Geom = g
			}
			// The layout snaps finger widths to the grid; the realized
			// total width is what the extracted netlist simulates (the
			// mechanism behind the paper's residual offset in case 2).
			if f, ok := p.Folds[m.Name]; ok && f.TotalW() > 0 {
				m.Dev.W = f.TotalW()
			}
		}
	}
	if !opts.Routing {
		return
	}

	// Deterministic order for reproducible netlists.
	var nets []string
	for n := range p.NetCap {
		nets = append(nets, n)
	}
	for n := range p.WellCap {
		if _, dup := p.NetCap[n]; !dup {
			nets = append(nets, n)
		}
	}
	sort.Strings(nets)
	for _, n := range nets {
		if isGround[n] {
			continue
		}
		if _, ok := ckt.NodeIndex(n); !ok {
			continue // net exists only in the layout (e.g. dummies)
		}
		c := p.TotalNetCap(n)
		if c <= 0 {
			continue
		}
		ckt.Add(&circuit.Capacitor{Name: "par_" + sanitize(n), A: n, B: gnd, C: c})
	}

	var pairs []route.NetPair
	for pr := range p.Coupling {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, pr := range pairs {
		c := p.Coupling[pr]
		if c <= 0 {
			continue
		}
		_, okA := ckt.NodeIndex(pr.A)
		_, okB := ckt.NodeIndex(pr.B)
		if !okA || !okB {
			continue
		}
		a, b := pr.A, pr.B
		if isGround[a] && isGround[b] {
			continue
		}
		if isGround[a] {
			a = gnd
		}
		if isGround[b] {
			b = gnd
		}
		ckt.Add(&circuit.Capacitor{Name: "cc_" + sanitize(pr.A) + "_" + sanitize(pr.B), A: a, B: b, C: c})
	}
}

func sanitize(n string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, n)
}

// Summary renders a human-readable report (used by the CLI and
// EXPERIMENTS.md generation).
func (p *Parasitics) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout %0.1f x %0.1f um  area %0.0f um2  (%d layout call(s))\n",
		p.WidthUM, p.HeightUM, p.AreaUM2, p.LayoutCalls)
	var nets []string
	for n := range p.NetCap {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	for _, n := range nets {
		fmt.Fprintf(&b, "  net %-8s  %7.1f fF wiring", n, p.NetCap[n]*1e15)
		if w := p.WellCap[n]; w > 0 {
			fmt.Fprintf(&b, " + %6.1f fF well", w*1e15)
		}
		b.WriteString("\n")
	}
	var pairs []route.NetPair
	for pr := range p.Coupling {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, pr := range pairs {
		fmt.Fprintf(&b, "  coupling %s <-> %s  %6.2f fF\n", pr.A, pr.B, p.Coupling[pr]*1e15)
	}
	return b.String()
}
