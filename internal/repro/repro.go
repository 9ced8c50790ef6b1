// Package repro packages every experiment of the paper's evaluation into
// a reusable harness: each table and figure has a function that runs the
// experiment and renders the same rows/series the paper reports. The CLI
// (cmd/loas), the benchmark suite (bench_test.go) and EXPERIMENTS.md all
// drive these entry points.
package repro

import (
	"fmt"
	"strings"

	"loas/internal/device"
	"loas/internal/layout/stack"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// Fig2Point is one curve point of the capacitance-reduction-factor plot.
type Fig2Point struct {
	Nf                 int
	Internal, External float64 // even-fold internal/external F
	Odd                float64 // odd-fold F
}

// Fig2 evaluates the paper's Fig. 2: F versus the number of folds for the
// three diffusion positions. Odd entries are only defined for odd Nf and
// even entries for even Nf; both columns are reported at every Nf using
// the respective closed forms so the curves can be plotted densely.
func Fig2(maxFolds int) []Fig2Point {
	out := make([]Fig2Point, 0, maxFolds)
	for nf := 1; nf <= maxFolds; nf++ {
		n := float64(nf)
		p := Fig2Point{Nf: nf}
		p.Internal = 0.5
		p.External = (n + 2) / (2 * n)
		p.Odd = (n + 1) / (2 * n)
		if nf == 1 {
			p.External = 1
		}
		out = append(out, p)
	}
	return out
}

// Fig2Text renders the curves as the table behind the figure.
func Fig2Text(maxFolds int) string {
	var b strings.Builder
	b.WriteString("Fig. 2 — capacitance reduction factor F(Nf)\n")
	b.WriteString("  Nf   internal(even)  external(even)  odd\n")
	for _, p := range Fig2(maxFolds) {
		fmt.Fprintf(&b, "  %2d   %0.4f          %0.4f          %0.4f\n",
			p.Nf, p.Internal, p.External, p.Odd)
	}
	return b.String()
}

// Fig3Result is the generated current-mirror stack of the paper's Fig. 3.
type Fig3Result struct {
	Pattern     *stack.Pattern
	Stack       *stack.Stack
	CentroidErr map[string]float64
	OrientImbal map[string]int
}

// Fig3 builds the M1:M2:M3 = 1:3:6 current mirror with dummies,
// current-direction-aware orientation and reliability-driven wire sizing.
func Fig3(tech *techno.Tech) (*Fig3Result, error) {
	iUnit := 20e-6 // reference current per unit
	spec := stack.PatternSpec{
		Devices: []stack.Device{
			{Name: "M1", Units: 1, DrainNet: "d1", GateNet: "g"},
			{Name: "M2", Units: 3, DrainNet: "d2", GateNet: "g"},
			{Name: "M3", Units: 6, DrainNet: "d3", GateNet: "g"},
		},
		SourceNet:  "gnd",
		EndDummies: true,
	}
	pat, err := stack.Generate(spec)
	if err != nil {
		return nil, err
	}
	st, err := stack.Build(tech, pat, stack.BuildSpec{
		Name: "fig3-mirror", Type: techno.NMOS,
		UnitW: 10 * techno.Micron, L: 2 * techno.Micron, BulkNet: "gnd",
		Currents: map[string]float64{
			"d1": 1 * iUnit, "d2": 3 * iUnit, "d3": 6 * iUnit,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Pattern:     pat,
		Stack:       st,
		CentroidErr: pat.CentroidError(),
		OrientImbal: pat.OrientationImbalance(),
	}, nil
}

// Fig3Text renders the experiment summary.
func Fig3Text(tech *techno.Tech) (string, error) {
	r, err := Fig3(tech)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig. 3 — current mirror M1:M2:M3 = 1:3:6\n")
	fmt.Fprintf(&b, "  stack:   %s\n", r.Pattern)
	fmt.Fprintf(&b, "  size:    %.1f x %.1f um\n",
		float64(r.Stack.Width)*1e-3, float64(r.Stack.Height)*1e-3)
	for _, name := range []string{"M1", "M2", "M3"} {
		g := r.Stack.Geoms[name]
		fmt.Fprintf(&b, "  %s: centroid err %.2f pitch, orient imbalance %d, AD %.1f um2, PD %.1f um\n",
			name, r.CentroidErr[name], r.OrientImbal[name], g.AD*1e12, g.PD*1e6)
	}
	fmt.Fprintf(&b, "  inserted isolation dummies: %d (plus 2 end dummies)\n",
		r.Pattern.InsertedDummies)
	return b.String(), nil
}

// FoldStyleComparison quantifies the Fig. 2 mechanism on a concrete
// device: the drain junction capacitance of a transistor folded with the
// drain internal versus external versus unfolded.
func FoldStyleComparison(tech *techno.Tech, w float64, nf int) (cdbUnfolded, cdbInternal, cdbExternal float64) {
	bias := func(g device.DiffGeom) float64 {
		m := device.MOS{Card: &tech.N, W: w, L: techno.Micron, Geom: g}
		op := m.Eval(1.5, 2.0, 0, 0, tech.Temp)
		return m.Caps(op, tech.Temp).CDB
	}
	cdbUnfolded = bias(device.OneFoldGeom(tech, w))
	cdbInternal = bias(device.PlanFolds(&tech.Rules, w, nf, device.DrainInternal).Geom(tech))
	cdbExternal = bias(device.PlanFolds(&tech.Rules, w, nf, device.SourceInternal).Geom(tech))
	return
}

// Table1Header echoes the paper's input specification line.
func Table1Header(spec sizing.OTASpec) string {
	return fmt.Sprintf("VDD = %.1f V, GBW = %.0f MHz, PM = %.0f deg, CL = %.0f pF, "+
		"ICM = [%.2f, %.2f] V, out = [%.2f, %.2f] V",
		spec.VDD, spec.GBW/1e6, spec.PM, spec.CL*1e12,
		spec.ICMLow, spec.ICMHigh, spec.OutLow, spec.OutHigh)
}
