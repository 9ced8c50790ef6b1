package repro

import (
	"math"
	"strings"
	"sync"
	"testing"

	"loas/internal/core"
	"loas/internal/layout/cairo"
	"loas/internal/sizing"
	"loas/internal/techno"
)

func TestFig2ExactValues(t *testing.T) {
	pts := Fig2(8)
	if len(pts) != 8 {
		t.Fatalf("want 8 points, got %d", len(pts))
	}
	// Spot values from the paper's formulas.
	checks := []struct {
		nf   int
		col  string
		want float64
	}{
		{1, "ext", 1.0}, {1, "odd", 1.0},
		{2, "int", 0.5}, {2, "ext", 1.0},
		{3, "odd", 2.0 / 3.0},
		{4, "ext", 0.75},
		{6, "ext", 8.0 / 12.0},
		{5, "odd", 0.6},
	}
	for _, c := range checks {
		p := pts[c.nf-1]
		var got float64
		switch c.col {
		case "int":
			got = p.Internal
		case "ext":
			got = p.External
		case "odd":
			got = p.Odd
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Fig2 nf=%d %s = %g, want %g", c.nf, c.col, got, c.want)
		}
	}
}

func TestFig2CurveShape(t *testing.T) {
	pts := Fig2(32)
	for i := 1; i < len(pts); i++ {
		if pts[i].Internal != 0.5 {
			t.Fatal("internal curve must be flat at 1/2")
		}
		if i > 1 && pts[i].External > pts[i-1].External {
			t.Fatal("external curve must fall")
		}
		if pts[i].Odd > pts[i-1].Odd {
			t.Fatal("odd curve must fall")
		}
	}
	// Steep initial drop: most of the reduction in the first few folds.
	drop4 := pts[0].External - pts[3].External
	drop32 := pts[3].External - pts[31].External
	if drop4 < drop32 {
		t.Fatal("the first folds should give most of the reduction")
	}
}

func TestFig2TextRenders(t *testing.T) {
	s := Fig2Text(6)
	if !strings.Contains(s, "0.5000") || !strings.Contains(s, "Nf") {
		t.Fatalf("Fig2 text malformed:\n%s", s)
	}
}

func TestFig3Experiment(t *testing.T) {
	tech := techno.Default060()
	r, err := Fig3(tech)
	if err != nil {
		t.Fatal(err)
	}
	// Ratios realized exactly.
	if r.Pattern.UnitCount(0) != 1 || r.Pattern.UnitCount(1) != 3 || r.Pattern.UnitCount(2) != 6 {
		t.Fatal("mirror ratio wrong")
	}
	// Matching quality.
	if r.CentroidErr["M3"] > 0.5 {
		t.Fatalf("M3 centroid error %.2f", r.CentroidErr["M3"])
	}
	// Reliability: the 120 µA branch must have a wide enough strap
	// network — verified indirectly through positive geometry.
	if r.Stack.Width <= 0 {
		t.Fatal("no geometry")
	}
	text, err := Fig3Text(tech)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "1:3:6") || !strings.Contains(text, "centroid") {
		t.Fatalf("Fig3 text malformed:\n%s", text)
	}
}

func TestFoldStyleComparison(t *testing.T) {
	tech := techno.Default060()
	unfolded, internal, external := FoldStyleComparison(tech, 48e-6, 4)
	if !(internal < external && external < unfolded) {
		t.Fatalf("CDB ordering wrong: internal %.3g, external %.3g, unfolded %.3g",
			internal, external, unfolded)
	}
	// Internal-drain folding halves the capacitance (F = 1/2 + sidewall).
	ratio := internal / unfolded
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("internal/unfolded CDB ratio %.2f, want ≈ 0.5", ratio)
	}
}

var (
	t1Once  sync.Once
	t1Cases []Table1Case
	t1Err   error
)

func table1Cases(t *testing.T) []Table1Case {
	t.Helper()
	t1Once.Do(func() {
		t1Cases, t1Err = Table1(techno.Default060(), sizing.Default65MHz(), core.Options{})
	})
	if t1Err != nil {
		t.Fatal(t1Err)
	}
	return t1Cases
}

func TestTable1AllShapeChecksHold(t *testing.T) {
	cases := table1Cases(t)
	if bad := Table1ShapeChecks(cases, sizing.Default65MHz()); len(bad) > 0 {
		t.Fatalf("qualitative shape violations:\n  %s", strings.Join(bad, "\n  "))
	}
}

func TestTable1TextComplete(t *testing.T) {
	cases := table1Cases(t)
	s := Table1Text(cases, sizing.Default65MHz())
	for _, want := range []string{"Case 1", "Case 4", "DC gain", "GBW", "Power", "layout calls"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 text missing %q", want)
		}
	}
}

func TestFig5LayoutGenerated(t *testing.T) {
	res, err := Fig5(techno.Default060(), sizing.Default65MHz())
	if err != nil {
		t.Fatal(err)
	}
	par := res.Layout.Parasitics
	// The figure is the layout the loop converged on, not a second plan
	// of the converged design.
	if par.LayoutCalls != res.LayoutCalls {
		t.Fatalf("Fig. 5 layout is not the run's converged layout: its report counts %d layout calls, the run made %d",
			par.LayoutCalls, res.LayoutCalls)
	}
	if par.AreaUM2 < 1000 || par.AreaUM2 > 1e6 {
		t.Fatalf("OTA area %.0f µm² implausible", par.AreaUM2)
	}
	// Frequency-critical transistors fold with even counts (drains
	// internal), the paper's stated layout style.
	for _, inst := range []string{"MN2C", "MP4C"} {
		nf := par.Folds[inst].Folds
		if nf > 1 && nf%2 != 0 {
			t.Fatalf("%s folded %d times — signal drains must use even counts", inst, nf)
		}
	}
	var buf strings.Builder
	if err := cairo.WriteSVG(&buf, res.Layout.Cell); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("SVG malformed")
	}
	txt := Fig5Text(res)
	if !strings.Contains(txt, "folds") {
		t.Fatalf("Fig5 text malformed:\n%s", txt)
	}
}

func TestTable1HeaderEchoesSpec(t *testing.T) {
	h := Table1Header(sizing.Default65MHz())
	for _, want := range []string{"3.3 V", "65 MHz", "3 pF", "[0.51, 2.31]"} {
		if !strings.Contains(h, want) {
			t.Fatalf("header missing %q: %s", want, h)
		}
	}
}

func TestEvalAblation(t *testing.T) {
	abl, err := RunEvalAblation(techno.Default060(), sizing.Default65MHz())
	if err != nil {
		t.Fatal(err)
	}
	// The simulated evaluation must predict the extracted PM far better
	// than closed-form pole counting (which is pessimistic: it misses
	// the mirror pole-zero doublet).
	errSim := math.Abs(abl.PMSimulated - abl.PMExtracted)
	errAna := math.Abs(abl.PMAnalytic - abl.PMExtracted)
	if errSim > 2 {
		t.Fatalf("simulated PM off by %.1f°", errSim)
	}
	if errAna < errSim {
		t.Fatalf("pole counting (%.1f° err) should not beat simulation (%.1f° err)",
			errAna, errSim)
	}
}
