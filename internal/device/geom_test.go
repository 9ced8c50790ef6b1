package device

import (
	"math"
	"testing"
	"testing/quick"

	"loas/internal/techno"
)

func TestFFactorPaperValues(t *testing.T) {
	// Exact values from the paper's Fig. 2 formulas.
	cases := []struct {
		nf     int
		style  DiffNet
		fd, fs float64
	}{
		{1, DrainInternal, 1.0, 1.0},             // odd: (1+1)/2 = 1
		{2, DrainInternal, 0.5, 1.0},             // even: 1/2 and (2+2)/4
		{3, DrainInternal, 2.0 / 3.0, 2.0 / 3.0}, // odd: 4/6
		{4, DrainInternal, 0.5, 0.75},            // (4+2)/8
		{6, DrainInternal, 0.5, 8.0 / 12.0},
		{2, SourceInternal, 1.0, 0.5},
		{4, SourceInternal, 0.75, 0.5},
	}
	for _, c := range cases {
		fd, fs := FFactor(c.nf, c.style)
		if math.Abs(fd-c.fd) > 1e-12 || math.Abs(fs-c.fs) > 1e-12 {
			t.Errorf("FFactor(%d,%v) = %g,%g want %g,%g", c.nf, c.style, fd, fs, c.fd, c.fs)
		}
	}
}

func TestFFactorBoundsAndMonotone(t *testing.T) {
	// Property: 0.5 ≤ F ≤ 1 always; the internal-net factor never
	// increases as even fold counts grow.
	for nf := 1; nf <= 64; nf++ {
		fd, fs := FFactor(nf, DrainInternal)
		for _, f := range []float64{fd, fs} {
			if f < 0.5-1e-12 || f > 1+1e-12 {
				t.Fatalf("F out of bounds at nf=%d: %g", nf, f)
			}
		}
	}
	prev := 1.0
	for nf := 2; nf <= 64; nf += 2 {
		fd, _ := FFactor(nf, DrainInternal)
		if fd > prev+1e-12 {
			t.Fatalf("internal F increased at nf=%d", nf)
		}
		prev = fd
	}
	// External even factor approaches 1/2 from above.
	_, fs64 := FFactor(64, DrainInternal)
	if fs64 < 0.5 || fs64 > 0.52 {
		t.Fatalf("external F at 64 folds = %g, want ≈ 0.515", fs64)
	}
}

func TestPlanFoldsBookkeeping(t *testing.T) {
	tech := techno.Default060()
	for nf := 1; nf <= 12; nf++ {
		for _, style := range []DiffNet{DrainInternal, SourceInternal} {
			p := PlanFolds(&tech.Rules, 24*um, nf, style)
			if p.DrainStrips+p.SourceStrips != nf+1 {
				t.Fatalf("nf=%d: strips %d+%d != %d", nf, p.DrainStrips, p.SourceStrips, nf+1)
			}
			if p.DrainExt+p.SourceExt != 2 {
				t.Fatalf("nf=%d: a stack always has exactly 2 external strips, got %d",
					nf, p.DrainExt+p.SourceExt)
			}
			if p.FingerW <= 0 {
				t.Fatalf("nf=%d: non-positive finger width", nf)
			}
		}
	}
}

func TestPlanFoldsGridSnap(t *testing.T) {
	tech := techno.Default060()
	p := PlanFolds(&tech.Rules, 10.01*um, 3, DrainInternal)
	fwNM := techno.MetersToNM(p.FingerW)
	if fwNM%tech.Rules.Grid != 0 {
		t.Fatalf("finger width %d nm not on %d nm grid", fwNM, tech.Rules.Grid)
	}
	// Snapping rounds up, so realized total width ≥ requested.
	if p.TotalW() < 10.01*um-1e-12 {
		t.Fatalf("snapped width %g below request", p.TotalW())
	}
}

func TestGeomMatchesFFactor(t *testing.T) {
	// The diffusion areas from the explicit strip bookkeeping must equal
	// F·W·E (the paper's formulation) when contacted and shared strip
	// extensions are equal.
	tech := techno.Default060()
	tech.DiffExtShared = tech.DiffExtContacted
	e := tech.DiffExtContacted
	for nf := 1; nf <= 10; nf++ {
		p := PlanFolds(&tech.Rules, 20*um, nf, DrainInternal)
		g := p.Geom(tech)
		w := p.TotalW()
		fd, fs := FFactor(nf, DrainInternal)
		if rel := math.Abs(g.AD-fd*w*e) / (fd * w * e); rel > 1e-9 {
			t.Fatalf("nf=%d: AD=%g, F·W·E=%g", nf, g.AD, fd*w*e)
		}
		if rel := math.Abs(g.AS-fs*w*e) / (fs * w * e); rel > 1e-9 {
			t.Fatalf("nf=%d: AS=%g, F·W·E=%g", nf, g.AS, fs*w*e)
		}
	}
}

func TestGeomFoldingShrinksDrainCap(t *testing.T) {
	// Folding with drain internal must reduce AD and PD versus one fold.
	tech := techno.Default060()
	one := PlanFolds(&tech.Rules, 40*um, 1, DrainInternal).Geom(tech)
	four := PlanFolds(&tech.Rules, 40*um, 4, DrainInternal).Geom(tech)
	if four.AD >= one.AD {
		t.Fatalf("4-fold AD %g should beat 1-fold %g", four.AD, one.AD)
	}
	if four.PD >= one.PD {
		t.Fatalf("4-fold PD %g should beat 1-fold %g", four.PD, one.PD)
	}
}

func TestOneFoldGeomWorstCase(t *testing.T) {
	tech := techno.Default060()
	w := 25 * um
	g := OneFoldGeom(tech, w)
	if g.AD != g.AS || g.PD != g.PS {
		t.Fatal("unfolded geometry must be symmetric")
	}
	if g.AD != w*tech.DiffExtContacted {
		t.Fatalf("AD = %g, want W·E = %g", g.AD, w*tech.DiffExtContacted)
	}
}

// FoldsForHeight returns the fold count that keeps the finger width at or
// under maxFinger, always at least 1. When evenPreferred is set the count
// is rounded up to even so the preferred net can be fully internal — the
// parasitic control the paper applies to frequency-critical nets.
func FoldsForHeight(w, maxFinger float64, evenPreferred bool) int {
	if maxFinger <= 0 {
		return 1
	}
	nf := int(math.Ceil(w / maxFinger))
	if nf < 1 {
		nf = 1
	}
	if evenPreferred && nf > 1 && nf%2 == 1 {
		nf++
	}
	return nf
}

func TestFoldsForHeight(t *testing.T) {
	if nf := FoldsForHeight(100*um, 20*um, false); nf != 5 {
		t.Fatalf("100/20 = %d folds, want 5", nf)
	}
	if nf := FoldsForHeight(100*um, 20*um, true); nf != 6 {
		t.Fatalf("even-preferred should bump 5 → 6, got %d", nf)
	}
	if nf := FoldsForHeight(5*um, 20*um, true); nf != 1 {
		t.Fatalf("small device stays unfolded, got %d", nf)
	}
	if nf := FoldsForHeight(5*um, 0, true); nf != 1 {
		t.Fatalf("degenerate maxFinger returns 1, got %d", nf)
	}
}

func TestGeomAreasNonNegativeProperty(t *testing.T) {
	tech := techno.Default060()
	f := func(w8 uint8, nf8 uint8, styleBit bool) bool {
		w := (1 + float64(w8)) * 0.5 * um
		nf := 1 + int(nf8)%16
		style := DrainInternal
		if styleBit {
			style = SourceInternal
		}
		g := PlanFolds(&tech.Rules, w, nf, style).Geom(tech)
		return g.AD > 0 && g.AS > 0 && g.PD > 0 && g.PS > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
