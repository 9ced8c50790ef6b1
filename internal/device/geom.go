package device

import (
	"fmt"

	"loas/internal/techno"
)

// DiffNet says which diffusion net occupies the *internal* (shared) strips
// of a folded transistor. The paper's frequency-oriented layout style makes
// the drain internal whenever the fold count is even, minimizing the
// drain-bulk capacitance on the signal net (F = 1/2).
type DiffNet int

// Diffusion style choices.
const (
	// DrainInternal: fingers are ordered S-G-D-G-S-…; with an even fold
	// count every drain strip is shared between two gates.
	DrainInternal DiffNet = iota
	// SourceInternal: fingers are ordered D-G-S-G-D-…; the drain sits on
	// the stack ends.
	SourceInternal
)

// String implements fmt.Stringer.
func (d DiffNet) String() string {
	if d == DrainInternal {
		return "drain-internal"
	}
	return "source-internal"
}

// FFactor returns the capacitance reduction factor F of the paper's Fig. 2
// for the *interior-preferred* net (fd) and the complementary net (fs) of a
// transistor folded nf times with the given style. W_eff = F·W, so the
// diffusion bottom area on a net is F·W·E with E the strip extension.
//
//	nf even, net internal:   F = 1/2
//	nf even, net external:   F = (nf+2)/(2nf)
//	nf odd (either net):     F = (nf+1)/(2nf)   (nf = 1 → F = 1)
func FFactor(nf int, style DiffNet) (fd, fs float64) {
	if nf < 1 {
		nf = 1
	}
	n := float64(nf)
	var fInt, fExt float64
	if nf%2 == 0 {
		fInt = 0.5
		fExt = (n + 2) / (2 * n)
	} else {
		fInt = (n + 1) / (2 * n)
		fExt = fInt
	}
	if style == DrainInternal {
		return fInt, fExt
	}
	return fExt, fInt
}

// FoldPlan describes how a transistor is folded in the layout, with enough
// information to recompute its junction parasitics exactly. This is part
// of what the layout tool returns to the sizing tool in
// parasitic-calculation mode.
type FoldPlan struct {
	Folds        int     // number of gate fingers (≥ 1)
	FingerW      float64 // drawn width of one finger (m), grid-snapped
	Style        DiffNet
	DrainStrips  int // total drain diffusion strips
	DrainExt     int // of which on the stack ends
	SourceStrips int
	SourceExt    int
}

// TotalW returns the folded transistor's realized total width, which may
// differ from the requested width by grid snapping (the effect behind the
// small offset voltage the paper observes in case 2).
func (p FoldPlan) TotalW() float64 { return float64(p.Folds) * p.FingerW }

// PlanFolds builds a FoldPlan for total width w folded nf times with the
// requested style, snapping the finger width to the technology grid.
func PlanFolds(rules *techno.Rules, w float64, nf int, style DiffNet) FoldPlan {
	if nf < 1 {
		nf = 1
	}
	fw := techno.NMToMeters(rules.SnapNM(techno.MetersToNM(w / float64(nf))))
	minW := techno.NMToMeters(rules.ActiveWidth)
	if fw < minW {
		fw = minW
	}
	p := FoldPlan{Folds: nf, FingerW: fw, Style: style}
	strips := nf + 1
	if style == DrainInternal {
		if nf%2 == 0 {
			p.DrainStrips, p.DrainExt = nf/2, 0
			p.SourceStrips, p.SourceExt = nf/2+1, 2
		} else {
			p.DrainStrips, p.DrainExt = (nf+1)/2, 1
			p.SourceStrips, p.SourceExt = (nf+1)/2, 1
		}
	} else {
		if nf%2 == 0 {
			p.SourceStrips, p.SourceExt = nf/2, 0
			p.DrainStrips, p.DrainExt = nf/2+1, 2
		} else {
			p.DrainStrips, p.DrainExt = (nf+1)/2, 1
			p.SourceStrips, p.SourceExt = (nf+1)/2, 1
		}
	}
	if p.DrainStrips+p.SourceStrips != strips {
		panic(fmt.Sprintf("device: fold bookkeeping broke: %d+%d != %d",
			p.DrainStrips, p.SourceStrips, strips))
	}
	return p
}

// Geom converts the fold plan to junction areas and perimeters given the
// diffusion strip extensions of the technology. Internal strips expose two
// non-gate edges (their long sides); external strips add one finger-width
// edge. Gate-side edges are excluded per the SPICE convention.
func (p FoldPlan) Geom(tech *techno.Tech) DiffGeom {
	eC := tech.DiffExtContacted
	eS := tech.DiffExtShared
	fw := p.FingerW

	stripArea := func(ext bool) float64 {
		if ext {
			return fw * eC
		}
		return fw * eS
	}
	stripPerim := func(ext bool) float64 {
		if ext {
			return 2*eC + fw
		}
		return 2 * eS
	}

	var g DiffGeom
	dInt := p.DrainStrips - p.DrainExt
	sInt := p.SourceStrips - p.SourceExt
	g.AD = float64(dInt)*stripArea(false) + float64(p.DrainExt)*stripArea(true)
	g.PD = float64(dInt)*stripPerim(false) + float64(p.DrainExt)*stripPerim(true)
	g.AS = float64(sInt)*stripArea(false) + float64(p.SourceExt)*stripArea(true)
	g.PS = float64(sInt)*stripPerim(false) + float64(p.SourceExt)*stripPerim(true)
	return g
}

// OneFoldGeom returns the worst-case unfolded diffusion geometry (the
// paper's case-2 assumption: one fold per transistor, F = 1 on both nets).
func OneFoldGeom(tech *techno.Tech, w float64) DiffGeom {
	e := tech.DiffExtContacted
	return DiffGeom{
		AD: w * e, PD: 2*e + w,
		AS: w * e, PS: 2*e + w,
	}
}
