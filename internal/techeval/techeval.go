// Package techeval is the technology evaluation interface of the sizing
// tool ("a technology evaluation interface allows to easily characterize
// different technologies and helps to choose the most suitable
// technology"): it extracts designer-facing figures of merit from a model
// card — threshold, gm/ID curve, transit frequency, intrinsic gain — and
// renders side-by-side technology comparisons.
package techeval

import (
	"fmt"
	"math"

	"loas/internal/device"
	"loas/internal/techno"
)

// GmIDPoint is one point of the gm/ID design chart.
type GmIDPoint struct {
	VGS     float64 // V
	ID      float64 // A (for the reference geometry)
	GmID    float64 // 1/V
	GmRatio float64 // gm/gds at the same bias
}

// Characteristics summarizes one device type in one technology.
type Characteristics struct {
	Type techno.MOSType
	// VTcc is the constant-current threshold (VGS at ID = 100 nA·W/L).
	VTcc float64
	// GmIDMax is the weak-inversion plateau of gm/ID (≈ 1/(n·vt)).
	GmIDMax float64
	// FTStrong is the transit frequency gm/(2π(Cgs+Cgd)) at Veff = 0.2 V
	// for the reference geometry (L = feature size).
	FTStrong float64
	// A0PerUm is the intrinsic gain gm/gds at Veff = 0.2 V and L = 1 µm.
	A0PerUm float64
	// Curve is the gm/ID chart for the reference geometry.
	Curve []GmIDPoint
}

const refW = 10 * techno.Micron

// Characterize sweeps the reference device and extracts the card's
// figures of merit.
func Characterize(tech *techno.Tech, mt techno.MOSType) *Characteristics {
	c := &Characteristics{Type: mt}

	c.VTcc = ExtractVT(tech, mt, refW, tech.Feature)
	c.Curve = GmIDCurve(tech, mt, refW, tech.Feature, 41)
	for _, p := range c.Curve {
		if p.GmID > c.GmIDMax {
			c.GmIDMax = p.GmID
		}
	}
	c.FTStrong = FT(tech, mt, refW, tech.Feature, 0.2)
	c.A0PerUm = IntrinsicGain(tech, mt, refW, 1*techno.Micron, 0.2)
	return c
}

// ExtractVT returns the constant-current threshold: VGS at
// ID = 100 nA · W/L (the standard production test definition).
func ExtractVT(tech *techno.Tech, mt techno.MOSType, w, l float64) float64 {
	card := tech.Card(mt)
	m := device.MOS{Card: card, W: w, L: l}
	target := 100e-9 * w / l
	vgs, err := m.VGSForCurrent(target, tech.VDDNominal/2, 0, tech.Temp)
	if err != nil {
		return math.NaN()
	}
	return vgs
}

// GmIDCurve sweeps VGS from weak to strong inversion.
func GmIDCurve(tech *techno.Tech, mt techno.MOSType, w, l float64, n int) []GmIDPoint {
	card := tech.Card(mt)
	m := device.MOS{Card: card, W: w, L: l}
	sign := card.VTSign()
	vds := tech.VDDNominal / 2
	out := make([]GmIDPoint, 0, n)
	for i := 0; i < n; i++ {
		vgs := card.VT0 - 0.3 + float64(i)/float64(n-1)*1.3
		op := m.Eval(sign*vgs, sign*vds, 0, 0, tech.Temp)
		id := math.Abs(op.ID)
		if id < 1e-15 {
			continue
		}
		gr := math.Inf(1)
		if op.Gds > 0 {
			gr = op.Gm / op.Gds
		}
		out = append(out, GmIDPoint{VGS: vgs, ID: id, GmID: op.Gm / id, GmRatio: gr})
	}
	return out
}

// FT returns the transit frequency gm/(2π·(Cgs+Cgd)) at the given
// overdrive in saturation.
func FT(tech *techno.Tech, mt techno.MOSType, w, l, veff float64) float64 {
	card := tech.Card(mt)
	m := device.MOS{Card: card, W: w, L: l}
	sign := card.VTSign()
	vgs := card.VT0 + veff
	vds := veff + 0.3
	op := m.Eval(sign*vgs, sign*vds, 0, 0, tech.Temp)
	cs := m.Caps(op, tech.Temp)
	return op.Gm / (2 * math.Pi * (cs.CGS + cs.CGD))
}

// IntrinsicGain returns gm/gds at the given overdrive and length.
func IntrinsicGain(tech *techno.Tech, mt techno.MOSType, w, l, veff float64) float64 {
	card := tech.Card(mt)
	m := device.MOS{Card: card, W: w, L: l}
	sign := card.VTSign()
	vgs := card.VT0 + veff
	vds := tech.VDDNominal / 2
	op := m.Eval(sign*vgs, sign*vds, 0, 0, tech.Temp)
	if op.Gds <= 0 {
		return math.Inf(1)
	}
	return op.Gm / op.Gds
}

// Summary renders the characteristics for a report.
func (c *Characteristics) Summary() string {
	return fmt.Sprintf("%s: VTcc %.3f V, gm/ID max %.1f 1/V, fT(0.2 V) %.2f GHz, A0(1 µm) %.0f (%.1f dB)",
		c.Type, c.VTcc, c.GmIDMax, c.FTStrong/1e9, c.A0PerUm,
		20*math.Log10(c.A0PerUm))
}
