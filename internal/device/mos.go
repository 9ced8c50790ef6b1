// Package device implements the MOS transistor model shared by the sizing
// tool and the circuit simulator.
//
// The DC core is an EKV-flavoured single-equation model: continuous from
// weak through strong inversion and from triode through saturation, with
// body effect, channel-length modulation (constant Early voltage per unit
// length) and first-order mobility degradation. Sharing one continuous
// model between synthesis and verification is exactly the accuracy argument
// the paper makes for COMDIAC ("Accuracy with respect to simulation is
// greatly improved by using the same transistor models").
//
// Capacitances follow the classical Meyer partition for the intrinsic gate
// capacitance plus constant overlaps, and bias-dependent junction
// capacitances evaluated on the *actual* source/drain diffusion geometry
// (area and perimeter), which is where transistor folding enters the
// electrical picture.
//
// Conventions: all equations are written for NMOS with voltages referenced
// to bulk; PMOS is handled by mirroring every terminal voltage and the
// resulting current. Drain/source are interchangeable (the model is
// symmetric); Eval reports currents with the usual sign convention
// (positive current flows into the drain terminal of an NMOS).
package device

import (
	"fmt"
	"math"

	"loas/internal/techno"
)

// Region labels the operating region for reporting purposes; the underlying
// equations are continuous and do not branch on it.
type Region int

// Operating regions.
const (
	RegionOff Region = iota
	RegionWeak
	RegionTriode
	RegionSaturation
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionOff:
		return "off"
	case RegionWeak:
		return "weak"
	case RegionTriode:
		return "triode"
	case RegionSaturation:
		return "saturation"
	}
	return fmt.Sprintf("region(%d)", int(r))
}

// DiffGeom is the source/drain diffusion geometry of a (possibly folded)
// transistor: junction areas (m²) and perimeters (m). The perimeter
// convention matches SPICE: gate-side edges are excluded.
type DiffGeom struct {
	AD, PD float64 // drain area, perimeter
	AS, PS float64 // source area, perimeter
}

// MOS is a sized transistor instance bound to a model card.
type MOS struct {
	Card *techno.MOSCard
	W    float64 // total drawn gate width (m)
	L    float64 // drawn gate length (m)
	Geom DiffGeom
	// Mult is the device multiplier (parallel copies); 0 is treated as 1.
	Mult int
}

// M returns the effective multiplier.
func (m *MOS) M() float64 {
	if m.Mult <= 0 {
		return 1
	}
	return float64(m.Mult)
}

// Leff returns the effective channel length.
func (m *MOS) Leff() float64 {
	l := m.L - 2*m.Card.LD
	if l < 1e-9 {
		l = 1e-9
	}
	return l
}

// OP is a bias-point evaluation of a transistor.
type OP struct {
	ID  float64 // drain current (A); NMOS: into drain, PMOS: out of drain
	VGS float64 // with device-type sign (PMOS values are negative)
	VDS float64
	VBS float64

	Gm  float64 // ∂ID/∂VGS (S), always ≥ 0
	Gds float64 // ∂ID/∂VDS (S), always ≥ 0
	Gmb float64 // ∂ID/∂VBS (S), always ≥ 0

	VTH    float64 // threshold incl. body effect (magnitude, V)
	Veff   float64 // effective gate overdrive |VGS|−VTH (V, may be < 0)
	VdsSat float64 // saturation voltage estimate (V, magnitude)
	Region Region

	Swapped bool // true if drain and source were exchanged internally
}

const (
	// dv is the step for numerical derivatives. The model is smooth, so
	// central differences at 1 µV give ~9 significant digits.
	dv = 1e-6
)

// softPlus is a smooth max(x,0): 0.5*(x+sqrt(x²+eps)).
func softPlus(x, eps float64) float64 {
	return 0.5 * (x + math.Sqrt(x*x+eps))
}

// lnOnePlusExp computes ln(1+e^x) without overflow.
func lnOnePlusExp(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// pinchOff returns the EKV pinch-off voltage VP and slope factor n for a
// gate-bulk voltage vgb (NMOS convention).
func pinchOff(c *techno.MOSCard, vgb float64) (vp, n float64) {
	// vgp is the "effective" gate voltage; clamped smoothly at 0 so the
	// model stays defined (and smooth) deep in accumulation.
	vgp := vgb - c.VT0 + c.Phi + c.Gamma*math.Sqrt(c.Phi)
	vgp = softPlus(vgp, 1e-6)
	half := c.Gamma / 2
	vp = vgp - c.Phi - c.Gamma*(math.Sqrt(vgp+half*half)-half)
	n = 1 + c.Gamma/(2*math.Sqrt(vp+c.Phi+1e-3))
	return vp, n
}

// idsCore evaluates the raw drain current for NMOS-convention bulk-referred
// terminal voltages. vt is the thermal voltage.
func (m *MOS) idsCore(vgb, vdb, vsb, vt float64) float64 {
	vp, n := pinchOff(m.Card, vgb)
	return m.idsFrom(n, vdb, vsb, lnHalf(vp, vsb, vt), lnHalf(vp, vdb, vt), vt)
}

// lnHalf is one of idsCore's two EKV inversion terms, ln(1+e^((vp−vxb)/2vt)),
// for the terminal at bulk-referred voltage vxb: the source gives the
// forward term, the drain the reverse one. Each depends on one terminal
// only, which is what lets EvalIDStencil share them between probes.
func lnHalf(vp, vxb, vt float64) float64 {
	return lnOnePlusExp((vp - vxb) / (2 * vt))
}

// idsFrom is idsCore after the pinch-off and the two lnHalf terms: lf is the
// forward (source) term, lr the reverse (drain) term.
func (m *MOS) idsFrom(n, vdb, vsb, lf, lr, vt float64) float64 {
	c := m.Card
	iff := lf * lf
	irr := lr * lr

	beta := c.KP * m.W * m.M() / m.Leff()
	// Mobility degradation keyed on the forward inversion voltage, the
	// continuous analogue of Veff = VGS − VTH.
	veff := 2 * vt * lf
	beta /= 1 + c.Theta*veff

	id := 2 * n * beta * vt * vt * (iff - irr)

	// Channel-length modulation as a constant Early voltage per unit
	// length, applied to the magnitude so the model stays symmetric.
	va := c.VAL * m.Leff()
	id *= 1 + math.Abs(vdb-vsb)/va
	return id
}

// bulkRef mirrors PMOS terminal voltages into NMOS convention, references
// them to bulk and orders drain above source (the model is symmetric),
// reporting whether drain and source were exchanged.
func (m *MOS) bulkRef(vg, vd, vs, vb float64) (vgb, vdb, vsb float64, swapped bool) {
	sign := m.Card.VTSign()
	vgb = sign * (vg - vb)
	vdb = sign * (vd - vb)
	vsb = sign * (vs - vb)
	if vdb < vsb {
		vdb, vsb = vsb, vdb
		swapped = true
	}
	return vgb, vdb, vsb, swapped
}

// thresholdAt is the threshold voltage including body effect at
// source-bulk bias vsb (NMOS convention).
func thresholdAt(c *techno.MOSCard, vsb float64) float64 {
	return c.VT0 + c.Gamma*(math.Sqrt(softPlus(c.Phi+vsb, 1e-9))-math.Sqrt(c.Phi))
}

// Eval computes the operating point for terminal voltages given against an
// arbitrary common reference (usually ground). Works for both NMOS and
// PMOS; PMOS voltages are internally mirrored.
func (m *MOS) Eval(vg, vd, vs, vb, temp float64) OP {
	c := m.Card
	vt := techno.ThermalVoltage(temp)
	sign := c.VTSign()
	vgb, vdb, vsb, swapped := m.bulkRef(vg, vd, vs, vb)

	id := m.idsCore(vgb, vdb, vsb, vt)

	// Numerical conductances (central differences). The model is smooth
	// by construction, making this both simple and dependable.
	gm := (m.idsCore(vgb+dv, vdb, vsb, vt) - m.idsCore(vgb-dv, vdb, vsb, vt)) / (2 * dv)
	gds := (m.idsCore(vgb, vdb+dv, vsb, vt) - m.idsCore(vgb, vdb-dv, vsb, vt)) / (2 * dv)
	// gmb = ∂ID/∂VB with gate, drain, source fixed: raising the bulk by dv
	// lowers vgb, vdb and vsb together by dv (NMOS convention), which
	// reduces the reverse body bias and raises the current.
	idUp := m.idsCore(vgb-dv, vdb-dv, vsb-dv, vt)
	idDn := m.idsCore(vgb+dv, vdb+dv, vsb+dv, vt)
	gmb := (idUp - idDn) / (2 * dv)
	if gmb < 0 {
		gmb = 0
	}

	vp, n := pinchOff(c, vgb)
	vthEff := thresholdAt(c, vsb)
	veff := vgb - vsb - vthEff
	vdsat := 2*vt*lnHalf(vp, vsb, vt) + 4*vt

	region := RegionSaturation
	vds := vdb - vsb
	switch {
	case veff < -6*n*vt:
		region = RegionOff
	case veff < 2*n*vt:
		region = RegionWeak
	case vds < vdsat:
		region = RegionTriode
	}

	op := OP{
		ID:      sign * id,
		VGS:     vg - vs,
		VDS:     vd - vs,
		VBS:     vb - vs,
		Gm:      math.Abs(gm),
		Gds:     math.Abs(gds),
		Gmb:     gmb,
		VTH:     vthEff,
		Veff:    veff,
		VdsSat:  vdsat,
		Region:  region,
		Swapped: swapped,
	}
	if swapped {
		// Current direction flips when the channel conducts backwards.
		op.ID = -op.ID
	}
	return op
}

// EvalID computes only the drain current of Eval — the identical
// arithmetic path (sign mirroring, drain/source swap, idsCore) without
// the six extra idsCore calls that back the numerical conductances.
// Keeping the code path shared with Eval is what makes the result
// bit-identical by construction. It is the reference EvalIDStencil is
// tested against.
func (m *MOS) EvalID(vg, vd, vs, vb, temp float64) float64 {
	sign := m.Card.VTSign()
	vgb, vdb, vsb, swapped := m.bulkRef(vg, vd, vs, vb)

	id := sign * m.idsCore(vgb, vdb, vsb, techno.ThermalVoltage(temp))
	if swapped {
		id = -id
	}
	return id
}

// IDStencil holds EvalID at a base point and with each terminal moved up
// (…Up) and down (…Dn) by one step.
type IDStencil struct {
	Base                                   float64
	DUp, DDn, GUp, GDn, SUp, SDn, BUp, BDn float64
}

// Probes selects the terminals whose ±h probes EvalIDStencil computes,
// one bit per terminal.
type Probes uint8

// The terminals' probe bits.
const (
	ProbeD Probes = 1 << iota
	ProbeG
	ProbeS
	ProbeB
	ProbeAll = ProbeD | ProbeG | ProbeS | ProbeB
)

// EvalIDStencil returns EvalID at the points a central-difference
// Jacobian needs: the base point (vg, vd, vs, vb) and each terminal in
// probes moved by ±h. A terminal outside probes keeps zero in both of
// its probe fields: a simulator leaves out the probes of a grounded
// terminal, whose partial it never stamps. Every value computed is
// bit-identical to the EvalID call at that point, because each is
// assembled from idsCore's own pieces — pinchOff, the two lnHalf terms
// and idsFrom — fed the same operands. The drain and source probes
// leave vgb unchanged, so they reuse the base point's pinch-off, and
// each keeps the lnHalf of the terminal it does not move: 5 of 9
// pinchOff and 14 of 18 lnHalf evaluations for all four terminals. An
// lnHalf depends on one terminal only, so a probe that swaps drain and
// source (vd crossing vs) merely exchanges which term is forward and
// needs no fallback.
func (m *MOS) EvalIDStencil(vg, vd, vs, vb, h, temp float64, probes Probes) (st IDStencil) {
	c := m.Card
	vt := techno.ThermalVoltage(temp)
	sign := c.VTSign()
	// at finishes one point from its pinch-off slope and its unswapped
	// bulk-referred drain and source voltages with their lnHalf terms,
	// exactly as EvalID's swap, idsCore and sign handling would.
	at := func(n, vdb, vsb, ld, ls float64) float64 {
		if vdb < vsb {
			return -(sign * m.idsFrom(n, vsb, vdb, ld, ls, vt))
		}
		return sign * m.idsFrom(n, vdb, vsb, ls, ld, vt)
	}
	// full evaluates a point whose gate-bulk voltage differs from the
	// base point's.
	full := func(vgb, vdb, vsb float64) float64 {
		vp, n := pinchOff(c, vgb)
		return at(n, vdb, vsb, lnHalf(vp, vdb, vt), lnHalf(vp, vsb, vt))
	}

	vgb := sign * (vg - vb)
	vdb := sign * (vd - vb)
	vsb := sign * (vs - vb)
	vp, n := pinchOff(c, vgb)
	ld, ls := lnHalf(vp, vdb, vt), lnHalf(vp, vsb, vt)
	st.Base = at(n, vdb, vsb, ld, ls)

	if probes&ProbeD != 0 {
		vdUp, vdDn := sign*((vd+h)-vb), sign*((vd-h)-vb)
		st.DUp = at(n, vdUp, vsb, lnHalf(vp, vdUp, vt), ls)
		st.DDn = at(n, vdDn, vsb, lnHalf(vp, vdDn, vt), ls)
	}
	if probes&ProbeS != 0 {
		vsUp, vsDn := sign*((vs+h)-vb), sign*((vs-h)-vb)
		st.SUp = at(n, vdb, vsUp, ld, lnHalf(vp, vsUp, vt))
		st.SDn = at(n, vdb, vsDn, ld, lnHalf(vp, vsDn, vt))
	}
	if probes&ProbeG != 0 {
		st.GUp = full(sign*((vg+h)-vb), vdb, vsb)
		st.GDn = full(sign*((vg-h)-vb), vdb, vsb)
	}
	if probes&ProbeB != 0 {
		bUp, bDn := vb+h, vb-h
		st.BUp = full(sign*(vg-bUp), sign*(vd-bUp), sign*(vs-bUp))
		st.BDn = full(sign*(vg-bDn), sign*(vd-bDn), sign*(vs-bDn))
	}
	return st
}

// IDSat returns the drain current in saturation for a given overdrive,
// solving nothing: it evaluates the model at VDS = Veff + 5·n·vt, VBS as
// given. Used by the sizing tool to stay on the exact simulator model.
func (m *MOS) IDSat(veff, vsb, temp float64) float64 {
	vt := techno.ThermalVoltage(temp)
	vgb := veff + thresholdAt(m.Card, vsb) + vsb
	vdb := vsb + veff + 8*vt // comfortably saturated
	if veff < 0.1 {
		vdb = vsb + 0.1 + 8*vt
	}
	return m.idsCore(vgb, vdb, vsb, vt)
}

// GmAt returns gm at the same synthetic saturation bias used by IDSat.
func (m *MOS) GmAt(veff, vsb, temp float64) float64 {
	vt := techno.ThermalVoltage(temp)
	vgb := veff + thresholdAt(m.Card, vsb) + vsb
	vdb := vsb + veff + 8*vt
	if veff < 0.1 {
		vdb = vsb + 0.1 + 8*vt
	}
	return (m.idsCore(vgb+dv, vdb, vsb, vt) - m.idsCore(vgb-dv, vdb, vsb, vt)) / (2 * dv)
}

// SizeForCurrent returns the gate width that carries current id in
// saturation at overdrive veff and source-bulk bias vsb, by monotonic
// bisection on the exact model. Returns an error when the target is
// unreachable within [wmin, wmax].
func SizeForCurrent(card *techno.MOSCard, l, veff, vsb, id, temp, wmin, wmax float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	probe := func(w float64) float64 {
		m := MOS{Card: card, W: w, L: l}
		return m.IDSat(veff, vsb, temp) - id
	}
	lo, hi := wmin, wmax
	flo, fhi := probe(lo), probe(hi)
	if flo > 0 {
		return lo, nil // already above target at minimum width: clamp
	}
	if fhi < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for ID=%g A at Veff=%g V (max %g A)",
			hi, id, veff, fhi+id)
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// SizeForGm returns the gate width giving transconductance gm in
// saturation at overdrive veff and source-bulk bias vsb, by bisection on
// the exact model (gm is monotone in W at fixed bias).
func SizeForGm(card *techno.MOSCard, l, veff, vsb, gm, temp, wmin, wmax float64) (float64, error) {
	if gm <= 0 {
		return 0, fmt.Errorf("device: target gm must be positive, got %g", gm)
	}
	probe := func(w float64) float64 {
		m := MOS{Card: card, W: w, L: l}
		return m.GmAt(veff, vsb, temp) - gm
	}
	lo, hi := wmin, wmax
	if probe(lo) > 0 {
		return lo, nil
	}
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for gm=%g S at Veff=%g V", hi, gm, veff)
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// VGSForCurrent returns the gate-source voltage (NMOS convention; PMOS
// callers mirror) that makes the device carry id at the given
// drain-source voltage, by bisection on the exact model. vsb is the
// source-bulk reverse bias.
func (m *MOS) VGSForCurrent(id, vds, vsb, temp float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	vt := techno.ThermalVoltage(temp)
	probe := func(vgs float64) float64 {
		vgb := vgs + vsb
		vdb := vsb + vds
		return m.idsCore(vgb, vdb, vsb, vt) - id
	}
	lo, hi := -0.5, 5.0
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: cannot reach ID=%g A with VGS ≤ %g V (W=%g L=%g)", id, hi, m.W, m.L)
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}
