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

// model is the drain-current model of one device at one temperature,
// with the factors no terminal voltage moves computed once: KP·W·M/Leff,
// the Early voltage VAL·Leff, γ·√φ and (γ/2)². A call that evaluates
// several bias points builds one. Each factor keeps the operands, and
// their order, that it has in the per-point formula, and amd64 does not
// fuse the operations, so the shared value is the one every point would
// compute for itself.
type model struct {
	c                      *techno.MOSCard
	vt                     float64 // thermal voltage
	beta0                  float64 // KP·W·M/Leff, before mobility degradation
	va                     float64 // VAL·Leff
	gammaSqrtPhi, half, hh float64 // γ·√φ, γ/2 and (γ/2)²
}

// model returns m's model at thermal voltage vt.
func (m *MOS) model(vt float64) model {
	c := m.Card
	half := c.Gamma / 2
	return model{
		c: c, vt: vt,
		beta0:        m.beta0(),
		va:           c.VAL * m.Leff(),
		gammaSqrtPhi: c.Gamma * math.Sqrt(c.Phi),
		half:         half, hh: half * half,
	}
}

// beta0 is the current factor KP·W·M/Leff, before mobility degradation.
func (m *MOS) beta0() float64 { return m.Card.KP * m.W * m.M() / m.Leff() }

// pinchOff returns the EKV pinch-off voltage VP and slope factor n for a
// gate-bulk voltage vgb (NMOS convention).
func (k *model) pinchOff(vgb float64) (vp, n float64) {
	c := k.c
	// vgp is the "effective" gate voltage; clamped smoothly at 0 so the
	// model stays defined (and smooth) deep in accumulation.
	vgp := vgb - c.VT0 + c.Phi + k.gammaSqrtPhi
	vgp = softPlus(vgp, 1e-6)
	vp = vgp - c.Phi - c.Gamma*(math.Sqrt(vgp+k.hh)-k.half)
	n = 1 + c.Gamma/(2*math.Sqrt(vp+c.Phi+1e-3))
	return vp, n
}

// idsCore evaluates the raw drain current for NMOS-convention bulk-referred
// terminal voltages.
func (k *model) idsCore(vgb, vdb, vsb float64) float64 {
	vp, n := k.pinchOff(vgb)
	return k.idsFrom(n, vdb, vsb, k.lnHalf(vp, vsb), k.lnHalf(vp, vdb))
}

// lnHalf is one of idsCore's two EKV inversion terms, ln(1+e^((vp−vxb)/2vt)),
// for the terminal at bulk-referred voltage vxb: the source gives the
// forward term, the drain the reverse one. Each depends on one terminal
// only, which is what lets EvalIDStencil share them between probes.
func (k *model) lnHalf(vp, vxb float64) float64 {
	return lnOnePlusExp((vp - vxb) / (2 * k.vt))
}

// idsFrom is idsCore after the pinch-off and the two lnHalf terms: lf is the
// forward (source) term, lr the reverse (drain) term. Only it reads the
// device's size, through beta0 and va.
func (k *model) idsFrom(n, vdb, vsb, lf, lr float64) float64 {
	c := k.c
	vt := k.vt
	iff := lf * lf
	irr := lr * lr

	// Mobility degradation keyed on the forward inversion voltage, the
	// continuous analogue of Veff = VGS − VTH.
	veff := 2 * vt * lf
	beta := k.beta0 / (1 + c.Theta*veff)

	id := 2 * n * beta * vt * vt * (iff - irr)

	// Channel-length modulation as a constant Early voltage per unit
	// length, applied to the magnitude so the model stays symmetric.
	id *= 1 + math.Abs(vdb-vsb)/k.va
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
	k := m.model(vt)
	sign := c.VTSign()
	vgb, vdb, vsb, swapped := m.bulkRef(vg, vd, vs, vb)

	id := k.idsCore(vgb, vdb, vsb)

	// Numerical conductances (central differences). The model is smooth
	// by construction, making this both simple and dependable.
	gm := (k.idsCore(vgb+dv, vdb, vsb) - k.idsCore(vgb-dv, vdb, vsb)) / (2 * dv)
	gds := (k.idsCore(vgb, vdb+dv, vsb) - k.idsCore(vgb, vdb-dv, vsb)) / (2 * dv)
	// gmb = ∂ID/∂VB with gate, drain, source fixed: raising the bulk by dv
	// lowers vgb, vdb and vsb together by dv (NMOS convention), which
	// reduces the reverse body bias and raises the current.
	idUp := k.idsCore(vgb-dv, vdb-dv, vsb-dv)
	idDn := k.idsCore(vgb+dv, vdb+dv, vsb+dv)
	gmb := (idUp - idDn) / (2 * dv)
	if gmb < 0 {
		gmb = 0
	}

	vp, n := k.pinchOff(vgb)
	vthEff := thresholdAt(c, vsb)
	veff := vgb - vsb - vthEff
	vdsat := 2*vt*k.lnHalf(vp, vsb) + 4*vt

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

	k := m.model(techno.ThermalVoltage(temp))
	id := sign * k.idsCore(vgb, vdb, vsb)
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
	k := m.model(techno.ThermalVoltage(temp))
	sign := m.Card.VTSign()
	// at finishes one point from its pinch-off slope and its unswapped
	// bulk-referred drain and source voltages with their lnHalf terms,
	// exactly as EvalID's swap, idsCore and sign handling would.
	at := func(n, vdb, vsb, ld, ls float64) float64 {
		if vdb < vsb {
			return -(sign * k.idsFrom(n, vsb, vdb, ld, ls))
		}
		return sign * k.idsFrom(n, vdb, vsb, ls, ld)
	}
	// full evaluates a point whose gate-bulk voltage differs from the
	// base point's.
	full := func(vgb, vdb, vsb float64) float64 {
		vp, n := k.pinchOff(vgb)
		return at(n, vdb, vsb, k.lnHalf(vp, vdb), k.lnHalf(vp, vsb))
	}

	vgb := sign * (vg - vb)
	vdb := sign * (vd - vb)
	vsb := sign * (vs - vb)
	vp, n := k.pinchOff(vgb)
	ld, ls := k.lnHalf(vp, vdb), k.lnHalf(vp, vsb)
	st.Base = at(n, vdb, vsb, ld, ls)

	if probes&ProbeD != 0 {
		vdUp, vdDn := sign*((vd+h)-vb), sign*((vd-h)-vb)
		st.DUp = at(n, vdUp, vsb, k.lnHalf(vp, vdUp), ls)
		st.DDn = at(n, vdDn, vsb, k.lnHalf(vp, vdDn), ls)
	}
	if probes&ProbeS != 0 {
		vsUp, vsDn := sign*((vs+h)-vb), sign*((vs-h)-vb)
		st.SUp = at(n, vdb, vsUp, ld, k.lnHalf(vp, vsUp))
		st.SDn = at(n, vdb, vsDn, ld, k.lnHalf(vp, vsDn))
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

// satPoint is IDSat's bias point at overdrive veff and source-bulk bias
// vsb: the gate-bulk and drain-bulk voltages (NMOS convention).
func satPoint(c *techno.MOSCard, veff, vsb, vt float64) (vgb, vdb float64) {
	vgb = veff + thresholdAt(c, vsb) + vsb
	vdb = vsb + veff + 8*vt // comfortably saturated
	if veff < 0.1 {
		vdb = vsb + 0.1 + 8*vt
	}
	return vgb, vdb
}

// IDSat returns the drain current in saturation for a given overdrive,
// solving nothing: it evaluates the model at VDS = Veff + 5·n·vt, VBS as
// given. Used by the sizing tool to stay on the exact simulator model.
func (m *MOS) IDSat(veff, vsb, temp float64) float64 {
	vt := techno.ThermalVoltage(temp)
	k := m.model(vt)
	vgb, vdb := satPoint(m.Card, veff, vsb, vt)
	return k.idsCore(vgb, vdb, vsb)
}

// GmAt returns gm at the same synthetic saturation bias used by IDSat.
func (m *MOS) GmAt(veff, vsb, temp float64) float64 {
	vt := techno.ThermalVoltage(temp)
	k := m.model(vt)
	vgb, vdb := satPoint(m.Card, veff, vsb, vt)
	return (k.idsCore(vgb+dv, vdb, vsb) - k.idsCore(vgb-dv, vdb, vsb)) / (2 * dv)
}

// widthProbe is idsCore at fixed bulk-referred voltages on a device of
// one card and length, for any gate width: everything but the current
// factor KP·W·M/Leff is computed when the probe is built, so a sizing
// bisection's probes each run only idsFrom.
type widthProbe struct {
	dev       MOS
	k         model
	vdb, vsb  float64
	n, lf, lr float64
}

func newWidthProbe(c *techno.MOSCard, l, vt, vgb, vdb, vsb float64) widthProbe {
	p := widthProbe{dev: MOS{Card: c, L: l}, vdb: vdb, vsb: vsb}
	p.k = p.dev.model(vt)
	vp, n := p.k.pinchOff(vgb)
	p.n, p.lf, p.lr = n, p.k.lnHalf(vp, vsb), p.k.lnHalf(vp, vdb)
	return p
}

// ids is idsCore for gate width w, bit for bit.
func (p *widthProbe) ids(w float64) float64 {
	p.dev.W = w
	p.k.beta0 = p.dev.beta0()
	return p.k.idsFrom(p.n, p.vdb, p.vsb, p.lf, p.lr)
}

// bisect narrows the bracket [lo, hi] of probe's sign change, probe(lo) <
// 0 ≤ probe(hi), by up to 80 halvings and returns its midpoint. Once the
// midpoint rounds to lo or hi, the bracket can shrink no further: a step
// would leave it as it is or collapse it onto that midpoint, and either
// way every later step, and the result, is that midpoint. So the search
// returns it there, without probing it or running the rest of the 80
// steps.
func bisect(lo, hi float64, probe func(float64) float64) float64 {
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			return mid
		}
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// SizeForCurrent returns the gate width that carries current id in
// saturation at overdrive veff and source-bulk bias vsb, by monotonic
// bisection on the exact model: each probe is IDSat bit for bit. Returns
// an error when the target is unreachable within [wmin, wmax].
func SizeForCurrent(card *techno.MOSCard, l, veff, vsb, id, temp, wmin, wmax float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	vt := techno.ThermalVoltage(temp)
	vgb, vdb := satPoint(card, veff, vsb, vt)
	at := newWidthProbe(card, l, vt, vgb, vdb, vsb)
	probe := func(w float64) float64 { return at.ids(w) - id }
	lo, hi := wmin, wmax
	flo, fhi := probe(lo), probe(hi)
	if flo > 0 {
		return lo, nil // already above target at minimum width: clamp
	}
	if fhi < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for ID=%g A at Veff=%g V (max %g A)",
			hi, id, veff, fhi+id)
	}
	return bisect(lo, hi, probe), nil
}

// SizeForGm returns the gate width giving transconductance gm in
// saturation at overdrive veff and source-bulk bias vsb, by bisection on
// the exact model (gm is monotone in W at fixed bias): each probe is
// GmAt bit for bit.
func SizeForGm(card *techno.MOSCard, l, veff, vsb, gm, temp, wmin, wmax float64) (float64, error) {
	if gm <= 0 {
		return 0, fmt.Errorf("device: target gm must be positive, got %g", gm)
	}
	vt := techno.ThermalVoltage(temp)
	vgb, vdb := satPoint(card, veff, vsb, vt)
	up := newWidthProbe(card, l, vt, vgb+dv, vdb, vsb)
	dn := newWidthProbe(card, l, vt, vgb-dv, vdb, vsb)
	probe := func(w float64) float64 { return (up.ids(w)-dn.ids(w))/(2*dv) - gm }
	lo, hi := wmin, wmax
	if probe(lo) > 0 {
		return lo, nil
	}
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for gm=%g S at Veff=%g V", hi, gm, veff)
	}
	return bisect(lo, hi, probe), nil
}

// VGSForCurrent returns the gate-source voltage (NMOS convention; PMOS
// callers mirror) that makes the device carry id at the given
// drain-source voltage, by bisection on the exact model. vsb is the
// source-bulk reverse bias.
func (m *MOS) VGSForCurrent(id, vds, vsb, temp float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	k := m.model(techno.ThermalVoltage(temp))
	probe := func(vgs float64) float64 {
		vgb := vgs + vsb
		vdb := vsb + vds
		return k.idsCore(vgb, vdb, vsb) - id
	}
	lo, hi := -0.5, 5.0
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: cannot reach ID=%g A with VGS ≤ %g V (W=%g L=%g)", id, hi, m.W, m.L)
	}
	return bisect(lo, hi, probe), nil
}
