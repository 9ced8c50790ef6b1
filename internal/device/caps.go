package device

import (
	"math"

	"loas/internal/techno"
)

// CapSet holds the five terminal capacitances of a MOS transistor at a
// bias point (F). All values are non-negative.
type CapSet struct {
	CGS, CGD, CGB float64
	CDB, CSB      float64
}

// Total returns the sum of all five capacitances (used in sanity checks).
func (c CapSet) Total() float64 { return c.CGS + c.CGD + c.CGB + c.CDB + c.CSB }

// Caps evaluates the terminal capacitances at an operating point. The
// intrinsic gate capacitance uses the classical Meyer partition with a
// smooth inversion blend; junction capacitances use the instance diffusion
// geometry, which is how layout folding feeds back into the electrical
// model.
func (m *MOS) Caps(op OP, temp float64) CapSet {
	return m.capsFrom(op.Veff, op.VDS, op.VBS, op.Swapped, temp)
}

// CapsAt is Caps(Eval(vg, vd, vs, vb, temp), temp), bit for bit, without
// Eval's drain current and conductances: it derives only the four bias
// fields Caps reads (Veff, VDS, VBS, Swapped), by Eval's own arithmetic.
// The transient refreshes every MOS capacitance each step through it.
func (m *MOS) CapsAt(vg, vd, vs, vb, temp float64) CapSet {
	vgb, _, vsb, swapped := m.bulkRef(vg, vd, vs, vb)
	veff := vgb - vsb - thresholdAt(m.Card, vsb)
	return m.capsFrom(veff, vd-vs, vb-vs, swapped, temp)
}

// capsFrom is Caps on the bias fields it reads: OP's Veff, VDS, VBS and
// Swapped.
func (m *MOS) capsFrom(veff, vdsOp, vbs float64, swapped bool, temp float64) CapSet {
	c := m.Card
	mult := m.M()
	coxTot := c.Cox * m.W * m.Leff() * mult

	vt := techno.ThermalVoltage(temp)
	n := 1 + c.Gamma/(2*math.Sqrt(c.Phi))

	// Degree of inversion: 0 deep off → 1 strong inversion; transition
	// width tracks the subthreshold slope.
	sInv := 1 / (1 + math.Exp(-veff/(2*n*vt)))

	// Meyer partition in inversion.
	vgst := softPlus(veff, 1e-6)
	vds := math.Abs(vdsOp)
	if vds > vgst {
		vds = vgst // saturation clamp
	}
	den := 2*vgst - vds
	var cgsI, cgdI float64
	if den > 1e-12 {
		a := (vgst - vds) / den
		b := vgst / den
		cgsI = (2.0 / 3.0) * coxTot * (1 - a*a)
		cgdI = (2.0 / 3.0) * coxTot * (1 - b*b)
	} else {
		cgsI = 0.5 * coxTot
		cgdI = 0.5 * coxTot
	}

	cs := CapSet{
		CGS: sInv*cgsI + c.CGSO*m.W*mult,
		CGD: sInv*cgdI + c.CGDO*m.W*mult,
		CGB: (1-sInv)*coxTot + c.CGBO*m.L*mult,
	}
	if swapped {
		cs.CGS, cs.CGD = cs.CGD, cs.CGS
	}

	// Junction capacitances. Reverse bias of drain-bulk is −VBD; device
	// sign handled by mirroring: for NMOS reverse bias = VD−VB, for PMOS
	// = VB−VD.
	sign := c.VTSign()
	vrevD := sign * (vdsOp - vbs) // = (vd−vb)·sign
	vrevS := sign * (-vbs)        // = (vs−vb)·sign
	cs.CDB = mult * junctionCap(c, m.Geom.AD, m.Geom.PD, vrevD)
	cs.CSB = mult * junctionCap(c, m.Geom.AS, m.Geom.PS, vrevS)
	return cs
}

// junctionCap returns the depletion capacitance of a junction with bottom
// area a and sidewall perimeter p at reverse bias vrev (positive =
// reverse). Forward bias is linearized below PB/2, as SPICE does, to keep
// the value finite.
func junctionCap(c *techno.MOSCard, a, p, vrev float64) float64 {
	grade := func(c0, m float64) float64 {
		const fc = 0.5
		if vrev > -fc*c.PB {
			return c0 / math.Pow(1+vrev/c.PB, m)
		}
		// Linear extrapolation beyond the forward-bias clamp point.
		f := math.Pow(1-fc, -m)
		return c0 * f * (1 + m*(-vrev/c.PB-fc)/(1-fc))
	}
	return a*grade(c.CJ, c.MJ) + p*grade(c.CJSW, c.MJSW)
}
