package device

import (
	"math"
	"testing"

	"loas/internal/techno"
)

// stencilH is the simulator's central-difference step.
const stencilH = 1e-6

// sameBits reports bit equality, treating any two NaNs as equal (the
// model can produce NaN far outside its physical range; both paths then
// agree that it did).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkStencil compares EvalIDStencil with the EvalID calls it replaces:
// every probe in probes must equal EvalID at its point, and every probe
// outside it must be left zero.
func checkStencil(t *testing.T, m *MOS, vg, vd, vs, vb float64, probes Probes) {
	t.Helper()
	const h, temp = stencilH, techno.TempNominal
	st := m.EvalIDStencil(vg, vd, vs, vb, h, temp, probes)
	for _, p := range []struct {
		name           string
		got            float64
		terminal       Probes // 0: the base point, always computed
		vg, vd, vs, vb float64
	}{
		{"base", st.Base, 0, vg, vd, vs, vb},
		{"d+", st.DUp, ProbeD, vg, vd + h, vs, vb},
		{"d-", st.DDn, ProbeD, vg, vd - h, vs, vb},
		{"g+", st.GUp, ProbeG, vg + h, vd, vs, vb},
		{"g-", st.GDn, ProbeG, vg - h, vd, vs, vb},
		{"s+", st.SUp, ProbeS, vg, vd, vs + h, vb},
		{"s-", st.SDn, ProbeS, vg, vd, vs - h, vb},
		{"b+", st.BUp, ProbeB, vg, vd, vs, vb + h},
		{"b-", st.BDn, ProbeB, vg, vd, vs, vb - h},
	} {
		if p.terminal != 0 && probes&p.terminal == 0 {
			if math.Float64bits(p.got) != 0 {
				t.Fatalf("%s card, probes %04b: skipped probe %s = %x, want 0", m.Card.Type, probes, p.name, p.got)
			}
			continue
		}
		want := m.EvalID(p.vg, p.vd, p.vs, p.vb, temp)
		if !sameBits(p.got, want) {
			t.Fatalf("%s card at (vg %g, vd %g, vs %g, vb %g), probes %04b: stencil %s = %x, EvalID = %x",
				m.Card.Type, vg, vd, vs, vb, probes, p.name, p.got, want)
		}
	}
}

// checkCapsAt compares CapsAt with Caps(Eval(…)).
func checkCapsAt(t *testing.T, m *MOS, vg, vd, vs, vb float64) {
	t.Helper()
	const temp = techno.TempNominal
	got := m.CapsAt(vg, vd, vs, vb, temp)
	want := m.Caps(m.Eval(vg, vd, vs, vb, temp), temp)
	g := [5]float64{got.CGS, got.CGD, got.CGB, got.CDB, got.CSB}
	w := [5]float64{want.CGS, want.CGD, want.CGB, want.CDB, want.CSB}
	for i := range g {
		if !sameBits(g[i], w[i]) {
			t.Fatalf("%s card at (vg %g, vd %g, vs %g, vb %g): CapsAt %+v, Caps(Eval) %+v",
				m.Card.Type, vg, vd, vs, vb, got, want)
		}
	}
}

// stencilDevices returns an NMOS and a PMOS instance with folded
// diffusion geometry and a multiplier, so every Caps term is live.
func stencilDevices() []*MOS {
	tech := techno.Default060()
	geom := DiffGeom{AD: 12e-12, PD: 8e-6, AS: 20e-12, PS: 14e-6}
	return []*MOS{
		{Card: &tech.N, W: 24 * um, L: 1.2 * um, Geom: geom, Mult: 2},
		{Card: &tech.P, W: 60 * um, L: 0.9 * um, Geom: geom},
	}
}

// stencilBiases covers unswapped and swapped bias for either polarity,
// plus drain–source stencils that straddle vd = vs (a probe swaps while
// the base point does not, or the reverse) and the exact tie.
var stencilBiases = []struct {
	name           string
	vg, vd, vs, vb float64
	straddle       bool // |vd − vs| < h: some probe swaps, the base may not
}{
	{"nmos-like saturation", 1.4, 2.5, 0.3, 0, false},
	{"reversed drain", 1.4, 0.3, 2.5, 0, false},
	{"pmos-like saturation", 1.6, 0.4, 3.3, 3.3, false},
	{"pmos reversed", 1.6, 3.3, 0.4, 3.3, false},
	{"straddle above", 1.2, 0.8 + stencilH/2, 0.8, 0, true},
	{"straddle below", 1.2, 0.8 - stencilH/2, 0.8, 0, true},
	{"tie", 1.2, 0.8, 0.8, 0, true},
	{"pmos straddle", 1.0, 2.1 + stencilH/3, 2.1, 3.3, true},
	{"weak inversion", 0.45, 1.0, 0, 0, false},
	{"accumulation", -1.0, 1.0, 0.2, 0.1, false},
}

// TestEvalIDStencilBitIdentical checks every bias under every probe
// set, from the base point alone to all four terminals.
func TestEvalIDStencilBitIdentical(t *testing.T) {
	for _, m := range stencilDevices() {
		for _, b := range stencilBiases {
			for probes := Probes(0); probes <= ProbeAll; probes++ {
				checkStencil(t, m, b.vg, b.vd, b.vs, b.vb, probes)
			}
		}
	}
}

// TestStencilStraddleSwaps keeps the straddle cases honest: at each one
// some probe must swap drain and source while the base point does not
// (or the other way round), or the swap path goes untested.
func TestStencilStraddleSwaps(t *testing.T) {
	swapped := func(m *MOS, vd, vs float64) bool {
		_, _, _, s := m.bulkRef(0, vd, vs, 0)
		return s
	}
	for _, m := range stencilDevices() {
		for _, b := range stencilBiases {
			if !b.straddle {
				continue
			}
			base := swapped(m, b.vd, b.vs)
			if swapped(m, b.vd-stencilH, b.vs) == base && swapped(m, b.vd+stencilH, b.vs) == base &&
				swapped(m, b.vd, b.vs-stencilH) == base && swapped(m, b.vd, b.vs+stencilH) == base {
				t.Fatalf("%s on %s card: no probe swaps drain and source", b.name, m.Card.Type)
			}
		}
	}
}

func TestCapsAtBitIdentical(t *testing.T) {
	for _, m := range stencilDevices() {
		for _, b := range stencilBiases {
			checkCapsAt(t, m, b.vg, b.vd, b.vs, b.vb)
		}
	}
}

// FuzzEvalIDStencil checks the stencil (and CapsAt) against the plain
// evaluations at arbitrary finite terminal voltages on both cards, under
// an arbitrary probe set (the low four bits of probes), and the model
// the plain evaluations share against refIDsCore.
func FuzzEvalIDStencil(f *testing.F) {
	for i, b := range stencilBiases {
		f.Add(b.vg, b.vd, b.vs, b.vb, uint8(ProbeAll))
		f.Add(b.vg, b.vd, b.vs, b.vb, uint8(i)&uint8(ProbeAll))
	}
	devs := stencilDevices()
	f.Fuzz(func(t *testing.T, vg, vd, vs, vb float64, probes uint8) {
		for _, v := range [4]float64{vg, vd, vs, vb} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite terminal voltage")
			}
		}
		for _, m := range devs {
			checkStencil(t, m, vg, vd, vs, vb, Probes(probes)&ProbeAll)
			checkCapsAt(t, m, vg, vd, vs, vb)
			checkModelReference(t, m, vg, vd, vs, vb)
		}
	})
}
