package device

import (
	"math"
	"testing"

	"loas/internal/techno"
)

func biasedNMOS(t *testing.T, vgs, vds float64) (*MOS, OP) {
	t.Helper()
	tech := techno.Default060()
	m := &MOS{Card: &tech.N, W: 20 * um, L: 1 * um}
	m.Geom = OneFoldGeom(tech, m.W)
	return m, m.Eval(vgs, vds, 0, 0, techno.TempNominal)
}

func TestCapsSaturationPartition(t *testing.T) {
	m, op := biasedNMOS(t, 1.5, 3.0)
	cs := m.Caps(op, techno.TempNominal)
	coxTot := m.Card.Cox * m.W * m.Leff()
	// Saturation: intrinsic CGS ≈ 2/3·Cox·W·L (+overlap), CGD ≈ overlap only.
	wantCGS := (2.0/3.0)*coxTot + m.Card.CGSO*m.W
	if rel := math.Abs(cs.CGS-wantCGS) / wantCGS; rel > 0.05 {
		t.Fatalf("CGS = %g, want ≈ %g", cs.CGS, wantCGS)
	}
	ovl := m.Card.CGDO * m.W
	if cs.CGD < ovl*0.9 || cs.CGD > ovl*1.6 {
		t.Fatalf("saturation CGD = %g, want ≈ overlap %g", cs.CGD, ovl)
	}
}

func TestCapsTriodeSplit(t *testing.T) {
	m, op := biasedNMOS(t, 1.8, 0.0)
	cs := m.Caps(op, techno.TempNominal)
	// VDS = 0: channel splits evenly.
	if rel := math.Abs(cs.CGS-cs.CGD) / cs.CGS; rel > 0.01 {
		t.Fatalf("triode CGS %g should equal CGD %g", cs.CGS, cs.CGD)
	}
}

func TestCapsOffGateToBulk(t *testing.T) {
	m, op := biasedNMOS(t, 0, 1.0)
	cs := m.Caps(op, techno.TempNominal)
	coxTot := m.Card.Cox * m.W * m.Leff()
	if cs.CGB < 0.8*coxTot {
		t.Fatalf("off-state CGB = %g, want ≈ Cox·W·L = %g", cs.CGB, coxTot)
	}
	if cs.CGS > 0.3*coxTot {
		t.Fatalf("off-state CGS = %g should be near overlap only", cs.CGS)
	}
}

func TestJunctionCapBiasDependence(t *testing.T) {
	tech := techno.Default060()
	m := &MOS{Card: &tech.N, W: 20 * um, L: 1 * um, Geom: OneFoldGeom(tech, 20*um)}
	op0 := m.Eval(1.5, 0.5, 0, 0, techno.TempNominal)
	op2 := m.Eval(1.5, 2.5, 0, 0, techno.TempNominal)
	c0 := m.Caps(op0, techno.TempNominal)
	c2 := m.Caps(op2, techno.TempNominal)
	if c2.CDB >= c0.CDB {
		t.Fatalf("reverse bias should shrink CDB: %g at 2.5 V vs %g at 0.5 V", c2.CDB, c0.CDB)
	}
	if c2.CSB != c0.CSB {
		t.Fatalf("CSB should not depend on VDS: %g vs %g", c2.CSB, c0.CSB)
	}
}

func TestJunctionCapForwardClampFinite(t *testing.T) {
	tech := techno.Default060()
	// Strongly forward-biased junction must stay finite and positive.
	c := junctionCap(&tech.N, 1e-12, 1e-6, -tech.N.PB)
	if math.IsInf(c, 0) || math.IsNaN(c) || c <= 0 {
		t.Fatalf("forward-bias clamp broken: %g", c)
	}
}

func TestFoldedDeviceHasSmallerCDB(t *testing.T) {
	// The headline mechanism of the paper: an even-folded, drain-internal
	// device must show roughly half the drain junction capacitance.
	tech := techno.Default060()
	w := 48 * um
	m1 := &MOS{Card: &tech.N, W: w, L: 1 * um, Geom: OneFoldGeom(tech, w)}
	m4 := &MOS{Card: &tech.N, W: w, L: 1 * um,
		Geom: PlanFolds(&tech.Rules, w, 4, DrainInternal).Geom(tech)}
	op := m1.Eval(1.5, 2.0, 0, 0, techno.TempNominal)
	c1 := m1.Caps(op, techno.TempNominal)
	c4 := m4.Caps(op, techno.TempNominal)
	ratio := c4.CDB / c1.CDB
	if ratio > 0.65 || ratio < 0.35 {
		t.Fatalf("folded CDB ratio = %g, want ≈ 0.5", ratio)
	}
}

func TestCapsAllNonNegative(t *testing.T) {
	tech := techno.Default060()
	m := &MOS{Card: &tech.P, W: 30 * um, L: 0.8 * um, Geom: OneFoldGeom(tech, 30*um)}
	for _, vgs := range []float64{0, -0.5, -1.0, -1.8} {
		for _, vds := range []float64{0, -0.3, -1.5, -3.0} {
			op := m.Eval(3.3+vgs, 3.3+vds, 3.3, 3.3, techno.TempNominal)
			cs := m.Caps(op, techno.TempNominal)
			for i, c := range []float64{cs.CGS, cs.CGD, cs.CGB, cs.CDB, cs.CSB} {
				if c < 0 || math.IsNaN(c) {
					t.Fatalf("cap %d negative/NaN at vgs=%g vds=%g: %g", i, vgs, vds, c)
				}
			}
		}
	}
}

// GateCap returns the total gate capacitance (CGS+CGD+CGB) in strong
// inversion saturation, the quantity the sizing tool uses for quick
// loading estimates before a full bias point exists.
func (m *MOS) GateCap() float64 {
	c := m.Card
	return (2.0/3.0)*c.Cox*m.W*m.Leff()*m.M() + (c.CGSO+c.CGDO)*m.W*m.M() + c.CGBO*m.L*m.M()
}

func TestGateCapScalesWithArea(t *testing.T) {
	tech := techno.Default060()
	a := (&MOS{Card: &tech.N, W: 10 * um, L: 1 * um}).GateCap()
	b := (&MOS{Card: &tech.N, W: 20 * um, L: 1 * um}).GateCap()
	if b <= a || b > 2.2*a {
		t.Fatalf("gate cap scaling wrong: %g → %g", a, b)
	}
}

func TestNoisePSDBasics(t *testing.T) {
	m, op := biasedNMOS(t, 1.3, 2.0)
	th1, fl1 := m.NoisePSD(op, 1.0, techno.TempNominal)
	th2, fl2 := m.NoisePSD(op, 100.0, techno.TempNominal)
	if th1 <= 0 || fl1 <= 0 {
		t.Fatal("noise PSDs must be positive for a conducting device")
	}
	if th1 != th2 {
		t.Fatal("thermal noise must be white")
	}
	if math.Abs(fl1/fl2-100) > 1e-6 {
		t.Fatalf("flicker must fall as 1/f: ratio %g", fl1/fl2)
	}
	// Thermal ≈ 4kT·γ·gm within 2×.
	want := 4 * techno.KBoltzmann * techno.TempNominal * (2.0 / 3.0) * op.Gm
	if th1 < want*0.8 || th1 > want*2 {
		t.Fatalf("thermal PSD %g vs 4kTγgm %g", th1, want)
	}
}

func TestResistorNoise(t *testing.T) {
	r := 1000.0
	got := ResistorNoisePSD(r, techno.TempNominal)
	want := 4 * techno.KBoltzmann * techno.TempNominal / r
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("resistor noise %g, want %g", got, want)
	}
	if ResistorNoisePSD(0, 300) != 0 {
		t.Fatal("degenerate resistor should have zero noise")
	}
}
