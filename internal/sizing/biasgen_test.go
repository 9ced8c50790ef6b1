package sizing

import (
	"fmt"
	"math"
	"testing"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/sim"
	"loas/internal/techno"
)

// BiasGen is a transistor-level bias generator for the folded-cascode
// OTA: one external reference current fans out through NMOS/PMOS mirrors
// into four diode-connected devices sized so their gate voltages hit the
// four bias targets the design plan computed. It upgrades the ideal
// voltage sources of the testbench into a circuit that tracks the process
// the way a real chip would (see core.VerifyAtCorner for the behavioural
// version of the same idea). No flow builds it, since wiring it in would
// move every verified result, so it lives beside the tests that assert it.
type BiasGen struct {
	Tech *techno.Tech
	IRef float64
	// Diode sizes for vbn, vc1, vbp, vc3 (large drops need long weak
	// devices, so each diode carries its own length); mirror widths for
	// the NMOS and PMOS fan-out devices (each output sized at its own
	// operating VDS to cancel the channel-length-modulation ratio error).
	WBN, WC1, WBP, WC3 float64
	LBN, LC1, LBP, LC3 float64
	WMirN              float64 // reference diode
	WN1, WN2           float64 // NMOS outputs feeding the PMOS diodes
	WP1, WP2           float64 // PMOS outputs feeding the NMOS diodes
	L                  float64
	// Targets records the voltages the generator was sized to produce.
	Targets map[string]float64
}

// sizeForVGS finds a diode geometry whose gate voltage at current id
// equals the target: bisection on width, lengthening the channel when
// even the minimum width is too strong (large drops need weak devices).
func sizeForVGS(card *techno.MOSCard, l, vgsTarget, id, temp, wmin, wmax float64) (w, lOut float64, err error) {
	if vgsTarget <= card.VT0 {
		return 0, 0, fmt.Errorf("sizing: bias target %.3f V below VT0 %.3f V", vgsTarget, card.VT0)
	}
	for try := 0; try < 12; try++ {
		probe := func(w float64) float64 {
			m := device.MOS{Card: card, W: w, L: l}
			vgs, err := m.VGSForCurrent(id, vgsTarget, 0, temp)
			if err != nil {
				return -1
			}
			return vgs - vgsTarget
		}
		if probe(wmin) < 0 {
			// Minimum width still conducts too well: weaken with length.
			l *= 1.5
			continue
		}
		if probe(wmax) > 0 {
			return 0, 0, fmt.Errorf("sizing: bias target %.3f V unreachable at %.3g A", vgsTarget, id)
		}
		lo, hi := wmin, wmax
		for i := 0; i < 60; i++ {
			mid := 0.5 * (lo + hi)
			if probe(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return 0.5 * (lo + hi), l, nil
	}
	return 0, 0, fmt.Errorf("sizing: bias target %.3f V needs an implausibly weak device", vgsTarget)
}

// SizeBiasGen sizes a bias generator reproducing the design's four bias
// voltages from the reference current iref.
func SizeBiasGen(tech *techno.Tech, d *FoldedCascode, iref float64) (*BiasGen, error) {
	if iref <= 0 {
		return nil, fmt.Errorf("sizing: bias generator needs a positive reference current")
	}
	l := 1.0 * techno.Micron
	wmin := techno.NMToMeters(tech.Rules.ActiveWidth)
	wmax := 5000 * techno.Micron
	g := &BiasGen{Tech: tech, IRef: iref, L: l, Targets: map[string]float64{}}
	for k, v := range d.Bias {
		g.Targets[k] = v
	}
	vdd := d.Spec.VDD

	var err error
	if g.WBN, g.LBN, err = sizeForVGS(&tech.N, l, d.Bias[NetVBN], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("vbn: %w", err)
	}
	if g.WC1, g.LC1, err = sizeForVGS(&tech.N, l, d.Bias[NetVC1], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("vc1: %w", err)
	}
	if g.WBP, g.LBP, err = sizeForVGS(&tech.P, l, vdd-d.Bias[NetVBP], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("vbp: %w", err)
	}
	if g.WC3, g.LC3, err = sizeForVGS(&tech.P, l, vdd-d.Bias[NetVC3], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("vc3: %w", err)
	}
	if g.WMirN, err = device.SizeForCurrent(&tech.N, l, 0.25, 0, iref, tech.Temp, wmin, wmax); err != nil {
		return nil, err
	}
	// Gate voltage of the NMOS mirror, set by the reference diode whose
	// VDS equals its VGS — solved self-consistently.
	mn0 := device.MOS{Card: &tech.N, W: g.WMirN, L: l}
	vgsn := 0.45
	for i := 0; i < 8; i++ {
		vgsn, err = mn0.VGSForCurrent(iref, vgsn, 0, tech.Temp)
		if err != nil {
			return nil, err
		}
	}
	// Each mirror output is sized at the VDS its branch actually sees,
	// so the delivered current is IREF despite channel-length modulation.
	if g.WN1, err = sizeAtBias(&tech.N, l, vgsn, vdd-(vdd-d.Bias[NetVBP]), iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("n1: %w", err)
	}
	if g.WN2, err = sizeAtBias(&tech.N, l, vgsn, d.Bias[NetVC3], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("n2: %w", err)
	}
	vgsp := vdd - d.Bias[NetVBP]
	if g.WP1, err = sizeAtBias(&tech.P, l, vgsp, vdd-d.Bias[NetVBN], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("p1: %w", err)
	}
	if g.WP2, err = sizeAtBias(&tech.P, l, vgsp, vdd-d.Bias[NetVC1], iref, tech.Temp, wmin, wmax); err != nil {
		return nil, fmt.Errorf("p2: %w", err)
	}
	return g, nil
}

// sizeAtBias finds the width that delivers current id at the exact
// (NMOS-convention) bias point (vgs, vds) — current is proportional to
// width at fixed bias, so bisection converges trivially.
func sizeAtBias(card *techno.MOSCard, l, vgs, vds, id, temp, wmin, wmax float64) (float64, error) {
	sign := card.VTSign()
	probe := func(w float64) float64 {
		m := device.MOS{Card: card, W: w, L: l}
		op := m.Eval(sign*vgs, sign*vds, 0, 0, temp)
		return sign*op.ID - id
	}
	lo, hi := wmin, wmax
	if probe(lo) > 0 {
		return lo, nil
	}
	if probe(hi) < 0 {
		return 0, fmt.Errorf("sizing: %g A unreachable at vgs=%.3f vds=%.3f", id, vgs, vds)
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// AddTo wires the generator into a circuit, producing the nets vbn, vc1,
// vbp and vc3 from an ideal reference current (a bandgap substitute). The
// caller must not already drive those nets.
func (g *BiasGen) AddTo(ckt *circuit.Circuit, vddNet string) {
	tech := g.Tech
	l := g.L
	nm := func(name, dn, gn, s, b string, card *techno.MOSCard, w float64) *circuit.MOSFET {
		return &circuit.MOSFET{Name: "BG" + name, D: dn, G: gn, S: s, B: b,
			Dev: device.MOS{Card: card, W: w, L: l}}
	}
	diode := func(name, dn, s, b string, card *techno.MOSCard, w, dl float64) *circuit.MOSFET {
		return &circuit.MOSFET{Name: "BG" + name, D: dn, G: dn, S: s, B: b,
			Dev: device.MOS{Card: card, W: w, L: dl}}
	}
	ckt.Add(
		// Reference branch: IREF into an NMOS diode.
		&circuit.ISource{Name: "bgref", Pos: vddNet, Neg: "bgn", DC: g.IRef},
		nm("n0", "bgn", "bgn", circuit.Ground, circuit.Ground, &tech.N, g.WMirN),
		// NMOS mirror pulls through the two PMOS diodes.
		nm("n1", NetVBP, "bgn", circuit.Ground, circuit.Ground, &tech.N, g.WN1),
		nm("n2", NetVC3, "bgn", circuit.Ground, circuit.Ground, &tech.N, g.WN2),
		diode("pd1", NetVBP, vddNet, vddNet, &tech.P, g.WBP, g.LBP),
		diode("pd2", NetVC3, vddNet, vddNet, &tech.P, g.WC3, g.LC3),
		// PMOS mirror (from the vbp diode) pushes into the NMOS diodes.
		nm("p1", NetVBN, NetVBP, vddNet, vddNet, &tech.P, g.WP1),
		nm("p2", NetVC1, NetVBP, vddNet, vddNet, &tech.P, g.WP2),
		diode("nd1", NetVBN, circuit.Ground, circuit.Ground, &tech.N, g.WBN, g.LBN),
		diode("nd2", NetVC1, circuit.Ground, circuit.Ground, &tech.N, g.WC1, g.LC1),
		// Bypass capacitors: the diode output impedances (≈1/gm at the
		// reference current) would otherwise form poles with the cascode
		// gate capacitance of the main amplifier — the standard bias-line
		// decoupling.
		&circuit.Capacitor{Name: "bgcbn", A: NetVBN, B: circuit.Ground, C: 5e-12},
		&circuit.Capacitor{Name: "bgcc1", A: NetVC1, B: circuit.Ground, C: 5e-12},
		&circuit.Capacitor{Name: "bgcbp", A: NetVBP, B: vddNet, C: 5e-12},
		&circuit.Capacitor{Name: "bgcc3", A: NetVC3, B: vddNet, C: 5e-12},
	)
}

// NetlistWithBiasGen builds the OTA with the transistor-level bias
// generator in place of the four ideal bias sources.
func (d *FoldedCascode) NetlistWithBiasGen(name string, g *BiasGen) *circuit.Circuit {
	base := d.Netlist(name)
	out := circuit.New(name)
	for _, e := range base.Elements {
		if v, ok := e.(*circuit.VSource); ok {
			switch v.Name {
			case "bn", "bp", "c1", "c3":
				continue // replaced by the generator
			}
		}
		out.Add(e)
	}
	g.AddTo(out, NetVDD)
	return out
}

func TestBiasGenHitsTargets(t *testing.T) {
	d := sizedCase1(t)
	tech := d.Tech
	g, err := SizeBiasGen(tech, d, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Standalone generator: simulate and compare the four voltages.
	ckt := circuit.New("bg")
	ckt.Add(&circuit.VSource{Name: "dd", Pos: NetVDD, Neg: "0", DC: d.Spec.VDD})
	g.AddTo(ckt, NetVDD)
	eng := sim.NewEngine(ckt, tech.Temp)
	ns := map[string]float64{NetVDD: d.Spec.VDD}
	for k, v := range d.Bias {
		ns[k] = v
	}
	r, err := eng.OP(sim.OPOptions{NodeSet: ns})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []string{NetVBN, NetVC1, NetVBP, NetVC3} {
		got := r.Volt(ckt, net)
		want := d.Bias[net]
		if math.Abs(got-want) > 30e-3 {
			t.Fatalf("%s = %.3f V, target %.3f V", net, got, want)
		}
	}
}

func TestBiasGenDrivesTheOTA(t *testing.T) {
	d := sizedCase1(t)
	tech := d.Tech
	g, err := SizeBiasGen(tech, d, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	vcm := 0.645
	mkBench := func(withGen bool) (float64, float64) {
		var ckt *circuit.Circuit
		if withGen {
			ckt = d.NetlistWithBiasGen("fcbg", g)
		} else {
			ckt = d.Netlist("fc")
		}
		ckt.Add(
			&circuit.VSource{Name: "szp", Pos: NetInP, Neg: "0", DC: vcm, ACMag: 0.5},
			&circuit.VSource{Name: "szn", Pos: NetInN, Neg: "0", DC: vcm, ACMag: 0.5, ACPhase: 180},
			&circuit.Capacitor{Name: "szload", A: NetOut, B: "0", C: d.Spec.CL},
		)
		ns := d.NodeSet()
		ns[NetInP], ns[NetInN] = vcm, vcm
		var ev evaluator
		gbw, pm, err := ev.gbwPM(tech, ckt, NetOut, ns)
		if err != nil {
			t.Fatal(err)
		}
		return gbw, pm
	}
	gbwIdeal, pmIdeal := mkBench(false)
	gbwGen, pmGen := mkBench(true)
	if rel := math.Abs(gbwGen-gbwIdeal) / gbwIdeal; rel > 0.05 {
		t.Fatalf("bias generator shifts GBW by %.1f%% (%.1f vs %.1f MHz)",
			rel*100, gbwGen/1e6, gbwIdeal/1e6)
	}
	if math.Abs(pmGen-pmIdeal) > 3 {
		t.Fatalf("bias generator shifts PM by %.1f°", math.Abs(pmGen-pmIdeal))
	}
}

func TestBiasGenValidation(t *testing.T) {
	d := sizedCase1(t)
	if _, err := SizeBiasGen(d.Tech, d, 0); err == nil {
		t.Fatal("zero reference accepted")
	}
	tech := techno.Default060()
	if _, _, err := sizeForVGS(&tech.N, 1e-6, 0.3, 1e-6, tech.Temp, 1e-6, 1e-3); err == nil {
		t.Fatal("sub-VT target accepted")
	}
}
