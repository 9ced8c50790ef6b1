package sizing

import (
	"fmt"
	"math"
	"testing"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout/cairo"
	"loas/internal/layout/stack"
	"loas/internal/sim"
	"loas/internal/techno"
)

// The ratioed current mirror is one of the "fixed routines … for
// frequently used building blocks" of the knowledge-based tool, the
// hierarchy the paper credits for making new topologies cheap to add.
// No design plan calls it yet, so it lives beside the tests that size,
// simulate and lay it out.

// MirrorSpec sizes a ratioed current mirror.
type MirrorSpec struct {
	Type techno.MOSType
	// IRef is the reference (diode) branch current (A).
	IRef float64
	// Ratios lists output-branch multiples of IRef (e.g. {3, 6} builds
	// the paper's Fig. 3 with the 1× diode).
	Ratios []int
	// Veff sets the mirror overdrive (compliance = accuracy trade);
	// default 0.25 V.
	Veff float64
	// L sets the channel length; longer = better matching and higher
	// output resistance. Default 2 µm.
	L float64
}

// Mirror is a sized ratioed current mirror.
type Mirror struct {
	Spec MirrorSpec
	tech *techno.Tech
	// WUnit is the unit (diode) device width; branch i has width
	// WUnit·Ratios[i] realized as Ratios[i] stacked units.
	WUnit float64
	// Compliance is the minimum output voltage for saturation (≈ Veff
	// plus margin).
	Compliance float64
}

// SizeMirror sizes the unit device on the exact model.
func SizeMirror(tech *techno.Tech, spec MirrorSpec) (*Mirror, error) {
	if spec.IRef <= 0 {
		return nil, fmt.Errorf("sizing: mirror needs positive reference current")
	}
	if spec.Veff <= 0 {
		spec.Veff = 0.25
	}
	if spec.L <= 0 {
		spec.L = 2 * techno.Micron
	}
	for _, r := range spec.Ratios {
		if r < 1 {
			return nil, fmt.Errorf("sizing: mirror ratio %d must be ≥ 1", r)
		}
	}
	card := tech.Card(spec.Type)
	w, err := device.SizeForCurrent(card, spec.L, spec.Veff, 0, spec.IRef,
		tech.Temp, techno.NMToMeters(tech.Rules.ActiveWidth), 10000*techno.Micron)
	if err != nil {
		return nil, fmt.Errorf("sizing: mirror unit: %w", err)
	}
	return &Mirror{Spec: spec, tech: tech, WUnit: w, Compliance: spec.Veff + 0.1}, nil
}

// StackModule renders the mirror as a matched-stack layout module: the
// diode is device 0, branches follow, all interleaved with end dummies —
// the Fig. 3 generator as a reusable block.
func (m *Mirror) StackModule(label, refNet string, outNets []string, sourceNet, bulkNet string) (*cairo.MatchedStack, error) {
	if len(outNets) != len(m.Spec.Ratios) {
		return nil, fmt.Errorf("sizing: mirror has %d branches, %d nets given",
			len(m.Spec.Ratios), len(outNets))
	}
	gate := refNet
	devs := []stack.Device{{Name: label + "_ref", Units: 1, DrainNet: refNet, GateNet: gate}}
	currents := map[string]float64{refNet: m.Spec.IRef}
	for i, r := range m.Spec.Ratios {
		devs = append(devs, stack.Device{
			Name: fmt.Sprintf("%s_o%d", label, i+1), Units: r,
			DrainNet: outNets[i], GateNet: gate,
		})
		currents[outNets[i]] = float64(r) * m.Spec.IRef
	}
	return &cairo.MatchedStack{
		Label: label, Type: m.Spec.Type,
		Devices:          devs,
		SourceNet:        sourceNet,
		BulkNet:          bulkNet,
		WidthPerBaseUnit: m.WUnit,
		L:                m.Spec.L,
		Currents:         currents,
		EndDummies:       true,
		Splits:           []int{1, 2},
	}, nil
}

// Netlist builds the mirror circuit with the reference current source.
func (m *Mirror) Netlist(name, vddNet, refNet string, outNets []string) (*circuit.Circuit, error) {
	if len(outNets) != len(m.Spec.Ratios) {
		return nil, fmt.Errorf("sizing: mirror has %d branches, %d nets given",
			len(m.Spec.Ratios), len(outNets))
	}
	c := circuit.New(name)
	card := m.tech.Card(m.Spec.Type)
	src, bulk := circuit.Ground, circuit.Ground
	if m.Spec.Type == techno.PMOS {
		src, bulk = vddNet, vddNet
	}
	c.Add(&circuit.MOSFET{
		Name: name + "_ref", D: refNet, G: refNet, S: src, B: bulk,
		Dev: device.MOS{Card: card, W: m.WUnit, L: m.Spec.L},
	})
	for i, r := range m.Spec.Ratios {
		c.Add(&circuit.MOSFET{
			Name: fmt.Sprintf("%s_o%d", name, i+1), D: outNets[i], G: refNet, S: src, B: bulk,
			Dev: device.MOS{Card: card, W: m.WUnit * float64(r), L: m.Spec.L},
		})
	}
	return c, nil
}

func TestSizeMirrorRoundTrip(t *testing.T) {
	tech := techno.Default060()
	m, err := SizeMirror(tech, MirrorSpec{
		Type: techno.NMOS, IRef: 20e-6, Ratios: []int{3, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.WUnit <= 0 {
		t.Fatal("no unit width")
	}
	// Simulate: reference current in, branch currents out at 3× and 6×.
	ckt, err := m.Netlist("mir", "vdd", "ref", []string{"o1", "o2"})
	if err != nil {
		t.Fatal(err)
	}
	ckt.Add(
		&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
		&circuit.ISource{Name: "ir", Pos: "vdd", Neg: "ref", DC: 20e-6},
		&circuit.Resistor{Name: "l1", A: "vdd", B: "o1", R: 10e3},
		&circuit.Resistor{Name: "l2", A: "vdd", B: "o2", R: 5e3},
	)
	eng := sim.NewEngine(ckt, tech.Temp)
	r, err := eng.OP(sim.OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i1 := r.MOSOP("mir_o1").ID
	i2 := r.MOSOP("mir_o2").ID
	if math.Abs(i1-60e-6)/60e-6 > 0.15 {
		t.Fatalf("3x branch = %.1f µA, want ≈ 60", i1*1e6)
	}
	if math.Abs(i2-120e-6)/120e-6 > 0.15 {
		t.Fatalf("6x branch = %.1f µA, want ≈ 120", i2*1e6)
	}
	// The 6x branch must mirror at 2x the 3x branch far more accurately
	// (ratio errors cancel).
	if math.Abs(i2/i1-2) > 0.05 {
		t.Fatalf("branch ratio = %.3f, want 2", i2/i1)
	}
}

func TestSizeMirrorValidation(t *testing.T) {
	tech := techno.Default060()
	if _, err := SizeMirror(tech, MirrorSpec{Type: techno.NMOS, IRef: 0}); err == nil {
		t.Fatal("zero reference accepted")
	}
	if _, err := SizeMirror(tech, MirrorSpec{Type: techno.NMOS, IRef: 1e-6, Ratios: []int{0}}); err == nil {
		t.Fatal("zero ratio accepted")
	}
}

func TestMirrorStackModuleBuilds(t *testing.T) {
	tech := techno.Default060()
	m, err := SizeMirror(tech, MirrorSpec{Type: techno.NMOS, IRef: 20e-6, Ratios: []int{3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := m.StackModule("mir", "ref", []string{"o1", "o2"}, "gnd", "gnd")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mod.Build(tech, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Geoms) != 3 {
		t.Fatalf("stack module built %d devices, want 3", len(b.Geoms))
	}
	if _, err := m.StackModule("mir", "ref", []string{"only-one"}, "gnd", "gnd"); err == nil {
		t.Fatal("mismatched branch nets accepted")
	}
}

func fiveTSpec() OTASpec {
	return OTASpec{VDD: 3.3, GBW: 30e6, PM: 60, CL: 2e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.5, OutHigh: 2.8}
}

func TestSizeFiveT(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	d, err := SizeFiveT(tech, fiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if d.Predicted.GBW < 0.97*30e6 {
		t.Fatalf("GBW %.1f MHz misses target", d.Predicted.GBW/1e6)
	}
	if d.Predicted.PhaseDeg < 60 {
		t.Fatalf("PM %.1f° misses target", d.Predicted.PhaseDeg)
	}
	// Single stage: modest gain.
	if d.Predicted.DCGainDB < 25 || d.Predicted.DCGainDB > 60 {
		t.Fatalf("5T gain %.1f dB implausible", d.Predicted.DCGainDB)
	}

	// DC check: all saturated.
	ckt := d.Netlist("5t")
	vcm := d.NodeEst[NetInP]
	ckt.Add(
		&circuit.VSource{Name: "ip", Pos: NetInP, Neg: "0", DC: vcm},
		&circuit.VSource{Name: "in", Pos: NetInN, Neg: "0", DC: vcm},
		&circuit.Capacitor{Name: "load", A: NetOut, B: "0", C: 2e-12},
	)
	eng := sim.NewEngine(ckt, tech.Temp)
	r, err := eng.OP(sim.OPOptions{NodeSet: d.NodeSet()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MF1, MF2, MF3, MF4, MF5} {
		if r.MOSOP(name).Region.String() != "saturation" {
			t.Fatalf("%s in %v", name, r.MOSOP(name).Region)
		}
	}
}

func TestFiveTLayout(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	d, err := SizeFiveT(tech, fiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.Layout().Plan(tech, cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{MF1, MF2, MF3, MF4, MF5} {
		if _, ok := plan.Parasitics.DeviceGeom[inst]; !ok {
			t.Fatalf("%s missing from the layout", inst)
		}
	}
	if plan.Parasitics.NetCap[NetOut] <= 0 {
		t.Fatal("out unrouted")
	}
}

func TestFiveTRejectsTightPM(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	spec := fiveTSpec()
	spec.GBW = 3e9 // beyond the 0.6 µm device fT — must be rejected
	if _, err := SizeFiveT(tech, spec, ps); err == nil {
		t.Fatal("absurd GBW accepted")
	}
}
