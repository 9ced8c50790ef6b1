package sizing

import (
	"math"
	"sort"
	"strings"
	"testing"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout/cairo"
	"loas/internal/layout/extract"
	"loas/internal/layout/route"
	"loas/internal/sim"
	"loas/internal/techno"
)

func TestCaseMapping(t *testing.T) {
	cases := []struct {
		n        int
		junction extract.JunctionModel
		routing  bool
	}{
		{1, extract.JunctionNone, false},
		{2, extract.JunctionOneFold, false},
		{3, extract.JunctionExact, false},
		{4, extract.JunctionExact, true},
	}
	for _, c := range cases {
		ps, err := Case(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Junction != c.junction || ps.Routing != c.routing {
			t.Fatalf("case %d = %+v", c.n, ps)
		}
	}
	if _, err := Case(5); err == nil {
		t.Fatal("case 5 accepted")
	}
	if _, err := Case(0); err == nil {
		t.Fatal("case 0 accepted")
	}
}

// TestParasiticStateJunctionModels: each Table-1 case's junction model
// and routing flag, where the sizing plan applies them. Case 1 assumes
// no junction, case 2 one fold whatever the report says, cases 3 and 4
// the report's geometry bit for bit (one fold before the first layout
// call or for a device the report lacks), and only case 4 lumps the
// report's wiring capacitance onto a net.
func TestParasiticStateJunctionModels(t *testing.T) {
	tech := techno.Default060()
	const w = 20e-6
	rep := extract.New()
	rep.DeviceGeom["M1"] = device.DiffGeom{AD: 1.25e-11, PD: 1.5e-5, AS: 2.5e-11, PS: 3e-5}
	rep.NetCap["out"] = 10e-15
	rep.WellCap["out"] = 3e-15
	rep.Coupling[route.OrderedPair("out", "in")] = 1e-15
	oneFold := device.OneFoldGeom(tech, w)
	for n := 1; n <= 4; n++ {
		ps, _ := Case(n)
		// Without the report's geometry every case but the first
		// assumes one fold.
		fallback := oneFold
		if n == 1 {
			fallback = device.DiffGeom{}
		}
		if g := ps.deviceGeom(tech, "M1", w); g != fallback {
			t.Errorf("case %d before the first layout call: geometry %+v, want %+v", n, g, fallback)
		}
		ps.Report = rep
		want := map[int]device.DiffGeom{1: {}, 2: oneFold, 3: rep.DeviceGeom["M1"], 4: rep.DeviceGeom["M1"]}[n]
		if g := ps.deviceGeom(tech, "M1", w); g != want {
			t.Errorf("case %d: geometry %+v, want %+v", n, g, want)
		}
		if g := ps.deviceGeom(tech, "M2", w); g != fallback {
			t.Errorf("case %d, a device the report lacks: geometry %+v, want %+v", n, g, fallback)
		}
		wantCap := 0.0
		if n == 4 {
			wantCap = rep.TotalNetCap("out") + rep.CouplingTo("out")
		}
		if c := ps.wiringCap("out"); math.Float64bits(c) != math.Float64bits(wantCap) {
			t.Errorf("case %d: wiring cap %g, want %g", n, c, wantCap)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	if _, err := SizeFoldedCascode(tech, OTASpec{}, ps); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestRowFormatting(t *testing.T) {
	p := Performance{DCGainDB: 70.1, GBW: 64.9e6, Power: 2e-3}
	q := Performance{DCGainDB: 70.1, GBW: 58.1e6, Power: 2e-3}
	row := p.Row("gbw", q)
	if !strings.Contains(row, "64.9(58.1)") {
		t.Fatalf("row = %q", row)
	}
	if len(RowNames()) != 11 {
		t.Fatalf("Table 1 has 11 rows, got %d", len(RowNames()))
	}
	for _, name := range RowNames() {
		if p.Row(name, q) == "" {
			t.Fatalf("row %q renders empty", name)
		}
	}
	if p.Row("nonsense", q) != "" {
		t.Fatal("unknown row should render empty")
	}
}

// sizeCase1 sizes once and caches for the property tests below.
var case1Design *FoldedCascode

func sizedCase1(t *testing.T) *FoldedCascode {
	t.Helper()
	if case1Design == nil {
		tech := techno.Default060()
		ps, _ := Case(1)
		d, err := SizeFoldedCascode(tech, Default65MHz(), ps)
		if err != nil {
			t.Fatal(err)
		}
		case1Design = d
	}
	return case1Design
}

func TestSizingMeetsTargets(t *testing.T) {
	d := sizedCase1(t)
	spec := d.Spec
	if rel := math.Abs(d.Predicted.GBW-spec.GBW) / spec.GBW; rel > 0.03 {
		t.Fatalf("designed GBW %g off target by %.1f%%", d.Predicted.GBW, rel*100)
	}
	if d.Predicted.PhaseDeg < spec.PM-1.5 {
		t.Fatalf("designed PM %.1f below target %.1f", d.Predicted.PhaseDeg, spec.PM)
	}
}

func TestSizingSymmetry(t *testing.T) {
	d := sizedCase1(t)
	pairs := [][2]string{{MP1, MP2}, {MP3, MP4}, {MP3C, MP4C}, {MN1C, MN2C}, {MN5, MN6}}
	for _, p := range pairs {
		a, b := d.Devices[p[0]], d.Devices[p[1]]
		if a.W != b.W || a.L != b.L {
			t.Fatalf("%s/%s not matched: %+v vs %+v", p[0], p[1], a, b)
		}
	}
}

func TestSizingCurrentBudget(t *testing.T) {
	d := sizedCase1(t)
	// KCL of the plan: sink current = pair half + cascode branch.
	in5 := d.Devices[MN5].ID
	want := d.Itail/2 + d.Icasc
	if math.Abs(in5-want)/want > 1e-9 {
		t.Fatalf("MN5 current %g, want %g", in5, want)
	}
	if d.Predicted.Power <= 0 || d.Predicted.Power > 10e-3 {
		t.Fatalf("power %g W implausible", d.Predicted.Power)
	}
}

func TestSizingBiasVoltagesInsideSupply(t *testing.T) {
	d := sizedCase1(t)
	for name, v := range d.Bias {
		if v <= 0 || v >= d.Spec.VDD {
			t.Fatalf("bias %s = %g outside the rails", name, v)
		}
	}
	// Cascode bias ordering: vbn < vc1 (NMOS cascode gate above sink
	// gate), vc3 < vbp.
	if d.Bias[NetVBN] >= d.Bias[NetVC1] {
		t.Fatalf("vbn %.3f should sit below vc1 %.3f", d.Bias[NetVBN], d.Bias[NetVC1])
	}
}

func TestSizingNetlistSimulates(t *testing.T) {
	d := sizedCase1(t)
	ckt := d.Netlist("check")
	ckt.Add(
		&circuit.VSource{Name: "ip", Pos: NetInP, Neg: "0", DC: 1.2},
		&circuit.VSource{Name: "in", Pos: NetInN, Neg: "0", DC: 1.2},
		&circuit.Capacitor{Name: "load", A: NetOut, B: "0", C: d.Spec.CL},
	)
	eng := sim.NewEngine(ckt, d.Tech.Temp)
	r, err := eng.OP(d.NodeSet())
	if err != nil {
		t.Fatal(err)
	}
	// Every transistor saturated at the design bias.
	for name := range d.Devices {
		op := r.MOSOP(name)
		if op.Region.String() != "saturation" {
			t.Fatalf("%s region %v (VDS=%.3f, Veff=%.3f)", name, op.Region, op.VDS, op.Veff)
		}
	}
	// Fold-node voltages near the plan estimates.
	for _, n := range []string{NetFN1, NetFN2, NetN3, NetN4} {
		if diff := math.Abs(r.Volt(ckt, n) - d.NodeEst[n]); diff > 0.15 {
			t.Fatalf("node %s: simulated %.3f vs estimate %.3f", n,
				r.Volt(ckt, n), d.NodeEst[n])
		}
	}
}

func TestSizingMoreLoadMoreCurrent(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	small := Default65MHz()
	big := small
	big.CL = 2 * small.CL
	dSmall, err := SizeFoldedCascode(tech, small, ps)
	if err != nil {
		t.Fatal(err)
	}
	dBig, err := SizeFoldedCascode(tech, big, ps)
	if err != nil {
		t.Fatal(err)
	}
	if dBig.Itail <= dSmall.Itail {
		t.Fatalf("doubling CL should raise tail current: %g vs %g",
			dBig.Itail, dSmall.Itail)
	}
}

func TestCase2BiggerAssumedCapsShorterChannels(t *testing.T) {
	// The paper's case-2 mechanism: over-estimated diffusion caps push
	// the PM iteration to shorter channels (and more current).
	tech := techno.Default060()
	ps1, _ := Case(1)
	ps2, _ := Case(2)
	d1, err := SizeFoldedCascode(tech, Default65MHz(), ps1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SizeFoldedCascode(tech, Default65MHz(), ps2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Lc >= d1.Lc {
		t.Fatalf("case 2 should shorten non-input channels: %.2f vs %.2f µm",
			d2.Lc*1e6, d1.Lc*1e6)
	}
	if d2.Itail <= d1.Itail {
		t.Fatalf("case 2 should burn more current: %.0f vs %.0f µA",
			d2.Itail*1e6, d1.Itail*1e6)
	}
	if d2.Predicted.DCGainDB >= d1.Predicted.DCGainDB {
		t.Fatal("case 2 gain should be lower")
	}
}

func TestLayoutDesignComplete(t *testing.T) {
	d := sizedCase1(t)
	des := d.Layout()
	// All eleven devices must appear in the realized layout.
	seen := map[string]int{}
	plan, err := des.Plan(d.Tech, cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	for name := range d.Devices {
		if _, ok := plan.Parasitics.DeviceGeom[name]; !ok {
			t.Fatalf("device %s missing from the layout", name)
		}
		seen[name]++
	}
	if len(seen) != 11 {
		t.Fatalf("expected 11 devices, saw %d", len(seen))
	}
	// Critical nets routed.
	for _, n := range []string{NetOut, NetFN1, NetFN2, NetMO1} {
		if plan.Parasitics.NetCap[n] <= 0 {
			t.Fatalf("critical net %s unrouted", n)
		}
	}
	// The source-tied input-pair well reports capacitance on tail.
	if plan.Parasitics.WellCap[NetTail] <= 0 {
		t.Fatal("input pair well cap missing on tail")
	}
}

func TestAssumedNetlistAddsWiringOnlyWithRouting(t *testing.T) {
	d := sizedCase1(t) // case 1: no routing
	plain := d.Netlist("a")
	assumed := d.AssumedNetlist("b")
	if len(assumed.Elements) != len(plain.Elements) {
		t.Fatal("case 1 assumed netlist should not carry wiring caps")
	}
}

func TestDeviceGeomFallbackBeforeFirstLayout(t *testing.T) {
	// Exact mode without a report must fall back to the one-fold
	// worst case (the paper's first sizing pass).
	tech := techno.Default060()
	ps, _ := Case(3)
	d, err := SizeFoldedCascode(tech, Default65MHz(), ps)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Devices[MP1].Geom
	want := tech.DiffExtContacted * d.Devices[MP1].W
	if math.Abs(g.AD-want)/want > 1e-9 {
		t.Fatalf("fallback geom AD = %g, want one-fold %g", g.AD, want)
	}
}

// TestBiasRailContract pins what corner verification relies on to retune
// any topology: every bias rail is driven by exactly one netlist source
// whose Pos is that rail, BiasFor on the sizing technology reproduces the
// plan's rails bit for bit, and the simulator seeds and AC grounds cover
// exactly the rails.
func TestBiasRailContract(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, name := range Topologies() {
		plan, _ := Lookup(name)
		d, err := plan.Size(tech, plan.DefaultSpec(), ps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var bias, nodeEst map[string]float64
		switch d := d.(type) {
		case *FoldedCascode:
			bias, nodeEst = d.Bias, d.NodeEst
		case *TwoStage:
			bias, nodeEst = d.Bias, d.NodeEst
		case *FiveT:
			bias, nodeEst = d.Bias, d.NodeEst
		default:
			t.Fatalf("%s: unknown design type %T", name, d)
		}
		if len(bias) == 0 {
			t.Fatalf("%s: no bias rails", name)
		}

		sources := map[string][]*circuit.VSource{}
		for _, v := range d.Netlist("rails").VSources() {
			sources[v.Pos] = append(sources[v.Pos], v)
		}
		for net, vb := range bias {
			if len(sources[net]) != 1 {
				t.Fatalf("%s: bias rail %s is the Pos of %d sources, want 1", name, net, len(sources[net]))
			}
			if v := sources[net][0]; !same(v.DC, vb) {
				t.Fatalf("%s: source %s drives %s at %v, Bias says %v", name, v.Name, net, v.DC, vb)
			}
		}

		again, err := d.BiasFor(tech)
		if err != nil {
			t.Fatalf("%s: BiasFor: %v", name, err)
		}
		if len(again) != len(bias) {
			t.Fatalf("%s: BiasFor returns %d rails, the plan set %d", name, len(again), len(bias))
		}
		for net, vb := range bias {
			if v, ok := again[net]; !ok || !same(v, vb) {
				t.Fatalf("%s: BiasFor(%s) = %v, the plan set %v", name, net, v, vb)
			}
		}

		ns := d.NodeSet()
		for _, m := range []map[string]float64{nodeEst, bias} {
			for net, want := range m {
				if v, ok := ns[net]; !ok || !same(v, want) {
					t.Fatalf("%s: NodeSet[%s] = %v, want %v", name, net, v, want)
				}
			}
		}

		want := []string{NetVDD, "gnd", circuit.Ground}
		for net := range bias {
			want = append(want, net)
		}
		got := append([]string(nil), d.ACGroundNets()...)
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: ACGroundNets = %v, want %v", name, got, want)
		}
	}
}

func TestDBHelper(t *testing.T) {
	if math.Abs(DB(10)-20) > 1e-12 {
		t.Fatalf("DB(10) = %g", DB(10))
	}
	if math.Abs(DB(-10)-20) > 1e-12 {
		t.Fatal("DB should use magnitude")
	}
}

// TestUnityCrossingErrorText: an evaluation bench whose output a source
// pins at 10 V of AC never crosses unity, and the plan says so in its
// own words.
func TestUnityCrossingErrorText(t *testing.T) {
	ckt := circuit.New("pinned").Add(&circuit.VSource{Name: "o", Pos: NetOut, Neg: circuit.Ground, ACMag: 10})
	var ev evaluator
	_, _, err := ev.gbwPM(techno.Default060(), ckt, NetOut, nil)
	if want := "sizing: no unity crossing below 3 GHz"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}
