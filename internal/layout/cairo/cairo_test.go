package cairo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"loas/internal/layout/route"
	"loas/internal/layout/stack"
	"loas/internal/techno"
)

const um = techno.Micron

// testDesign: an NMOS mirror stack plus a PMOS load transistor, routed on
// nets "out" and "bias".
func testDesign() *Design {
	return &Design{
		Name: "unit",
		Modules: []Module{
			&Transistor{
				Inst: "MP1", Type: techno.PMOS,
				W: 60 * um, L: 1 * um,
				DrainNet: "out", GateNet: "bias", SourceNet: "vdd", BulkNet: "vdd",
				IDrain: 150e-6,
			},
			&MatchedStack{
				Label: "mirror", Type: techno.NMOS,
				Devices: []stack.Device{
					{Name: "MN1", Units: 2, DrainNet: "bias", GateNet: "bias"},
					{Name: "MN2", Units: 2, DrainNet: "out", GateNet: "bias"},
				},
				SourceNet: "gnd", BulkNet: "gnd",
				WidthPerBaseUnit: 15 * um, L: 1 * um,
				Currents: map[string]float64{"bias": 150e-6, "out": 150e-6},
			},
		},
		Tree: &Tree{Vertical: false, GapNM: 8000, Leaves: []string{"MP1", "mirror"}},
		Nets: []route.Net{{Name: "out", Current: 150e-6}, {Name: "bias", Current: 150e-6}},
	}
}

func TestPlanProducesParasitics(t *testing.T) {
	tech := techno.Default060()
	p, err := testDesign().Plan(tech, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	// All three devices must have junction geometry and fold plans.
	for _, inst := range []string{"MP1", "MN1", "MN2"} {
		g, ok := p.Parasitics.DeviceGeom[inst]
		if !ok || g.AD <= 0 || g.AS <= 0 {
			t.Fatalf("device %s geometry missing or empty: %+v", inst, g)
		}
		if _, ok := p.Parasitics.Folds[inst]; !ok {
			t.Fatalf("device %s fold plan missing", inst)
		}
	}
	// Routed nets must carry wiring capacitance.
	for _, net := range []string{"out", "bias"} {
		if p.Parasitics.NetCap[net] <= 0 {
			t.Fatalf("net %s has no wiring cap", net)
		}
	}
	if p.Parasitics.AreaUM2 <= 0 {
		t.Fatal("no area reported")
	}
}

func TestPlanDeterministicFixpoint(t *testing.T) {
	// The synthesis loop's convergence depends on Plan being a pure
	// function of its inputs.
	tech := techno.Default060()
	d := testDesign()
	p1, err := d.Plan(tech, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := testDesign().Plan(tech, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Parasitics.NetCap, p2.Parasitics.NetCap) {
		t.Fatal("net caps differ between identical plans")
	}
	if !reflect.DeepEqual(p1.Parasitics.DeviceGeom, p2.Parasitics.DeviceGeom) {
		t.Fatal("device geometry differs between identical plans")
	}
	if !reflect.DeepEqual(p1.ChoiceOf, p2.ChoiceOf) {
		t.Fatal("shape choices differ between identical plans")
	}
}

func TestPlanShapeConstraintChangesChoices(t *testing.T) {
	tech := techno.Default060()
	// Binding height cap: forces wider fold/split choices.
	flat, err := testDesign().Plan(tech, Constraint{MaxH: 45000})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Floorplan.H > 45000 {
		t.Fatalf("height %d nm exceeds 45 µm constraint", flat.Floorplan.H)
	}
	// Binding width cap: forces the narrow/tall choices.
	tall, err := testDesign().Plan(tech, Constraint{MaxW: 25000})
	if err != nil {
		t.Fatal(err)
	}
	if tall.Floorplan.W > 25000 {
		t.Fatalf("width %d exceeds 25 µm constraint", tall.Floorplan.W)
	}
	if flat.Floorplan.W <= tall.Floorplan.W || flat.Floorplan.H >= tall.Floorplan.H {
		t.Fatalf("shape constraint had no effect: flat %dx%d vs tall %dx%d",
			flat.Floorplan.W, flat.Floorplan.H, tall.Floorplan.W, tall.Floorplan.H)
	}
	if reflect.DeepEqual(flat.ChoiceOf, tall.ChoiceOf) {
		t.Fatal("constraints should select different fold choices")
	}
}

func TestTransistorChoicesEvenOnly(t *testing.T) {
	tr := &Transistor{Inst: "m", MaxFolds: 7}
	got := tr.Choices()
	want := []int{1, 2, 4, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("choices = %v, want %v", got, want)
	}
}

func TestPlanEvenOnlyFoldsHonoured(t *testing.T) {
	tech := techno.Default060()
	p, err := testDesign().Plan(tech, Constraint{MaxH: 40000})
	if err != nil {
		t.Fatal(err)
	}
	nf := p.Parasitics.Folds["MP1"].Folds
	if nf > 1 && nf%2 != 0 {
		t.Fatalf("even-only transistor got %d folds", nf)
	}
}

func TestGenerateSVG(t *testing.T) {
	tech := techno.Default060()
	p, err := testDesign().Plan(tech, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, p.Cell); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "</svg>") {
		t.Fatal("malformed SVG")
	}
	if strings.Count(s, "<rect") < 20 {
		t.Fatalf("suspiciously few shapes: %d", strings.Count(s, "<rect"))
	}
}

func TestPlanUnknownModuleInTree(t *testing.T) {
	tech := techno.Default060()
	d := testDesign()
	d.Tree.Leaves = append(d.Tree.Leaves, "ghost")
	if _, err := d.Plan(tech, Constraint{}); err == nil {
		t.Fatal("unknown module accepted")
	}
}

// TestPlanWellCapReported: a PMOS stack whose well is tied to a net
// reports its floating-well capacitance onto that net, and only there.
func TestPlanWellCapReported(t *testing.T) {
	tech := techno.Default060()
	d := testDesign()
	d.Modules = append(d.Modules, &MatchedStack{
		Label: "pair", Type: techno.PMOS,
		Devices: []stack.Device{
			{Name: "MP2", Units: 2, DrainNet: "out", GateNet: "bias"},
			{Name: "MP3", Units: 2, DrainNet: "bias", GateNet: "bias"},
		},
		SourceNet: "tail", BulkNet: "tail", WellNet: "tail",
		WidthPerBaseUnit: 10 * um, L: 1 * um,
		Currents: map[string]float64{"bias": 50e-6, "out": 50e-6},
	})
	d.Tree.Leaves = append(d.Tree.Leaves, "pair")
	p, err := d.Plan(tech, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Parasitics.WellCap["tail"] <= 0 || len(p.Parasitics.WellCap) != 1 {
		t.Fatalf("well caps %v, want one on the tail net", p.Parasitics.WellCap)
	}
}
