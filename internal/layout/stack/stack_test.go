package stack

import (
	"strings"
	"testing"

	"loas/internal/techno"
)

const um = techno.Micron

// fig3Spec is the paper's Fig. 3 current mirror: M1:M2:M3 = 1:3:6 sharing
// a common source.
func fig3Spec() PatternSpec {
	return PatternSpec{
		Devices: []Device{
			{Name: "M1", Units: 1, DrainNet: "d1", GateNet: "g"},
			{Name: "M2", Units: 3, DrainNet: "d2", GateNet: "g"},
			{Name: "M3", Units: 6, DrainNet: "d3", GateNet: "g"},
		},
		SourceNet: "gnd",
	}
}

func TestGenerateFig3Counts(t *testing.T) {
	p, err := Generate(fig3Spec())
	if err != nil {
		t.Fatal(err)
	}
	if p.UnitCount(0) != 1 || p.UnitCount(1) != 3 || p.UnitCount(2) != 6 {
		t.Fatalf("unit counts wrong: %d %d %d", p.UnitCount(0), p.UnitCount(1), p.UnitCount(2))
	}
	// End dummies present.
	if !p.Units[0].IsDummy() || !p.Units[len(p.Units)-1].IsDummy() {
		t.Fatalf("end dummies missing: %s", p)
	}
	if len(p.Strips) != len(p.Units)+1 {
		t.Fatal("strips/units mismatch")
	}
}

func TestGenerateCentroid(t *testing.T) {
	p, err := Generate(fig3Spec())
	if err != nil {
		t.Fatal(err)
	}
	errs := p.CentroidError()
	// Isolation dummies make exact zero unreachable for every device at
	// once; the optimizer should stay within half a pitch for the big
	// device and 2.5 pitches for the odd-count ones.
	if errs["M3"] > 0.5 {
		t.Fatalf("M3 centroid error %g (pattern %s)", errs["M3"], p)
	}
	for _, d := range []string{"M1", "M2"} {
		if errs[d] > 2.5 {
			t.Fatalf("%s centroid error %g too large (pattern %s)", d, errs[d], p)
		}
	}
	if p.InsertedDummies > 2 {
		t.Fatalf("optimizer left %d inserted dummies (pattern %s)", p.InsertedDummies, p)
	}
}

func TestGenerateStripsConsistent(t *testing.T) {
	p, err := Generate(fig3Spec())
	if err != nil {
		t.Fatal(err)
	}
	// Every non-dummy unit's two adjacent strips must be exactly its
	// source and drain nets.
	for i, u := range p.Units {
		if u.IsDummy() {
			continue
		}
		d := p.Spec.Devices[u.Dev]
		l, r := p.Strips[i], p.Strips[i+1]
		want := [2]string{"gnd", d.DrainNet}
		if u.Flip {
			want = [2]string{d.DrainNet, "gnd"}
		}
		if l != want[0] || r != want[1] {
			t.Fatalf("unit %d (%s flip=%v): strips %s|%s, want %s|%s",
				i, d.Name, u.Flip, l, r, want[0], want[1])
		}
	}
}

func TestGeneratePairABBA(t *testing.T) {
	// Two equal devices, 2 units each → perfect common centroid, no
	// inserted dummies, balanced orientation.
	p, err := Generate(PatternSpec{
		Devices: []Device{
			{Name: "A", Units: 2, DrainNet: "da", GateNet: "ga"},
			{Name: "B", Units: 2, DrainNet: "db", GateNet: "gb"},
		},
		SourceNet: "tail",
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := p.CentroidError()
	if errs["A"] > 0.5 || errs["B"] > 0.5 {
		t.Fatalf("pair centroid errors %v (pattern %s)", errs, p)
	}
	imb := p.OrientationImbalance()
	if imb["A"] > 2 || imb["B"] > 2 {
		t.Fatalf("orientation imbalance %v (pattern %s)", imb, p)
	}
	if p.InsertedDummies > 1 {
		t.Fatalf("pair needs at most one isolation dummy (pattern %s)", p)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(PatternSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Generate(PatternSpec{
		Devices:   []Device{{Name: "A", Units: 0, DrainNet: "d"}},
		SourceNet: "s",
	}); err == nil {
		t.Fatal("zero units accepted")
	}
	if _, err := Generate(PatternSpec{
		Devices:   []Device{{Name: "A", Units: 1, DrainNet: "s"}},
		SourceNet: "s",
	}); err == nil {
		t.Fatal("drain == source accepted")
	}
	if _, err := Generate(PatternSpec{
		Devices: []Device{
			{Name: "A", Units: 1, DrainNet: "d"},
			{Name: "A", Units: 1, DrainNet: "e"},
		},
		SourceNet: "s",
	}); err == nil {
		t.Fatal("duplicate device accepted")
	}
}

func TestPatternString(t *testing.T) {
	p, _ := Generate(fig3Spec())
	s := p.String()
	if !strings.Contains(s, "[dum]") || !strings.Contains(s, "M3") {
		t.Fatalf("render missing elements: %s", s)
	}
}

func TestBuildFig3Geometry(t *testing.T) {
	tech := techno.Default060()
	p, _ := Generate(fig3Spec())
	st, err := Build(tech, p, BuildSpec{
		Name: "mirror", Type: techno.NMOS,
		UnitW: 8 * um, L: 2 * um, BulkNet: "gnd",
		Currents: map[string]float64{"d1": 20e-6, "d2": 60e-6, "d3": 120e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Cell.CheckGrid(tech.Rules.Grid); err != nil {
		t.Fatal(err)
	}
	if st.Width <= 0 || st.Height <= 0 {
		t.Fatal("degenerate stack")
	}
	// Junction geometry: every device must have positive areas; M3's
	// drain area should be about 6× M1's (six strips… minus sharing).
	g1, g3 := st.Geoms["M1"], st.Geoms["M3"]
	if g1.AD <= 0 || g3.AD <= 0 {
		t.Fatal("missing junction geometry")
	}
	ratio := g3.AD / g1.AD
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("AD ratio M3/M1 = %g, want a few × (sharing shrinks it below 6)", ratio)
	}
	// Source allocation proportional to unit count.
	if st.Geoms["M3"].AS <= st.Geoms["M1"].AS {
		t.Fatal("source area allocation not proportional")
	}
}

func TestBuildSeparateGateNets(t *testing.T) {
	tech := techno.Default060()
	p, _ := Generate(PatternSpec{
		Devices: []Device{
			{Name: "A", Units: 2, DrainNet: "da", GateNet: "ga"},
			{Name: "B", Units: 2, DrainNet: "db", GateNet: "gb"},
		},
		SourceNet: "tail",
	})
	st, err := Build(tech, p, BuildSpec{
		Name: "pair", Type: techno.PMOS,
		UnitW: 20 * um, L: 1 * um, BulkNet: "vdd",
		Currents: map[string]float64{"da": 100e-6, "db": 100e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both gate ports exist on distinct nets.
	var g0, g1 bool
	for _, port := range st.Cell.Ports {
		if port.Net == "ga" {
			g0 = true
		}
		if port.Net == "gb" {
			g1 = true
		}
	}
	if !g0 || !g1 {
		t.Fatal("separate gate nets need separate ports")
	}
	// PMOS stack gets a well.
	if a, _ := st.WellAreaM2(); a <= 0 {
		t.Fatal("PMOS stack missing well")
	}
}

func TestBuildRejectsThreeGateNets(t *testing.T) {
	tech := techno.Default060()
	p, _ := Generate(PatternSpec{
		Devices: []Device{
			{Name: "A", Units: 2, DrainNet: "da", GateNet: "ga"},
			{Name: "B", Units: 2, DrainNet: "db", GateNet: "gb"},
			{Name: "C", Units: 2, DrainNet: "dc", GateNet: "gc"},
		},
		SourceNet: "s",
	})
	if _, err := Build(tech, p, BuildSpec{
		Name: "bad", Type: techno.NMOS, UnitW: 5 * um, L: 1 * um, BulkNet: "gnd",
	}); err == nil {
		t.Fatal("three gate nets accepted")
	}
}

func TestBuildRejectsSharedDrainNet(t *testing.T) {
	tech := techno.Default060()
	p, _ := Generate(PatternSpec{
		Devices: []Device{
			{Name: "A", Units: 2, DrainNet: "d", GateNet: "g"},
			{Name: "B", Units: 2, DrainNet: "d", GateNet: "g"},
		},
		SourceNet: "s",
	})
	if _, err := Build(tech, p, BuildSpec{
		Name: "bad", Type: techno.NMOS, UnitW: 5 * um, L: 1 * um, BulkNet: "gnd",
	}); err == nil {
		t.Fatal("shared drain net accepted")
	}
}

func TestOrientationAlternatesWithinRuns(t *testing.T) {
	// Within a run of one device, orientations must alternate so shared
	// strips work — giving balanced current directions for even runs.
	p, _ := Generate(fig3Spec())
	imb := p.OrientationImbalance()
	if imb["M3"] > 2 {
		t.Fatalf("M3 orientation imbalance %d (pattern %s)", imb["M3"], p)
	}
}

func TestInsertedDummiesIsolate(t *testing.T) {
	p, _ := Generate(fig3Spec())
	// Wherever a dummy sits mid-stack, its neighbours' exposed nets differ.
	for i, u := range p.Units {
		if !u.IsDummy() || i == 0 || i == len(p.Units)-1 {
			continue
		}
		if p.Strips[i] == p.Strips[i+1] {
			t.Fatalf("dummy at %d separates identical nets %q (pattern %s)",
				i, p.Strips[i], p)
		}
	}
}
