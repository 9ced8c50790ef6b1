package motif

import (
	"math"
	"testing"

	"loas/internal/device"
	"loas/internal/techno"
)

const um = techno.Micron

func defaultSpec() Spec {
	return Spec{
		Name: "m1", Type: techno.NMOS,
		W: 48 * um, L: 1 * um, Folds: 4,
		DrainNet: "out", GateNet: "in", SourceNet: "gnd", BulkNet: "gnd",
		IDrain: 200e-6,
	}
}

func TestBuildBasics(t *testing.T) {
	tech := techno.Default060()
	m, err := Build(tech, defaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.Width <= 0 || m.Height <= 0 {
		t.Fatalf("degenerate cell %dx%d", m.Width, m.Height)
	}
	// Expected width: 4 gates + 5 strips.
	want := 4*1000 + 5*1700
	if int64(want) > m.Width {
		t.Fatalf("width %d below active row %d", m.Width, want)
	}
	// All four ports present.
	for _, p := range []string{"D", "G", "S", "B"} {
		found := false
		for _, port := range m.Cell.Ports {
			if port.Name == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("port %s missing", p)
		}
	}
	if err := m.Cell.CheckGrid(tech.Rules.Grid); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGeomMatchesPlan(t *testing.T) {
	// The geometry handed to the sizing tool must match the fold plan.
	tech := techno.Default060()
	spec := defaultSpec()
	m, err := Build(tech, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := device.PlanFolds(&tech.Rules, spec.W, spec.Folds, device.DrainInternal).Geom(tech)
	if m.Geom != want {
		t.Fatalf("geom %+v != plan %+v", m.Geom, want)
	}
}

func TestBuildFoldCountsShapes(t *testing.T) {
	tech := techno.Default060()
	spec := defaultSpec()
	m1, _ := Build(tech, spec)
	spec.Folds = 8
	m8, _ := Build(tech, spec)
	if m8.Width <= m1.Width {
		t.Fatal("more folds must widen the cell")
	}
	if m8.Height >= m1.Height {
		t.Fatal("more folds must shorten the cell")
	}
}

func TestBuildPolyCount(t *testing.T) {
	tech := techno.Default060()
	spec := defaultSpec()
	spec.Folds = 6
	m, _ := Build(tech, spec)
	fingers := 0
	for _, s := range m.Cell.Shapes {
		if s.Layer == techno.LayerPoly && s.R.W() < s.R.H() {
			fingers++
		}
	}
	if fingers != 6 {
		t.Fatalf("poly fingers = %d, want 6", fingers)
	}
}

func TestBuildPMOSGetsWell(t *testing.T) {
	tech := techno.Default060()
	spec := defaultSpec()
	spec.Type = techno.PMOS
	spec.SourceNet, spec.BulkNet = "vdd", "vdd"
	m, err := Build(tech, spec)
	if err != nil {
		t.Fatal(err)
	}
	bb := m.Cell.BBox()
	// Well encloses everything: bbox is the well itself.
	var well *techno.Layer
	for _, s := range m.Cell.Shapes {
		if s.Layer == techno.LayerNWell {
			l := s.Layer
			well = &l
			if s.R != bb {
				t.Fatalf("well %v does not bound the cell %v", s.R, bb)
			}
		}
	}
	if well == nil {
		t.Fatal("PMOS must have an n-well")
	}
}

func TestBuildNMOSNoWell(t *testing.T) {
	tech := techno.Default060()
	m, _ := Build(tech, defaultSpec())
	for _, s := range m.Cell.Shapes {
		if s.Layer == techno.LayerNWell {
			t.Fatal("NMOS must not have an n-well")
		}
	}
}

func TestWireWidthFollowsCurrent(t *testing.T) {
	tech := techno.Default060()
	// 1 mA at 1 mA/µm → 1 µm > min 0.8 µm.
	if w := WireWidthNM(tech, 1e-3); w != 1000 {
		t.Fatalf("1 mA wire = %d nm, want 1000", w)
	}
	// Small current → minimum width.
	if w := WireWidthNM(tech, 1e-6); w != tech.Rules.Metal1Width {
		t.Fatalf("tiny current wire = %d nm, want min", w)
	}
	// 5 mA → 5 µm.
	if w := WireWidthNM(tech, 5e-3); w != 5000 {
		t.Fatalf("5 mA wire = %d nm, want 5000", w)
	}
}

func TestContactsForCurrent(t *testing.T) {
	tech := techno.Default060()
	if n := ContactsForCurrent(tech, 0, 10); n != 1 {
		t.Fatalf("zero current: %d contacts, want 1", n)
	}
	if n := ContactsForCurrent(tech, 2e-3, 10); n != 3 {
		t.Fatalf("2 mA at 0.8 mA/contact: %d, want 3", n)
	}
	if n := ContactsForCurrent(tech, 50e-3, 10); n != 10 {
		t.Fatalf("clamps at fit: %d, want 10", n)
	}
}

func TestBuildHighCurrentWidensRails(t *testing.T) {
	tech := techno.Default060()
	lo := defaultSpec()
	lo.IDrain = 10e-6
	hi := defaultSpec()
	hi.IDrain = 5e-3
	mLo, _ := Build(tech, lo)
	mHi, _ := Build(tech, hi)
	railH := func(m *Motif) int64 {
		var best int64
		for _, s := range m.Cell.Shapes {
			if s.Layer == techno.LayerMetal1 && s.Net == "out" && s.R.W() > s.R.H() {
				if s.R.H() > best {
					best = s.R.H()
				}
			}
		}
		return best
	}
	if railH(mHi) <= railH(mLo) {
		t.Fatalf("5 mA drain rail %d nm not wider than 10 µA rail %d nm",
			railH(mHi), railH(mLo))
	}
	if mHi.ContactsPerStrip <= mLo.ContactsPerStrip {
		t.Fatal("high current should add contacts")
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	tech := techno.Default060()
	spec := defaultSpec()
	spec.W = 0
	if _, err := Build(tech, spec); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestRailCapPositive(t *testing.T) {
	tech := techno.Default060()
	m, _ := Build(tech, defaultSpec())
	for _, net := range []string{"out", "gnd"} {
		if m.RailCap[net] <= 0 {
			t.Fatalf("rail cap on %s = %g", net, m.RailCap[net])
		}
	}
	// Sanity: internal wiring of a 50 µm device is tens of fF at most.
	if m.RailCap["out"] > 100e-15 {
		t.Fatalf("drain wiring cap implausibly large: %g", m.RailCap["out"])
	}
	if math.IsNaN(m.RailCap["out"]) {
		t.Fatal("NaN rail cap")
	}
}
