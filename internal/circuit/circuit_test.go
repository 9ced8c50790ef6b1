package circuit

import (
	"strings"
	"testing"

	"loas/internal/device"
	"loas/internal/techno"
)

func TestNodeInterning(t *testing.T) {
	c := New("t")
	if c.Node("a") != c.Node("a") {
		t.Fatal("same name, different index")
	}
	if c.Node("0") != 0 || c.Node("gnd") != 0 || c.Node("GND") != 0 {
		t.Fatal("ground aliases broken")
	}
	if c.NumNodes() != 2 { // ground + a
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.nodeNames[0] != Ground {
		t.Fatal("node 0 must be ground")
	}
	if _, ok := c.NodeIndex("missing"); ok {
		t.Fatal("phantom node")
	}
}

func TestAddInternsAndLists(t *testing.T) {
	c := New("t")
	c.Add(
		&Resistor{Name: "1", A: "x", B: "y", R: 10},
		&VSource{Name: "v", Pos: "x", Neg: "0", DC: 1},
	)
	if _, ok := c.NodeIndex("y"); !ok {
		t.Fatal("Add should intern element nodes")
	}
	if len(c.VSources()) != 1 {
		t.Fatal("VSources missing")
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate element name must panic")
		}
	}()
	c := New("t")
	c.Add(&Resistor{Name: "1", A: "a", B: "b", R: 1})
	c.Add(&Resistor{Name: "1", A: "c", B: "d", R: 2})
}

func TestDuplicateAcrossKindsAllowed(t *testing.T) {
	c := New("t")
	c.Add(
		&Resistor{Name: "x", A: "a", B: "0", R: 1},
		&Capacitor{Name: "x", A: "a", B: "0", C: 1e-12},
	)
	if len(c.Elements) != 2 {
		t.Fatal("same name on different element kinds should be allowed")
	}
}

func TestFindMOS(t *testing.T) {
	tech := techno.Default060()
	c := New("t")
	m := &MOSFET{Name: "1", D: "d", G: "g", S: "0", B: "0",
		Dev: device.MOS{Card: &tech.N, W: 1e-5, L: 1e-6}}
	c.Add(m)
	if c.FindMOS("1") != m {
		t.Fatal("FindMOS failed")
	}
	if c.FindMOS("zz") != nil {
		t.Fatal("phantom MOS")
	}
	if len(c.MOSFETs()) != 1 {
		t.Fatal("MOSFETs list wrong")
	}
}

func TestExportDeck(t *testing.T) {
	tech := techno.Default060()
	c := New("deck")
	c.Add(
		&VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3, ACMag: 1},
		&Resistor{Name: "l", A: "vdd", B: "out", R: 1e4},
		&Capacitor{Name: "c", A: "out", B: "0", C: 1e-12},
		&ISource{Name: "b", Pos: "out", Neg: "0", DC: 1e-6},
		&MOSFET{Name: "1", D: "out", G: "vdd", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: 10e-6, L: 1e-6}},
	)
	deck := c.Export()
	for _, want := range []string{
		"* deck", "Vdd vdd 0 DC 3.3 AC 1", "Rl vdd out 10000",
		"Cc out 0 1e-12", "Ib out 0 DC 1e-06",
		"M1 out vdd 0 0 nmos W=10u L=1u", ".end",
	} {
		if !strings.Contains(deck, want) {
			t.Fatalf("deck missing %q:\n%s", want, deck)
		}
	}
}

func TestNodeCap(t *testing.T) {
	c := New("t")
	c.Add(
		&Capacitor{Name: "1", A: "x", B: "0", C: 1e-12},
		&Capacitor{Name: "2", A: "x", B: "y", C: 2e-12},
		&Capacitor{Name: "3", A: "z", B: "0", C: 4e-12},
	)
	if got := c.NodeCap("x"); got != 3e-12 {
		t.Fatalf("NodeCap(x) = %g", got)
	}
}

func TestNodesSorted(t *testing.T) {
	c := New("t")
	c.Node("zeta")
	c.Node("alpha")
	n := c.Nodes()
	if len(n) != 2 || n[0] != "alpha" || n[1] != "zeta" {
		t.Fatalf("Nodes() = %v", n)
	}
}

func TestPulseDefaults(t *testing.T) {
	// Zero-width pulse holds V2 forever (SPICE default behaviour).
	p := &Pulse{V1: 0, V2: 1, Delay: 1e-9, Rise: 1e-10}
	if p.At(0.5e-9) != 0 {
		t.Fatal("before delay should be V1")
	}
	if p.At(1e-3) != 1 {
		t.Fatal("zero width must hold V2")
	}
	var nilPulse *Pulse
	if nilPulse.At(1) != 0 {
		t.Fatal("nil pulse should read 0")
	}
}

func TestSourceValue(t *testing.T) {
	v := &VSource{Name: "x", Pos: "a", Neg: "0", DC: 2,
		Pulse: &Pulse{V1: 0, V2: 5, Rise: 1e-12}}
	if v.Value(1) != 5 {
		t.Fatal("pulse should win in transient")
	}
	v.Pulse = nil
	if v.Value(1) != 2 {
		t.Fatal("DC fallback broken")
	}
	i := &ISource{Name: "y", Pos: "a", Neg: "0", DC: 3e-3}
	if i.Value(0.5) != 3e-3 {
		t.Fatal("ISource DC fallback broken")
	}
}
