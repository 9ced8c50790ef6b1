package techeval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"loas/internal/techno"
)

const um = techno.Micron

func TestExtractVTNearCardValue(t *testing.T) {
	tech := techno.Default060()
	for _, mt := range []techno.MOSType{techno.NMOS, techno.PMOS} {
		vt := ExtractVT(tech, mt, 10*um, tech.Feature)
		card := tech.Card(mt)
		if math.Abs(vt-card.VT0) > 0.15 {
			t.Fatalf("%s: extracted VT %.3f far from card VT0 %.3f", mt, vt, card.VT0)
		}
	}
}

func TestGmIDCurveShape(t *testing.T) {
	tech := techno.Default060()
	curve := GmIDCurve(tech, techno.NMOS, 10*um, 1*um, 41)
	if len(curve) < 20 {
		t.Fatalf("curve too short: %d points", len(curve))
	}
	// gm/ID falls monotonically with VGS past weak inversion.
	for i := 1; i < len(curve); i++ {
		if curve[i].GmID > curve[i-1].GmID*1.01 {
			t.Fatalf("gm/ID not monotone at VGS=%.2f", curve[i].VGS)
		}
	}
	// Current is monotone increasing.
	for i := 1; i < len(curve); i++ {
		if curve[i].ID <= curve[i-1].ID {
			t.Fatalf("ID not monotone at VGS=%.2f", curve[i].VGS)
		}
	}
}

func TestGmIDWeakInversionPlateau(t *testing.T) {
	tech := techno.Default060()
	c := Characterize(tech, techno.NMOS)
	// Plateau ≈ 1/(n·vt); n ≈ 1.36 → ≈ 28/V. Allow a broad band.
	if c.GmIDMax < 18 || c.GmIDMax > 40 {
		t.Fatalf("gm/ID plateau %.1f outside the physical band", c.GmIDMax)
	}
}

func TestFTScalesWithLength(t *testing.T) {
	tech := techno.Default060()
	fShort := FT(tech, techno.NMOS, 10*um, 0.6*um, 0.2)
	fLong := FT(tech, techno.NMOS, 10*um, 2.4*um, 0.2)
	// fT ∝ µVeff/L²: 16× between these lengths ideally; demand > 6×.
	if fShort < 6*fLong {
		t.Fatalf("fT(0.6µ)=%.2g should be ≫ fT(2.4µ)=%.2g", fShort, fLong)
	}
	// Sub-GHz to few-GHz for a 0.6 µm process.
	if fShort < 0.3e9 || fShort > 30e9 {
		t.Fatalf("fT = %.2f GHz implausible for 0.6 µm", fShort/1e9)
	}
}

func TestNMOSFasterThanPMOS(t *testing.T) {
	tech := techno.Default060()
	fn := FT(tech, techno.NMOS, 10*um, tech.Feature, 0.2)
	fp := FT(tech, techno.PMOS, 10*um, tech.Feature, 0.2)
	if fn <= fp {
		t.Fatalf("NMOS fT %.2g must beat PMOS %.2g", fn, fp)
	}
}

func TestIntrinsicGainGrowsWithL(t *testing.T) {
	tech := techno.Default060()
	a1 := IntrinsicGain(tech, techno.NMOS, 10*um, 1*um, 0.2)
	a3 := IntrinsicGain(tech, techno.NMOS, 30*um, 3*um, 0.2)
	if a3 <= a1 {
		t.Fatalf("intrinsic gain should grow with L: %.0f vs %.0f", a3, a1)
	}
	if a1 < 20 || a1 > 500 {
		t.Fatalf("A0(1 µm) = %.0f implausible", a1)
	}
}

func TestSummaryAndCompare(t *testing.T) {
	tech := techno.Default060()
	c := Characterize(tech, techno.PMOS)
	if !strings.Contains(c.Summary(), "pmos") {
		t.Fatalf("summary: %s", c.Summary())
	}

	// A hypothetical faster process: thinner oxide, shorter channel.
	fast := techno.Default060()
	fast.Name = "generic-cmos-0.35um"
	fast.Feature = 0.35 * um
	fast.N.Cox *= 1.5
	fast.P.Cox *= 1.5
	cmp := Compare(tech, fast)
	for _, want := range []string{"nmos", "pmos", "fT", "gm/ID"} {
		if !strings.Contains(cmp, want) {
			t.Fatalf("comparison missing %q:\n%s", want, cmp)
		}
	}
	// The shorter-channel process must show higher fT.
	cSlow := Characterize(tech, techno.NMOS)
	cFast := Characterize(fast, techno.NMOS)
	if cFast.FTStrong <= cSlow.FTStrong {
		t.Fatal("shorter channel should be faster")
	}
}

// Compare renders a side-by-side comparison of two technologies — the
// "helps to choose the most suitable technology" use case. No command
// prints it; TestSummaryAndCompare runs it on the 0.6 µm card against a
// hypothetical 0.35 µm one.
func Compare(a, b *techno.Tech) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "technology comparison: %s vs %s\n", a.Name, b.Name)
	for _, mt := range []techno.MOSType{techno.NMOS, techno.PMOS} {
		ca := Characterize(a, mt)
		cb := Characterize(b, mt)
		fmt.Fprintf(&sb, "  %s\n", mt)
		fmt.Fprintf(&sb, "    VTcc      %8.3f V    %8.3f V\n", ca.VTcc, cb.VTcc)
		fmt.Fprintf(&sb, "    gm/ID max %8.1f /V   %8.1f /V\n", ca.GmIDMax, cb.GmIDMax)
		fmt.Fprintf(&sb, "    fT(0.2V)  %8.2f GHz  %8.2f GHz\n", ca.FTStrong/1e9, cb.FTStrong/1e9)
		fmt.Fprintf(&sb, "    A0(1um)   %8.0f      %8.0f\n", ca.A0PerUm, cb.A0PerUm)
	}
	return sb.String()
}
