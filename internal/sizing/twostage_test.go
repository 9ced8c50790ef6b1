package sizing

import (
	"math"
	"sync"
	"testing"

	"loas/internal/circuit"
	"loas/internal/layout/cairo"
	"loas/internal/sim"
	"loas/internal/techno"
)

func twoStageSpec() OTASpec {
	return OTASpec{VDD: 3.3, GBW: 20e6, PM: 65, CL: 5e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.4, OutHigh: 2.9}
}

var (
	tsOnce sync.Once
	tsDes  *TwoStage
	tsErr  error
)

func sizedTwoStage(t *testing.T) *TwoStage {
	t.Helper()
	tsOnce.Do(func() {
		tech := techno.Default060()
		ps, _ := Case(1)
		tsDes, tsErr = SizeTwoStage(tech, twoStageSpec(), ps)
	})
	if tsErr != nil {
		t.Fatal(tsErr)
	}
	return tsDes
}

func TestTwoStageMeetsSpec(t *testing.T) {
	d := sizedTwoStage(t)
	spec := twoStageSpec()
	if d.Predicted.GBW < 0.97*spec.GBW {
		t.Fatalf("GBW %.2f MHz misses target", d.Predicted.GBW/1e6)
	}
	if d.Predicted.PhaseDeg < spec.PM-1 {
		t.Fatalf("PM %.2f° misses target", d.Predicted.PhaseDeg)
	}
	if d.Predicted.DCGainDB < 50 {
		t.Fatalf("gain %.1f dB too low for two stages", d.Predicted.DCGainDB)
	}
}

func TestTwoStageMillerNetwork(t *testing.T) {
	d := sizedTwoStage(t)
	if d.CC <= 0 || d.RZ <= 0 {
		t.Fatal("compensation network missing")
	}
	// Rz ≈ 1/gm6 — a few hundred ohms for MHz-class designs.
	if d.RZ < 10 || d.RZ > 100e3 {
		t.Fatalf("RZ = %.0f Ω implausible", d.RZ)
	}
	// Second stage must carry much more current than the first
	// (gm6 >> gm1 for pole splitting).
	if d.I6 < d.Itail {
		t.Fatalf("second stage current %.1f µA below tail %.1f µA",
			d.I6*1e6, d.Itail*1e6)
	}
}

func TestTwoStageNetlistSimulates(t *testing.T) {
	d := sizedTwoStage(t)
	ckt := d.Netlist("ts")
	vcm := d.NodeEst[NetInP]
	ckt.Add(
		&circuit.VSource{Name: "ip", Pos: NetInP, Neg: "0", DC: vcm},
		&circuit.VSource{Name: "in", Pos: NetInN, Neg: "0", DC: vcm},
		&circuit.Capacitor{Name: "load", A: NetOut, B: "0", C: d.Spec.CL},
	)
	eng := sim.NewEngine(ckt, d.Tech.Temp)
	r, err := eng.OP(sim.OPOptions{NodeSet: d.NodeSet()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MT1, MT2, MT3, MT4, MT5, MT6, MT7} {
		op := r.MOSOP(name)
		if op.Region.String() != "saturation" {
			t.Fatalf("%s in %v (VDS=%.3f)", name, op.Region, op.VDS)
		}
	}
	// First-stage mirror splits the tail evenly.
	i1, i2 := r.MOSOP(MT1).ID, r.MOSOP(MT2).ID
	if math.Abs(i1-i2) > 0.05*math.Abs(i1) {
		t.Fatalf("pair imbalance: %g vs %g", i1, i2)
	}
}

func TestTwoStageLayoutComplete(t *testing.T) {
	d := sizedTwoStage(t)
	plan, err := d.Layout().Plan(d.Tech, cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{MT1, MT2, MT3, MT4, MT5, MT6, MT7} {
		if _, ok := plan.Parasitics.DeviceGeom[inst]; !ok {
			t.Fatalf("%s missing from the layout", inst)
		}
	}
	// The Miller network nets must be wired.
	for _, n := range []string{NetX2, NetOut, NetCZ} {
		if plan.Parasitics.NetCap[n] <= 0 {
			t.Fatalf("net %s unrouted", n)
		}
	}
	if plan.Parasitics.AreaUM2 <= 0 {
		t.Fatal("no area")
	}
}

func TestTwoStageSlewRateBudget(t *testing.T) {
	d := sizedTwoStage(t)
	// SR limited by the smaller of Itail/CC and I6/CL.
	want := math.Min(d.Itail/d.CC, d.I6/d.Spec.CL)
	if math.Abs(d.Predicted.SlewRate-want) > 1e-6*want {
		t.Fatalf("SR prediction inconsistent: %g vs %g", d.Predicted.SlewRate, want)
	}
}

func TestTwoStageRejectsImpossibleSpec(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	spec := twoStageSpec()
	spec.GBW = 10e9 // far beyond the 0.6 µm process
	if _, err := SizeTwoStage(tech, spec, ps); err == nil {
		t.Fatal("10 GHz accepted in a 0.6 µm process")
	}
	if _, err := SizeTwoStage(tech, OTASpec{}, ps); err == nil {
		t.Fatal("empty spec accepted")
	}
}
