package sizing

import (
	"math"
	"testing"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/techno"
)

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
