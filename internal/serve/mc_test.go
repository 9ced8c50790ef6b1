package serve

import (
	"context"
	"testing"

	"loas/internal/circuit"
	"loas/internal/mc"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// TestRunMCUsesVerificationBias: at a spec whose input common-mode range
// centres below 0.3 V, RunMC nulls the offset at the common mode
// verification uses (core.OTABench floors it at 0.3 V), not at the
// range's centre. Its statistics match a run at 0.3 V bit for bit and
// differ from one at the unfloored −0.025 V.
func TestRunMCUsesVerificationBias(t *testing.T) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	spec.ICMHigh = 0.5 // centre −0.025 V
	const caseN, n, seed = 1, 8, 3
	rep, err := RunMC(context.Background(), tech, spec, "", caseN, n, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := sizing.Lookup("")
	ps, _ := sizing.Case(caseN)
	d, err := plan.Size(tech, spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	at := func(vicm float64) mc.OffsetStats {
		st, err := mc.RunOffset(mc.OffsetConfig{
			Build:   func() *circuit.Circuit { return d.Netlist("mc") },
			InP:     sizing.NetInP,
			InN:     sizing.NetInN,
			Out:     sizing.NetOut,
			VicmDC:  vicm,
			VoutMid: 0.5 * (spec.OutLow + spec.OutHigh),
			Temp:    tech.Temp,
			NodeSet: d.NodeSet(),
		}, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	if want := at(0.3); rep.Stats != want {
		t.Fatalf("RunMC stats %+v, want verification's 0.3 V common mode %+v", rep.Stats, want)
	}
	if centre := at(0.5 * (spec.ICMLow + spec.ICMHigh)); rep.Stats == centre {
		t.Fatalf("stats %+v equal the unfloored common mode's: the test cannot tell them apart", centre)
	}
}
