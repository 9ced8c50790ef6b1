package meas_test

import (
	"math"
	"reflect"
	"testing"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/meas"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// TestMeasureMatchesReference holds Measure, which runs the offset
// search and every small-signal measurement on one open-loop netlist and
// engine, to RefMeasure, which builds a fresh netlist and engine per
// probe and per measurement: every Performance field must carry the
// same bits. The benches are each registered topology's assumed and
// extracted netlists at case 4, and one bench whose output target lies
// beyond the output swing, so the offset search takes its same-sign
// fallback.
func TestMeasureMatchesReference(t *testing.T) {
	tech := techno.Default060()
	type bench struct {
		name    string
		b       meas.Bench
		bisects bool // false: the offset search takes its fallback at 0 V
	}
	var benches []bench
	for _, topo := range sizing.Topologies() {
		plan, err := sizing.Lookup(topo)
		if err != nil {
			t.Fatal(err)
		}
		spec := plan.DefaultSpec()
		res, err := core.Synthesize(tech, spec, core.Options{Topology: topo, Case: 4, SkipVerify: true})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		d := res.Design
		benches = append(benches,
			bench{topo + "/assumed", core.OTABench(tech, spec, d, func() *circuit.Circuit {
				return d.AssumedNetlist("assumed")
			}), true},
			bench{topo + "/extracted", core.OTABench(tech, spec, d, func() *circuit.Circuit {
				return core.ExtractedNetlist(tech, d, res.Parasitics)
			}), true})
		if topo == "folded-cascode" {
			out := core.OTABench(tech, spec, d, func() *circuit.Circuit {
				return d.AssumedNetlist("assumed")
			})
			out.VoutMid = spec.VDD // above the output swing at either probe
			benches = append(benches, bench{topo + "/same-sign", out, false})
		}
	}

	for _, bc := range benches {
		got, err := meas.Measure(bc.b)
		want, refErr := meas.RefMeasure(bc.b)
		if err != nil || refErr != nil {
			t.Fatalf("%s: Measure error %v, reference error %v", bc.name, err, refErr)
		}
		if bisected := got.Perf.Offset != 0; bisected != bc.bisects {
			t.Fatalf("%s: offset %g; want the search to bisect: %v", bc.name, got.Perf.Offset, bc.bisects)
		}
		g, w := reflect.ValueOf(got.Perf), reflect.ValueOf(want.Perf)
		for i := 0; i < g.NumField(); i++ {
			gv, wv := g.Field(i).Float(), w.Field(i).Float()
			if math.Float64bits(gv) != math.Float64bits(wv) {
				t.Errorf("%s: %s = %x, reference %x", bc.name, g.Type().Field(i).Name, gv, wv)
			}
		}
	}
}
