package meas_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/layout"
	"loas/internal/meas"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// Where a bench's slew transient ends.
const (
	stopsEarly = "before 12/GBW"
	stopsLate  = "after 12/GBW, before the full window"
	runsFull   = "at the full 60/GBW window" // the stop rule never fires
)

// TestMeasureMatchesReference holds Measure, which runs the offset
// search and every small-signal measurement on one open-loop netlist and
// engine and stops the slew transient once the output has settled, to
// RefMeasure, which builds a fresh netlist and engine per probe and per
// measurement and runs the slew transient's full window: every
// Performance field must carry the same bits. The benches are each
// registered topology's assumed and extracted netlists at case 4; one
// bench whose output target lies beyond the output swing, so the offset
// search takes its same-sign fallback; and the two-stage assumed netlist
// with its Miller capacitor scaled down, so that the output rings. At
// ×0.03 the transient stops late; at ×0.02 it rings through the whole
// window, and the stop rule's fallback runs it in full.
func TestMeasureMatchesReference(t *testing.T) {
	tech := techno.Default060()
	type bench struct {
		name    string
		b       meas.Bench
		bisects bool   // false: the offset search takes its fallback at 0 V
		stop    string // where the slew transient ends
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
			}), true, stopsEarly},
			bench{topo + "/extracted", core.OTABench(tech, spec, d, func() *circuit.Circuit {
				return core.ExtractedNetlist(tech, d, res.Parasitics)
			}), true, stopsEarly})
		switch topo {
		case "folded-cascode":
			out := core.OTABench(tech, spec, d, func() *circuit.Circuit {
				return d.AssumedNetlist("assumed")
			})
			out.VoutMid = spec.VDD // above the output swing at either probe
			benches = append(benches, bench{topo + "/same-sign", out, false, stopsEarly})
		case "two-stage":
			for _, m := range []struct {
				scale float64
				stop  string
			}{{0.03, stopsLate}, {0.02, runsFull}} {
				b := core.OTABench(tech, spec, d, func() *circuit.Circuit {
					ckt := d.AssumedNetlist("assumed")
					for _, el := range ckt.Elements {
						if c, ok := el.(*circuit.Capacitor); ok && c.Name == "c" {
							c.C *= m.scale
						}
					}
					return ckt
				})
				benches = append(benches, bench{fmt.Sprintf("%s/miller×%g", topo, m.scale), b, true, m.stop})
			}
		}
	}

	for _, bc := range benches {
		got := sameAsReference(t, bc.name, bc.b)
		if bisected := got.Offset != 0; bisected != bc.bisects {
			t.Fatalf("%s: offset %g; want the search to bisect: %v", bc.name, got.Offset, bc.bisects)
		}
		end, err := meas.SlewEnd(bc.b, got.GBW)
		if err != nil {
			t.Fatalf("%s: slew transient: %v", bc.name, err)
		}
		stop := stopsLate
		switch {
		case end < 12:
			stop = stopsEarly
		case end > 60-0.01: // the last grid point, 60/GBW up to rounding
			stop = runsFull
		}
		if stop != bc.stop {
			t.Errorf("%s: slew transient ends at %.2f/GBW, want it to end %s", bc.name, end, bc.stop)
		}
	}
}

// TestMeasureMatchesReferencePopulation holds Measure to RefMeasure over
// a population: the assumed and the extracted netlist of each case-4
// synthesis of each topology, on every layout backend, at four corners
// of loasbench's spec box (GBW ×0.85–1.05, PM −3…+1°, CL ×0.8–1.2). A
// synthesis that fails is logged, not dropped silently: the layout
// loop's spine-collision and non-convergence defects fail 3 of the 24
// today, and fewer converging fails the test.
func TestMeasureMatchesReferencePopulation(t *testing.T) {
	const minConverged = 21
	tech := techno.Default060()
	corners := []struct{ gbw, pm, cl float64 }{
		{0.85, -3, 0.8}, {1.05, 1, 1.2}, {0.85, 1, 1.2}, {1.05, -3, 0.8},
	}
	runs, converged := 0, 0
	for _, topo := range sizing.Topologies() {
		plan, err := sizing.Lookup(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range layout.Backends() {
			for _, c := range corners {
				spec := plan.DefaultSpec()
				spec.GBW *= c.gbw
				spec.PM += c.pm
				spec.CL *= c.cl
				name := fmt.Sprintf("%s/%s/gbw×%g,pm%+g°,cl×%g", topo, backend.Name, c.gbw, c.pm, c.cl)
				runs++
				res, err := core.Synthesize(tech, spec, core.Options{Topology: topo, Case: 4, Layout: backend.Name, SkipVerify: true})
				if err != nil {
					t.Logf("%s: synthesis failed: %v", name, err)
					continue
				}
				converged++
				d := res.Design
				sameAsReference(t, name+"/assumed", core.OTABench(tech, spec, d, func() *circuit.Circuit {
					return d.AssumedNetlist("assumed")
				}))
				sameAsReference(t, name+"/extracted", core.OTABench(tech, spec, d, func() *circuit.Circuit {
					return core.ExtractedNetlist(tech, d, res.Parasitics)
				}))
			}
		}
	}
	t.Logf("%d of %d syntheses converged; %d benches compared with the reference", converged, runs, 2*converged)
	if converged < minConverged {
		t.Fatalf("%d of %d syntheses converged, want at least %d", converged, runs, minConverged)
	}
}

// sameAsReference measures b with Measure and with RefMeasure, reports
// every Performance field whose bits differ, and returns Measure's
// result.
func sameAsReference(t *testing.T, name string, b meas.Bench) sizing.Performance {
	t.Helper()
	got, err := meas.Measure(b)
	want, refErr := meas.RefMeasure(b)
	if err != nil || refErr != nil {
		t.Fatalf("%s: Measure error %v, reference error %v", name, err, refErr)
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		gv, wv := g.Field(i).Float(), w.Field(i).Float()
		if math.Float64bits(gv) != math.Float64bits(wv) {
			t.Errorf("%s: %s = %x, reference %x", name, g.Type().Field(i).Name, gv, wv)
		}
	}
	return got
}
