package core

import (
	"context"
	"strings"
	"testing"

	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// TestSynthesizeEveryTopology drives the full case-4 sizing↔layout
// convergence loop — including the extracted-netlist verification — for
// every registered design plan, checking that each run converges, emits
// a labelled convergence trace, and lands near its own spec targets.
// This is the acceptance gate for the topology registry: the loop must
// be genuinely plan-agnostic, not folded-cascode-with-a-rename.
func TestSynthesizeEveryTopology(t *testing.T) {
	for _, name := range sizing.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tech := techno.Default060()
			plan, err := sizing.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := plan.DefaultSpec()
			live := &obs.Trace{}
			res, err := Synthesize(tech, spec, Options{
				Topology: name, Case: 4, Ctx: obs.ContextWithTrace(context.Background(), live),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Topology != plan.Name {
				t.Fatalf("Result.Topology = %q, want %q", res.Topology, plan.Name)
			}
			if res.Spec != spec {
				t.Fatalf("Result.Spec diverged from the requested spec")
			}
			if len(res.Trace) < 2 {
				t.Fatalf("case-4 run recorded %d trace events, want ≥ 2 (no layout feedback?)", len(res.Trace))
			}
			if !obs.Converged(res.Trace, 1e-15) {
				t.Fatalf("trace does not show parasitic convergence: %+v", res.Trace)
			}
			for i, it := range res.Trace {
				if it.Topology != plan.Name {
					t.Fatalf("trace event %d labelled %q, want %q", i, it.Topology, plan.Name)
				}
				if it.FN1CapF <= 0 {
					t.Fatalf("trace event %d: hot net %q reported no capacitance", i, res.Design.HotNet())
				}
			}
			if got := live.Iterations(); len(got) != len(res.Trace) {
				t.Fatalf("live recorder got %d events, result has %d", len(got), len(res.Trace))
			}
			// The verified design must be in the neighbourhood of its own
			// targets (wide tolerances — this is a smoke gate, the goldens
			// pin exact numbers).
			if res.Extracted.GBW < 0.9*spec.GBW {
				t.Fatalf("extracted GBW %.2f MHz way below target %.2f MHz",
					res.Extracted.GBW/1e6, spec.GBW/1e6)
			}
			if res.Extracted.PhaseDeg < spec.PM-5 {
				t.Fatalf("extracted PM %.1f° way below target %.1f°",
					res.Extracted.PhaseDeg, spec.PM)
			}
		})
	}
}

// TestTopologyRegistry pins the registry contract: the default resolves,
// the empty string aliases it, unknown names fail with the full listing,
// and every registered plan is complete.
func TestTopologyRegistry(t *testing.T) {
	names := sizing.Topologies()
	if len(names) < 3 {
		t.Fatalf("expected ≥ 3 registered topologies, got %v", names)
	}
	def, err := sizing.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != sizing.DefaultTopology {
		t.Fatalf("empty lookup resolved to %q, want %q", def.Name, sizing.DefaultTopology)
	}
	_, err = sizing.Lookup("no-such-ota")
	if err == nil {
		t.Fatal("unknown topology must error")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("unknown-topology error %q does not list %q", err, n)
		}
	}
	if _, err := Synthesize(techno.Default060(), sizing.Default65MHz(),
		Options{Topology: "no-such-ota", Case: 1}); err == nil {
		t.Fatal("Synthesize must reject an unknown topology")
	}
}

// TestCornerSweepTwoStage runs the corner verification on a non-default
// topology — corner retuning keyed by each bias source's Pos net.
func TestCornerSweepTwoStage(t *testing.T) {
	tech := techno.Default060()
	plan, err := sizing.Lookup("two-stage")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(tech, plan.DefaultSpec(), Options{Topology: "two-stage", Case: 4})
	if err != nil {
		t.Fatal(err)
	}
	corners, err := CornerSweep(context.Background(), tech, res)
	if err != nil {
		t.Fatal(err)
	}
	for c, p := range corners {
		if p.GBW <= 0 || p.PhaseDeg <= 0 {
			t.Fatalf("corner %s produced degenerate performance %+v", c, p)
		}
	}
}
