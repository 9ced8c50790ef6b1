package rows

import (
	"strconv"
	"testing"

	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/layout/drc"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// sizedDesign sizes one registered topology at its default spec and
// returns its layout IR.
func sizedDesign(t *testing.T, topology string) *cairo.Design {
	t.Helper()
	plan, err := sizing.Lookup(topology)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sizing.Case(3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := plan.Size(techno.Default060(), plan.DefaultSpec(), ps)
	if err != nil {
		t.Fatalf("size %s: %v", topology, err)
	}
	return d.Layout()
}

// TestRowsRegistered: the backend is in the registry with its
// capability descriptor.
func TestRowsRegistered(t *testing.T) {
	b, err := layout.Lookup("rows")
	if err != nil {
		t.Fatal(err)
	}
	info := b.Info()
	if info.Name != "rows" {
		t.Fatalf("unexpected descriptor %+v", info)
	}
}

// TestRowsCandidatesDRC realizes every candidate placement for every
// registered topology and runs the full DRC deck over each routed cell.
// Every style must realize (the row discipline is routable by
// construction for these designs) and every cell must be clean.
func TestRowsCandidatesDRC(t *testing.T) {
	tech := techno.Default060()
	for _, topology := range sizing.Topologies() {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			d := sizedDesign(t, topology)
			cands := Candidates(tech, d)
			if len(cands) != len(styles) {
				t.Fatalf("got %d candidates, want %d", len(cands), len(styles))
			}
			ok := 0
			for _, cand := range cands {
				if cand.Err != nil {
					t.Logf("candidate %s failed: %v", cand.Style, cand.Err)
					continue
				}
				ok++
				if v := drc.Check(tech, cand.Plan.Cell); len(v) != 0 {
					t.Errorf("candidate %s: %d DRC violations, first: %+v", cand.Style, len(v), v[0])
				}
				if cand.Plan.Parasitics.TotalCap() <= 0 {
					t.Errorf("candidate %s: non-positive total cap", cand.Style)
				}
				if cand.Plan.Parasitics.AreaUM2 <= 0 {
					t.Errorf("candidate %s: non-positive area", cand.Style)
				}
			}
			if ok == 0 {
				t.Fatal("no candidate realized")
			}
		})
	}
}

// TestRowsPlanDeterministic: two Plan calls on the same design must agree
// bit-for-bit on total capacitance and area, and on the shape count.
func TestRowsPlanDeterministic(t *testing.T) {
	tech := techno.Default060()
	b, err := layout.Lookup("rows")
	if err != nil {
		t.Fatal(err)
	}
	for _, topology := range sizing.Topologies() {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			d := sizedDesign(t, topology)
			first, err := b.Plan(tech, d, layout.Constraint{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			second, err := b.Plan(tech, d, layout.Constraint{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hx(first.Parasitics.TotalCap()) != hx(second.Parasitics.TotalCap()) {
				t.Fatalf("total cap differs: %v vs %v",
					first.Parasitics.TotalCap(), second.Parasitics.TotalCap())
			}
			if hx(first.Parasitics.AreaUM2) != hx(second.Parasitics.AreaUM2) {
				t.Fatalf("area differs: %v vs %v",
					first.Parasitics.AreaUM2, second.Parasitics.AreaUM2)
			}
			if len(first.Cell.Shapes) != len(second.Cell.Shapes) {
				t.Fatalf("shape count differs: %d vs %d",
					len(first.Cell.Shapes), len(second.Cell.Shapes))
			}
		})
	}
}

// TestRowsShapeConstraint: an impossible width bound must reject every
// candidate with a diagnostic, not return an oversized plan.
func TestRowsShapeConstraint(t *testing.T) {
	tech := techno.Default060()
	b, err := layout.Lookup("rows")
	if err != nil {
		t.Fatal(err)
	}
	d := sizedDesign(t, "five-t")
	if _, err := b.Plan(tech, d, layout.Constraint{MaxW: 1000}, nil); err == nil {
		t.Fatal("expected no-feasible-placement error under MaxW=1µm")
	}
}

func hx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
