package layout_test

import (
	"testing"

	"loas/internal/layout"
	_ "loas/internal/layout/rows" // register the row-based backend
	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// TestPlanCountersCountEveryBackend: one Plan through each registered
// backend raises loas_layout_plans_total by one per plan and each
// backend's own counter by one.
func TestPlanCountersCountEveryBackend(t *testing.T) {
	tech := techno.Default060()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFiveT(tech, sizing.DefaultFiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	lay := d.Layout()
	counter := func(name string) *obs.Counter { return obs.Default.Counter(name, "") }
	infos := layout.Backends()
	if len(infos) != 2 {
		t.Fatalf("%d backends registered, want slicing and rows", len(infos))
	}
	total := counter("loas_layout_plans_total")
	totalBefore := total.Value()
	for _, info := range infos {
		own := counter("loas_layout_plans_" + layout.MetricName(info.Name) + "_total")
		before := own.Value()
		b, err := layout.Lookup(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Plan(tech, lay, layout.Constraint{}, nil); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if got := own.Value() - before; got != 1 {
			t.Errorf("%s: its counter rose by %d, want 1", info.Name, got)
		}
	}
	if got := total.Value() - totalBefore; got != 2 {
		t.Errorf("loas_layout_plans_total rose by %d, want 2", got)
	}
}
