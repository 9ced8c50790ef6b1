package cairo_test

import (
	"runtime"
	"testing"

	"loas/internal/layout/cairo"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// allocPerRun reports the mean heap bytes and allocations of one call to
// f over runs calls, after a warm-up call, with one P so that nothing
// else allocates meanwhile.
func allocPerRun(runs int, f func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestPlanAllocBudget pins what one layout Plan of the five-t default
// design allocates: every module alternative built, the floorplan, the
// merged and routed top cell and the parasitic report. The budgets sit
// 1.25× above the measured values, so a Pattern per stack candidate, a
// cell grown shape by shape or a heap slice per CouplingTo fails here.
func TestPlanAllocBudget(t *testing.T) {
	tech := techno.Default060()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFiveT(tech, sizing.DefaultFiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	lay := d.Layout()
	bytes, allocs := allocPerRun(5, func() {
		if _, err := lay.Plan(tech, cairo.Constraint{}); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 119120, 641 // measured 95,296 B in 513
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("Plan allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
