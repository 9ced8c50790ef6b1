package meas_test

import (
	"runtime"
	"testing"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/meas"
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

// TestMeasureAllocBudget pins what one Measure of the five-t default
// design allocates. The budgets sit 1.25× above the measured values, so
// a per-probe netlist and engine in the offset search, a per-point map
// in the noise analysis, or a stopped slew transient whose rows span
// the whole window, fails here.
func TestMeasureAllocBudget(t *testing.T) {
	tech := techno.Default060()
	plan, err := sizing.Lookup("five-t")
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.DefaultSpec()
	ps, _ := sizing.Case(1)
	d, err := plan.Size(tech, spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	b := core.OTABench(tech, spec, d, func() *circuit.Circuit { return d.AssumedNetlist("budget") })
	bytes, allocs := allocPerRun(3, func() {
		if _, err := meas.Measure(b); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 87200, 171 // measured 69,723 B in 137
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("Measure allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
