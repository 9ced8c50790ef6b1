package stack

import (
	"runtime"
	"testing"
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

// TestGenerateAllocBudget pins what one Generate of the paper's Fig. 3
// mirror allocates. The hill climb scores every candidate in one reused
// buffer and copies the winner out once; the budgets sit 1.25× above
// the measured values, so a Pattern or a map per candidate fails here.
func TestGenerateAllocBudget(t *testing.T) {
	spec := fig3Spec()
	bytes, allocs := allocPerRun(5, func() {
		if _, err := Generate(spec); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 3290, 51 // measured 2,634 B in 41
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("Generate allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
