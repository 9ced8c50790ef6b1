package sizing

import (
	"runtime"
	"testing"

	"loas/internal/circuit"
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

// TestEvalGBWPMAllocBudget pins what one warm evaluation through a
// sizing pass's reused evaluator allocates, on the five-t default
// design's evaluation bench: with the engine and AC solver rebound, only
// the operating point and the sweep's frequency list remain. The budgets
// sit 1.25× above the measured values, so a per-evaluation engine or
// solver, a probe that returns every node's phasor, or a bracketing
// sweep that keeps its points, fails here.
func TestEvalGBWPMAllocBudget(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(1)
	d, err := SizeFiveT(tech, DefaultFiveTSpec(), ps)
	if err != nil {
		t.Fatal(err)
	}
	// The bench evalGBWPM attaches, built once: an evaluation leaves it
	// as it finds it.
	ckt := d.AssumedNetlist("budget")
	vcm := d.NodeEst[NetInP]
	ckt.Add(
		&circuit.VSource{Name: "szp", Pos: NetInP, Neg: circuit.Ground, DC: vcm, ACMag: 0.5},
		&circuit.VSource{Name: "szn", Pos: NetInN, Neg: circuit.Ground, DC: vcm, ACMag: 0.5, ACPhase: 180},
		&circuit.Capacitor{Name: "szload", A: NetOut, B: circuit.Ground, C: d.Spec.CL},
	)
	ns := d.NodeSet()
	var ev evaluator
	bytes, allocs := allocPerRun(5, func() {
		if _, _, err := ev.gbwPM(tech, ckt, NetOut, ns); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 600, 3 // measured 480 B in 3
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("a warm evaluation allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
