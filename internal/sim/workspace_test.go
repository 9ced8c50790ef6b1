package sim

import (
	"math"
	"runtime"
	"testing"

	"loas/internal/circuit"
	"loas/internal/techno"
)

// TestWarmNewtonSolveAllocFree pins the engine's Newton workspace: once
// an engine has solved, a further Newton solve (stamp, factor, solve,
// update) allocates nothing.
func TestWarmNewtonSolveAllocFree(t *testing.T) {
	c, seeds := fiveTransistorOTA(techno.Default060())
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	x := e.packSolution(r)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.newtonSolve(x, gminEnd, 1.0, maxIter); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm Newton solve allocates %v times per run", n)
	}
}

// TestACSolverSolveAtAllocFree pins the AC workspace: assembling,
// factoring and solving one frequency (direct or adjoint), or probing
// one node's phasor, allocates nothing.
func TestACSolverSolveAtAllocFree(t *testing.T) {
	c, seeds := fiveTransistorOTA(techno.Default060())
	e := NewEngine(c, techno.TempNominal)
	r, err := e.OP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	s := e.PrepareAC(r)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.solveAt(1e6, false, s.st.rhs); err != nil {
			t.Fatal(err)
		}
		if _, err := s.solveAt(1e6, true, s.st.rhs); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Phasor(1e6, "out"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm AC factor+solve allocates %v times per run", n)
	}
}

// source returns the circuit's voltage source of the given name.
func source(c *circuit.Circuit, name string) *circuit.VSource {
	for _, v := range c.VSources() {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// TestEngineReuseBitIdentical: an engine whose workspace earlier OP,
// WarmVolt and AC calls have used returns the same bits as a fresh
// engine, warm solves that failed included. Both offset bisections run
// their cold and warm probes on one engine and rely on it.
func TestEngineReuseBitIdentical(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	inp := source(c, "inp")
	used := NewEngine(c, techno.TempNominal)
	for _, dc := range []float64{1.7, 1.5, 1.6} {
		inp.DC = dc
		if _, err := used.OP(seeds); err != nil {
			t.Fatal(err)
		}
		for _, warm := range []float64{dc + 1e-3, dc - 2e-3, dc + 5e-2} {
			inp.DC = warm
			if _, err := used.WarmVolt("out"); err != nil {
				t.Fatal(err)
			}
		}
		used.x[0] = math.NaN()
		if _, err := used.WarmVolt("out"); err == nil {
			t.Fatal("a warm solve from a NaN start converged")
		}
	}
	inp.DC = 1.6
	got, err := used.OP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(c, techno.TempNominal).OP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.V {
		if math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
			t.Fatalf("reused engine: V[%d] = %x, fresh %x", i, got.V[i], want.V[i])
		}
	}

	solver := used.PrepareAC(got)
	if _, err := solver.Solve([]float64{1e3, 1e8}); err != nil {
		t.Fatal(err)
	}
	gotAC, err := solver.Solve([]float64{1e6})
	if err != nil {
		t.Fatal(err)
	}
	wantAC, err := NewEngine(c, techno.TempNominal).AC(want, []float64{1e6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantAC[0].V {
		g, w := gotAC[0].V[i], wantAC[0].V[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("reused AC solver: V[%d] = %v, fresh %v", i, g, w)
		}
	}
}

// TestOPFallbackCountsGminIterations: when the gmin ladder fails and OP
// falls back to source stepping, Iterations reports the ladder's spent
// iterations too. A node seeded at 1 kV cannot reach its 0.5 V solution
// within maxIter steps of at most maxStep volts, so the first rung fails
// after exactly maxIter iterations.
func TestOPFallbackCountsGminIterations(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New("fallback")
		c.Add(
			&circuit.VSource{Name: "dd", Pos: "in", Neg: "0", DC: 1.0},
			&circuit.Resistor{Name: "1", A: "in", B: "mid", R: 1e3},
			&circuit.Resistor{Name: "2", A: "mid", B: "0", R: 1e3},
		)
		return c
	}
	c := build()
	r, err := NewEngine(c, techno.TempNominal).OP(map[string]float64{"mid": 1000})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Volt(c, "mid"); math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("V(mid) = %g, want 0.5", v)
	}

	stepped, err := NewEngine(build(), techno.TempNominal).opSourceStepping(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := maxIter + stepped.Iterations; r.Iterations != want {
		t.Fatalf("Iterations = %d, want %d (failed rung %d + source stepping %d)",
			r.Iterations, want, maxIter, stepped.Iterations)
	}
}

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

// TestTranAllocBudget pins what a one-probe transient of the 5T OTA
// allocates over 300 steps. The budgets sit 1.25× above the measured
// values, so recording every node, or allocating per step, fails here.
func TestTranAllocBudget(t *testing.T) {
	c, seeds := fiveTransistorOTA(techno.Default060())
	e := NewEngine(c, techno.TempNominal)
	bytes, allocs := allocPerRun(5, func() {
		if _, err := e.Tran(300e-9, 1e-9, seeds, nil, "out"); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 8400, 8 // measured 6,786 B in 7
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("Tran allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// TestGminLadder pins the rungs OP and Tran walk, bit for bit. Ten
// divisions of 1e-2 by 10 give 1.0000000000000002e-12, which is not
// below gminEnd, so that rung runs and a twelfth, clamped to exactly
// 1e-12, follows it.
func TestGminLadder(t *testing.T) {
	want := []uint64{
		0x3f847ae147ae147b, 0x3f50624dd2f1a9fc, 0x3f1a36e2eb1c432d, 0x3ee4f8b588e368f1,
		0x3eb0c6f7a0b5ed8e, 0x3e7ad7f29abcaf4a, 0x3e45798ee2308c3b, 0x3e112e0be826d696,
		0x3ddb7cdfd9d7bdbd, 0x3da5fd7fe1796497, 0x3d719799812dea12, 0x3d719799812dea11,
	}
	got := gminLadder
	if len(got) != len(want) {
		t.Fatalf("%d rungs %v, want %d", len(got), got, len(want))
	}
	for i, g := range got {
		if math.Float64bits(g) != want[i] {
			t.Fatalf("rung %d = %v (%#x), want %#x", i, g, math.Float64bits(g), want[i])
		}
	}
	if got[11] != gminEnd || got[10] == gminEnd {
		t.Fatalf("last rungs %v, %v: want one just above gminEnd, then gminEnd", got[10], got[11])
	}
}

// TestWarmVoltMatchesOP: from a solved neighbour, WarmVolt converges to
// the operating point OP finds on a fresh engine, every node within
// 1e-9 V, through input steps from 10 µV to 50 mV on the 5T OTA.
func TestWarmVoltMatchesOP(t *testing.T) {
	c, seeds := fiveTransistorOTA(techno.Default060())
	inp := source(c, "inp")
	e := NewEngine(c, techno.TempNominal)
	if _, err := e.OP(seeds); err != nil {
		t.Fatal(err)
	}
	for _, dc := range []float64{1.60001, 1.6001, 1.601, 1.59, 1.64, 1.6} {
		inp.DC = dc
		out, err := e.WarmVolt("out")
		if err != nil {
			t.Fatalf("inp %g V: %v", dc, err)
		}
		cold, err := NewEngine(c, techno.TempNominal).OP(seeds)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(out - cold.Volt(c, "out")); d > 1e-9 {
			t.Errorf("inp %g V: warm V(out) %.12g, cold %.12g", dc, out, cold.Volt(c, "out"))
		}
		for i, v := range cold.V[1:] {
			if d := math.Abs(e.x[i] - v); d > 1e-9 {
				t.Errorf("inp %g V: node %d warm %.12g V, cold %.12g V", dc, i+1, e.x[i], v)
			}
		}
	}
	if _, err := e.WarmVolt("nowhere"); err == nil {
		t.Fatal("WarmVolt of a node the circuit lacks did not fail")
	}
}

// TestWarmVoltFailsFarAway: WarmVolt gives up after warmMaxIter
// iterations. On a 1 kΩ/1 kΩ divider only V(mid) starts away from its
// 0.5 V solution, and each clamped Newton step moves it by maxStep = 0.5 V,
// so a start warmMaxIter−1 steps away converges in exactly warmMaxIter
// iterations and one a step further fails. From a NaN start, or with
// the OTA's every unknown at ±1 kV, it fails too, without a panic.
func TestWarmVoltFailsFarAway(t *testing.T) {
	c := circuit.New("divider").Add(
		&circuit.VSource{Name: "dd", Pos: "in", Neg: "0", DC: 1.0},
		&circuit.Resistor{Name: "1", A: "in", B: "mid", R: 1e3},
		&circuit.Resistor{Name: "2", A: "mid", B: "0", R: 1e3},
	)
	e := NewEngine(c, techno.TempNominal)
	mid, _ := c.NodeIndex("mid")
	for _, k := range []int{warmMaxIter - 1, warmMaxIter} {
		if _, err := e.OP(nil); err != nil {
			t.Fatal(err)
		}
		e.x[mid-1] = 0.5 + 0.5*float64(k)
		v, err := e.WarmVolt("mid")
		if converges := k < warmMaxIter; converges != (err == nil) {
			t.Fatalf("start %d steps away: V(mid) %g, err %v", k, v, err)
		}
		if err == nil && math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("start %d steps away: V(mid) %g, want 0.5", k, v)
		}
	}
	e.x[mid-1] = math.NaN()
	if _, err := e.WarmVolt("mid"); err == nil {
		t.Fatal("a NaN start converged")
	}

	ota, _ := fiveTransistorOTA(techno.Default060())
	e = NewEngine(ota, techno.TempNominal)
	for _, far := range []float64{1e3, -1e3} {
		for i := range e.x {
			e.x[i] = far
		}
		if v, err := e.WarmVolt("out"); err == nil {
			t.Fatalf("every unknown at %g V: converged to V(out) %g", far, v)
		}
	}
}

// TestWarmVoltAllocBudget pins what one warm probe allocates: nothing.
// The input alternates between two levels 0.5 mV apart, so every call
// takes Newton steps.
func TestWarmVoltAllocBudget(t *testing.T) {
	c, seeds := fiveTransistorOTA(techno.Default060())
	inp := source(c, "inp")
	e := NewEngine(c, techno.TempNominal)
	if _, err := e.OP(seeds); err != nil {
		t.Fatal(err)
	}
	levels := [2]float64{1.6, 1.6005}
	k := 0
	bytes, allocs := allocPerRun(20, func() {
		k++
		inp.DC = levels[k%2]
		if _, err := e.WarmVolt("out"); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 0, 0 // measured 0 B in 0
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("WarmVolt allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
