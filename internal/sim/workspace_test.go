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
	opts := OPOptions{NodeSet: seeds}
	r, err := e.OP(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.defaults()
	x := e.packSolution(r)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.newtonSolve(x, opts.GminEnd, 1.0, &opts); err != nil {
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
	r, err := e.OP(OPOptions{NodeSet: seeds})
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

// TestEngineReuseBitIdentical: an engine whose workspace earlier OP and
// AC calls have used returns the same bits as a fresh engine — the
// Monte-Carlo bisection runs 20 OPs on one engine and relies on it.
func TestEngineReuseBitIdentical(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	var inp *circuit.VSource
	for _, v := range c.VSources() {
		if v.Name == "inp" {
			inp = v
		}
	}
	opts := OPOptions{NodeSet: seeds}
	used := NewEngine(c, techno.TempNominal)
	for _, dc := range []float64{1.7, 1.5, 1.6} {
		inp.DC = dc
		if _, err := used.OP(opts); err != nil {
			t.Fatal(err)
		}
	}
	got, err := used.OP(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(c, techno.TempNominal).OP(opts)
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
// within MaxIter steps of at most MaxStep volts, so the first rung fails
// after exactly MaxIter iterations.
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
	opts := OPOptions{NodeSet: map[string]float64{"mid": 1000}, MaxIter: 20}
	c := build()
	r, err := NewEngine(c, techno.TempNominal).OP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Volt(c, "mid"); math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("V(mid) = %g, want 0.5", v)
	}

	opts.defaults()
	stepped, err := NewEngine(build(), techno.TempNominal).opSourceStepping(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := opts.MaxIter + stepped.Iterations; r.Iterations != want {
		t.Fatalf("Iterations = %d, want %d (failed rung %d + source stepping %d)",
			r.Iterations, want, opts.MaxIter, stepped.Iterations)
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
	opts := OPOptions{NodeSet: seeds}
	bytes, allocs := allocPerRun(5, func() {
		if _, err := e.Tran(300e-9, 1e-9, opts, nil, "out"); err != nil {
			t.Fatal(err)
		}
	})
	const maxBytes, maxAllocs = 8400, 8 // measured 6,786 B in 7
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("Tran allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
