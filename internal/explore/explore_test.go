package explore

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"loas/internal/obs"
	"loas/internal/sizing"
)

// stubProber derives metrics deterministically from the spec: harder
// GBW targets buy bandwidth at a power and area cost, higher PM costs
// area. GBW targets past 300 MHz are infeasible, like a real plan
// running out of headroom.
type stubProber struct {
	calls atomic.Int64
}

func (p *stubProber) Probe(_ context.Context, _ string, s sizing.OTASpec) (Metrics, bool, string, error) {
	p.calls.Add(1)
	if s.GBW > 300e6 {
		return Metrics{}, false, "gbw target out of reach", nil
	}
	return Metrics{
		GainDB:  70 - s.GBW/1e7,
		GBWHz:   0.97 * s.GBW,
		PowerW:  1e-12 * s.GBW * (s.CL / 1e-12),
		AreaUM2: 1000 + s.PM*40 + s.GBW/1e5,
	}, true, "", nil
}

func testSpec() sizing.OTASpec {
	s := sizing.Default65MHz()
	return s
}

func TestDominates(t *testing.T) {
	a := Metrics{GainDB: 60, GBWHz: 65e6, PowerW: 1e-3, AreaUM2: 2000}
	b := a
	if Dominates(a, b) || Dominates(b, a) {
		t.Fatal("equal metric vectors must not dominate each other")
	}
	b.PowerW = 2e-3
	if !Dominates(a, b) {
		t.Fatal("a is strictly better on power, equal elsewhere: must dominate")
	}
	if Dominates(b, a) {
		t.Fatal("dominance must be asymmetric")
	}
	// Trade-off: b faster but hungrier — neither dominates.
	b = Metrics{GainDB: 60, GBWHz: 90e6, PowerW: 2e-3, AreaUM2: 2000}
	if Dominates(a, b) || Dominates(b, a) {
		t.Fatal("trade-off points must both survive")
	}
}

func TestFrontDropsDominatedAndInfeasible(t *testing.T) {
	mk := func(gbw, power float64, feasible bool) Point {
		return Point{Topology: "t", Spec: sizing.OTASpec{GBW: gbw},
			Feasible: feasible,
			Metrics:  Metrics{GainDB: 60, GBWHz: gbw, PowerW: power, AreaUM2: 1000}}
	}
	pts := []Point{
		mk(65e6, 1e-3, true),
		mk(65e6, 2e-3, true),   // dominated: same speed, more power
		mk(90e6, 2e-3, true),   // trade-off: survives
		mk(500e6, 1e-9, false), // infeasible: excluded however good it looks
	}
	front := Front(pts)
	if len(front) != 2 {
		t.Fatalf("front size %d, want 2: %+v", len(front), front)
	}
	// Canonical order: descending GBW first.
	if front[0].Metrics.GBWHz != 90e6 || front[1].Metrics.GBWHz != 65e6 {
		t.Fatalf("front order wrong: %+v", front)
	}
}

func TestGridCanonicalEnumeration(t *testing.T) {
	base := testSpec()
	a := Axes{GBW: []float64{90e6, 40e6, 65e6, 40e6}, PM: []float64{70, 55}}
	b := Axes{GBW: []float64{40e6, 65e6, 90e6}, PM: []float64{55, 70}}
	ga, gb := Grid(base, a), Grid(base, b)
	if !reflect.DeepEqual(ga, gb) {
		t.Fatal("grid enumeration must be invariant under axis-value shuffles and duplicates")
	}
	if len(ga) != 6 {
		t.Fatalf("grid size %d, want 6", len(ga))
	}
	if Grid(base, Axes{})[0] != base {
		t.Fatal("empty axes must yield the base spec")
	}
	if (Axes{GBW: []float64{1, 2}, CL: []float64{1e-12}}).Points() != 2 {
		t.Fatal("Points miscounts")
	}
}

func TestAxesValidate(t *testing.T) {
	for _, bad := range []Axes{
		{GBW: []float64{-1}},
		{PM: []float64{95}},
		{PM: []float64{0}},
		{CL: []float64{0}},
	} {
		if bad.Validate() == nil {
			t.Fatalf("axes %+v should be rejected", bad)
		}
	}
	ok := Axes{GBW: []float64{40e6}, PM: []float64{60}, CL: []float64{2e-12}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsDeterministicAndClamped(t *testing.T) {
	s := testSpec()
	front := []Point{{Topology: "t", Spec: s, Feasible: true}}
	probed := map[string]bool{SpecKey("t", s): true}
	n1 := Neighbors(front, 0.15, probed)
	n2 := Neighbors(front, 0.15, probed)
	if !reflect.DeepEqual(n1, n2) {
		t.Fatal("neighbor wave must be deterministic")
	}
	if len(n1) != 4 {
		t.Fatalf("expected 4 neighbors, got %d", len(n1))
	}
	for _, c := range n1 {
		if c.GBW < minGBWHz || c.GBW > maxGBWHz || c.PM < minPMDeg || c.PM > maxPMDeg {
			t.Fatalf("neighbor outside clamps: %+v", c)
		}
	}
	// A point already at the PM ceiling only expands downward.
	hi := s
	hi.PM = maxPMDeg
	nhi := Neighbors([]Point{{Topology: "t", Spec: hi}}, 0.15, map[string]bool{})
	for _, c := range nhi {
		if c.PM > maxPMDeg {
			t.Fatalf("clamp violated: %+v", c)
		}
	}
}

// runOnce executes one exploration with the stub prober.
func runOnce(t *testing.T, workers int, guided bool) *Result {
	t.Helper()
	res, err := Run(context.Background(), &stubProber{}, Config{
		Topology: "stub",
		Base:     testSpec(),
		Axes: Axes{GBW: []float64{40e6, 65e6, 90e6, 350e6},
			PM: []float64{55, 70}, CL: []float64{1e-12, 3e-12}},
		Guided:  guided,
		Budget:  40,
		Step:    0.15,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunWorkerInvariance: the probe log and the front are identical at
// any worker count, grid and guided — the serving layer's determinism
// contract.
func TestRunWorkerInvariance(t *testing.T) {
	for _, guided := range []bool{false, true} {
		serial := runOnce(t, 1, guided)
		for _, w := range []int{2, 3, 8} {
			got := runOnce(t, w, guided)
			if !reflect.DeepEqual(serial, got) {
				t.Fatalf("guided=%v: workers=%d result differs from serial", guided, w)
			}
		}
	}
}

// TestRunGOMAXPROCSInvariance re-runs the guided search under a
// throttled scheduler; the result must not move.
func TestRunGOMAXPROCSInvariance(t *testing.T) {
	want := runOnce(t, 0, true)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := runOnce(t, 0, true)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("guided search result changed under GOMAXPROCS=1")
	}
}

// TestFrontShuffleInvariance: the front of a shuffled probe list equals
// the front of the canonical list — Front's ordering is total, not
// input-order dependent.
func TestFrontShuffleInvariance(t *testing.T) {
	res := runOnce(t, 0, true)
	want := Front(res.Probes)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Point(nil), res.Probes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Front(shuffled)
		// Index records the probe position, which the shuffle permutes by
		// construction; compare the fronts modulo it.
		norm := func(ps []Point) []Point {
			out := append([]Point(nil), ps...)
			for i := range out {
				out[i].Index = 0
			}
			return out
		}
		if !reflect.DeepEqual(norm(want), norm(got)) {
			t.Fatalf("trial %d: front changed under probe shuffle", trial)
		}
	}
}

// TestRunShuffledAxesInvariance: any spelling of the same axes explores
// identically (grid canonicalization + canonical probe order).
func TestRunShuffledAxesInvariance(t *testing.T) {
	base := testSpec()
	run := func(ax Axes) *Result {
		res, err := Run(context.Background(), &stubProber{}, Config{
			Topology: "stub", Base: base, Axes: ax, Guided: true, Budget: 30})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(Axes{GBW: []float64{40e6, 90e6}, PM: []float64{55, 70}})
	got := run(Axes{GBW: []float64{90e6, 40e6, 90e6}, PM: []float64{70, 55}})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("axes spelling leaked into the exploration result")
	}
}

// TestRunBudgetAndDedup: guided mode respects the probe budget and
// never probes one spec twice.
func TestRunBudgetAndDedup(t *testing.T) {
	p := &stubProber{}
	res, err := Run(context.Background(), p, Config{
		Topology: "stub", Base: testSpec(),
		Axes:   Axes{GBW: []float64{40e6, 65e6}},
		Guided: true, Budget: 11, Step: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) > 11 {
		t.Fatalf("budget exceeded: %d probes", len(res.Probes))
	}
	if p.calls.Load() != int64(len(res.Probes)) {
		t.Fatalf("prober called %d times for %d probes", p.calls.Load(), len(res.Probes))
	}
	seen := map[string]bool{}
	for _, pt := range res.Probes {
		k := SpecKey(pt.Topology, pt.Spec)
		if seen[k] {
			t.Fatalf("spec probed twice: %s", k)
		}
		seen[k] = true
	}
	if res.Rounds < 2 {
		t.Fatalf("guided run should expand past the seed wave, rounds=%d", res.Rounds)
	}
}

// TestRunRoundSpans: a parent span passed only through ctx gets one
// "explore-round" child per probe wave.
func TestRunRoundSpans(t *testing.T) {
	rec := obs.NewRecorder()
	root := rec.Root("explore")
	res, err := Run(obs.ContextWithSpan(context.Background(), root), &stubProber{}, Config{
		Topology: "stub", Base: testSpec(),
		Axes:   Axes{GBW: []float64{40e6, 65e6}},
		Guided: true, Budget: 64, Step: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	rounds := 0
	for _, s := range rec.Snapshot() {
		if s.Name != "explore-round" {
			continue
		}
		rounds++
		if s.Parent != 1 {
			t.Fatalf("explore-round span %d has parent %d, want the root", s.ID, s.Parent)
		}
	}
	if res.Rounds < 2 || rounds != res.Rounds {
		t.Fatalf("%d explore-round spans for %d rounds (want >= 2 rounds)", rounds, res.Rounds)
	}
}

// TestRunInfeasiblePointsLogged: infeasible probes stay in the log,
// carry their reason, and never reach the front.
func TestRunInfeasiblePointsLogged(t *testing.T) {
	res := runOnce(t, 0, false)
	var infeasible int
	for _, pt := range res.Probes {
		if !pt.Feasible {
			infeasible++
			if pt.Error == "" {
				t.Fatal("infeasible point lost its reason")
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("test grid should contain infeasible points (350 MHz)")
	}
	for _, pt := range res.Front {
		if !pt.Feasible {
			t.Fatal("infeasible point leaked into the front")
		}
	}
}

func TestSpecKeyDistinguishesBitPatterns(t *testing.T) {
	a := testSpec()
	b := a
	if SpecKey("t", a) != SpecKey("t", b) {
		t.Fatal("identical specs must share a key")
	}
	b.GBW = a.GBW * (1 + 1e-16) // one ulp-ish nudge
	if b.GBW != a.GBW && SpecKey("t", a) == SpecKey("t", b) {
		t.Fatal("distinct bit patterns must key differently")
	}
	if SpecKey("t", a) == SpecKey("u", a) {
		t.Fatal("topology must be part of the key")
	}
}
