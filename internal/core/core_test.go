package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"loas/internal/layout/cairo"
	"loas/internal/layout/extract"
	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

var (
	runOnce sync.Once
	results [5]*Result // index by case
	runErr  error
)

// allCases synthesizes the four Table-1 cases once for the whole package,
// through the concurrent driver — so every assertion below also vouches
// for the parallel path.
func allCases(t *testing.T) [5]*Result {
	t.Helper()
	runOnce.Do(func() {
		tech := techno.Default060()
		spec := sizing.Default65MHz()
		all, err := SynthesizeAll(tech, spec, Options{})
		if err != nil {
			runErr = err
			return
		}
		for i, res := range all {
			results[i+1] = res
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return results
}

// table1Rows renders a result the way Table 1 prints it — everything a
// user of the experiment sees, minus wall-clock.
func table1Rows(res *Result) string {
	var b strings.Builder
	for _, name := range sizing.RowNames() {
		b.WriteString(res.Synthesized.Row(name, res.Extracted) + "\n")
	}
	fmt.Fprintf(&b, "layout calls %d, sizing passes %d\n", res.LayoutCalls, res.SizingPasses)
	return b.String()
}

// TestSynthesizeAllMatchesSerial is the determinism gate for the
// parallel engine: the concurrent four-case run must produce
// byte-identical Table-1 rows to four serial Synthesize calls.
func TestSynthesizeAllMatchesSerial(t *testing.T) {
	parallelRes := allCases(t)
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	for c := 1; c <= 4; c++ {
		serial, err := Synthesize(tech, spec, Options{Case: c})
		if err != nil {
			t.Fatal(err)
		}
		want, got := table1Rows(serial), table1Rows(parallelRes[c])
		if want != got {
			t.Fatalf("case %d diverged between serial and concurrent runs:\nserial:\n%s\nconcurrent:\n%s",
				c, want, got)
		}
	}
}

// TestConcurrentSynthesisSharedTech is the tech-card-immutability
// contract: two synthesis runs sharing one *techno.Tech from concurrent
// goroutines must not interfere. Any hidden mutation of the shared cards
// either trips the race detector or diverges the rendered rows.
func TestConcurrentSynthesisSharedTech(t *testing.T) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	rows := make([]string, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Synthesize(tech, spec, Options{Case: 2})
			if err != nil {
				errs[g] = err
				return
			}
			rows[g] = table1Rows(res)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if rows[0] != rows[1] {
		t.Fatalf("concurrent runs over one shared Tech disagree:\n%s\nvs\n%s", rows[0], rows[1])
	}
}

// TestCompareFlowsMatchesComponents: the side-by-side comparison returns
// the same designs the individual flows produce.
func TestCompareFlowsMatchesComponents(t *testing.T) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	fc, err := CompareFlows(tech, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fc.TraditionalErr != nil {
		t.Fatalf("traditional flow should meet spec here: %v", fc.TraditionalErr)
	}
	want := table1Rows(allCases(t)[4])
	if got := table1Rows(fc.Proposed); got != want {
		t.Fatalf("proposed flow diverged from a standalone case-4 run:\n%s\nvs\n%s", got, want)
	}
	if fc.Traditional.Iterations < 2 {
		t.Fatalf("traditional baseline converged in %d iteration(s)", fc.Traditional.Iterations)
	}
	// Concurrent execution: total wall-clock below the sum of the parts.
	sum := fc.Proposed.Elapsed + fc.Traditional.Elapsed
	if fc.Elapsed > sum+time.Second {
		t.Fatalf("comparison wall-clock %s exceeds the serial sum %s", fc.Elapsed, sum)
	}
}

func TestCase4MatchesExtraction(t *testing.T) {
	res := allCases(t)[4]
	s, x := res.Synthesized, res.Extracted
	if rel := math.Abs(s.GBW-x.GBW) / x.GBW; rel > 0.02 {
		t.Fatalf("case 4 GBW mismatch: %.2f vs %.2f MHz", s.GBW/1e6, x.GBW/1e6)
	}
	if math.Abs(s.PhaseDeg-x.PhaseDeg) > 1.0 {
		t.Fatalf("case 4 PM mismatch: %.2f vs %.2f°", s.PhaseDeg, x.PhaseDeg)
	}
	if math.Abs(s.DCGainDB-x.DCGainDB) > 0.5 {
		t.Fatalf("case 4 gain mismatch: %.2f vs %.2f dB", s.DCGainDB, x.DCGainDB)
	}
	if rel := math.Abs(s.SlewRate-x.SlewRate) / x.SlewRate; rel > 0.05 {
		t.Fatalf("case 4 SR mismatch: %.1f vs %.1f V/µs", s.SlewRate/1e6, x.SlewRate/1e6)
	}
}

func TestCase4MeetsSpec(t *testing.T) {
	res := allCases(t)[4]
	spec := sizing.Default65MHz()
	if res.Extracted.GBW < 0.99*spec.GBW {
		t.Fatalf("case 4 extracted GBW %.2f MHz misses spec", res.Extracted.GBW/1e6)
	}
	if res.Extracted.PhaseDeg < spec.PM-1 {
		t.Fatalf("case 4 extracted PM %.2f° misses spec", res.Extracted.PhaseDeg)
	}
}

func TestCase1MissesSpecInExtraction(t *testing.T) {
	res := allCases(t)[1]
	spec := sizing.Default65MHz()
	if res.Extracted.GBW >= spec.GBW {
		t.Fatalf("case 1 extracted GBW %.2f MHz should miss spec", res.Extracted.GBW/1e6)
	}
	if res.Extracted.PhaseDeg >= spec.PM {
		t.Fatalf("case 1 extracted PM %.2f° should miss spec", res.Extracted.PhaseDeg)
	}
	// But its own evaluation believed the spec was met.
	if res.Synthesized.GBW < 0.99*spec.GBW {
		t.Fatal("case 1 synthesized GBW should look on-spec")
	}
}

func TestCase2OverShootsAndDegrades(t *testing.T) {
	r := allCases(t)
	spec := sizing.Default65MHz()
	c1, c2 := r[1], r[2]
	if c2.Extracted.GBW <= spec.GBW {
		t.Fatalf("case 2 extracted GBW %.2f should exceed spec", c2.Extracted.GBW/1e6)
	}
	if c2.Extracted.PhaseDeg <= spec.PM {
		t.Fatalf("case 2 extracted PM %.2f should exceed spec", c2.Extracted.PhaseDeg)
	}
	if c2.Extracted.DCGainDB >= c1.Extracted.DCGainDB {
		t.Fatal("case 2 should lose DC gain versus case 1")
	}
	if c2.Extracted.Rout >= c1.Extracted.Rout {
		t.Fatal("case 2 should lose output resistance versus case 1")
	}
	if c2.Extracted.Power <= c1.Extracted.Power {
		t.Fatal("case 2 should burn more power than case 1")
	}
}

func TestCase3SlightResidual(t *testing.T) {
	res := allCases(t)[3]
	s, x := res.Synthesized, res.Extracted
	// Residual mismatch from neglected routing stays within 5%.
	if rel := math.Abs(s.GBW-x.GBW) / s.GBW; rel > 0.05 {
		t.Fatalf("case 3 GBW residual %.1f%% too large", rel*100)
	}
	// Worse match than case 4 on the bandwidth family.
	c4 := allCases(t)[4]
	res3 := math.Abs(s.GBW-x.GBW) / s.GBW
	res4 := math.Abs(c4.Synthesized.GBW-c4.Extracted.GBW) / c4.Synthesized.GBW
	if res3 < res4 {
		t.Fatalf("case 3 (%.3f%%) should match worse than case 4 (%.3f%%)",
			res3*100, res4*100)
	}
}

func TestParasiticConvergence(t *testing.T) {
	r := allCases(t)
	for _, c := range []int{3, 4} {
		if n := r[c].LayoutCalls; n < 2 || n > 6 {
			t.Fatalf("case %d used %d layout calls, expected a handful", c, n)
		}
	}
	for _, c := range []int{1, 2} {
		if n := r[c].LayoutCalls; n != 1 {
			t.Fatalf("case %d should need exactly one layout call, got %d", c, n)
		}
	}
}

// TestConvergenceTraceRecorded: every synthesis carries one trace event
// per layout call, well-formed (calls numbered from 1, first delta is
// the -1 sentinel, later deltas measured, phases timed, caps positive).
func TestConvergenceTraceRecorded(t *testing.T) {
	r := allCases(t)
	for c := 1; c <= NumTable1Cases; c++ {
		res := r[c]
		if len(res.Trace) != res.LayoutCalls {
			t.Fatalf("case %d: %d trace events for %d layout calls",
				c, len(res.Trace), res.LayoutCalls)
		}
		for i, it := range res.Trace {
			if it.Call != i+1 {
				t.Fatalf("case %d event %d: call numbered %d", c, i, it.Call)
			}
			if i == 0 && it.DeltaF != -1 {
				t.Fatalf("case %d: first call must carry the -1 delta sentinel, got %g", c, it.DeltaF)
			}
			if i > 0 && it.DeltaF < 0 {
				t.Fatalf("case %d call %d: unmeasured delta", c, it.Call)
			}
			if it.OutCapF <= 0 || it.TotalCapF < it.OutCapF || it.Folds <= 0 {
				t.Fatalf("case %d call %d: implausible caps/folds %+v", c, it.Call, it)
			}
			if it.W1 <= 0 || it.Lc <= 0 || it.Itail <= 0 {
				t.Fatalf("case %d call %d: missing design point %+v", c, it.Call, it)
			}
			if it.SizingNS <= 0 || it.LayoutNS <= 0 {
				t.Fatalf("case %d call %d: phases not timed %+v", c, it.Call, it)
			}
		}
	}
}

// TestConvergenceBudgetAndShrinkingDeltas pins the paper's convergence
// story as a regression bound: the case-4 loop settles within the seed's
// layout-call count and every measured parasitic delta shrinks
// monotonically down to the fixpoint tolerance.
func TestConvergenceBudgetAndShrinkingDeltas(t *testing.T) {
	// The seed converges in 4 layout calls at the 1 fF tolerance (the
	// paper's example needed 3 at its coarser tolerance); more means the
	// loop regressed.
	const seedLayoutCalls = 4
	res := allCases(t)[4]
	if res.LayoutCalls > seedLayoutCalls {
		t.Fatalf("case 4 used %d layout calls, seed needed %d", res.LayoutCalls, seedLayoutCalls)
	}
	tr := res.Trace
	for i := 2; i < len(tr); i++ {
		if tr[i].DeltaF >= tr[i-1].DeltaF {
			t.Fatalf("parasitic delta stopped shrinking at call %d: %g fF after %g fF",
				tr[i].Call, tr[i].DeltaF*1e15, tr[i-1].DeltaF*1e15)
		}
	}
	last := tr[len(tr)-1]
	if last.DeltaF < 0 || last.DeltaF >= 1e-15 {
		t.Fatalf("loop ended above tolerance: Δ = %g fF", last.DeltaF*1e15)
	}
	if !obs.Converged(tr, 1e-15) {
		t.Fatal("obs.Converged disagrees with the loop's own fixpoint")
	}
}

// TestOptionsTraceMirrorsResult: the run passed via Options.Ctx
// records exactly the events the Result carries.
func TestOptionsTraceMirrorsResult(t *testing.T) {
	run := obs.StartRun(obs.RunRecord{Kind: "synthesize"}, nil)
	res, err := Synthesize(techno.Default060(), sizing.Default65MHz(),
		Options{Case: 4, SkipVerify: true, Ctx: obs.ContextWithRun(context.Background(), run)})
	if err != nil {
		t.Fatal(err)
	}
	live := run.Iterations()
	if len(live) != len(res.Trace) {
		t.Fatalf("live recorder got %d events, result has %d", len(live), len(res.Trace))
	}
	for i := range live {
		if live[i] != res.Trace[i] {
			t.Fatalf("event %d diverged:\n  live   %+v\n  result %+v", i, live[i], res.Trace[i])
		}
	}
}

// TestSynthesizeAllCaseSpans: a parent span passed only through
// Options.Ctx gets one "case" child per Table-1 case, and each case's
// iterations hang under its own case span.
func TestSynthesizeAllCaseSpans(t *testing.T) {
	rec := obs.NewRecorder()
	root := rec.Root("request")
	plan, err := sizing.Lookup("five-t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = SynthesizeAll(techno.Default060(), plan.DefaultSpec(), Options{
		Topology: plan.Name, SkipVerify: true,
		Ctx: obs.ContextWithSpan(context.Background(), root),
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	cases := map[int]string{} // case span ID -> its "case" attr
	iterations := 0
	for _, s := range rec.Snapshot() { // start order: a case precedes its iterations
		switch s.Name {
		case "case":
			if s.Parent != 1 {
				t.Fatalf("case span %d has parent %d, want the root", s.ID, s.Parent)
			}
			cases[s.ID] = s.Attrs["case"]
		case "iteration":
			iterations++
			if _, ok := cases[s.Parent]; !ok {
				t.Fatalf("iteration span %d hangs under span %d, not a case span", s.ID, s.Parent)
			}
		}
	}
	seen := map[string]bool{}
	for _, c := range cases {
		seen[c] = true
	}
	if len(cases) != NumTable1Cases || len(seen) != NumTable1Cases || iterations < NumTable1Cases {
		t.Fatalf("case spans %v (%d iteration spans), want one per case 1..%d", cases, iterations, NumTable1Cases)
	}
}

func TestParasiticFixpoint(t *testing.T) {
	// Re-running the layout on the converged design changes nothing
	// beyond the convergence tolerance.
	res := allCases(t)[4]
	plan, err := res.Design.Layout().Plan(techno.Default060(), cairo.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if d := extract.MaxDelta(res.Parasitics, plan.Parasitics); d > 1e-15 {
		t.Fatalf("fixpoint violated: re-plan moved parasitics by %.3g fF", d*1e15)
	}
}

func TestRuntimeWithinPaperBudget(t *testing.T) {
	// The paper reports "sizing time … does not exceed two minutes";
	// a software-only reproduction should beat that by a wide margin.
	res := allCases(t)[4]
	if res.Elapsed.Seconds() > 120 {
		t.Fatalf("case 4 took %s", res.Elapsed)
	}
}

func TestExtractedNetlistContents(t *testing.T) {
	res := allCases(t)[4]
	deck := res.ExtractedCkt.Export()
	for _, want := range []string{"MMP1", "MMN2C", "Cpar_out", "Ctbload"} {
		if want == "Ctbload" {
			continue // the bench adds the load, not the netlist
		}
		if !strings.Contains(deck, want) {
			t.Fatalf("extracted deck missing %q", want)
		}
	}
	// Coupling capacitors present.
	if !strings.Contains(deck, "Ccc_") {
		t.Fatal("extracted deck missing coupling capacitors")
	}
}

func TestTraditionalFlowConverges(t *testing.T) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	res, err := TraditionalFlow(tech, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("traditional flow converged in %d iteration(s) — the whole "+
			"point is that it should need several", res.Iterations)
	}
	if res.Extracted.GBW < 0.98*spec.GBW {
		t.Fatalf("traditional flow missed GBW: %.2f MHz", res.Extracted.GBW/1e6)
	}
	if res.GBWOverdrive <= 1.0 {
		t.Fatal("traditional flow should have had to over-design")
	}
}

func TestOptionsValidation(t *testing.T) {
	tech := techno.Default060()
	if _, err := Synthesize(tech, sizing.Default65MHz(), Options{Case: 7}); err == nil {
		t.Fatal("case 7 accepted")
	}
}

func TestCornerSweep(t *testing.T) {
	res := allCases(t)[4]
	tech := techno.Default060()
	corners, err := CornerSweep(context.Background(), tech, res)
	if err != nil {
		t.Fatal(err)
	}
	tt := corners[techno.CornerTT]
	ss := corners[techno.CornerSS]
	ff := corners[techno.CornerFF]
	// Fast silicon is faster, slow is slower; nominal in between.
	if !(ss.GBW < tt.GBW && tt.GBW < ff.GBW) {
		t.Fatalf("corner GBW ordering broken: ss %.1f, tt %.1f, ff %.1f MHz",
			ss.GBW/1e6, tt.GBW/1e6, ff.GBW/1e6)
	}
	// The design stays functional at every corner: gain within 6 dB of
	// nominal, phase margin above 45°.
	for c, p := range corners {
		if math.Abs(p.DCGainDB-tt.DCGainDB) > 6 {
			t.Fatalf("corner %s gain %.1f dB too far from nominal %.1f", c, p.DCGainDB, tt.DCGainDB)
		}
		if p.PhaseDeg < 45 {
			t.Fatalf("corner %s phase margin %.1f° collapsed", c, p.PhaseDeg)
		}
	}
}
