package core

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// Refined runs are expensive (each round is a full synthesis plus a
// five-corner sweep), so each configuration the tests below interrogate
// is synthesized exactly once for the whole package.
var (
	refineMu    sync.Mutex
	refineCache = map[string]*Result{}
	refineErrs  = map[string]error{}
)

// refinedRun synthesizes the given case under refinement with the given
// round budget (0 = default), memoized per (case, budget).
func refinedRun(t *testing.T, caseN, maxRounds int) *Result {
	t.Helper()
	key := strconv.Itoa(caseN) + "/" + strconv.Itoa(maxRounds)
	refineMu.Lock()
	defer refineMu.Unlock()
	if err, ok := refineErrs[key]; ok {
		t.Fatal(err)
	}
	if res, ok := refineCache[key]; ok {
		return res
	}
	res, err := Synthesize(techno.Default060(), sizing.Default65MHz(), Options{
		Case:   caseN,
		Refine: RefineOptions{Enabled: true, MaxRounds: maxRounds},
	})
	if err != nil {
		refineErrs[key] = err
		t.Fatal(err)
	}
	refineCache[key] = res
	return res
}

// TestRefineMeetsSpecAtAllCorners is the acceptance scenario: the
// case-4 one-shot run misses the original spec at at least one process
// corner (round 1 of the report), and the refined run meets it at all
// five.
func TestRefineMeetsSpecAtAllCorners(t *testing.T) {
	res := refinedRun(t, 4, 0)
	rep := res.Refine
	if rep == nil {
		t.Fatal("refined run carries no report")
	}
	if rep.Rounds[0].Met {
		t.Fatal("round 1 (the one-shot flow) already met spec at every corner — nothing to refine")
	}
	missed := 0
	for _, c := range rep.Rounds[0].Corners {
		if !c.Met {
			missed++
		}
	}
	if missed == 0 {
		t.Fatal("round 1 reports no missed corner but Met=false")
	}
	if !rep.Met {
		t.Fatalf("refinement did not close the loop in %d rounds: %+v", len(rep.Rounds), rep)
	}
	accepted := rep.Rounds[rep.BestRound-1]
	if len(accepted.Corners) != len(refineCornerOrder) {
		t.Fatalf("accepted round scored %d corners, want %d", len(accepted.Corners), len(refineCornerOrder))
	}
	for _, c := range accepted.Corners {
		if !c.Met {
			t.Fatalf("accepted round still misses corner %s: %+v", c.Corner, c)
		}
		if c.Perf.GBW < (1-RefineGBWSlack)*sizing.Default65MHz().GBW {
			t.Fatalf("corner %s GBW %.2f MHz below the original spec", c.Corner, c.Perf.GBW/1e6)
		}
	}
	if rep.BestRound != len(rep.Rounds) {
		t.Fatalf("loop kept running after meeting spec: best %d of %d rounds", rep.BestRound, len(rep.Rounds))
	}
}

// TestRefineDeterminismAcrossWorkers pins the bit-determinism contract:
// the corner sweep and the four-case engine fan out over GOMAXPROCS
// workers, so the same spec must refine to the hex-identical design and
// report on one worker as on all of them.
func TestRefineDeterminismAcrossWorkers(t *testing.T) {
	wide := refinedRun(t, 1, 0) // synthesized at the test binary's default GOMAXPROCS
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial, err := Synthesize(techno.Default060(), sizing.Default65MHz(), Options{
		Case:   1,
		Refine: RefineOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertRefineEqual(t, wide, serial)
}

// TestRefineRerunIdentical: same spec, same options, same process →
// hex-identical refined result (no hidden global state).
func TestRefineRerunIdentical(t *testing.T) {
	first := refinedRun(t, 1, 0)
	again, err := Synthesize(techno.Default060(), sizing.Default65MHz(), Options{
		Case:   1,
		Refine: RefineOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertRefineEqual(t, first, again)
}

// assertRefineEqual compares two refined results bit-exactly: design
// point, per-round targets and margins, and per-corner performance.
func assertRefineEqual(t *testing.T, a, b *Result) {
	t.Helper()
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	opA, opB := a.Design.OperatingPoint(), b.Design.OperatingPoint()
	for _, f := range [][3]interface{}{
		{"W1", opA.W1, opB.W1}, {"Lc", opA.Lc, opB.Lc}, {"Itail", opA.Itail, opB.Itail},
	} {
		if hex(f[1].(float64)) != hex(f[2].(float64)) {
			t.Fatalf("design point %s diverged: %v vs %v", f[0], f[1], f[2])
		}
	}
	ra, rb := a.Refine, b.Refine
	if len(ra.Rounds) != len(rb.Rounds) || ra.BestRound != rb.BestRound || ra.Met != rb.Met {
		t.Fatalf("report shape diverged: %d/%d/%v vs %d/%d/%v",
			len(ra.Rounds), ra.BestRound, ra.Met, len(rb.Rounds), rb.BestRound, rb.Met)
	}
	for i := range ra.Rounds {
		x, y := ra.Rounds[i], rb.Rounds[i]
		if hex(x.TargetGBW) != hex(y.TargetGBW) || hex(x.TargetPM) != hex(y.TargetPM) ||
			hex(x.WorstMargin) != hex(y.WorstMargin) {
			t.Fatalf("round %d diverged:\n%+v\nvs\n%+v", i+1, x, y)
		}
		for j := range x.Corners {
			if hex(x.Corners[j].Perf.GBW) != hex(y.Corners[j].Perf.GBW) ||
				hex(x.Corners[j].Perf.PhaseDeg) != hex(y.Corners[j].Perf.PhaseDeg) {
				t.Fatalf("round %d corner %s diverged", i+1, x.Corners[j].Corner)
			}
		}
	}
}

// TestRefineRoundCountMonotone: the executed round count is monotone in
// the MaxRounds budget, truncated budgets report Met=false for a spec
// that needs more rounds, and a budget at least as large as the need
// reproduces the identical refinement prefix.
func TestRefineRoundCountMonotone(t *testing.T) {
	full := refinedRun(t, 1, 0)
	need := len(full.Refine.Rounds)
	if need < 2 {
		t.Fatalf("case 1 should need several rounds, got %d", need)
	}
	prevRounds := 0
	for _, budget := range []int{1, 2, need} {
		res := refinedRun(t, 1, budget)
		got := len(res.Refine.Rounds)
		if got < prevRounds {
			t.Fatalf("rounds not monotone in MaxRounds: budget %d ran %d rounds after %d", budget, got, prevRounds)
		}
		prevRounds = got
		if got > budget {
			t.Fatalf("budget %d exceeded: ran %d rounds", budget, got)
		}
		if budget < need && res.Refine.Met {
			t.Fatalf("budget %d met spec but the full run needed %d rounds", budget, need)
		}
		// The executed prefix is bit-identical to the full run's: the
		// budget only truncates, never alters, the trajectory.
		for i := 0; i < got; i++ {
			w, g := full.Refine.Rounds[i], res.Refine.Rounds[i]
			if w.TargetGBW != g.TargetGBW || w.TargetPM != g.TargetPM || w.WorstMargin != g.WorstMargin {
				t.Fatalf("budget %d round %d diverged from the full run:\n%+v\nvs\n%+v", budget, i+1, w, g)
			}
		}
	}
	if len(refinedRun(t, 1, need).Refine.Rounds) != need {
		t.Fatalf("budget == need should run exactly %d rounds", need)
	}
}

// TestRefineAcceptedNoWorseThanRound1: whatever round is accepted, its
// worst-corner margin is never below round 1's — refinement can only
// improve on (or equal) the one-shot flow.
func TestRefineAcceptedNoWorseThanRound1(t *testing.T) {
	for _, caseN := range []int{1, 4} {
		rep := refinedRun(t, caseN, 0).Refine
		r1 := rep.Rounds[0].WorstMargin
		acc := rep.Rounds[rep.BestRound-1].WorstMargin
		if acc < r1 {
			t.Fatalf("case %d accepted round %d margin %g worse than round 1's %g",
				caseN, rep.BestRound, acc, r1)
		}
		// And every round before the accepted one is strictly worse —
		// otherwise the earlier round should have been accepted.
		for i := 0; i < rep.BestRound-1; i++ {
			if rep.Rounds[i].WorstMargin >= acc {
				t.Fatalf("case %d round %d margin %g not below the accepted %g",
					caseN, i+1, rep.Rounds[i].WorstMargin, acc)
			}
		}
	}
}

// TestRefineConvergenceBudget bounds the outer loop the way the
// original budget test bounds the inner one: rounds within the
// configured budget, every inner loop still within the seed's 4 layout
// calls, per-round traces well-formed (fresh call numbering, -1 delta
// sentinel, monotone shrinking deltas down to the fixpoint).
func TestRefineConvergenceBudget(t *testing.T) {
	const seedLayoutCalls = 4
	res := refinedRun(t, 4, 0)
	rep := res.Refine
	if len(rep.Rounds) > rep.MaxRounds {
		t.Fatalf("ran %d rounds over budget %d", len(rep.Rounds), rep.MaxRounds)
	}
	for _, rr := range rep.Rounds {
		if rr.LayoutCalls > seedLayoutCalls {
			t.Fatalf("round %d inner loop used %d layout calls, seed needs %d",
				rr.Round, rr.LayoutCalls, seedLayoutCalls)
		}
	}
	// The Result trace concatenates every round, tagged and in order.
	byRound := map[int][]obs.Iteration{}
	lastRound := 0
	for _, it := range res.Trace {
		if it.Round < lastRound {
			t.Fatalf("trace rounds out of order: %d after %d", it.Round, lastRound)
		}
		lastRound = it.Round
		byRound[it.Round] = append(byRound[it.Round], it)
	}
	if len(byRound) != len(rep.Rounds) {
		t.Fatalf("trace covers %d rounds, report has %d", len(byRound), len(rep.Rounds))
	}
	for _, rr := range rep.Rounds {
		tr := byRound[rr.Round]
		if len(tr) != rr.LayoutCalls {
			t.Fatalf("round %d: %d trace rows for %d layout calls", rr.Round, len(tr), rr.LayoutCalls)
		}
		for i, it := range tr {
			if it.Call != i+1 {
				t.Fatalf("round %d row %d: call numbered %d (inner numbering must restart)", rr.Round, i, it.Call)
			}
			if i == 0 && it.DeltaF != -1 {
				t.Fatalf("round %d: first call must carry the -1 sentinel, got %g", rr.Round, it.DeltaF)
			}
			if i > 1 && it.DeltaF >= tr[i-1].DeltaF {
				t.Fatalf("round %d: parasitic delta stopped shrinking at call %d", rr.Round, it.Call)
			}
		}
		last := tr[len(tr)-1]
		if len(tr) > 1 && (last.DeltaF < 0 || last.DeltaF >= 1e-15) {
			t.Fatalf("round %d inner loop ended above tolerance: Δ = %g fF", rr.Round, last.DeltaF*1e15)
		}
	}
}

// TestOneShotCarriesNoRefineState: with refinement off nothing changes —
// no report, no round tags — so the pre-refinement goldens and wire
// formats stay byte-identical.
func TestOneShotCarriesNoRefineState(t *testing.T) {
	res := allCases(t)[4]
	if res.Refine != nil {
		t.Fatal("one-shot run carries a refine report")
	}
	for _, it := range res.Trace {
		if it.Round != 0 {
			t.Fatalf("one-shot iteration tagged with round %d", it.Round)
		}
	}
}
