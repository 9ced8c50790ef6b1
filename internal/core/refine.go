package core

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// Closed-loop post-layout-driven sizing: the paper's case-4 promise is
// that extracted performance should *drive* re-sizing, not just be
// reported. When the extracted netlist misses the original spec at any
// process corner, the effective spec margins are tightened in
// proportion to the per-metric miss and the whole sizing↔layout loop
// re-runs — corner-robust sizing, not corner-reporting. The loop is
// bit-deterministic: corners are evaluated in a fixed order, margins
// are pure float arithmetic over index-ordered sweep results, and the
// inner engine is worker-invariant by construction, so the same spec
// refines to the same design at any worker count.

// Refinement defaults and acceptance slacks, shared by the engine, the
// serve request normalizer and the CLI flags.
const (
	// DefaultRefineMaxRounds bounds the outer loop (round 1 is the
	// one-shot run, so up to five corrective re-sizings).
	DefaultRefineMaxRounds = 6
	// DefaultRefineMarginStep folds the full per-metric worst-corner
	// miss into the next round's target (step 1 ≈ the traditional
	// flow's full-shortfall overdrive; smaller steps approach more
	// cautiously at the cost of rounds).
	DefaultRefineMarginStep = 1.0
	// RefineGBWSlack and RefinePMSlackDeg are the acceptance slacks
	// against the *original* spec, matching the traditional-flow
	// baseline (GBW within 2%, PM within 1°).
	RefineGBWSlack   = 0.02
	RefinePMSlackDeg = 1.0
	// refineMaxOverdrive caps the cumulative GBW target inflation and
	// refineMaxPMTarget the PM target, so an unreachable spec exhausts
	// the round budget instead of driving the sizer into infeasible
	// territory.
	refineMaxOverdrive = 3.0
	refineMaxPMTarget  = 80.0
)

// RefineOptions configures the outer refinement loop of Options.Refine.
// The zero value disables refinement entirely (one-shot flow).
type RefineOptions struct {
	// Enabled turns the corner-driven outer loop on.
	Enabled bool
	// MaxRounds bounds the outer loop (default DefaultRefineMaxRounds).
	MaxRounds int
	// MarginStep scales how much of the worst-corner miss is folded
	// into the next round's effective targets (default
	// DefaultRefineMarginStep).
	MarginStep float64
}

func (o *RefineOptions) defaults() {
	if o.MaxRounds <= 0 {
		o.MaxRounds = DefaultRefineMaxRounds
	}
	if o.MarginStep <= 0 {
		o.MarginStep = DefaultRefineMarginStep
	}
}

// refineCornerOrder fixes the corner evaluation and report order —
// margin arithmetic must never depend on map iteration.
var refineCornerOrder = []techno.Corner{techno.CornerTT, techno.CornerSS,
	techno.CornerFF, techno.CornerSF, techno.CornerFS}

// RefineCorner is one corner's verdict within a refinement round.
type RefineCorner struct {
	Corner string             `json:"corner"`
	Perf   sizing.Performance `json:"perf"`
	// GBWMarginRel is (GBW − spec.GBW)/spec.GBW against the original
	// spec (negative = miss); PMMarginDeg is PM − spec.PM in degrees.
	GBWMarginRel float64 `json:"gbw_margin_rel"`
	PMMarginDeg  float64 `json:"pm_margin_deg"`
	// Met reports whether this corner satisfies the original spec
	// within the acceptance slacks.
	Met bool `json:"met"`
}

// RefineRound is one pass of the outer loop: the effective targets it
// sized against, the inner loop's cost, and the per-corner extracted
// verdicts against the original spec.
type RefineRound struct {
	Round int `json:"round"`
	// TargetGBW / TargetPM are the tightened effective spec this round
	// sized against (round 1 uses the original spec).
	TargetGBW    float64        `json:"target_gbw_hz"`
	TargetPM     float64        `json:"target_pm_deg"`
	LayoutCalls  int            `json:"layout_calls"`
	SizingPasses int            `json:"sizing_passes"`
	Corners      []RefineCorner `json:"corners"`
	// WorstMargin is the round's worst-corner acceptance margin,
	// normalized so 0 is exactly on the slack-adjusted spec: the min
	// over corners of min((GBW−(1−slack)·specGBW)/specGBW,
	// (PM−(specPM−slack))/specPM). Met ⇔ WorstMargin ≥ 0.
	WorstMargin float64 `json:"worst_margin"`
	Met         bool    `json:"met"`
}

// RefineReport is the structured outcome of a refined synthesis,
// attached to Result.Refine and serialized into core.Summary.
type RefineReport struct {
	MaxRounds  int           `json:"max_rounds"`
	MarginStep float64       `json:"margin_step"`
	Rounds     []RefineRound `json:"rounds"`
	// BestRound names the accepted round (1-based): the first round
	// meeting the spec at every corner, else the round with the
	// greatest worst-corner margin. The Result carries that round's
	// design.
	BestRound int `json:"best_round"`
	// Met reports whether the accepted round satisfies the original
	// spec at all five corners.
	Met bool `json:"met"`
	// Aborted carries the error that cut the loop short after round 1
	// (a tightened target the sizer could not realize); the best
	// earlier round is still returned.
	Aborted string `json:"aborted,omitempty"`
}

// synthesizeRefined is the outer loop: one-shot synthesis, corner
// verification against the original spec, and — on any corner miss —
// proportionally tightened effective targets for the next round, until
// the spec is met at every corner or the round budget is exhausted
// (the best round wins).
func synthesizeRefined(tech *techno.Tech, spec sizing.OTASpec, opts Options) (*Result, error) {
	ro := opts.Refine
	ro.defaults()
	start := time.Now()
	obs.Default.Counter("loas_refine_runs_total",
		"Closed-loop refined synthesis runs.").Inc()

	rep := &RefineReport{MaxRounds: ro.MaxRounds, MarginStep: ro.MarginStep}
	// Child spans chain from opts.Ctx so the daemon's pprof labels
	// (topology, run_id) reach the rounds and the per-corner workers.
	ctx := opts.ctx()
	parent := obs.SpanFromContext(ctx)
	target := spec
	var best *Result
	bestMargin := math.Inf(-1)
	var allIters []obs.Iteration

	for round := 1; round <= ro.MaxRounds; round++ {
		rSpan := parent.Child("refine-round")
		rSpan.SetAttr("round", strconv.Itoa(round))
		io := opts
		io.Refine = RefineOptions{}
		io.SkipVerify = false // the loop is driven by extracted performance
		io.Ctx = obs.ContextWithSpan(ctx, rSpan)
		res, err := synthesizeOnce(tech, target, io, round)
		if err == nil {
			var corners map[techno.Corner]sizing.Performance
			sweep := rSpan.Child("corner-sweep")
			corners, err = CornerSweep(obs.ContextWithSpan(ctx, sweep), tech, res)
			sweep.End()
			if err == nil {
				rr := scoreRound(round, target, spec, res, corners)
				rep.Rounds = append(rep.Rounds, rr)
				allIters = append(allIters, res.Trace...)
				if rr.WorstMargin > bestMargin {
					bestMargin = rr.WorstMargin
					best = res
					rep.BestRound = round
				}
				rSpan.End()
				if rr.Met {
					break
				}
				target = tightenTarget(target, spec, rr, ro.MarginStep)
				continue
			}
		}
		rSpan.End()
		if best == nil {
			return nil, fmt.Errorf("core: refine round %d: %w", round, err)
		}
		rep.Aborted = fmt.Sprintf("round %d: %v", round, err)
		break
	}

	rep.Met = bestMargin >= 0
	best.Refine = rep
	best.Trace = allIters
	best.Elapsed = time.Since(start)
	obs.Default.Counter("loas_refine_rounds_total",
		"Refinement rounds executed across all refined runs.").Add(int64(len(rep.Rounds)))
	if rep.Met {
		obs.Default.Counter("loas_refine_met_total",
			"Refined runs that met the original spec at all corners.").Inc()
	}
	obs.Default.Histogram("loas_refine_rounds_per_run",
		"Rounds needed per refined synthesis run.",
		[]float64{1, 2, 3, 4, 5, 6, 8, 10}).Observe(float64(len(rep.Rounds)))
	return best, nil
}

// scoreRound verifies one round's extracted corner performance against
// the original spec and computes its acceptance margins. Corners are
// scored in refineCornerOrder so the report and every derived float are
// deterministic.
func scoreRound(round int, target, spec sizing.OTASpec, res *Result,
	corners map[techno.Corner]sizing.Performance) RefineRound {
	rr := RefineRound{
		Round:        round,
		TargetGBW:    target.GBW,
		TargetPM:     target.PM,
		LayoutCalls:  res.LayoutCalls,
		SizingPasses: res.SizingPasses,
		WorstMargin:  math.Inf(1),
	}
	for _, c := range refineCornerOrder {
		p := corners[c]
		gbwMargin := (p.GBW - (1-RefineGBWSlack)*spec.GBW) / spec.GBW
		pmMargin := (p.PhaseDeg - (spec.PM - RefinePMSlackDeg)) / spec.PM
		margin := math.Min(gbwMargin, pmMargin)
		rr.Corners = append(rr.Corners, RefineCorner{
			Corner:       string(c),
			Perf:         p,
			GBWMarginRel: (p.GBW - spec.GBW) / spec.GBW,
			PMMarginDeg:  p.PhaseDeg - spec.PM,
			Met:          margin >= 0,
		})
		if margin < rr.WorstMargin {
			rr.WorstMargin = margin
		}
	}
	rr.Met = rr.WorstMargin >= 0
	return rr
}

// tightenTarget folds the round's worst-corner misses back into the
// effective targets, proportionally to each metric's own miss: the GBW
// target inflates by step × the worst relative GBW shortfall, the PM
// target grows by step × the worst PM shortfall in degrees. Cumulative
// inflation is clamped so an unreachable spec exhausts rounds instead
// of breaking the sizer.
func tightenTarget(target, spec sizing.OTASpec, rr RefineRound, step float64) sizing.OTASpec {
	var gbwMiss, pmMiss float64 // worst-corner shortfall vs the slack-adjusted spec
	for _, c := range rr.Corners {
		if m := ((1-RefineGBWSlack)*spec.GBW - c.Perf.GBW) / spec.GBW; m > gbwMiss {
			gbwMiss = m
		}
		if m := (spec.PM - RefinePMSlackDeg) - c.Perf.PhaseDeg; m > pmMiss {
			pmMiss = m
		}
	}
	next := target
	next.GBW = target.GBW * (1 + step*gbwMiss)
	if max := refineMaxOverdrive * spec.GBW; next.GBW > max {
		next.GBW = max
	}
	next.PM = target.PM + step*pmMiss
	if next.PM > refineMaxPMTarget {
		next.PM = refineMaxPMTarget
	}
	return next
}
