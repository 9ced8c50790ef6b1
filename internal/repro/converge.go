package repro

import (
	"fmt"

	"loas/internal/core"
	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// ConvergencePoint is one sizing↔layout iteration of the case-4 loop —
// now the shared obs.Iteration event the whole stack records (core
// results, loasd run records, `loas trace`).
type ConvergencePoint = obs.Iteration

// ConvergenceTrace replays the paper's "repeated till the calculated
// parasitics remain unchanged" loop, recording every layout call — the
// experiment behind the "three calls of the layout tool were needed"
// sentence in §5. It is the case-4 synthesis loop itself (core.Synthesize
// with verification skipped), so the trace is exactly what a full run
// would record.
func ConvergenceTrace(tech *techno.Tech, spec sizing.OTASpec, maxCalls int) ([]ConvergencePoint, error) {
	res, err := core.Synthesize(tech, spec, core.Options{
		Case:           4,
		MaxLayoutCalls: maxCalls,
		SkipVerify:     true,
	})
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// ConvergenceText renders the trace as the convergence table.
func ConvergenceText(pts []ConvergencePoint) string {
	return obs.ConvergenceTable(pts)
}

// EvalAblation compares the three phase-margin views of one design: the
// closed-form pole-counting estimate, the simulated evaluation the plan
// uses, and the extracted-netlist measurement — quantifying why the plan
// evaluates on the simulator (the paper's shared-models accuracy
// argument).
type EvalAblation struct {
	PMAnalytic  float64
	PMSimulated float64
	PMExtracted float64
}

// RunEvalAblation runs the case-4 synthesis once and reports the three
// phase margins.
func RunEvalAblation(tech *techno.Tech, spec sizing.OTASpec) (*EvalAblation, error) {
	res, err := core.Synthesize(tech, spec, core.Options{Case: 4})
	if err != nil {
		return nil, err
	}
	fc, ok := res.Design.(*sizing.FoldedCascode)
	if !ok {
		return nil, fmt.Errorf("repro: eval ablation needs the folded-cascode plan, got %T", res.Design)
	}
	return &EvalAblation{
		PMAnalytic:  fc.PMAnalytic,
		PMSimulated: fc.Predicted.PhaseDeg,
		PMExtracted: res.Extracted.PhaseDeg,
	}, nil
}
