package repro

import (
	"fmt"

	"loas/internal/core"
	"loas/internal/sizing"
	"loas/internal/techno"
)

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
