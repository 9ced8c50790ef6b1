package core

// Parallel drivers over the synthesis loop. The same sharing contract
// lets Synthesize run its two verification passes (verifyBoth in
// core.go) concurrently on one converged design, and the package tests
// enforce it under -race:
//
//   - *techno.Tech and its MOSCards are immutable after construction.
//     Corner analysis copies the tech (AtCorner), mismatch analysis
//     clones cards before shifting them (mc.Sample.Apply).
//   - A sizing.Design is immutable once its plan returns it: nothing
//     writes to it, and its netlist builders and NodeSet return fresh
//     circuits and maps, so the verification passes and the corner
//     workers read one design at once.
//   - *circuit.Circuit, sim.Engine and sim.ACSolver are single-goroutine
//     objects (the simulator types own scratch workspaces); every
//     simulation builds its own netlist, which is why the measurement
//     benches take netlist builders instead of netlists.
//   - extract.Parasitics is read-only once published by a layout call;
//     Apply mutates only the target circuit.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// NumTable1Cases is the number of parasitic-awareness levels of Table 1.
const NumTable1Cases = 4

// SynthesizeAll runs the four Table-1 parasitic-awareness cases
// concurrently and returns the results indexed by case-1 (res[0] is
// case 1 … res[3] is case 4). The cases are fully independent synthesis
// runs that share only the immutable technology, so each result is
// identical to a serial Synthesize call with the same options; opts.Case
// is overridden per slot. When opts.Ctx carries a span, each case
// records its lifecycle under its own "case" child span — one span per
// worker item, which is how the trees show where parallel time goes.
func SynthesizeAll(tech *techno.Tech, spec sizing.OTASpec, opts Options) ([]*Result, error) {
	ctx := opts.ctx()
	parent := obs.SpanFromContext(ctx)
	return parallel.MapN(context.Background(), 0, NumTable1Cases,
		func(_ context.Context, i int) (*Result, error) {
			o := opts
			o.Case = i + 1
			cs := parent.Child("case")
			cs.SetAttr("case", strconv.Itoa(o.Case))
			defer cs.End()
			o.Ctx = obs.ContextWithSpan(ctx, cs)
			res, err := Synthesize(tech, spec, o)
			if err != nil {
				return nil, fmt.Errorf("core: case %d: %w", i+1, err)
			}
			return res, nil
		})
}

// FlowComparison pairs the proposed layout-oriented run with the
// traditional Fig. 1(a) baseline on the same spec.
type FlowComparison struct {
	Proposed    *Result
	Traditional *TraditionalResult
	// TraditionalErr records a baseline that finished without meeting the
	// spec (Traditional then still carries its last iteration), kept
	// separate so the comparison can report partial baseline results.
	TraditionalErr error
	// Elapsed is the wall-clock of the whole comparison — with both flows
	// in flight at once it is the max, not the sum, of the two runtimes.
	Elapsed time.Duration
}

// CompareFlows runs the proposed case-4 loop and the traditional
// size→layout→extract→simulate baseline side by side and returns both
// results. The two flows are independent end-to-end synthesis runs; only
// the immutable technology and the spec (passed by value) are shared.
func CompareFlows(tech *techno.Tech, spec sizing.OTASpec) (*FlowComparison, error) {
	start := time.Now()
	fc := &FlowComparison{}
	// The two closures write to disjoint fields of fc and Do establishes
	// the happens-before edge back to this goroutine.
	err := parallel.Do(context.Background(), 2, 2, func(_ context.Context, i int) error {
		if i == 0 {
			res, err := Synthesize(tech, spec, Options{Case: 4})
			if err != nil {
				return fmt.Errorf("core: proposed flow: %w", err)
			}
			fc.Proposed = res
			return nil
		}
		res, err := TraditionalFlow(tech, spec)
		if res == nil {
			return fmt.Errorf("core: traditional flow: %w", err)
		}
		fc.Traditional, fc.TraditionalErr = res, err
		return nil
	})
	if err != nil {
		return nil, err
	}
	fc.Elapsed = time.Since(start)
	return fc, nil
}
