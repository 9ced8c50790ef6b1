package core

import (
	"context"
	"fmt"

	"loas/internal/circuit"
	"loas/internal/meas"
	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// VerifyAtCorner re-measures a synthesized design's extracted netlist with
// the model cards shifted to a process corner. The bias voltages are
// recomputed on the corner models (the role of an on-chip bias generator
// that tracks the process — fixed external voltages would starve the
// current sinks at the skew corners), while the device sizes stay as the
// nominal design chose them. Every netlist source whose Pos is a bias net
// takes that net's corner voltage. This probes the paper's claim that
// fixing operating points during synthesis "increases the reliability of
// the produced circuits".
func VerifyAtCorner(tech *techno.Tech, corner techno.Corner, res *Result) (*sizing.Performance, error) {
	ct, err := tech.AtCorner(corner)
	if err != nil {
		return nil, err
	}
	bias, err := res.Design.BiasFor(ct)
	if err != nil {
		return nil, fmt.Errorf("core: corner %s bias: %w", corner, err)
	}
	build := func() *circuit.Circuit {
		ckt := ExtractedNetlist(tech, res.Design, res.Parasitics)
		for _, m := range ckt.MOSFETs() {
			m.Dev.Card = ct.Card(m.Dev.Card.Type)
		}
		for _, v := range ckt.VSources() {
			if vb, ok := bias[v.Pos]; ok {
				v.DC = vb
			}
		}
		return ckt
	}
	perf, err := meas.Measure(OTABench(tech, res.Spec, res.Design, build))
	if err != nil {
		return nil, fmt.Errorf("core: corner %s: %w", corner, err)
	}
	return &perf, nil
}

// CornerSweep verifies the design at all five corners concurrently. Each
// corner gets a deep tech copy (AtCorner) and builds its own circuits, so
// the only shared state is the read-only design, parasitic report and
// nominal technology. A span carried by ctx (obs.ContextWithSpan) gets
// one "corner" child per worker item, so the span tree shows where the
// fan-out's parallel time goes.
func CornerSweep(ctx context.Context, tech *techno.Tech, res *Result) (map[techno.Corner]sizing.Performance, error) {
	parent := obs.SpanFromContext(ctx)
	corners := []techno.Corner{techno.CornerTT, techno.CornerSS,
		techno.CornerFF, techno.CornerSF, techno.CornerFS}
	perfs, err := parallel.Map(ctx, 0, corners,
		func(cctx context.Context, _ int, c techno.Corner) (sizing.Performance, error) {
			span := parent.Child("corner")
			span.SetAttr("corner", string(c))
			defer span.End()
			var p *sizing.Performance
			var err error
			obs.Phase(cctx, "corner", func() {
				p, err = VerifyAtCorner(tech, c, res)
			})
			if err != nil {
				return sizing.Performance{}, err
			}
			return *p, nil
		})
	if err != nil {
		return nil, err
	}
	out := map[techno.Corner]sizing.Performance{}
	for i, c := range corners {
		out[c] = perfs[i]
	}
	return out, nil
}
