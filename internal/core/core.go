// Package core implements the paper's contribution: the layout-oriented
// synthesis loop of Fig. 1(b). The sizing tool and the layout generator
// call each other until the layout parasitics stop changing; only then is
// the layout generated and the extracted netlist verified by simulation.
//
// A traditional-flow baseline (Fig. 1(a)) is provided for the comparison
// experiment: size without layout knowledge, generate, extract, simulate,
// and re-size against the measured shortfall until specs are met — the
// "laborious sizing-layout iterations" the methodology avoids.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/layout/extract"
	_ "loas/internal/layout/rows" // register the row-based backend
	"loas/internal/meas"
	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// ConvergeTolF is the parasitic fixpoint tolerance in farads: the loop
// stops once no net's parasitic capacitance moves by this much between
// two layout calls. Run records judge their iterations against the same
// value, which obs owns.
const ConvergeTolF = obs.ConvergeTolF

// Options configures a synthesis run.
type Options struct {
	// Topology names the registered design plan to run ("" means the
	// default folded-cascode, keeping existing callers bit-identical).
	Topology string
	// Case selects the parasitic awareness level (the paper's Table-1
	// cases 1–4). Case 4 is the full methodology.
	Case int
	// MaxLayoutCalls bounds the parasitic-convergence loop (default 8).
	MaxLayoutCalls int
	// Layout names the registered layout backend that serves the
	// placement/routing stage ("" means the default slicing-tree
	// generator, keeping existing callers bit-identical).
	Layout string
	// SkipVerify skips both verification passes (used by benchmarks
	// that only exercise the loop).
	SkipVerify bool
	// Ctx, when non-nil, carries the caller's observers, all optional
	// and observation only — results are identical with or without:
	//   - pprof labels (the daemon sets phase/topology/layout/run_id),
	//     under which the engine layers its per-phase labels, so
	//     CPU/heap profiles slice by pipeline stage;
	//   - a parent span (obs.ContextWithSpan), under which the run
	//     records one "iteration" span per layout call (with "sizing"
	//     and "layout-extract" children) plus the two verification
	//     phases;
	//   - a run (obs.ContextWithRun), which records each sizing↔layout
	//     iteration as it happens. The finished Result carries the same
	//     events in Result.Trace regardless.
	Ctx context.Context
	// Refine configures the closed-loop post-layout refinement: when
	// enabled, extracted corner performance drives re-sizing rounds
	// until the original spec is met at every corner (see refine.go).
	// The zero value keeps the one-shot flow bit-identical.
	Refine RefineOptions

	// backend is the resolved layout backend; Synthesize sets it and
	// refinement rounds share it through the options copy.
	backend layout.Backend
}

func (o *Options) defaults() {
	if o.Case == 0 {
		o.Case = 4
	}
	if o.MaxLayoutCalls <= 0 {
		o.MaxLayoutCalls = 8
	}
}

// ctx returns the caller's context, or Background when Ctx is unset.
func (o *Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Result is a finished synthesis.
type Result struct {
	// Topology is the canonical name of the plan that ran.
	Topology string
	// LayoutBackend is the canonical name of the layout backend that
	// served the placement/routing stage.
	LayoutBackend string
	// Spec is the specification the plan was sized against.
	Spec       sizing.OTASpec
	Design     sizing.Design
	Layout     *cairo.Plan
	Parasitics *extract.Parasitics

	// Synthesized is the sizing tool's predicted performance (Table 1,
	// unbracketed); Extracted the simulated performance of the extracted
	// netlist (bracketed).
	Synthesized sizing.Performance
	Extracted   sizing.Performance

	LayoutCalls  int
	SizingPasses int
	Elapsed      time.Duration
	ExtractedCkt *circuit.Circuit

	// Trace holds one event per sizing↔layout iteration: parasitic
	// delta, hot-net and total capacitances, fold count, design point
	// and per-phase wall time — the observable form of the paper's
	// convergence story. A refined result carries the iterations of
	// every outer round in round order, each tagged with its Round.
	Trace []obs.Iteration

	// Refine is the structured report of the closed-loop refinement
	// (nil for one-shot runs). The Result fields above describe the
	// accepted round's design.
	Refine *RefineReport
}

// Synthesize runs the layout-oriented flow for the topology named in
// opts (default: the paper's folded-cascode OTA).
//
// Cases 1 and 2 use no layout feedback, so a single sizing pass is
// followed by one generation call. Cases 3 and 4 iterate sizing ↔ layout
// plan until the parasitic report reaches a fixpoint (the paper's example
// needed three calls).
//
// With opts.Refine.Enabled the whole loop becomes the inner stage of an
// outer corner-driven refinement (see refine.go); otherwise this is the
// one-shot flow, bit-identical to the pre-refinement engine.
func Synthesize(tech *techno.Tech, spec sizing.OTASpec, opts Options) (*Result, error) {
	opts.defaults()
	var err error
	opts.backend, err = layout.Lookup(opts.Layout)
	if err != nil {
		return nil, err
	}
	if opts.Refine.Enabled {
		return synthesizeRefined(tech, spec, opts)
	}
	return synthesizeOnce(tech, spec, opts, 0)
}

// synthesizeOnce is one pass of the sizing↔layout loop plus
// verification. round tags the recorded iterations with the outer
// refinement round (0 = one-shot, omitted on the wire).
func synthesizeOnce(tech *techno.Tech, spec sizing.OTASpec, opts Options, round int) (*Result, error) {
	start := time.Now()
	plan, err := sizing.Lookup(opts.Topology)
	if err != nil {
		return nil, err
	}
	ps, err := sizing.Case(opts.Case)
	if err != nil {
		return nil, err
	}
	obs.Default.Counter("loas_synth_runs_"+layout.MetricName(plan.Name)+"_total",
		"Synthesis runs for topology "+plan.Name+".").Inc()

	ctx := opts.ctx()
	span, run := obs.SpanFromContext(ctx), obs.RunFromContext(ctx)
	res := &Result{Topology: plan.Name, LayoutBackend: opts.backend.Info().Name, Spec: spec}
	var par *extract.Parasitics
	var design sizing.Design
	usesLayoutInfo := ps.Junction == extract.JunctionExact || ps.Routing

	for call := 1; call <= opts.MaxLayoutCalls; call++ {
		itSpan := span.Child("iteration")
		itSpan.SetAttr("call", strconv.Itoa(call))
		ps.Report = par
		sizeSpan := itSpan.Child("sizing")
		sizeSpan.BeginResources()
		sizeStart := time.Now()
		obs.Phase(ctx, "sizing", func() {
			design, err = plan.Size(tech, spec, ps)
		})
		sizingNS := time.Since(sizeStart).Nanoseconds()
		sizeSpan.End()
		if err != nil {
			itSpan.End()
			return nil, fmt.Errorf("core: sizing pass %d: %w", call, err)
		}
		res.SizingPasses++

		laySpan := itSpan.Child("layout-extract")
		laySpan.BeginResources()
		layoutStart := time.Now()
		var lay *cairo.Plan
		obs.Phase(ctx, "layout-extract", func() {
			lay, err = opts.backend.Plan(tech, design.Layout(), layout.Constraint{}, nil)
		})
		layoutNS := time.Since(layoutStart).Nanoseconds()
		laySpan.End()
		if err != nil {
			itSpan.End()
			return nil, fmt.Errorf("core: layout call %d: %w", call, err)
		}
		res.LayoutCalls++
		newPar := lay.Parasitics
		newPar.LayoutCalls = res.LayoutCalls
		res.Layout = lay

		// Record the iteration before the convergence decision so the
		// trace always covers every layout call, including the last.
		delta := -1.0
		if par != nil {
			delta = extract.MaxDelta(par, newPar)
		}
		op := design.OperatingPoint()
		it := obs.Iteration{
			Topology:  plan.Name,
			Round:     round,
			Call:      call,
			DeltaF:    delta,
			OutCapF:   newPar.TotalNetCap(sizing.NetOut),
			FN1CapF:   newPar.TotalNetCap(design.HotNet()),
			TotalCapF: newPar.TotalCap(),
			Folds:     newPar.TotalFolds(),
			W1:        op.W1,
			Lc:        op.Lc,
			Itail:     op.Itail,
			SizingNS:  sizingNS,
			LayoutNS:  layoutNS,
		}
		res.Trace = append(res.Trace, it)
		run.Record(it)
		itSpan.End()

		if !usesLayoutInfo {
			par = newPar
			break
		}
		if par != nil && delta < ConvergeTolF {
			par = newPar
			break
		}
		par = newPar
		if call == opts.MaxLayoutCalls {
			return nil, fmt.Errorf("core: parasitics did not converge in %d layout calls (Δ = %.3g F)",
				opts.MaxLayoutCalls, delta)
		}
	}

	res.Design = design
	res.Parasitics = par
	res.Synthesized = design.PredictedPerf()

	if !opts.SkipVerify {
		var synth sizing.Performance
		var perf *sizing.Performance
		var ckt *circuit.Circuit
		err = verifyBoth(ctx, span,
			// Synthesized column: the sizing tool's own verification —
			// the assumed netlist (its parasitic view of the world)
			// measured with the same suite, so any Table-1 mismatch is
			// purely the parasitics each case ignores.
			func() (err error) {
				synth, err = meas.Measure(OTABench(tech, spec, design, func() *circuit.Circuit {
					return design.AssumedNetlist("assumed")
				}))
				return err
			},
			func() (err error) {
				perf, ckt, err = VerifyExtracted(tech, spec, design, par)
				return err
			})
		if err != nil {
			return nil, err
		}
		res.Synthesized = synth
		res.Synthesized.Offset = 0 // by construction of a symmetric schematic
		res.Extracted = *perf
		res.ExtractedCkt = ckt
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// verifyBoth runs the two verification passes of a converged design —
// synth for Table 1's synthesized column, extracted for the bracketed
// one — on two goroutines. Each pass builds its own netlists and
// engines and only reads the tech, spec, design and parasitic report,
// so it measures the same bits as it would alone.
//
// The passes' spans are opened here, in pass order, before either
// starts: span IDs follow start order, so the tree does not depend on
// scheduling. Neither span opts into BeginResources, since each delta
// would count the other pass's work. The fan-out starts from
// Background, so a cancelled request still runs both passes.
//
// One pass's failure neither cancels nor skips the other: each failure
// travels in its pass's own slot, never as a task error, so the pool's
// first-error cancellation stays out of play. When both fail the
// synthesized error wins. A panic in a pass comes back as that pass's
// error, a *parallel.PanicError.
func verifyBoth(ctx context.Context, parent *obs.Span, synth, extracted func() error) error {
	passes := [...]struct {
		phase, column string
		run           func() error
		span          *obs.Span
		err           error
	}{
		{phase: "verify-synthesized", column: "synthesized", run: synth},
		{phase: "verify-extracted", column: "extracted", run: extracted},
	}
	for i := range passes {
		passes[i].span = parent.Child(passes[i].phase)
	}
	err := parallel.Do(context.Background(), len(passes), len(passes), func(_ context.Context, i int) error {
		p := &passes[i]
		defer p.span.End()
		obs.Phase(ctx, p.phase, func() { p.err = p.run() })
		return nil
	})
	// The tasks return nil, so the pool's only error is a recovered
	// panic. The other pass may then have been skipped before it
	// started; its span is ended below.
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		passes[pe.Index].err = pe
	}
	for _, p := range passes {
		p.span.End()
	}
	for _, p := range passes {
		if p.err != nil {
			return fmt.Errorf("core: %s verification: %w", p.column, p.err)
		}
	}
	return nil
}

// ExtractedNetlist builds the amplifier netlist with the full layout
// parasitics applied: exact junction geometry, realized (grid-snapped)
// widths, wiring, coupling and well capacitance.
func ExtractedNetlist(tech *techno.Tech, d sizing.Design, par *extract.Parasitics) *circuit.Circuit {
	ckt := d.Netlist("extracted")
	par.Apply(ckt, extract.ApplyOptions{
		Junction: extract.JunctionExact,
		Routing:  true,
	}, func(_ string, w float64) device.DiffGeom {
		return device.OneFoldGeom(tech, w)
	}, d.ACGroundNets()...)
	return ckt
}

// OTABench builds the measurement bench for any sized OTA design over an
// arbitrary netlist builder. The specification supplies the bench
// operating points (common mode, output mid-swing, load).
func OTABench(tech *techno.Tech, spec sizing.OTASpec, d sizing.Design, build func() *circuit.Circuit) meas.Bench {
	vicm := 0.5 * (spec.ICMLow + spec.ICMHigh)
	if vicm < 0.3 {
		vicm = 0.3
	}
	return meas.Bench{
		Build:      build,
		InP:        sizing.NetInP,
		InN:        sizing.NetInN,
		Out:        sizing.NetOut,
		SupplyName: "dd",
		CL:         spec.CL,
		VicmDC:     vicm,
		VoutMid:    0.5 * (spec.OutLow + spec.OutHigh),
		Temp:       tech.Temp,
		NodeSet:    d.NodeSet(),
	}
}

// VerifyExtracted measures the extracted netlist — the bracketed column
// of Table 1.
func VerifyExtracted(tech *techno.Tech, spec sizing.OTASpec, d sizing.Design, par *extract.Parasitics) (*sizing.Performance, *circuit.Circuit, error) {
	bench := OTABench(tech, spec, d, func() *circuit.Circuit {
		return ExtractedNetlist(tech, d, par)
	})
	perf, err := meas.Measure(bench)
	if err != nil {
		return nil, nil, err
	}
	return &perf, ExtractedNetlist(tech, d, par), nil
}

// TraditionalResult reports the Fig. 1(a) baseline run.
type TraditionalResult struct {
	Design       sizing.Design
	Parasitics   *extract.Parasitics
	Extracted    sizing.Performance
	Iterations   int // full size→layout→extract→simulate loops
	Elapsed      time.Duration
	GBWOverdrive float64 // final over-design factor applied to the GBW target
}

// traditionalMaxIter bounds the traditional flow's full
// size→layout→extract→simulate iterations.
const traditionalMaxIter = 10

// TraditionalFlow runs the classical loop the methodology replaces:
// size with no layout knowledge, generate the layout, extract, simulate,
// and if the extracted GBW or phase margin misses the specification,
// re-size against an inflated target — repeating until specs are met or
// traditionalMaxIter iterations have run. Each iteration pays for a full
// extraction + multi-analysis simulation, which is exactly the cost the
// paper's flow avoids.
func TraditionalFlow(tech *techno.Tech, spec sizing.OTASpec) (*TraditionalResult, error) {
	start := time.Now()
	ps := sizing.ParasiticState{Junction: extract.JunctionNone}
	res := &TraditionalResult{GBWOverdrive: 1.0}
	target := spec

	for iter := 1; iter <= traditionalMaxIter; iter++ {
		res.Iterations = iter
		d, err := sizing.SizeFoldedCascode(tech, target, ps)
		if err != nil {
			return nil, fmt.Errorf("core: traditional sizing %d: %w", iter, err)
		}
		plan, err := d.Layout().Plan(tech, cairo.Constraint{})
		if err != nil {
			return nil, fmt.Errorf("core: traditional layout %d: %w", iter, err)
		}
		perf, _, err := VerifyExtracted(tech, target, d, plan.Parasitics)
		if err != nil {
			return nil, fmt.Errorf("core: traditional verify %d: %w", iter, err)
		}
		res.Design = d
		res.Parasitics = plan.Parasitics
		res.Extracted = *perf

		gbwOK := perf.GBW >= 0.98*spec.GBW
		pmOK := perf.PhaseDeg >= spec.PM-1.0
		if gbwOK && pmOK {
			break
		}
		// Re-size against the measured shortfall.
		if !gbwOK {
			res.GBWOverdrive *= spec.GBW / perf.GBW
		}
		if !pmOK {
			// Demand more margin from the sizer to compensate for the
			// unmodelled parasitic poles.
			target.PM += 0.6 * (spec.PM - perf.PhaseDeg)
		}
		target.GBW = spec.GBW * res.GBWOverdrive
		if iter == traditionalMaxIter {
			return res, fmt.Errorf("core: traditional flow did not meet spec in %d iterations "+
				"(GBW %.1f MHz, PM %.1f°)", traditionalMaxIter, perf.GBW/1e6, perf.PhaseDeg)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
