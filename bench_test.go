// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations on the design choices called out in
// DESIGN.md. Key reproduced quantities are attached as custom benchmark
// metrics so `go test -bench` output doubles as the experiment record:
//
//	Fig. 2  → BenchmarkFig2CapReduction
//	Fig. 3  → BenchmarkFig3CurrentMirror
//	Table 1 → BenchmarkTable1Case1…4 (gbw_MHz, pm_deg, gain_dB, power_mW
//	          metrics carry synthesized values; x* the extracted ones)
//	Fig. 5  → BenchmarkFig5Layout (area_um2)
//	Fig. 1  → BenchmarkFlowProposed / BenchmarkFlowTraditional
//	§6      → BenchmarkSCIntegrator
//
// Serial/parallel pairs (identical results, sec/op ratio = speedup):
// BenchmarkTable1AllCasesSerial vs BenchmarkTable1AllCases and
// BenchmarkMonteCarloOffset vs BenchmarkMonteCarloOffsetParallel.
//
// The serving layer (DESIGN.md row 22) gets its own cold/hot pair:
// BenchmarkServeSynthesizeCold vs BenchmarkServeSynthesizeHot — the
// sec/op ratio is the value of the content-addressed result cache on a
// repeat request.
package loas

import (
	"context"
	"fmt"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/device"
	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/layout/slicing"
	"loas/internal/mc"
	"loas/internal/obs"
	"loas/internal/repro"
	"loas/internal/scfilter"
	"loas/internal/serve"
	"loas/internal/sizing"
	"loas/internal/techno"
)

func BenchmarkFig2CapReduction(b *testing.B) {
	var last []repro.Fig2Point
	for i := 0; i < b.N; i++ {
		last = repro.Fig2(64)
	}
	b.ReportMetric(last[3].External, "F_ext_nf4")
	b.ReportMetric(last[3].Internal, "F_int_nf4")
}

func BenchmarkFig3CurrentMirror(b *testing.B) {
	tech := techno.Default060()
	var r *repro.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = repro.Fig3(tech)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CentroidErr["M3"], "centroid_M3_pitch")
	b.ReportMetric(float64(r.Pattern.InsertedDummies), "dummies")
	b.ReportMetric(float64(r.Stack.Width)*1e-3, "width_um")
}

func benchTable1Case(b *testing.B, c int) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Synthesize(tech, spec, core.Options{Case: c})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Synthesized.GBW/1e6, "gbw_MHz")
	b.ReportMetric(res.Extracted.GBW/1e6, "xgbw_MHz")
	b.ReportMetric(res.Synthesized.PhaseDeg, "pm_deg")
	b.ReportMetric(res.Extracted.PhaseDeg, "xpm_deg")
	b.ReportMetric(res.Extracted.DCGainDB, "xgain_dB")
	b.ReportMetric(res.Extracted.Power*1e3, "xpower_mW")
	b.ReportMetric(float64(res.LayoutCalls), "layout_calls")
}

func BenchmarkTable1Case1(b *testing.B) { benchTable1Case(b, 1) }
func BenchmarkTable1Case2(b *testing.B) { benchTable1Case(b, 2) }
func BenchmarkTable1Case3(b *testing.B) { benchTable1Case(b, 3) }
func BenchmarkTable1Case4(b *testing.B) { benchTable1Case(b, 4) }

// BenchmarkTable1AllCasesSerial / BenchmarkTable1AllCases are the
// serial/parallel pair for the whole four-case experiment: same work,
// same results (TestSynthesizeAllMatchesSerial), sec/op is the speedup.
func BenchmarkTable1AllCasesSerial(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		for c := 1; c <= core.NumTable1Cases; c++ {
			r, err := core.Synthesize(tech, spec, core.Options{Case: c})
			if err != nil {
				b.Fatal(err)
			}
			if c == core.NumTable1Cases {
				res = r
			}
		}
	}
	b.ReportMetric(res.Extracted.GBW/1e6, "case4_xgbw_MHz")
}

func BenchmarkTable1AllCases(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var all []*core.Result
	var err error
	for i := 0; i < b.N; i++ {
		all, err = core.SynthesizeAll(tech, spec, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(all[3].Extracted.GBW/1e6, "case4_xgbw_MHz")
}

func BenchmarkFig5Layout(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = repro.Fig5(tech, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Layout.Parasitics.AreaUM2, "area_um2")
}

func BenchmarkFlowProposed(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Synthesize(tech, spec, core.Options{Case: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.LayoutCalls), "layout_calls")
	b.ReportMetric(float64(res.SizingPasses), "sizing_passes")
}

func BenchmarkFlowTraditional(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.TraditionalResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.TraditionalFlow(tech, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iterations), "full_iterations")
	b.ReportMetric(res.GBWOverdrive, "gbw_overdrive")
}

func BenchmarkSCIntegrator(b *testing.B) {
	g := scfilter.Integrator{
		OTA: scfilter.OTAModel{DCGain: 4800, GBW: 65e6, SR: 78e6},
		Cs:  1e-12, Cf: 4e-12, Fs: 10e6,
	}
	var mag float64
	for i := 0; i < b.N; i++ {
		mag = cmplx.Abs(g.H(10e3))
	}
	b.ReportMetric(sizing.DB(mag), "H10k_dB")
	b.ReportMetric(g.SettlingError()*1e6, "settle_ppm")
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblationFoldStyle quantifies the frequency benefit of the
// paper's drain-internal folding rule: the drain-bulk capacitance of a
// 48 µm transistor under the three styles of Fig. 2.
func BenchmarkAblationFoldStyle(b *testing.B) {
	tech := techno.Default060()
	var u, in, ex float64
	for i := 0; i < b.N; i++ {
		u, in, ex = repro.FoldStyleComparison(tech, 48e-6, 4)
	}
	b.ReportMetric(u*1e15, "cdb_unfolded_fF")
	b.ReportMetric(in*1e15, "cdb_internal_fF")
	b.ReportMetric(ex*1e15, "cdb_external_fF")
}

// BenchmarkAblationEvalMethod compares the closed-form pole-counting
// phase margin against the simulated evaluation the sizing plan actually
// uses and the extracted measurement — the shared-models accuracy
// argument of the paper, quantified.
func BenchmarkAblationEvalMethod(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var abl *repro.EvalAblation
	var err error
	for i := 0; i < b.N; i++ {
		abl, err = repro.RunEvalAblation(tech, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(abl.PMAnalytic, "pm_analytic_deg")
	b.ReportMetric(abl.PMSimulated, "pm_simulated_deg")
	b.ReportMetric(abl.PMExtracted, "pm_extracted_deg")
}

// BenchmarkConvergenceTrace measures the paper's parasitic fixpoint loop
// call by call: the case-4 loop with verification skipped, as `loas
// trace` runs it.
func BenchmarkConvergenceTrace(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var pts []obs.Iteration
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(tech, spec, core.Options{Case: 4, MaxLayoutCalls: 8, SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		pts = res.Trace
	}
	b.ReportMetric(float64(len(pts)), "layout_calls")
	b.ReportMetric(pts[len(pts)-1].DeltaF*1e15, "final_delta_fF")
}

// BenchmarkAblationShapeConstraint measures how the shape constraint
// steers the floorplan: minimal-area versus a binding width cap, which
// forces taller fold/split choices and costs area.
func BenchmarkAblationShapeConstraint(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFoldedCascode(tech, spec, ps)
	if err != nil {
		b.Fatal(err)
	}
	var free, narrow float64
	for i := 0; i < b.N; i++ {
		pf, err := d.Layout().Plan(tech, cairo.Constraint{})
		if err != nil {
			b.Fatal(err)
		}
		free = pf.Parasitics.AreaUM2
		pn, err := d.Layout().Plan(tech, cairo.Constraint{MaxW: 70000})
		if err != nil {
			b.Fatal(err)
		}
		narrow = pn.Parasitics.AreaUM2
	}
	b.ReportMetric(free, "area_free_um2")
	b.ReportMetric(narrow, "area_constrained_um2")
}

// BenchmarkTwoStageSizing exercises the second topology of the library
// (the paper's "hierarchy simplifies the addition of new topologies").
func BenchmarkTwoStageSizing(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.OTASpec{VDD: 3.3, GBW: 20e6, PM: 65, CL: 5e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.4, OutHigh: 2.9}
	ps, _ := sizing.Case(1)
	var d *sizing.TwoStage
	var err error
	for i := 0; i < b.N; i++ {
		d, err = sizing.SizeTwoStage(tech, spec, ps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Predicted.GBW/1e6, "gbw_MHz")
	b.ReportMetric(d.Predicted.PhaseDeg, "pm_deg")
	b.ReportMetric(d.CC*1e12, "cc_pF")
}

// benchSynthesizeTopology runs the full case-4 layout-in-the-loop
// synthesis (verification included) for one registered topology — the
// per-topology cost record from the registry PR onward.
func benchSynthesizeTopology(b *testing.B, topology string) {
	b.Helper()
	tech := techno.Default060()
	plan, err := sizing.Lookup(topology)
	if err != nil {
		b.Fatal(err)
	}
	spec := plan.DefaultSpec()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Synthesize(tech, spec, core.Options{Topology: topology, Case: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Extracted.GBW/1e6, "xgbw_MHz")
	b.ReportMetric(res.Extracted.PhaseDeg, "xpm_deg")
	b.ReportMetric(float64(res.LayoutCalls), "layout_calls")
}

func BenchmarkSynthesizeFoldedCascode(b *testing.B) { benchSynthesizeTopology(b, "folded-cascode") }
func BenchmarkSynthesizeTwoStage(b *testing.B)      { benchSynthesizeTopology(b, "two-stage") }
func BenchmarkSynthesizeFiveT(b *testing.B)         { benchSynthesizeTopology(b, "five-t") }

// benchMonteCarloOffset measures the statistical verification interface
// (8 mismatch samples with full DC nulling each) at a given worker count.
func benchMonteCarloOffset(b *testing.B, workers int) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFoldedCascode(tech, spec, ps)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mc.OffsetConfig{
		Build:   func() *circuit.Circuit { return d.Netlist("mcb") },
		InP:     sizing.NetInP,
		InN:     sizing.NetInN,
		Out:     sizing.NetOut,
		VicmDC:  0.645,
		VoutMid: 1.41,
		Temp:    tech.Temp,
		NodeSet: d.NodeSet(),
		Workers: workers,
	}
	var stats *mc.OffsetStats
	for i := 0; i < b.N; i++ {
		stats, err = mc.RunOffset(cfg, 8, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.SigmaV*1e3, "sigma_mV")
}

// Serial/parallel pair; identical sigma_mV by construction (the samples
// draw from seed-split streams, see TestRunOffsetWorkerInvariance).
func BenchmarkMonteCarloOffset(b *testing.B)         { benchMonteCarloOffset(b, 1) }
func BenchmarkMonteCarloOffsetParallel(b *testing.B) { benchMonteCarloOffset(b, 0) }

// BenchmarkCornerSweep times the five-corner verification, which also
// runs on the worker pool.
func BenchmarkCornerSweep(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	res, err := core.Synthesize(tech, spec, core.Options{Case: 4})
	if err != nil {
		b.Fatal(err)
	}
	var corners map[techno.Corner]sizing.Performance
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corners, err = core.CornerSweep(context.Background(), tech, res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(corners[techno.CornerSS].GBW/1e6, "ss_gbw_MHz")
	b.ReportMetric(corners[techno.CornerFF].GBW/1e6, "ff_gbw_MHz")
}

// benchServePost drives one request through the daemon's handler
// in-process (no sockets, so the measurement is cache + engine, not
// the TCP stack).
func benchServePost(b *testing.B, h http.Handler, body string) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		b.Fatalf("status %d, %d bytes: %s", w.Code, w.Body.Len(), w.Body.String())
	}
}

// BenchmarkServeSynthesizeCold: every iteration carries a fresh content
// address (the layout-call cap varies while staying far above what a
// case-1 synthesis uses, so the work itself is identical), forcing a
// full backend synthesis each time.
func BenchmarkServeSynthesizeCold(b *testing.B) {
	s := serve.New(serve.Config{})
	defer s.Close()
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, h, fmt.Sprintf(
			`{"case":1,"skip_verify":true,"max_layout_calls":%d}`, 50+i))
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().BackendRuns), "backend_runs")
}

// BenchmarkServeSynthesizeHot repeats one identical request; after the
// warm-up every iteration is a byte-replay from the result cache.
func BenchmarkServeSynthesizeHot(b *testing.B) {
	s := serve.New(serve.Config{})
	defer s.Close()
	h := s.Handler()
	const body = `{"case":1,"skip_verify":true}`
	benchServePost(b, h, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, h, body)
	}
	b.StopTimer()
	if runs := s.Stats().BackendRuns; runs != 1 {
		b.Fatalf("hot path ran the backend %d times, want 1", runs)
	}
}

// batchBody50 is the benchmark batch: 50 items cycling over 3 unique
// specs (cases 1..3, skip_verify keeps each unique synthesis one-pass),
// the same shape as the batch acceptance test.
func batchBody50() string {
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"case":%d,"skip_verify":true}`, 1+i%3)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// benchBatchPost drives one POST /v1/batch through the handler
// in-process.
func benchBatchPost(b *testing.B, h http.Handler, body string) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		b.Fatalf("status %d, %d bytes: %s", w.Code, w.Body.Len(), w.Body.String())
	}
}

// BenchmarkBatchSynthesize50Cold: a fresh daemon per iteration, so the
// 50-item batch pays for exactly its 3 unique syntheses — the other 47
// items ride the per-item cache and singleflight. The backend_runs
// metric pins the dedup contract into the snapshot.
func BenchmarkBatchSynthesize50Cold(b *testing.B) {
	body := batchBody50()
	var runs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := serve.New(serve.Config{})
		h := s.Handler()
		b.StartTimer()
		benchBatchPost(b, h, body)
		b.StopTimer()
		runs = float64(s.Stats().BackendRuns)
		if runs != 3 {
			b.Fatalf("cold batch ran the backend %.0f times, want 3", runs)
		}
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(50, "items")
	b.ReportMetric(runs, "backend_runs")
}

// BenchmarkBatchSynthesize50Warm repeats the identical batch against
// one daemon; after the warm-up every item is a cache hit, so the
// sec/op ratio against the cold pair is the value of content-addressed
// reuse on repeated spec-grid workloads.
func BenchmarkBatchSynthesize50Warm(b *testing.B) {
	s := serve.New(serve.Config{})
	defer s.Close()
	h := s.Handler()
	body := batchBody50()
	benchBatchPost(b, h, body) // warm the per-item cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBatchPost(b, h, body)
	}
	b.StopTimer()
	runs := float64(s.Stats().BackendRuns)
	if runs != 3 {
		b.Fatalf("warm batches ran the backend %.0f times, want 3", runs)
	}
	b.ReportMetric(50, "items")
	b.ReportMetric(runs, "backend_runs")
}

// --- Stage benchmarks ---
//
// One benchmark per stage of the synthesis cold path: device
// evaluation, sizing bisection, layout plan, shape function and one
// Monte-Carlo sample.

// BenchmarkModelCardEval: one full device-model evaluation — the drain
// current plus six extra core solves for the numerical conductances.
func BenchmarkModelCardEval(b *testing.B) {
	tech := techno.Default060()
	m := device.MOS{Card: &tech.N, W: 50e-6, L: 1e-6}
	var op device.OP
	for i := 0; i < b.N; i++ {
		op = m.Eval(1.2, 1.5, 0, 0, tech.Temp)
	}
	b.ReportMetric(op.ID*1e3, "id_mA")
}

// BenchmarkModelCardEvalID: the ID-only evaluation (1 core solve
// instead of 7); the DC Jacobian's EvalIDStencil assembles nine of these
// from shared pieces.
func BenchmarkModelCardEvalID(b *testing.B) {
	tech := techno.Default060()
	m := device.MOS{Card: &tech.N, W: 50e-6, L: 1e-6}
	var id float64
	for i := 0; i < b.N; i++ {
		id = m.EvalID(1.2, 1.5, 0, 0, tech.Temp)
	}
	b.ReportMetric(id*1e3, "id_mA")
}

// BenchmarkSizeBisectionCold: one 80-iteration width bisection on the
// exact model — the unit of work of every sizing pass's width solve.
func BenchmarkSizeBisectionCold(b *testing.B) {
	tech := techno.Default060()
	var w float64
	var err error
	for i := 0; i < b.N; i++ {
		w, err = device.SizeForCurrent(&tech.N, 1e-6, 0.2, 0, 1e-4, tech.Temp, 1e-6, 2e-2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w*1e6, "w_um")
}

// benchFCDesign sizes the paper's folded-cascode once for the layout
// benchmarks.
func benchFCDesign(b *testing.B) *sizing.FoldedCascode {
	b.Helper()
	tech := techno.Default060()
	ps, _ := sizing.Case(3)
	d, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkLayoutPlanCold: one full layout call — every module built,
// floorplan optimized, routed and extracted from scratch.
func BenchmarkLayoutPlanCold(b *testing.B) {
	tech := techno.Default060()
	d := benchFCDesign(b)
	b.ResetTimer()
	var p *cairo.Plan
	var err error
	for i := 0; i < b.N; i++ {
		p, err = d.Layout().Plan(tech, cairo.Constraint{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Parasitics.AreaUM2, "area_um2")
}

// benchLayoutBackend runs one registered layout backend over one sized
// topology — the registry-level rows-vs-slicing comparison. area_um2
// and cap_fF are deterministic, the per-backend quality A/B, and
// TestBenchMetricsGolden pins them hex-exact.
func benchLayoutBackend(b *testing.B, topology, backendName string) {
	b.Helper()
	tech := techno.Default060()
	sp, err := sizing.Lookup(topology)
	if err != nil {
		b.Fatal(err)
	}
	ps, _ := sizing.Case(3)
	sized, err := sp.Size(tech, sp.DefaultSpec(), ps)
	if err != nil {
		b.Fatal(err)
	}
	d := sized.Layout()
	be, err := layout.Lookup(backendName)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var p *cairo.Plan
	for i := 0; i < b.N; i++ {
		p, err = be.Plan(tech, d, cairo.Constraint{}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Parasitics.AreaUM2, "area_um2")
	b.ReportMetric(p.Parasitics.TotalCap()*1e15, "cap_fF")
}

func BenchmarkLayoutSlicingColdFiveT(b *testing.B) { benchLayoutBackend(b, "five-t", "slicing") }
func BenchmarkLayoutRowsColdFiveT(b *testing.B)    { benchLayoutBackend(b, "five-t", "rows") }

func BenchmarkLayoutSlicingColdFoldedCascode(b *testing.B) {
	benchLayoutBackend(b, "folded-cascode", "slicing")
}
func BenchmarkLayoutRowsColdFoldedCascode(b *testing.B) {
	benchLayoutBackend(b, "folded-cascode", "rows")
}

func BenchmarkLayoutSlicingColdTwoStage(b *testing.B) { benchLayoutBackend(b, "two-stage", "slicing") }
func BenchmarkLayoutRowsColdTwoStage(b *testing.B)    { benchLayoutBackend(b, "two-stage", "rows") }

// benchSlicingTree builds a synthetic 3-level slicing tree wide enough
// that Stockmeyer combination dominates (8 leaves x 8 options).
func benchSlicingTree() slicing.Node {
	var rows []slicing.Node
	for r := 0; r < 4; r++ {
		var leaves []slicing.Node
		for l := 0; l < 2; l++ {
			var opts []slicing.Option
			for c := 0; c < 8; c++ {
				w := int64(1000 * (c + 1 + r + l))
				opts = append(opts, slicing.Option{W: w, H: 64000000 / w, Choice: c})
			}
			leaves = append(leaves, slicing.NewLeaf(fmt.Sprintf("m%d_%d", r, l), opts))
		}
		rows = append(rows, slicing.NewCut(true, 8000, leaves...))
	}
	return slicing.NewCut(false, 8000, rows...)
}

// BenchmarkShapeFunctionCold: full Stockmeyer evaluation of the tree's
// shape function plus realization.
func BenchmarkShapeFunctionCold(b *testing.B) {
	root := benchSlicingTree()
	var fp *slicing.Floorplan
	var err error
	for i := 0; i < b.N; i++ {
		fp, err = slicing.Optimize(root, slicing.Constraint{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fp.Area(), "area_um2")
}

// BenchmarkMCSampleBatched times one Monte-Carlo sample (bracket + 18
// bisection solves): one netlist and engine per sample, only the input
// sources swept.
func BenchmarkMCSampleBatched(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFoldedCascode(tech, spec, ps)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mc.OffsetConfig{
		Build:   func() *circuit.Circuit { return d.Netlist("mcs") },
		InP:     sizing.NetInP,
		InN:     sizing.NetInN,
		Out:     sizing.NetOut,
		VicmDC:  0.645,
		VoutMid: 1.41,
		Temp:    tech.Temp,
		NodeSet: d.NodeSet(),
		Workers: 1,
	}
	var samples []mc.OffsetSample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err = mc.OffsetSamples(cfg, 0, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(samples[0].OffsetV*1e3, "offset_mV")
}
