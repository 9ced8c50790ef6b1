package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/mc"
	"loas/internal/repro"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// SynthesizeRequest is the body of POST /v1/synthesize: one Table-1
// case. A missing spec means the topology's default specification; a
// missing topology means the paper's folded-cascode OTA.
type SynthesizeRequest struct {
	Topology       string          `json:"topology,omitempty"` // registered plan name, default folded-cascode
	Case           int             `json:"case,omitempty"`     // 1-4, default 4
	Layout         string          `json:"layout,omitempty"`   // registered layout backend, default slicing
	Spec           *sizing.OTASpec `json:"spec,omitempty"`
	MaxLayoutCalls int             `json:"max_layout_calls,omitempty"`
	SkipVerify     bool            `json:"skip_verify,omitempty"`
	// Refine turns on the closed-loop corner-driven refinement; the two
	// sub-parameters default to the engine's own defaults when zero.
	Refine           bool    `json:"refine,omitempty"`
	RefineMaxRounds  int     `json:"refine_max_rounds,omitempty"`
	RefineMarginStep float64 `json:"refine_margin_step,omitempty"`
}

func (r *SynthesizeRequest) normalize() error {
	plan, err := sizing.Lookup(r.Topology)
	if err != nil {
		return err
	}
	// Canonicalize before keying: an absent topology and the explicit
	// default hash to the same cache entry.
	r.Topology = plan.Name
	// Same for the layout backend, with the default elided rather than
	// spelled out — the default backend's wire format (request echoes,
	// summaries) predates the registry and must stay byte-identical.
	lay, err := layout.CanonicalName(r.Layout)
	if err != nil {
		return err
	}
	if lay == layout.DefaultBackend {
		lay = ""
	}
	r.Layout = lay
	if r.Case == 0 {
		r.Case = 4
	}
	if r.Case < 1 || r.Case > core.NumTable1Cases {
		return fmt.Errorf("case must be 1..%d, got %d", core.NumTable1Cases, r.Case)
	}
	if !r.Refine {
		// Refinement sub-parameters are inert without refine=true; zero
		// them so such requests share the unrefined cache entry.
		r.RefineMaxRounds = 0
		r.RefineMarginStep = 0
		return nil
	}
	if r.SkipVerify {
		return fmt.Errorf("refine requires extracted verification; drop skip_verify")
	}
	// Canonicalize explicit defaults onto the implicit ones so both
	// spellings hash to one cache entry.
	if r.RefineMaxRounds == 0 {
		r.RefineMaxRounds = core.DefaultRefineMaxRounds
	}
	if r.RefineMarginStep == 0 {
		r.RefineMarginStep = core.DefaultRefineMarginStep
	}
	if r.RefineMaxRounds < 1 || r.RefineMaxRounds > 16 {
		return fmt.Errorf("refine_max_rounds must be 1..16, got %d", r.RefineMaxRounds)
	}
	if !(r.RefineMarginStep > 0 && r.RefineMarginStep <= 2) {
		return fmt.Errorf("refine_margin_step must be in (0, 2], got %g", r.RefineMarginStep)
	}
	return nil
}

func (r *SynthesizeRequest) cacheKey(tech *techno.Tech, spec sizing.OTASpec) string {
	k := newKey("synthesize", tech)
	k.str("topology", r.Topology)
	// "" is the canonical spelling of the default backend, so an absent
	// layout and an explicit "slicing" share one entry while every other
	// backend gets its own.
	k.str("layout", r.Layout)
	k.spec(spec)
	k.int("case", int64(r.Case))
	k.int("maxcalls", int64(r.MaxLayoutCalls))
	k.bool("skipverify", r.SkipVerify)
	// Refined and one-shot results are distinct cache entries, and so
	// are refinements under different round budgets or margin steps
	// (MarginStep hashes by exact bit pattern like every float here).
	k.bool("refine", r.Refine)
	k.int("refrounds", int64(r.RefineMaxRounds))
	k.num("refstep", r.RefineMarginStep)
	return k.sum()
}

// Table1Request is the body of POST /v1/table1: all four cases.
type Table1Request struct {
	Spec *sizing.OTASpec `json:"spec,omitempty"`
}

func (r *Table1Request) cacheKey(tech *techno.Tech, spec sizing.OTASpec) string {
	k := newKey("table1", tech)
	k.spec(spec)
	return k.sum()
}

// MCRequest is the body of POST /v1/mc: Monte-Carlo mismatch offset.
// Workers tunes execution only — the statistics are worker-invariant by
// construction — so it is excluded from the cache key.
type MCRequest struct {
	Topology string          `json:"topology,omitempty"` // registered plan name, default folded-cascode
	N        int             `json:"n,omitempty"`        // samples, default 25
	Seed     int64           `json:"seed,omitempty"`     // default 1
	Case     int             `json:"case,omitempty"`     // parasitic-awareness level of the design, default 1
	Workers  int             `json:"workers,omitempty"`
	Spec     *sizing.OTASpec `json:"spec,omitempty"`
}

func (r *MCRequest) normalize() error {
	plan, err := sizing.Lookup(r.Topology)
	if err != nil {
		return err
	}
	r.Topology = plan.Name
	if r.N == 0 {
		r.N = 25
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Case == 0 {
		r.Case = 1
	}
	if r.N < 1 || r.N > 100000 {
		return fmt.Errorf("n must be 1..100000, got %d", r.N)
	}
	if r.Case < 1 || r.Case > core.NumTable1Cases {
		return fmt.Errorf("case must be 1..%d, got %d", core.NumTable1Cases, r.Case)
	}
	return nil
}

func (r *MCRequest) cacheKey(tech *techno.Tech, spec sizing.OTASpec) string {
	k := newKey("mc", tech)
	k.str("topology", r.Topology)
	k.spec(spec)
	k.int("n", int64(r.N))
	k.int("seed", r.Seed)
	k.int("case", int64(r.Case))
	return k.sum()
}

// MCReport is the serializable Monte-Carlo result shared by
// `loas mc -json` and POST /v1/mc.
type MCReport struct {
	Topology       string         `json:"topology,omitempty"`
	Case           int            `json:"case"`
	Seed           int64          `json:"seed"`
	Stats          mc.OffsetStats `json:"stats"`
	AnalyticSigmaV float64        `json:"analytic_sigma_v"`
}

func layoutCacheKey(tech *techno.Tech, spec sizing.OTASpec) string {
	k := newKey("layout.svg", tech)
	k.spec(spec)
	return k.sum()
}

// Backend produces response bodies for the server. Implementations
// must be safe for concurrent use; the returned bytes are cached and
// replayed verbatim. The server hands each call a context carrying the
// run's span (obs.SpanFromContext) and the run itself
// (obs.RunFromContext); a backend that records into them fills the run
// record behind /v1/runs/{id}. Tests substitute a counting stub to
// pin down the cache and dedup behaviour without paying for real
// synthesis.
type Backend interface {
	Synthesize(ctx context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error)
	Table1(ctx context.Context, spec sizing.OTASpec) ([]byte, error)
	MC(ctx context.Context, spec sizing.OTASpec, req *MCRequest) ([]byte, error)
	LayoutSVG(ctx context.Context, spec sizing.OTASpec) ([]byte, error)
}

// StdBackend runs the real synthesis engine.
type StdBackend struct {
	Tech *techno.Tech
}

// Synthesize runs one Table-1 case and returns its JSON summary. The
// engine records into the span and run carried by ctx, so the run's
// span tree covers every sizing/layout/verify phase and its record
// holds every iteration.
func (b *StdBackend) Synthesize(ctx context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	res, err := core.Synthesize(b.Tech, spec, core.Options{
		Topology:       req.Topology,
		Case:           req.Case,
		Layout:         req.Layout,
		MaxLayoutCalls: req.MaxLayoutCalls,
		SkipVerify:     req.SkipVerify,
		Ctx:            ctx,
		Refine: core.RefineOptions{
			Enabled:    req.Refine,
			MaxRounds:  req.RefineMaxRounds,
			MarginStep: req.RefineMarginStep,
		},
	})
	if err != nil {
		return nil, err
	}
	s := res.Summary()
	s.Case = req.Case
	return marshalJSON(s)
}

// Table1 runs all four cases (concurrently, via core.SynthesizeAll) and
// returns the full report. The context's span, if any, parents one
// "case" span per concurrent synthesis.
func (b *StdBackend) Table1(ctx context.Context, spec sizing.OTASpec) ([]byte, error) {
	cases, err := repro.Table1(b.Tech, spec, core.Options{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return marshalJSON(repro.BuildTable1Report(cases, spec))
}

// MC sizes the requested case's design and runs the mismatch
// Monte-Carlo on it. The context's span, if any, parents one
// "mc-sample" span per draw.
func (b *StdBackend) MC(ctx context.Context, spec sizing.OTASpec, req *MCRequest) ([]byte, error) {
	rep, err := RunMC(ctx, b.Tech, spec, req.Topology, req.Case, req.N, req.Seed, req.Workers)
	if err != nil {
		return nil, err
	}
	return marshalJSON(rep)
}

// LayoutSVG generates the case-4 layout (Fig. 5) and returns the SVG
// document.
func (b *StdBackend) LayoutSVG(_ context.Context, spec sizing.OTASpec) ([]byte, error) {
	res, err := repro.Fig5(b.Tech, spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cairo.WriteSVG(&buf, res.Layout.Cell); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RunMC is the shared Monte-Carlo pipeline behind `loas mc` and
// POST /v1/mc: size the named topology's case design, fan the samples
// across the worker pool, attach the analytic Pelgrom estimate. A span
// carried by ctx gets one "mc-sample" child per draw; the statistics
// are unchanged by observation (worker-invariant by construction).
func RunMC(ctx context.Context, tech *techno.Tech, spec sizing.OTASpec, topology string, caseN, n int, seed int64, workers int) (*MCReport, error) {
	plan, err := sizing.Lookup(topology)
	if err != nil {
		return nil, err
	}
	ps, err := sizing.Case(caseN)
	if err != nil {
		return nil, err
	}
	d, err := plan.Size(tech, spec, ps)
	if err != nil {
		return nil, err
	}
	cfg := mc.OffsetConfig{
		Build:   func() *circuit.Circuit { return d.Netlist("mc") },
		InP:     sizing.NetInP,
		InN:     sizing.NetInN,
		Out:     sizing.NetOut,
		VicmDC:  0.5 * (spec.ICMLow + spec.ICMHigh),
		VoutMid: 0.5 * (spec.OutLow + spec.OutHigh),
		Temp:    tech.Temp,
		NodeSet: d.NodeSet(),
		Workers: workers,
		Ctx:     ctx,
	}
	stats, err := mc.RunOffset(cfg, n, seed)
	if err != nil {
		return nil, err
	}
	pair, load, gmRatio := d.OffsetRefs()
	est := mc.EstimateOffsetSigma(tech.Card(pair.Type), pair.W, pair.L,
		tech.Card(load.Type), load.W, load.L, gmRatio)
	return &MCReport{Topology: plan.Name, Case: caseN, Seed: seed,
		Stats: *stats, AnalyticSigmaV: est}, nil
}

// marshalJSON is the one JSON encoder for every cacheable body:
// indented, trailing newline, HTML escaping off. One encoder ⇒ cached
// replays are byte-identical to cold responses. It encodes compactly,
// then indents once into a buffer json.Indent sizes from the compact
// length: the bytes json.Encoder.SetIndent gives, which indents the
// same compact encoding and its newline.
func marshalJSON(v any) ([]byte, error) {
	var compact bytes.Buffer
	enc := json.NewEncoder(&compact)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact.Bytes(), "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// isCanonical reports whether body is one JSON value exactly as
// marshalJSON renders it: json.Indent gives body back, and body ends in
// one newline (json.Indent keeps trailing whitespace as it finds it). A
// JSON value never ends in whitespace, so the byte before that newline
// must not be whitespace either.
func isCanonical(body []byte) bool {
	n := len(body)
	if n < 2 || body[n-1] != '\n' {
		return false
	}
	switch body[n-2] {
	case ' ', '\t', '\r', '\n':
		return false
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		return false
	}
	return bytes.Equal(buf.Bytes(), body)
}
