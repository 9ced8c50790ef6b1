package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"loas/internal/core"
	"loas/internal/explore"
	"loas/internal/layout"
	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// POST /v1/explore walks a deterministic spec grid — or runs the
// bounded front-guided search — over one or more topologies and returns
// a Pareto front over extracted gain / GBW / power / area per topology.
//
// Unlike a batch report, an exploration report is a pure function of
// its normalized request: probes run in canonical order, fronts use a
// total tie-breaking order, and nothing timing-dependent enters the
// body. The report is therefore cached and deduplicated exactly like a
// synthesis result — reruns replay byte-identically, and concurrent
// identical explorations collapse into one.
//
// The orchestration runs on the request goroutine; only the individual
// probes go through the bounded queue (as child synthesize runs with
// Parent set), so an exploration can never deadlock behind itself.

// exploreGridMax bounds the grid a request may induce per topology.
const exploreGridMax = 512

// ExploreRequest is the body of POST /v1/explore.
type ExploreRequest struct {
	// Topologies to explore; default just the server default topology.
	Topologies []string `json:"topologies,omitempty"`
	// Spec is the base specification; axes override its GBW/PM/CL. When
	// absent each topology uses its own default spec.
	Spec *sizing.OTASpec `json:"spec,omitempty"`
	Axes explore.Axes    `json:"axes,omitempty"`
	// Mode selects the planner: "grid" (default) probes exactly the
	// axes product; "guided" seeds with the grid and expands the front.
	Mode string `json:"mode,omitempty"`
	// Budget and Step drive guided mode only (defaults 64 and 0.15).
	Budget int     `json:"budget,omitempty"`
	Step   float64 `json:"step,omitempty"`
	// Case is each probe's parasitic-awareness level (default 4).
	Case           int `json:"case,omitempty"`
	MaxLayoutCalls int `json:"max_layout_calls,omitempty"`
	// Layout names the layout backend every probe runs under (default
	// slicing) — exploring the same grid under "rows" vs "slicing" is
	// the per-backend parasitic A/B this field exists for.
	Layout string `json:"layout,omitempty"`
}

func (r *ExploreRequest) normalize() error {
	switch r.Mode {
	case "":
		r.Mode = "grid"
	case "grid", "guided":
	default:
		return fmt.Errorf("mode must be \"grid\" or \"guided\", got %q", r.Mode)
	}
	if len(r.Topologies) == 0 {
		r.Topologies = []string{sizing.DefaultTopology}
	}
	// Canonicalize the topology list: resolved names, sorted, deduped —
	// any spelling of the same exploration keys identically.
	names := make([]string, 0, len(r.Topologies))
	for _, t := range r.Topologies {
		plan, err := sizing.Lookup(t)
		if err != nil {
			return err
		}
		names = append(names, plan.Name)
	}
	sort.Strings(names)
	r.Topologies = names[:1]
	for _, n := range names[1:] {
		if n != r.Topologies[len(r.Topologies)-1] {
			r.Topologies = append(r.Topologies, n)
		}
	}
	r.Axes.Canonicalize()
	if err := r.Axes.Validate(); err != nil {
		return err
	}
	if n := r.Axes.Points(); n > exploreGridMax {
		return fmt.Errorf("grid of %d points exceeds the %d-point bound", n, exploreGridMax)
	}
	if r.Case == 0 {
		r.Case = 4
	}
	if r.Case < 1 || r.Case > core.NumTable1Cases {
		return fmt.Errorf("case must be 1..%d, got %d", core.NumTable1Cases, r.Case)
	}
	if r.MaxLayoutCalls < 0 {
		return fmt.Errorf("max_layout_calls must be >= 0, got %d", r.MaxLayoutCalls)
	}
	// Same canonicalization as SynthesizeRequest: resolved name, default
	// elided, so the pre-registry wire format is unchanged.
	lay, err := layout.CanonicalName(r.Layout)
	if err != nil {
		return err
	}
	if lay == layout.DefaultBackend {
		lay = ""
	}
	r.Layout = lay
	if r.Mode == "grid" {
		// Budget and step are inert outside guided mode; zero them so
		// both spellings share one cache entry (same canonicalization
		// discipline as the refine sub-parameters).
		r.Budget = 0
		r.Step = 0
		return nil
	}
	if r.Budget == 0 {
		r.Budget = 64
	}
	if r.Budget < 1 || r.Budget > 1024 {
		return fmt.Errorf("budget must be 1..1024, got %d", r.Budget)
	}
	if r.Step == 0 {
		r.Step = 0.15
	}
	if !(r.Step > 0 && r.Step < 1) {
		return fmt.Errorf("step must be in (0, 1), got %g", r.Step)
	}
	return nil
}

// cacheKey hashes the normalized request plus each topology's resolved
// base spec (bases parallel to r.Topologies), so a request relying on
// per-topology default specs and one spelling them out hash identically.
func (r *ExploreRequest) cacheKey(tech *techno.Tech, bases []sizing.OTASpec) string {
	k := newKey("explore", tech)
	k.str("mode", r.Mode)
	k.str("layout", r.Layout)
	k.int("budget", int64(r.Budget))
	k.num("step", r.Step)
	k.int("case", int64(r.Case))
	k.int("maxcalls", int64(r.MaxLayoutCalls))
	axis := func(name string, vs []float64) {
		k.int(name+"#", int64(len(vs)))
		for _, v := range vs {
			k.num(name, v)
		}
	}
	axis("gbw", r.Axes.GBW)
	axis("pm", r.Axes.PM)
	axis("cl", r.Axes.CL)
	for i, t := range r.Topologies {
		k.str("topology", t)
		k.spec(bases[i])
	}
	return k.sum()
}

// TopologyFront is one topology's exploration outcome in the report.
type TopologyFront struct {
	Topology   string          `json:"topology"`
	Probes     int             `json:"probes"`
	Infeasible int             `json:"infeasible,omitempty"`
	Rounds     int             `json:"rounds"`
	Front      []explore.Point `json:"front"`
}

// ExploreReport is the POST /v1/explore payload.
type ExploreReport struct {
	Mode   string       `json:"mode"`
	Axes   explore.Axes `json:"axes"`
	Budget int          `json:"budget,omitempty"`
	Step   float64      `json:"step,omitempty"`
	Case   int          `json:"case"`
	// Layout names the probes' layout backend; absent for the default.
	Layout  string          `json:"layout,omitempty"`
	Results []TopologyFront `json:"results"` // topology name order
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if err := req.normalize(); err != nil {
		s.badRequest(w, err)
		return
	}
	bases := make([]sizing.OTASpec, len(req.Topologies))
	for i, t := range req.Topologies {
		spec, err := s.specFor(req.Spec, t)
		if err != nil {
			s.badRequest(w, err)
			return
		}
		bases[i] = spec
	}

	s.exploreRequests.Inc()
	id := obs.RunRecord{Kind: "explore", Layout: req.Layout, CacheKey: req.cacheKey(s.tech, bases),
		Request: recordRequest(&req)}
	if len(req.Topologies) == 1 {
		id.Topology = req.Topologies[0]
	}
	s.respond(w, id, func(run *obs.Run) (Value, error) {
		return s.runExplore(run, &req, bases)
	})
}

// runExplore is an exploration's work (flight leader only): one
// explore.Run per topology, probes fanning through the shared pool as
// child runs. It runs on the leader's own goroutine — never inside the
// pool, which only sees the individual probes — under the daemon's
// timeout, not the client's; joined identical explorations wait for
// its bytes.
func (s *Server) runExplore(run *obs.Run, req *ExploreRequest, bases []sizing.OTASpec) (Value, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	runID := run.Identity().ID
	s.events.publish("batch-start", batchStartEvent{ID: runID, Kind: "explore"})
	p := &poolProber{s: s, parentID: runID, caseN: req.Case, maxCalls: req.MaxLayoutCalls, layout: req.Layout}
	rep := ExploreReport{
		Mode: req.Mode, Axes: req.Axes,
		Budget: req.Budget, Step: req.Step, Case: req.Case, Layout: req.Layout,
	}
	workers := s.pool.Stats().Workers
	for i, topo := range req.Topologies {
		span := run.Root().Child("explore-" + topo)
		res, err := explore.Run(obs.ContextWithSpan(ctx, span), p, explore.Config{
			Topology: topo,
			Base:     bases[i],
			Axes:     req.Axes,
			Guided:   req.Mode == "guided",
			Budget:   req.Budget,
			Step:     req.Step,
			Workers:  workers,
		})
		span.End()
		if err != nil {
			s.events.publish("batch-end", batchEndEvent{
				ID: runID, Outcome: outcomeError,
				Items: int(p.done.Load()), DurationNS: run.Root().Duration().Nanoseconds(),
			})
			return Value{}, err
		}
		tf := TopologyFront{Topology: topo, Probes: len(res.Probes), Rounds: res.Rounds, Front: res.Front}
		for _, pt := range res.Probes {
			if !pt.Feasible {
				tf.Infeasible++
			}
		}
		s.exploreFront.Observe(float64(len(res.Front)))
		rep.Results = append(rep.Results, tf)
	}
	body, err := marshalJSON(rep)
	if err != nil {
		return Value{}, err
	}
	s.events.publish("batch-end", batchEndEvent{
		ID: runID, Outcome: outcomeOK, Items: int(p.done.Load()),
		DurationNS: run.Root().Duration().Nanoseconds(),
	})
	return newValue(body, "application/json"), nil
}

// poolProber is the serving layer's explore.Prober: each probe is one
// child synthesize run through the cache → singleflight → queue path.
// Sizing infeasibility is deterministic data (feasible=false); queue
// shed, shutdown and timeouts are infrastructure errors and abort the
// exploration — a partial front must never be cached.
type poolProber struct {
	s        *Server
	parentID string
	caseN    int
	maxCalls int
	layout   string
	done     atomic.Int64 // completed probes, for /v1/events frames
}

func (p *poolProber) Probe(_ context.Context, topology string, spec sizing.OTASpec) (explore.Metrics, bool, string, error) {
	s := p.s
	req := SynthesizeRequest{Topology: topology, Case: p.caseN, MaxLayoutCalls: p.maxCalls, Layout: p.layout}
	if err := req.normalize(); err != nil {
		return explore.Metrics{}, false, "", err
	}
	_, v, outcome, err := s.runChild(p.parentID, req, spec, req.cacheKey(s.tech, spec))
	idx := int(p.done.Add(1)) - 1
	ev := batchItemEvent{Parent: p.parentID, Index: idx, Outcome: outcome, Topology: topology, Case: req.Case}
	if err != nil {
		ev.Error = err.Error()
		s.events.publish("batch-item", ev)
		if errors.Is(err, parallel.ErrQueueFull) || errors.Is(err, parallel.ErrPoolClosed) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return explore.Metrics{}, false, "", err
		}
		// Anything else is the engine saying the spec is out of reach —
		// deterministic for a given spec, so it may shape the front.
		return explore.Metrics{}, false, err.Error(), nil
	}
	s.exploreProbes.Inc()
	ev.Cache = cacheSource(outcome)
	s.events.publish("batch-item", ev)
	var sum core.Summary
	if uerr := json.Unmarshal(v.Body, &sum); uerr != nil {
		return explore.Metrics{}, false, "", fmt.Errorf("probe summary: %w", uerr)
	}
	return explore.Metrics{
		GainDB:  sum.Extracted.DCGainDB,
		GBWHz:   sum.Extracted.GBW,
		PowerW:  sum.Extracted.Power,
		AreaUM2: sum.AreaUM2,
	}, true, "", nil
}
