// Package explore is the design-space exploration layer on top of the
// synthesis engine: it turns many cheap, dedupable spec→layout probes
// into a per-topology Pareto front over gain / GBW / power / area.
//
// Two probe planners are provided. Grid mode walks a deterministic
// cartesian product of spec axes (GBW × PM × CL over a base spec).
// Guided mode is the result-history-guided search of the EEsizer
// lineage: it seeds with the grid, then repeatedly expands the current
// front by perturbing the specs of non-dominated points toward harder
// and easier targets, within a fixed probe budget.
//
// Everything here is bit-deterministic at any worker count and under
// any input order: probe lists are canonically sorted before fanning
// out, results are collected index-ordered, and the front uses a total
// tie-breaking order — the same request yields byte-identical reports
// on every rerun, which is what lets the serving layer cache them.
package explore

import (
	"context"
	"sort"

	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
)

// Metrics are the four objectives of the front, taken from the
// *extracted* (post-layout) performance of a synthesis: gain and GBW
// are maximized, power and area minimized.
type Metrics struct {
	GainDB  float64 `json:"gain_db"`
	GBWHz   float64 `json:"gbw_hz"`
	PowerW  float64 `json:"power_w"`
	AreaUM2 float64 `json:"area_um2"`
}

// Point is one probed specification and its outcome. Infeasible points
// (the sizing plan cannot meet the spec) stay in the probe log with
// Feasible=false and never enter the front.
type Point struct {
	Index    int            `json:"index"` // position in the canonical probe order
	Topology string         `json:"topology"`
	Spec     sizing.OTASpec `json:"spec"`
	Feasible bool           `json:"feasible"`
	Error    string         `json:"error,omitempty"` // infeasibility reason
	Metrics  Metrics        `json:"metrics"`
}

// Dominates reports whether a is at least as good as b on every
// objective and strictly better on at least one (gain↑, GBW↑, power↓,
// area↓). Equal metric vectors do not dominate each other — both
// survive into the front.
func Dominates(a, b Metrics) bool {
	if a.GainDB < b.GainDB || a.GBWHz < b.GBWHz ||
		a.PowerW > b.PowerW || a.AreaUM2 > b.AreaUM2 {
		return false
	}
	return a.GainDB > b.GainDB || a.GBWHz > b.GBWHz ||
		a.PowerW < b.PowerW || a.AreaUM2 < b.AreaUM2
}

// Front returns the non-dominated subset of the feasible points in
// canonical order: descending GBW, then descending gain, ascending
// power, ascending area, and finally the canonical spec key — a total
// order, so the front is byte-stable however the probes were produced.
func Front(points []Point) []Point {
	var out []Point
	for i, p := range points {
		if !p.Feasible {
			continue
		}
		dominated := false
		for j, q := range points {
			if i == j || !q.Feasible {
				continue
			}
			if Dominates(q.Metrics, p.Metrics) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return frontLess(out[i], out[j]) })
	return out
}

// frontLess is the front's total tie-breaking order.
func frontLess(a, b Point) bool {
	if a.Metrics.GBWHz != b.Metrics.GBWHz {
		return a.Metrics.GBWHz > b.Metrics.GBWHz
	}
	if a.Metrics.GainDB != b.Metrics.GainDB {
		return a.Metrics.GainDB > b.Metrics.GainDB
	}
	if a.Metrics.PowerW != b.Metrics.PowerW {
		return a.Metrics.PowerW < b.Metrics.PowerW
	}
	if a.Metrics.AreaUM2 != b.Metrics.AreaUM2 {
		return a.Metrics.AreaUM2 < b.Metrics.AreaUM2
	}
	return SpecKey(a.Topology, a.Spec) < SpecKey(b.Topology, b.Spec)
}

// Prober executes one spec→layout probe. Implementations must be safe
// for concurrent use. A spec the sizing plan cannot meet returns
// feasible=false with a nil error; a non-nil error is an infrastructure
// failure (queue shed, shutdown) and aborts the whole exploration —
// a partial front would silently break the determinism contract.
type Prober interface {
	Probe(ctx context.Context, topology string, spec sizing.OTASpec) (m Metrics, feasible bool, reason string, err error)
}

// Config drives one exploration of one topology.
type Config struct {
	Topology string
	Base     sizing.OTASpec // axes override its GBW/PM/CL fields
	Axes     Axes
	Guided   bool    // expand the front after the grid seed
	Budget   int     // total probe bound in guided mode (default 64)
	Step     float64 // guided perturbation fraction (default 0.15)
	Workers  int     // concurrent probes (<= 0: GOMAXPROCS)
}

// maxRounds bounds the probe waves of a guided exploration.
const maxRounds = 6

// Result is one topology's exploration outcome.
type Result struct {
	Topology string  `json:"topology"`
	Probes   []Point `json:"probes"` // canonical order, feasible and not
	Front    []Point `json:"front"`
	Rounds   int     `json:"rounds"` // probe waves executed (grid seed = 1)
}

// Domain counters on the process-wide registry, beside the sizing and
// MC counters.
var (
	exploreProbes = obs.Default.Counter("loas_explore_probes_total",
		"design-space probes executed by internal/explore (grid and guided)")
	exploreRounds = obs.Default.Counter("loas_explore_rounds_total",
		"probe waves executed by internal/explore")
)

// Run executes one exploration: grid seed, then (in guided mode)
// front-biased expansion rounds until the budget, the round bound or
// the candidate pool is exhausted. Probes within a wave fan across
// workers index-ordered; waves are barriers, so the result is
// bit-identical at any worker count. A span carried by ctx
// (obs.ContextWithSpan) gets one "explore-round" child per wave.
func Run(ctx context.Context, p Prober, cfg Config) (*Result, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = 64
	}
	if cfg.Step <= 0 {
		cfg.Step = 0.15
	}
	parent := obs.SpanFromContext(ctx)
	seed := Grid(cfg.Base, cfg.Axes)
	if cfg.Guided && len(seed) > cfg.Budget {
		seed = seed[:cfg.Budget]
	}
	res := &Result{Topology: cfg.Topology}
	probed := map[string]bool{}
	wave := seed
	for len(wave) > 0 {
		res.Rounds++
		exploreRounds.Inc()
		span := parent.Child("explore-round")
		points, err := probeWave(ctx, p, cfg, wave, len(res.Probes))
		span.End()
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			probed[SpecKey(cfg.Topology, pt.Spec)] = true
		}
		res.Probes = append(res.Probes, points...)
		res.Front = Front(res.Probes)
		if !cfg.Guided || res.Rounds >= maxRounds || len(res.Probes) >= cfg.Budget {
			break
		}
		wave = Neighbors(res.Front, cfg.Step, probed)
		if left := cfg.Budget - len(res.Probes); len(wave) > left {
			wave = wave[:left]
		}
	}
	return res, nil
}

// probeWave fans one wave of specs across the workers, index-ordered.
func probeWave(ctx context.Context, p Prober, cfg Config, specs []sizing.OTASpec, base int) ([]Point, error) {
	type outcome struct {
		m        Metrics
		feasible bool
		reason   string
	}
	outs, err := parallel.MapN(ctx, cfg.Workers, len(specs), func(ctx context.Context, i int) (outcome, error) {
		m, feasible, reason, err := p.Probe(ctx, cfg.Topology, specs[i])
		return outcome{m, feasible, reason}, err
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(specs))
	for i, o := range outs {
		exploreProbes.Inc()
		points[i] = Point{
			Index:    base + i,
			Topology: cfg.Topology,
			Spec:     specs[i],
			Feasible: o.feasible,
			Error:    o.reason,
			Metrics:  o.m,
		}
	}
	return points, nil
}
