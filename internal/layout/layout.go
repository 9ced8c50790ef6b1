// Package layout is the pluggable placement/routing stage of the
// synthesis loop. The paper couples one layout generator (CAIRO's
// slicing-tree driver) to the sizing tool; this registry generalizes the
// coupling so several layout disciplines can serve the same sized
// design and be compared on extracted parasitics — the question the
// layout-in-the-loop methodology exists to answer.
//
// A Backend consumes the topology's cairo.Design (modules, nets — the
// shared layout IR every design plan emits) and produces a cairo.Plan
// (geometry + parasitic report). Backends register from init(), exactly
// like sizing design plans (sizing.Register); the default backend is
// the original slicing generator, and results under it are
// bit-identical to the pre-registry engine.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"loas/internal/layout/cairo"
	"loas/internal/obs"
	"loas/internal/techno"
)

// Plan and Constraint re-export the cairo types so backend callers
// (core, benchmarks) need no extra imports and the default path keeps
// its exact types.
type (
	Plan       = cairo.Plan
	Constraint = cairo.Constraint
)

// Session is unused: it holds nothing, and callers pass nil. It stays
// only as the type of Backend.Plan's last parameter, so that existing
// Backend implementations keep compiling.
type Session struct{}

// Info is a backend's capability descriptor, served verbatim by
// GET /v1/layouts and `loas layouts`.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Constraints lists the shape-constraint fields the backend honours
	// (subset of "max_w", "max_h", "aspect"). An unlisted field is
	// accepted but ignored.
	Constraints []string `json:"constraints"`
}

// Backend generates layout plans for sized designs. Implementations
// must be deterministic — two Plan calls with bit-identical inputs must
// return bit-identical plans — and safe for concurrent use.
type Backend interface {
	// Info describes the backend.
	Info() Info
	// Plan places and routes the design under the shape constraint and
	// returns its geometry plus the extracted parasitic report. The
	// session is unused; callers pass nil.
	Plan(tech *techno.Tech, d *cairo.Design, c Constraint, s *Session) (*Plan, error)
}

// DefaultBackend is the backend used when none is named — the original
// slicing-tree generator, so existing callers are unchanged.
const DefaultBackend = "slicing"

var registry = map[string]Backend{}

// MetricName makes a backend or topology name safe for a Prometheus
// metric name.
func MetricName(name string) string {
	return strings.NewReplacer("-", "_", ".", "_").Replace(name)
}

// counted decorates a registered backend with its per-backend plan
// counter, so every backend is metered the same way without each
// implementation remembering to.
type counted struct {
	Backend
	plans *obs.Counter
}

func (c counted) Plan(tech *techno.Tech, d *cairo.Design, con Constraint, s *Session) (*Plan, error) {
	c.plans.Inc()
	return c.Backend.Plan(tech, d, con, s)
}

// Register adds a layout backend to the registry. Called from init() by
// each backend package; duplicate or incomplete registrations are
// programming errors and panic.
func Register(b Backend) {
	info := b.Info()
	if info.Name == "" || info.Description == "" {
		panic(fmt.Sprintf("layout: incomplete backend registration %+v", info))
	}
	if _, dup := registry[info.Name]; dup {
		panic("layout: duplicate backend " + info.Name)
	}
	registry[info.Name] = counted{
		Backend: b,
		plans: obs.Default.Counter("loas_layout_plans_"+MetricName(info.Name)+"_total",
			"layout plan calls through the "+info.Name+" backend"),
	}
}

// Lookup resolves a backend name. The empty string means the default;
// unknown names return an error that lists every registered backend
// (surfaced verbatim as the loasd 400 body and the loas CLI failure).
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("layout: unknown backend %q (registered: %s)",
			name, strings.Join(names(), ", "))
	}
	return b, nil
}

// CanonicalName resolves a backend name to its registered spelling
// ("" → the default), for request normalization and cache keys.
func CanonicalName(name string) (string, error) {
	b, err := Lookup(name)
	if err != nil {
		return "", err
	}
	return b.Info().Name, nil
}

func names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Backends lists every registered backend's descriptor, sorted by name.
func Backends() []Info {
	out := make([]Info, 0, len(registry))
	for _, name := range names() {
		out = append(out, registry[name].Info())
	}
	return out
}

// slicingBackend is backend one: the existing cairo slicing-tree
// generator behind the interface, byte-for-byte the pre-registry flow.
type slicingBackend struct{}

func (slicingBackend) Info() Info {
	return Info{
		Name: DefaultBackend,
		Description: "slicing-tree floorplan: Stockmeyer area optimization over " +
			"module shape functions, then channel routing (the paper's CAIRO flow)",
		Constraints: []string{"max_w", "max_h", "aspect"},
	}
}

func (slicingBackend) Plan(tech *techno.Tech, d *cairo.Design, c Constraint, _ *Session) (*Plan, error) {
	return d.Plan(tech, c)
}

func init() { Register(slicingBackend{}) }
