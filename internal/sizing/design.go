package sizing

import (
	"fmt"
	"sort"
	"strings"

	"loas/internal/circuit"
	"loas/internal/layout/cairo"
	"loas/internal/techno"
)

// Design is the common surface of a fully sized circuit — the contract
// between a design plan and every downstream layer (the convergence
// loop, the measurement benches, the corner sweep, the Monte-Carlo
// driver, the golden suite). The paper's CAIRO/COMDIAC coupling is
// topology-agnostic: anything that can rebuild its netlist under the
// current parasitic assumptions and emit a CAIRO layout fits the loop.
type Design interface {
	// Netlist builds the sized circuit with its supply and bias sources;
	// inputs and output are left for the testbench to drive/load.
	Netlist(name string) *circuit.Circuit
	// AssumedNetlist is Netlist plus the sizing-time parasitic
	// assumptions (wiring capacitance from the last layout report when
	// routing awareness is on) — the paper's "synthesized" column.
	AssumedNetlist(name string) *circuit.Circuit
	// NodeSet seeds the simulator's DC solve with the design-time node
	// voltage estimates.
	NodeSet() map[string]float64
	// Layout builds the CAIRO design (modules, slicing tree, nets).
	Layout() *cairo.Design
	// PredictedPerf is the plan's own performance prediction.
	PredictedPerf() Performance
	// DeviceTable exposes every sized transistor by instance name.
	DeviceTable() map[string]DeviceSize
	// OperatingPoint snapshots the headline design point for traces and
	// golden files.
	OperatingPoint() OperatingPoint
	// HotNet names the internal net whose parasitic capacitance drives
	// the GBW/PM feedback (the fold node for the folded cascode) —
	// reported per iteration in the convergence trace.
	HotNet() string
	// ACGroundNets lists nets whose wiring capacitance lands on AC
	// ground (skipped when lumping parasitics onto the netlist).
	ACGroundNets() []string
	// BiasFor recomputes the bias voltages on an alternate technology
	// (a process corner) for the same device sizes — the role of an
	// on-chip bias generator that tracks the process. Its keys are bias
	// nets, and Netlist drives each one from a voltage source whose Pos
	// is that net, so corner verification can retune them without
	// topology knowledge.
	BiasFor(tech *techno.Tech) (map[string]float64, error)
	// OffsetRefs returns the input-pair and load devices plus the
	// gm(load)/gm(pair) ratio for the analytic Pelgrom offset estimate.
	OffsetRefs() (pair, load DeviceSize, gmRatio float64)
}

// OperatingPoint is the design-point snapshot carried by convergence
// traces and golden files: input-pair width, the non-input channel
// length the PM iteration chose, and the tail current.
type OperatingPoint struct {
	W1    float64
	Lc    float64
	Itail float64
}

// Plan is one registered topology: a name, a sizing function and the
// specification its plan is tuned for.
type Plan struct {
	Name        string
	Description string
	// Size runs the design plan under the given parasitic state.
	Size func(tech *techno.Tech, spec OTASpec, ps ParasiticState) (Design, error)
	// DefaultSpec returns a specification this topology can meet —
	// used when a caller names a topology without providing one (the
	// paper's 65 MHz default is out of reach for the smaller OTAs).
	DefaultSpec func() OTASpec
}

// DefaultTopology is the plan used when no topology is named — the
// paper's folded-cascode OTA, so existing callers are unchanged.
const DefaultTopology = "folded-cascode"

var plans = map[string]Plan{}

// Register adds a topology to the registry. Called from init() by each
// design plan; duplicate or incomplete registrations are programming
// errors and panic.
func Register(p Plan) {
	if p.Name == "" || p.Size == nil || p.DefaultSpec == nil {
		panic(fmt.Sprintf("sizing: incomplete plan registration %+v", p))
	}
	if _, dup := plans[p.Name]; dup {
		panic("sizing: duplicate topology " + p.Name)
	}
	plans[p.Name] = p
}

// Lookup resolves a topology name to its plan. The empty string means
// the default; unknown names return an error that lists every
// registered topology (surfaced verbatim as the loasd 400 body and the
// loas CLI failure message).
func Lookup(name string) (Plan, error) {
	if name == "" {
		name = DefaultTopology
	}
	p, ok := plans[name]
	if !ok {
		return Plan{}, fmt.Errorf("sizing: unknown topology %q (registered: %s)",
			name, strings.Join(Topologies(), ", "))
	}
	return p, nil
}

// Topologies lists the registered topology names, sorted.
func Topologies() []string {
	out := make([]string, 0, len(plans))
	for name := range plans {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
