// Package sim is the circuit simulator: DC operating point
// (Newton–Raphson with gmin stepping), small-signal AC analysis (complex
// MNA), noise analysis (adjoint method) and transient analysis
// (trapezoidal integration).
//
// It substitutes for the commercial simulator/extractor combination used in
// the paper's evaluation. Crucially, it shares the exact transistor model
// (package device) with the sizing tool, which is the paper's own accuracy
// recipe.
package sim

import (
	"fmt"

	"loas/internal/circuit"
	"loas/internal/linalg"
)

// Engine binds a circuit to an unknown ordering: node voltages first
// (ground excluded), then one branch current per voltage source, in
// insertion order.
//
// An Engine owns scratch state (the Newton workspace below), so it is a
// single-goroutine object: concurrent analyses need separate engines.
// The circuit's structure is fixed at NewEngine; element values (source
// levels, device cards) may change between analyses.
type Engine struct {
	Ckt  *circuit.Circuit
	Temp float64 // K

	nNodes  int // unknown node voltages = NumNodes-1
	nBranch int
	size    int
	// Resistor, capacitor and MOSFET counts, which size the per-analysis
	// stamp, capacitor and noise-source lists.
	nRes, nCap, nMOS int
	// elems is every circuit element in insertion order with its unknown
	// indices resolved once, so stamping does no name lookups.
	elems []elemIdx

	// Newton workspace, reused by every iteration, gmin rung, polish,
	// source-stepping step, transient step and OP call on the engine.
	jac    *linalg.Real
	res    []float64 // residual f(x), negated in place for the solve
	dx     []float64 // Newton step
	backup []float64 // polish's fallback point
	x      []float64 // OP's solution vector
	lu     linalg.LUReal
}

// elemIdx is one element with its unknowns: u holds its terminals in
// ElemNodes order (−1 = ground), br the branch unknown of a voltage
// source (−1 otherwise).
type elemIdx struct {
	el circuit.Element
	u  [4]int
	br int
}

// NewEngine prepares an engine for the circuit at temperature temp (K).
func NewEngine(ckt *circuit.Circuit, temp float64) *Engine {
	e := &Engine{Ckt: ckt, Temp: temp}
	e.nNodes = ckt.NumNodes() - 1
	e.elems = make([]elemIdx, len(ckt.Elements))
	for k, el := range ckt.Elements {
		ei := elemIdx{el: el, br: -1}
		names, n := el.ElemNodes()
		for i, node := range names[:n] {
			ei.u[i] = e.unknownOf(node)
		}
		switch el.(type) {
		case *circuit.VSource:
			ei.br = e.nNodes + e.nBranch
			e.nBranch++
		case *circuit.Resistor:
			e.nRes++
		case *circuit.Capacitor:
			e.nCap++
		case *circuit.MOSFET:
			e.nMOS++
		}
		e.elems[k] = ei
	}
	e.size = e.nNodes + e.nBranch
	e.jac = linalg.NewReal(e.size)
	e.res = make([]float64, e.size)
	e.dx = make([]float64, e.size)
	e.backup = make([]float64, e.size)
	e.x = make([]float64, e.size)
	return e
}

// Size returns the MNA system dimension.
func (e *Engine) Size() int { return e.size }

// nodeUnknown maps a circuit node index to its position in the unknown
// vector; ground returns -1.
func (e *Engine) nodeUnknown(nodeIdx int) int { return nodeIdx - 1 }

// unknownOf interns the node name and returns its unknown index (-1 for
// ground). Panics on unknown nodes: elements intern their nodes at Add
// time, so a miss is a bug.
func (e *Engine) unknownOf(name string) int {
	i, ok := e.Ckt.NodeIndex(name)
	if !ok {
		panic(fmt.Sprintf("sim: node %q not in circuit %q", name, e.Ckt.Name))
	}
	return e.nodeUnknown(i)
}

// voltsAt reads a node voltage from an unknown vector (ground = 0).
func voltsAt(x []float64, u int) float64 {
	if u < 0 {
		return 0
	}
	return x[u]
}
