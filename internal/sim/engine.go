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
// The circuit's structure is fixed from one binding (NewEngine or
// Rebind) to the next; element values (source levels, device cards) may
// change between analyses.
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
	// source-stepping step, transient step and OP call on the engine,
	// and by the next binding when its capacity suffices.
	jac    linalg.Real
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

// NewEngine prepares an engine for the circuit at temperature temp (K):
// a new engine bound by Rebind.
func NewEngine(ckt *circuit.Circuit, temp float64) *Engine {
	e := &Engine{Temp: temp}
	e.Rebind(ckt)
	return e
}

// Rebind binds the engine to ckt, which may differ from the circuit it
// held in structure and size: the element index is derived again from
// ckt, and the Newton workspace is kept where its capacity suffices.
// Every analysis after the call solves exactly as on a new engine for
// ckt, because the workspace is cleared or overwritten before each use.
//
// An OPResult or ACSolver reads the engine that produced it, so every
// one obtained before the call is invalid after it: their accessors
// would read ckt's index. Only an owner that holds no such result, like
// a sizing pass's evaluator between evaluations, may rebind.
func (e *Engine) Rebind(ckt *circuit.Circuit) {
	e.Ckt = ckt
	e.nNodes = ckt.NumNodes() - 1
	e.nBranch, e.nRes, e.nCap, e.nMOS = 0, 0, 0, 0
	e.elems = resize(e.elems, len(ckt.Elements))
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
	e.jac.Resize(e.size)
	e.res = resize(e.res, e.size)
	e.dx = resize(e.dx, e.size)
	e.backup = resize(e.backup, e.size)
	e.x = resize(e.x, e.size)
}

// resize returns s resliced to length n, reallocating only when its
// capacity is short. The contents are stale: callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
