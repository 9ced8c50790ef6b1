// Package obs is the observability layer of the synthesis engine: a
// structured trace of the sizing↔layout convergence loop (the paper's
// "repeated till the calculated parasitics remain unchanged" narrative,
// made inspectable event by event) and a dependency-free metrics
// registry with Prometheus text exposition.
//
// The package sits at the bottom of the dependency graph — it imports
// nothing from the rest of the module — so every layer (sizing, layout,
// mc, serve, the CLIs) can record into it without cycles. Trace events
// flow upward attached to results (core.Result.Trace, `loas trace`) and
// into the Run a context carries (the iterations of a run record);
// metrics flow outward through Registry.WritePrometheus (the loasd
// /metrics endpoint).
package obs

import (
	"fmt"
	"strings"
)

// Iteration is one sizing↔layout call of the convergence loop — the
// structured form of one row of the paper's §5 story ("three calls of
// the layout tool were needed"). The JSON tags are the wire format of
// RunRecord.Iterations (GET /v1/runs/{id}) and `loas trace -json`.
type Iteration struct {
	// Topology labels the design plan that produced the iteration
	// (omitted on the wire when unset, so traces recorded before the
	// label existed decode and compare unchanged).
	Topology string `json:"topology,omitempty"`
	// Round is the 1-based outer refinement round that ran this
	// iteration; 0 (omitted on the wire) for one-shot synthesis, so
	// traces recorded before closed-loop refinement existed decode and
	// compare unchanged.
	Round int `json:"round,omitempty"`
	Call  int `json:"call"` // 1-based layout-call number
	// DeltaF is the max parasitic change vs the previous report in
	// farads (extract.MaxDelta); -1 on the first call, which has no
	// previous report to diff against.
	DeltaF float64 `json:"delta_f"`
	// OutCapF and FN1CapF are the wiring+well capacitance totals on the
	// output net and the mirror-side fold node — the two nets whose
	// parasitics drive the GBW/PM feedback.
	OutCapF float64 `json:"out_cap_f"`
	FN1CapF float64 `json:"fn1_cap_f"`
	// TotalCapF sums every net's wiring+well capacitance in the report.
	TotalCapF float64 `json:"total_cap_f"`
	// Folds is the total gate-finger count across all devices in the
	// fold plan (the layout style the sizing tool reacted to).
	Folds int `json:"folds"`
	// W1, Lc, Itail snapshot the design point the iteration produced:
	// input-pair width (m), non-input channel length (m), tail current (A).
	W1    float64 `json:"w1_m"`
	Lc    float64 `json:"lc_m"`
	Itail float64 `json:"itail_a"`
	// SizingNS and LayoutNS are the wall-clock of the two phases of this
	// iteration (the sizing pass and the layout plan call).
	SizingNS int64 `json:"sizing_ns"`
	LayoutNS int64 `json:"layout_ns"`
}

// ConvergenceTable renders iterations as the human-readable convergence
// table (`loas trace`, `loas converge`): one row per layout call with
// the parasitic delta, the two hot-net capacitances, the design point
// and the per-phase wall time. Traces produced by the closed-loop
// refinement (any iteration with Round > 0) gain a leading round
// column, so the outer loop's structure shows in the same table.
func ConvergenceTable(iters []Iteration) string {
	refined := false
	for _, p := range iters {
		if p.Round > 0 {
			refined = true
			break
		}
	}
	var b strings.Builder
	b.WriteString("Parasitic convergence (case-4 loop)\n")
	if refined {
		b.WriteString(" round")
	}
	b.WriteString("  call   Δ(fF)   C(out) fF  C(fn1) fF   W1 (µm)   Lc (µm)  Itail (µA)  folds  size(ms)  layout(ms)\n")
	for _, p := range iters {
		delta := "    —"
		if p.DeltaF >= 0 {
			delta = fmt.Sprintf("%7.2f", p.DeltaF*1e15)
		}
		if refined {
			fmt.Fprintf(&b, " %5d", p.Round)
		}
		fmt.Fprintf(&b, "  %4d %s %10.1f %10.1f %9.2f %9.2f %10.1f %6d %9.2f %11.2f\n",
			p.Call, delta, p.OutCapF*1e15, p.FN1CapF*1e15,
			p.W1*1e6, p.Lc*1e6, p.Itail*1e6, p.Folds,
			float64(p.SizingNS)/1e6, float64(p.LayoutNS)/1e6)
	}
	return b.String()
}

// Converged reports whether the trace reached a parasitic fixpoint under
// tol (farads): the last recorded delta is non-negative and below tol.
func Converged(iters []Iteration, tol float64) bool {
	if len(iters) < 2 {
		return false
	}
	last := iters[len(iters)-1]
	return last.DeltaF >= 0 && last.DeltaF < tol
}
