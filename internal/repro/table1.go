package repro

import (
	"fmt"
	"strings"

	"loas/internal/core"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// Table1Case is one column of the paper's Table 1.
type Table1Case struct {
	Case        int
	Result      *core.Result
	Description string
}

var table1Descriptions = [...]string{
	1: "no layout capacitances (neither diffusion nor routing)",
	2: "diffusion capacitance at one fold per transistor, no routing",
	3: "exact diffusion capacitance from layout, no routing",
	4: "all layout parasitics (diffusion, routing, coupling, well)",
}

// Table1 synthesizes the folded-cascode OTA under all four parasitic
// awareness levels and verifies each against its extracted netlist. The
// four cases run concurrently (core.SynthesizeAll); the rows they return
// are identical to four serial Synthesize calls.
func Table1(tech *techno.Tech, spec sizing.OTASpec) ([]Table1Case, error) {
	return Table1Opts(tech, spec, core.Options{})
}

// Table1Opts is Table1 under caller-chosen options — the daemon uses it
// to hang one "case" span per concurrent synthesis under the request's
// span tree (the span opts.Ctx carries). opts.Case is overridden per
// slot.
func Table1Opts(tech *techno.Tech, spec sizing.OTASpec, opts core.Options) ([]Table1Case, error) {
	results, err := core.SynthesizeAll(tech, spec, opts)
	if err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	out := make([]Table1Case, 0, core.NumTable1Cases)
	for i, res := range results {
		out = append(out, Table1Case{Case: i + 1, Result: res, Description: table1Descriptions[i+1]})
	}
	return out, nil
}

// Table1Row is one serializable column of Table 1 (JSON wire format
// shared by `loas table1 -json` and the loasd daemon).
type Table1Row struct {
	Case        int          `json:"case"`
	Description string       `json:"description"`
	Result      core.Summary `json:"result"`
}

// Table1Report is the machine-readable form of the whole experiment.
type Table1Report struct {
	Spec            sizing.OTASpec `json:"spec"`
	Rows            []Table1Row    `json:"rows"`
	ShapeViolations []string       `json:"shape_violations,omitempty"`
}

// BuildTable1Report projects finished cases onto the wire format; the
// shape checks run only when all four cases are present (a single-case
// run has nothing to compare against).
func BuildTable1Report(cases []Table1Case, spec sizing.OTASpec) Table1Report {
	rep := Table1Report{Spec: spec}
	for _, c := range cases {
		s := c.Result.Summary()
		s.Case = c.Case
		desc := c.Description
		if desc == "" && c.Case >= 1 && c.Case < len(table1Descriptions) {
			desc = table1Descriptions[c.Case]
		}
		rep.Rows = append(rep.Rows, Table1Row{Case: c.Case, Description: desc, Result: s})
	}
	if len(cases) == core.NumTable1Cases {
		rep.ShapeViolations = Table1ShapeChecks(cases, spec)
	}
	return rep
}

// Table1Text renders the four columns the way the paper prints them:
// synthesized value with the extracted-netlist simulation in brackets.
func Table1Text(cases []Table1Case, spec sizing.OTASpec) string {
	var b strings.Builder
	b.WriteString("Table 1 — sizing, layout and simulation results\n")
	b.WriteString("Input spec: " + Table1Header(spec) + "\n")
	b.WriteString("Values: synthesized(extracted-netlist simulation)\n\n")
	for _, c := range cases {
		fmt.Fprintf(&b, "Case %d: %s\n", c.Case, c.Description)
		s, x := c.Result.Synthesized, c.Result.Extracted
		for _, row := range sizing.RowNames() {
			b.WriteString("  " + s.Row(row, x) + "\n")
		}
		fmt.Fprintf(&b, "  layout calls: %d, sizing passes: %d, elapsed: %s\n\n",
			c.Result.LayoutCalls, c.Result.SizingPasses, c.Result.Elapsed.Round(1e6))
	}
	return b.String()
}

// Table1ShapeChecks verifies the qualitative claims of the paper's §5 on
// a completed run; it returns a list of violated expectations (empty =
// all hold). These are the assertions the test suite and EXPERIMENTS.md
// rely on.
func Table1ShapeChecks(cases []Table1Case, spec sizing.OTASpec) []string {
	var bad []string
	chk := func(ok bool, format string, args ...interface{}) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	byCase := map[int]*core.Result{}
	for _, c := range cases {
		byCase[c.Case] = c.Result
	}
	c1, c2, c3, c4 := byCase[1], byCase[2], byCase[3], byCase[4]
	if c1 == nil || c2 == nil || c3 == nil || c4 == nil {
		return []string{"missing cases"}
	}

	// Case 1: DC characteristics match, extracted GBW and PM fall short.
	chk(relClose(c1.Synthesized.DCGainDB, c1.Extracted.DCGainDB, 0.02),
		"case 1: DC gain should match (%.1f vs %.1f dB)",
		c1.Synthesized.DCGainDB, c1.Extracted.DCGainDB)
	chk(c1.Extracted.GBW < 0.99*spec.GBW,
		"case 1: extracted GBW should miss spec (%.1f MHz)", c1.Extracted.GBW/1e6)
	chk(c1.Extracted.PhaseDeg < spec.PM-1,
		"case 1: extracted PM should miss spec (%.1f°)", c1.Extracted.PhaseDeg)

	// Case 2: over-estimated diffusion → extracted GBW and PM exceed the
	// requirement; gain and output resistance degrade; power rises.
	chk(c2.Extracted.GBW > spec.GBW,
		"case 2: extracted GBW should exceed spec (%.1f MHz)", c2.Extracted.GBW/1e6)
	chk(c2.Extracted.PhaseDeg > spec.PM,
		"case 2: extracted PM should exceed spec (%.1f°)", c2.Extracted.PhaseDeg)
	chk(c2.Extracted.DCGainDB < c1.Extracted.DCGainDB,
		"case 2: gain should degrade vs case 1 (%.1f vs %.1f dB)",
		c2.Extracted.DCGainDB, c1.Extracted.DCGainDB)
	chk(c2.Extracted.Rout < c1.Extracted.Rout,
		"case 2: Rout should degrade vs case 1")
	chk(c2.Extracted.Power > c1.Extracted.Power,
		"case 2: power should rise vs case 1")

	// Case 3: only a slight GBW/PM mismatch remains (routing neglected).
	chk(relClose(c3.Synthesized.GBW, c3.Extracted.GBW, 0.05),
		"case 3: GBW mismatch should be slight (%.1f vs %.1f MHz)",
		c3.Synthesized.GBW/1e6, c3.Extracted.GBW/1e6)
	chk(c3.Extracted.GBW < spec.GBW || c3.Extracted.PhaseDeg < spec.PM,
		"case 3: spec should still be (slightly) missed")

	// Case 4: synthesized matches extracted; spec met; few layout calls.
	chk(relClose(c4.Synthesized.GBW, c4.Extracted.GBW, 0.02),
		"case 4: GBW should match (%.2f vs %.2f MHz)",
		c4.Synthesized.GBW/1e6, c4.Extracted.GBW/1e6)
	chk(absClose(c4.Synthesized.PhaseDeg, c4.Extracted.PhaseDeg, 1.5),
		"case 4: PM should match (%.1f vs %.1f°)",
		c4.Synthesized.PhaseDeg, c4.Extracted.PhaseDeg)
	chk(c4.Extracted.GBW > 0.99*spec.GBW,
		"case 4: extracted GBW should meet spec (%.2f MHz)", c4.Extracted.GBW/1e6)
	chk(c4.Extracted.PhaseDeg > spec.PM-1.0,
		"case 4: extracted PM should meet spec (%.1f°)", c4.Extracted.PhaseDeg)
	chk(c4.LayoutCalls >= 2 && c4.LayoutCalls <= 6,
		"case 4: expected a handful of layout calls, got %d", c4.LayoutCalls)
	return bad
}

func relClose(a, b, tol float64) bool {
	if b == 0 {
		return a == 0
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func absClose(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// FlowComparison runs the proposed loop (case 4) and the traditional
// Fig. 1(a) baseline side by side (core.CompareFlows) and reports
// iteration counts and wall-clock — the design-time argument of the
// paper's introduction.
func FlowComparison(tech *techno.Tech, spec sizing.OTASpec) (string, error) {
	fc, err := core.CompareFlows(tech, spec, 10, core.Options{}.Shape)
	if err != nil {
		return "", fmt.Errorf("flow comparison: %w", err)
	}
	prop, trad := fc.Proposed, fc.Traditional
	var b strings.Builder
	b.WriteString("Fig. 1 — flow comparison (proposed vs traditional)\n")
	fmt.Fprintf(&b, "  proposed:    %d parasitic-mode layout calls, %d sizing passes, "+
		"1 extraction+verification, %s; spec met: GBW %.1f MHz, PM %.1f°\n",
		prop.LayoutCalls, prop.SizingPasses, prop.Elapsed.Round(1e6),
		prop.Extracted.GBW/1e6, prop.Extracted.PhaseDeg)
	fmt.Fprintf(&b, "  traditional: %d full size→layout→extract→simulate iterations, %s; "+
		"final GBW %.1f MHz, PM %.1f° (GBW over-design factor %.2f)\n",
		trad.Iterations, trad.Elapsed.Round(1e6),
		trad.Extracted.GBW/1e6, trad.Extracted.PhaseDeg, trad.GBWOverdrive)
	fmt.Fprintf(&b, "  both flows in flight concurrently: %s wall-clock total\n",
		fc.Elapsed.Round(1e6))
	if fc.TraditionalErr != nil {
		fmt.Fprintf(&b, "  traditional flow note: %v\n", fc.TraditionalErr)
	}
	return b.String(), nil
}
