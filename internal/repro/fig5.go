package repro

import (
	"fmt"
	"sort"
	"strings"

	"loas/internal/core"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// Fig5 runs the full methodology (case 4) without verification; the
// result's Layout is the physical layout of the converged design — the
// paper's Fig. 5. The loop's last layout call already built it, so no
// layout is generated again.
func Fig5(tech *techno.Tech, spec sizing.OTASpec) (*core.Result, error) {
	return core.Synthesize(tech, spec, core.Options{Case: 4, SkipVerify: true})
}

// Fig5Text summarizes the converged layout the way the paper narrates
// it: fold choices with drains internal, the common-centroid input pair,
// area.
func Fig5Text(res *core.Result) string {
	var b strings.Builder
	par := res.Layout.Parasitics
	b.WriteString("Fig. 5 — generated layout of the case-4 OTA\n")
	fmt.Fprintf(&b, "  area: %.1f x %.1f um (%.0f um2)\n",
		par.WidthUM, par.HeightUM, par.AreaUM2)
	var names []string
	for name := range par.Folds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fp := par.Folds[name]
		style := "drain-internal"
		if fp.Folds%2 == 1 && fp.Folds > 1 {
			style = "odd"
		}
		fmt.Fprintf(&b, "  %-5s %2d folds x %5.2f um  (%s)\n",
			name, fp.Folds, fp.FingerW*1e6, style)
	}
	fmt.Fprintf(&b, "  module shape choices: %v\n", res.Layout.ChoiceOf)
	return b.String()
}
