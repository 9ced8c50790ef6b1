// Otasynth reproduces the paper's full evaluation: Table 1 (four sizing
// cases against extracted-netlist simulation), the qualitative shape
// checks, and the Fig. 5 layout of the converged case-4 design.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"loas/internal/core"
	"loas/internal/layout/cairo"
	"loas/internal/repro"
	"loas/internal/sizing"
	"loas/internal/techno"
)

func main() {
	tech := techno.Default060()
	spec := sizing.Default65MHz()

	// The four cases run concurrently (core.SynthesizeAll under the
	// hood), so on a multi-core machine the wall-clock printed below is
	// close to the slowest single case, not the sum of all four.
	start := time.Now()
	cases, err := repro.Table1(tech, spec, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(repro.Table1Text(cases, spec))
	fmt.Printf("all four cases synthesized concurrently in %s wall-clock\n\n",
		time.Since(start).Round(time.Millisecond))
	if bad := repro.Table1ShapeChecks(cases, spec); len(bad) > 0 {
		fmt.Println("shape-check violations:")
		for _, s := range bad {
			fmt.Println("  -", s)
		}
	} else {
		fmt.Println("all Table-1 qualitative shape checks hold.")
	}

	fig5, err := repro.Fig5(tech, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(repro.Fig5Text(fig5))
	f, err := os.Create("ota-layout.svg")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := cairo.WriteSVG(f, fig5.Layout.Cell); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote ota-layout.svg")
}
