// Command loas reproduces the experiments of "Layout-Oriented Synthesis
// of High Performance Analog Circuits" (DATE 2000) from the command line.
//
// Usage:
//
//	loas fig2                  capacitance reduction factor table
//	loas fig3 [-svg file]      current-mirror stack generation
//	loas table1 [-case N] [-json]  the four-case sizing/extraction table
//	loas fig5 [-svg file]      generate the case-4 OTA layout
//	loas flow                  proposed vs traditional flow comparison
//	loas netlist [-case N]     print the extracted SPICE-like netlist
//	loas synth [-topology T] [-case N] [-refine] [-json]  one layout-in-the-loop synthesis
//	loas topologies            list the registered design plans
//	loas mc [-topology T] [-n N] [-json]  Monte-Carlo mismatch offset analysis
//	loas techeval              technology characterization report
//	loas trace [-case N] [-json]   per-call parasitic convergence trace with per-phase timings
//	loas converge              alias of loas trace
//	loas corners [-topology T] process-corner verification
//	loas serve [flags]         run the loasd synthesis daemon (alias)
//	loas batch [-f file | -n N] [-json]    fan many synthesize requests through the daemon
//	loas explore [-gbw ...] [-mode M] [-json]  spec-grid sweep / guided search via the daemon
//	loas runs [-addr URL]      list the daemon's recent runs
//	loas show <run-id>         one run's span tree + convergence trace
//	loas tail [-addr URL]      follow the daemon's live run events (SSE)
//	loas replay [-ledger file] [-addr URL] [-c N] [-rate R]  replay a recorded ledger as live load
//
// The -topology flag selects a registered design plan (see `loas
// topologies`); the default is the paper's folded-cascode OTA.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"loas/internal/core"
	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/obs"
	"loas/internal/repro"
	"loas/internal/serve"
	"loas/internal/sizing"
	"loas/internal/techeval"
	"loas/internal/techno"
)

// errUnknownCommand makes main print usage and exit 2; everything else
// exits 1.
var errUnknownCommand = errors.New("unknown command")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:], os.Stdout); err != nil {
		if errors.Is(err, errUnknownCommand) {
			usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "loas:", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand, writing its report to out. It is the
// in-process entry point the smoke tests drive.
func run(cmd string, args []string, out io.Writer) error {
	tech := techno.Default060()
	spec := sizing.Default65MHz()

	switch cmd {
	case "fig2":
		_, err := io.WriteString(out, repro.Fig2Text(20))
		return err
	case "fig3":
		return runFig3(tech, args, out)
	case "table1":
		return runTable1(tech, spec, args, out)
	case "fig5":
		return runFig5(tech, spec, args, out)
	case "flow":
		s, err := repro.FlowComparison(tech, spec)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, s)
		return err
	case "netlist":
		return runNetlist(tech, spec, args, out)
	case "synth":
		return runSynth(tech, args, out)
	case "topologies":
		return runTopologies(out)
	case "layouts":
		return runLayouts(out)
	case "mc":
		return runMC(tech, args, out)
	case "techeval":
		fmt.Fprint(out, techeval.Characterize(tech, techno.NMOS).Summary()+"\n")
		fmt.Fprint(out, techeval.Characterize(tech, techno.PMOS).Summary()+"\n")
		return nil
	case "trace", "converge":
		return runTrace(tech, spec, args, out)
	case "corners":
		return runCorners(tech, args, out)
	case "serve":
		return serve.CLI(args, out)
	case "batch":
		return runBatch(args, out)
	case "explore":
		return runExplore(args, out)
	case "runs":
		return runRuns(args, out)
	case "show":
		return runShow(args, out)
	case "tail":
		return runTail(args, out)
	case "replay":
		return runReplay(args, out)
	default:
		return fmt.Errorf("%w: %q", errUnknownCommand, cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		`usage: loas <fig2|fig3|table1|fig5|flow|netlist|synth|topologies|layouts|mc|techeval|converge|trace|corners|serve|batch|explore|runs|show|tail|replay> [flags]`)
}

// topoSpec resolves a -topology flag value to its canonical plan name
// and that plan's default specification. Unknown names surface the
// registry's error (listing every registered topology) as a non-zero
// exit.
func topoSpec(topology string) (string, sizing.OTASpec, error) {
	plan, err := sizing.Lookup(topology)
	if err != nil {
		return "", sizing.OTASpec{}, err
	}
	return plan.Name, plan.DefaultSpec(), nil
}

// writeJSON shares the daemon's encoder so `loas -json` output is
// byte-identical to the corresponding loasd response body.
func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runMC(tech *techno.Tech, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mc", flag.ExitOnError)
	topology := fs.String("topology", "", "design plan to analyze (default folded-cascode; see `loas topologies`)")
	n := fs.Int("n", 25, "number of Monte-Carlo samples")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = serial; same statistics either way)")
	caseN := fs.Int("case", 1, "Table-1 case of the design under test (1-4)")
	asJSON := fs.Bool("json", false, "emit the MCReport as JSON (same encoding as POST /v1/mc)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, spec, err := topoSpec(*topology)
	if err != nil {
		return err
	}
	rep, err := serve.RunMC(context.Background(), tech, spec, name, *caseN, *n, *seed, *workers)
	if err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(out, rep)
	}
	st := rep.Stats
	fmt.Fprintf(out, "Monte-Carlo offset (%d samples, %d failed):\n", st.N, st.Failures)
	fmt.Fprintf(out, "  mean  %8.3f mV\n  sigma %8.3f mV\n  worst %8.3f mV\n",
		st.MeanV*1e3, st.SigmaV*1e3, st.WorstAbsV*1e3)
	fmt.Fprintf(out, "  analytic estimate: %8.3f mV\n", rep.AnalyticSigmaV*1e3)
	return nil
}

// runTrace is the observability view of the synthesis loop: it runs one
// case and prints (or emits as JSON) the per-iteration convergence
// events the engine recorded — the paper's "three calls of the layout
// tool were needed" narrative as structured output, with per-phase wall
// time. The same events are the iterations of a loasd run record
// (GET /v1/runs/{id}).
func runTrace(tech *techno.Tech, spec sizing.OTASpec, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	caseN := fs.Int("case", 4, "Table-1 case to trace (1-4)")
	maxCalls := fs.Int("maxcalls", 8, "layout-call bound of the convergence loop")
	asJSON := fs.Bool("json", false, "emit the iterations as JSON (same events as the iterations of GET /v1/runs/{id})")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := core.Synthesize(tech, spec, core.Options{
		Case:           *caseN,
		MaxLayoutCalls: *maxCalls,
		SkipVerify:     true,
	})
	if err != nil {
		return err
	}
	converged := obs.Converged(res.Trace, core.ConvergeTolF)
	if *asJSON {
		return writeJSON(out, struct {
			Case       int             `json:"case"`
			Converged  bool            `json:"converged"`
			Iterations []obs.Iteration `json:"iterations"`
		}{*caseN, converged, res.Trace})
	}
	if _, err := io.WriteString(out, obs.ConvergenceTable(res.Trace)); err != nil {
		return err
	}
	var sizingNS, layoutNS int64
	for _, it := range res.Trace {
		sizingNS += it.SizingNS
		layoutNS += it.LayoutNS
	}
	fmt.Fprintf(out, "case %d: %d layout calls, %d sizing passes; sizing %.1f ms, layout %.1f ms",
		*caseN, res.LayoutCalls, res.SizingPasses,
		float64(sizingNS)/1e6, float64(layoutNS)/1e6)
	if converged {
		fmt.Fprintf(out, "; parasitics converged (Δ < 1 fF)\n")
	} else {
		fmt.Fprintf(out, "; no layout feedback requested, single pass\n")
	}
	return nil
}

func runCorners(tech *techno.Tech, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("corners", flag.ExitOnError)
	topology := fs.String("topology", "", "design plan to verify (default folded-cascode; see `loas topologies`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, spec, err := topoSpec(*topology)
	if err != nil {
		return err
	}
	res, err := core.Synthesize(tech, spec, core.Options{Topology: name, Case: 4})
	if err != nil {
		return err
	}
	corners, err := core.CornerSweep(context.Background(), tech, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "process-corner verification of the case-4 %s design (tracking bias):\n", res.Topology)
	for _, c := range []techno.Corner{techno.CornerSS, techno.CornerSF,
		techno.CornerTT, techno.CornerFS, techno.CornerFF} {
		p := corners[c]
		fmt.Fprintf(out, "  %s: gain %.1f dB, GBW %.1f MHz, PM %.1f deg, power %.2f mW\n",
			c, p.DCGainDB, p.GBW/1e6, p.PhaseDeg, p.Power*1e3)
	}
	return nil
}

func runFig3(tech *techno.Tech, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	svg := fs.String("svg", "", "write the mirror layout as SVG to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	text, err := repro.Fig3Text(tech)
	if err != nil {
		return err
	}
	fmt.Fprint(out, text)
	if *svg != "" {
		r, err := repro.Fig3(tech)
		if err != nil {
			return err
		}
		f, err := os.Create(*svg)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cairo.WriteSVG(f, r.Stack.Cell); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", *svg)
	}
	return nil
}

func runTable1(tech *techno.Tech, spec sizing.OTASpec, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	onlyCase := fs.Int("case", 0, "run a single case (1-4); 0 = all")
	asJSON := fs.Bool("json", false, "emit the Table1Report as JSON (same encoding as POST /v1/table1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cases []repro.Table1Case
	if *onlyCase != 0 {
		res, err := core.Synthesize(tech, spec, core.Options{Case: *onlyCase})
		if err != nil {
			return err
		}
		cases = []repro.Table1Case{{Case: *onlyCase, Result: res}}
	} else {
		var err error
		cases, err = repro.Table1(tech, spec, core.Options{})
		if err != nil {
			return err
		}
	}
	if *asJSON {
		return writeJSON(out, repro.BuildTable1Report(cases, spec))
	}
	fmt.Fprint(out, repro.Table1Text(cases, spec))
	if *onlyCase != 0 {
		return nil
	}
	if bad := repro.Table1ShapeChecks(cases, spec); len(bad) > 0 {
		fmt.Fprintln(out, "shape-check violations:")
		for _, s := range bad {
			fmt.Fprintln(out, "  -", s)
		}
	} else {
		fmt.Fprintln(out, "all Table-1 qualitative shape checks hold.")
	}
	return nil
}

func runFig5(tech *techno.Tech, spec sizing.OTASpec, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	svg := fs.String("svg", "ota-layout.svg", "output SVG file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := repro.Fig5(tech, spec)
	if err != nil {
		return err
	}
	fmt.Fprint(out, repro.Fig5Text(res))
	f, err := os.Create(*svg)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cairo.WriteSVG(f, res.Layout.Cell); err != nil {
		return err
	}
	fmt.Fprintln(out, "wrote", *svg)
	return nil
}

// runSynth is the topology-generic entry point: one full
// layout-in-the-loop synthesis of any registered design plan, reporting
// the summary and the convergence trace the loop recorded.
func runSynth(tech *techno.Tech, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	topology := fs.String("topology", "", "design plan to synthesize (default folded-cascode; see `loas topologies`)")
	layoutName := fs.String("layout", "", "layout backend for the placement/routing stage (default slicing; see `loas layouts`)")
	caseN := fs.Int("case", 4, "parasitic-awareness case (1-4)")
	maxCalls := fs.Int("maxcalls", 8, "layout-call bound of the convergence loop")
	skipVerify := fs.Bool("skipverify", false, "skip the extracted-netlist measurement")
	refine := fs.Bool("refine", false, "close the loop: re-size until extracted performance meets the spec at all five corners")
	refineRounds := fs.Int("refine-rounds", core.DefaultRefineMaxRounds, "outer refinement round budget (with -refine)")
	refineStep := fs.Float64("refine-step", core.DefaultRefineMarginStep, "fraction of the worst-corner miss folded into the next round's target (with -refine)")
	asJSON := fs.Bool("json", false, "emit the summary and trace as JSON")
	ledgerPath := fs.String("ledger", "", "append this run to the JSONL ledger at this path (same format as loasd -ledger)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refine && *skipVerify {
		return errors.New("-refine drives re-sizing from extracted verification; drop -skipverify")
	}
	name, spec, err := topoSpec(*topology)
	if err != nil {
		return err
	}
	// Canonicalize the backend name, with the default elided like the
	// daemon's request normalization, so ledger records and JSON output
	// match loasd byte for byte.
	layName, err := layout.CanonicalName(*layoutName)
	if err != nil {
		return err
	}
	if layName == layout.DefaultBackend {
		layName = ""
	}

	// With -ledger, the run is recorded exactly like a daemon run —
	// span tree, iterations, outcome — with Source "cli", into the same
	// JSONL format loasd appends and `loas runs` reads back.
	var ledger *obs.Ledger
	var run *obs.Run
	if *ledgerPath != "" {
		ledger, err = obs.OpenLedger(*ledgerPath, obs.LedgerOptions{})
		if err != nil {
			return err
		}
		defer ledger.Close()
		seq := ledger.LastSeq() + 1
		run = obs.StartRun(obs.RunRecord{
			ID: fmt.Sprintf("run-%06d", seq), Seq: seq, StartUnixNS: time.Now().UnixNano(),
			Source: "cli", Kind: "synthesize", Topology: name, Layout: layName, Case: *caseN,
		}, nil)
	}
	ctx := obs.ContextWithRun(obs.ContextWithSpan(context.Background(), run.Root()), run)
	res, err := core.Synthesize(tech, spec, core.Options{
		Topology:       name,
		Case:           *caseN,
		Layout:         layName,
		MaxLayoutCalls: *maxCalls,
		SkipVerify:     *skipVerify,
		Ctx:            ctx,
		Refine: core.RefineOptions{
			Enabled:    *refine,
			MaxRounds:  *refineRounds,
			MarginStep: *refineStep,
		},
	})
	if ledger != nil {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		if lerr := ledger.Append(run.Finish(outcome, err, 0, "")); lerr != nil {
			fmt.Fprintf(out, "warning: ledger append failed: %v\n", lerr)
		}
	}
	if err != nil {
		return err
	}
	if *asJSON {
		s := res.Summary()
		s.Case = *caseN
		return writeJSON(out, struct {
			Summary    core.Summary    `json:"summary"`
			Iterations []obs.Iteration `json:"iterations"`
		}{s, res.Trace})
	}
	backendTag := ""
	if layName != "" {
		backendTag = " [" + layName + "]"
	}
	fmt.Fprintf(out, "%s%s case %d: %d layout calls, %d sizing passes (%s)\n",
		res.Topology, backendTag, *caseN, res.LayoutCalls, res.SizingPasses, res.Elapsed.Round(1e6))
	for _, row := range sizing.RowNames() {
		fmt.Fprintln(out, "  "+res.Synthesized.Row(row, res.Extracted))
	}
	if res.Parasitics != nil {
		fmt.Fprintf(out, "layout: %.1f x %.1f um, %.0f um2\n",
			res.Parasitics.WidthUM, res.Parasitics.HeightUM, res.Parasitics.AreaUM2)
	}
	if rep := res.Refine; rep != nil {
		status := "best effort — original spec NOT met at all corners"
		if rep.Met {
			status = "original spec met at all five corners"
		}
		fmt.Fprintf(out, "\nrefinement: %d round(s), accepted round %d, %s\n",
			len(rep.Rounds), rep.BestRound, status)
		for _, rr := range rep.Rounds {
			fmt.Fprintf(out, "  round %d: target GBW %.2f MHz, PM %.1f deg -> worst-corner margin %+.4f\n",
				rr.Round, rr.TargetGBW/1e6, rr.TargetPM, rr.WorstMargin)
		}
		if rep.Aborted != "" {
			fmt.Fprintf(out, "  aborted: %s\n", rep.Aborted)
		}
	}
	fmt.Fprintln(out, "\nconvergence trace:")
	_, err = io.WriteString(out, obs.ConvergenceTable(res.Trace))
	return err
}

// runTopologies lists the registered design plans.
func runTopologies(out io.Writer) error {
	for _, name := range sizing.Topologies() {
		plan, err := sizing.Lookup(name)
		if err != nil {
			return err
		}
		mark := " "
		if name == sizing.DefaultTopology {
			mark = "*"
		}
		fmt.Fprintf(out, "%s %-16s %s\n", mark, name, plan.Description)
	}
	fmt.Fprintln(out, "(* = default)")
	return nil
}

// runLayouts lists the registered layout backends with their capability
// descriptors (`loas layouts`; same registry behind GET /v1/layouts).
func runLayouts(out io.Writer) error {
	for _, info := range layout.Backends() {
		mark := " "
		if info.Name == layout.DefaultBackend {
			mark = "*"
		}
		fmt.Fprintf(out, "%s %-10s %s\n", mark, info.Name, info.Description)
		fmt.Fprintf(out, "  constraints: %s\n", strings.Join(info.Constraints, ", "))
	}
	fmt.Fprintln(out, "(* = default)")
	return nil
}

func runNetlist(tech *techno.Tech, spec sizing.OTASpec, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("netlist", flag.ExitOnError)
	c := fs.Int("case", 4, "Table-1 case (1-4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := core.Synthesize(tech, spec, core.Options{Case: *c})
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, res.ExtractedCkt.Export())
	return err
}
