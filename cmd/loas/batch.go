// Batch and exploration subcommands: `loas batch` fans a file of
// synthesize requests through the daemon's POST /v1/batch; `loas
// explore` sweeps a spec grid (or runs the guided search) through
// POST /v1/explore and prints the per-topology Pareto fronts.

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"loas/internal/serve"
)

// daemonPost posts a JSON body to one daemon endpoint and decodes the
// JSON payload.
func daemonPost(base, path string, body any, dst any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(base, "/")+path,
		"application/json", bytes.NewReader(payload))
	return decodeReply(resp, err, base, path, dst)
}

// readInput loads a -f argument: a path, or "-" for stdin.
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// runBatch posts many synthesize requests in one round trip. The input
// file holds either a full BatchRequest {"items":[...]} or a bare JSON
// array of synthesize bodies; without -f, one default item per -n.
func runBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8086", "loasd base URL")
	file := fs.String("f", "", `items file: {"items":[...]} or a bare array of synthesize bodies ("-" = stdin)`)
	n := fs.Int("n", 0, "without -f: submit n copies of the default synthesize request")
	caseN := fs.Int("case", 0, "without -f: the case of those default items (1-4)")
	topology := fs.String("topology", "", "without -f: the topology of those default items")
	asJSON := fs.Bool("json", false, "emit the BatchReport as JSON (same encoding as POST /v1/batch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var req serve.BatchRequest
	switch {
	case *file != "":
		data, err := readInput(*file)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &req); err != nil {
			// Not a BatchRequest object — accept a bare item array too.
			if aerr := json.Unmarshal(data, &req.Items); aerr != nil {
				return fmt.Errorf("batch input is neither {\"items\":[...]} nor a bare item array: %w", err)
			}
		}
	case *n > 0:
		for i := 0; i < *n; i++ {
			req.Items = append(req.Items, serve.SynthesizeRequest{
				Topology: *topology, Case: *caseN,
			})
		}
	default:
		return fmt.Errorf("usage: loas batch -f items.json | loas batch -n N [-case C] [-topology T]")
	}

	var rep serve.BatchReport
	start := time.Now()
	if err := daemonPost(*addr, "/v1/batch", req, &rep); err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(out, rep)
	}
	fmt.Fprintf(out, "batch of %d items (%d unique) in %s, %d errors\n",
		rep.Items, rep.Unique, time.Since(start).Round(time.Millisecond), rep.Errors)
	fmt.Fprintf(out, "  %-5s %-16s %-4s %-9s %-6s %s\n", "INDEX", "TOPOLOGY", "CASE", "OUTCOME", "CACHE", "RUN")
	for _, r := range rep.Results {
		cache := r.Cache
		if cache == "" {
			cache = "-"
		}
		fmt.Fprintf(out, "  %-5d %-16s %-4d %-9s %-6s %s\n",
			r.Index, r.Topology, r.Case, r.Outcome, cache, r.RunID)
		if r.Error != "" {
			fmt.Fprintf(out, "        error: %s\n", r.Error)
		}
	}
	return nil
}

// parseAxis splits a comma-separated list of floats ("4e7,6.5e7").
func parseAxis(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("axis value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runExplore sweeps a spec grid or runs the guided search through the
// daemon and prints each topology's Pareto front.
func runExplore(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8086", "loasd base URL")
	file := fs.String("f", "", `full ExploreRequest JSON file ("-" = stdin); overrides the axis flags`)
	topologies := fs.String("topologies", "", "comma-separated design plans (default: the daemon default)")
	gbw := fs.String("gbw", "", "comma-separated GBW axis values in Hz (e.g. 4e7,6.5e7,9e7)")
	pm := fs.String("pm", "", "comma-separated phase-margin axis values in degrees")
	cl := fs.String("cl", "", "comma-separated load-capacitance axis values in F")
	mode := fs.String("mode", "grid", "probe planner: grid | guided")
	budget := fs.Int("budget", 0, "guided-mode probe budget (0 = daemon default)")
	step := fs.Float64("step", 0, "guided-mode perturbation fraction (0 = daemon default)")
	caseN := fs.Int("case", 0, "parasitic-awareness case of each probe (0 = daemon default)")
	asJSON := fs.Bool("json", false, "emit the ExploreReport as JSON (same encoding as POST /v1/explore)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var req serve.ExploreRequest
	if *file != "" {
		data, err := readInput(*file)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return fmt.Errorf("explore input: %w", err)
		}
	} else {
		var err error
		if req.Axes.GBW, err = parseAxis(*gbw); err != nil {
			return err
		}
		if req.Axes.PM, err = parseAxis(*pm); err != nil {
			return err
		}
		if req.Axes.CL, err = parseAxis(*cl); err != nil {
			return err
		}
		if *topologies != "" {
			for _, t := range strings.Split(*topologies, ",") {
				req.Topologies = append(req.Topologies, strings.TrimSpace(t))
			}
		}
		req.Mode = *mode
		req.Budget = *budget
		req.Step = *step
		req.Case = *caseN
	}

	var rep serve.ExploreReport
	start := time.Now()
	if err := daemonPost(*addr, "/v1/explore", req, &rep); err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(out, rep)
	}
	fmt.Fprintf(out, "%s exploration, case %d, %s\n", rep.Mode, rep.Case,
		time.Since(start).Round(time.Millisecond))
	for _, tf := range rep.Results {
		fmt.Fprintf(out, "\n%s: %d probes (%d infeasible), %d rounds, front of %d:\n",
			tf.Topology, tf.Probes, tf.Infeasible, tf.Rounds, len(tf.Front))
		fmt.Fprintf(out, "  %-10s %-10s %-10s %-10s %-12s %s\n",
			"GBW", "GAIN", "POWER", "AREA", "SPEC GBW", "SPEC PM")
		for _, p := range tf.Front {
			fmt.Fprintf(out, "  %-10s %-10s %-10s %-10s %-12s %.1f°\n",
				fmtHz(p.Metrics.GBWHz), fmt.Sprintf("%.1f dB", p.Metrics.GainDB),
				fmt.Sprintf("%.2f mW", p.Metrics.PowerW*1e3),
				fmt.Sprintf("%.0f µm²", p.Metrics.AreaUM2),
				fmtHz(p.Spec.GBW), p.Spec.PM)
		}
	}
	return nil
}

// fmtHz renders a frequency with an engineering unit.
func fmtHz(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GHz", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1f MHz", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f kHz", v/1e3)
	}
	return fmt.Sprintf("%.0f Hz", v)
}
