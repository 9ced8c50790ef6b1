// benchsnap records a perf-trajectory snapshot: it runs the repo's
// figure/table benchmark set once and writes BENCH_9.json mapping each
// benchmark to its ns/op plus every custom metric the benchmark
// reported (gbw_MHz, area_um2, layout_calls, ...). Custom metrics are
// the reproduced paper quantities — deterministic across runs — so they
// are stored twice: as a decimal for humans and as a hex-exact float
// (strconv 'x' format) so a future PR can detect a one-ULP drift that
// decimal rounding would hide. ns/op is wall-clock and inherently
// noisy; it records the trajectory, not a contract.
//
// Usage:
//
//	go run ./cmd/benchsnap [-bench REGEX] [-o BENCH_9.json] [-dir .]
//	go run ./cmd/benchsnap diff [-tol F] [-strict-nsop] [-json] OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// defaultBenchSet names the deterministic figure/table benchmarks plus
// the batch cold/warm pair (its backend_runs metric is the dedup
// contract; its ns/op is trajectory), the end-to-end cold-path pair
// (Table1AllCases, ServeSynthesizeCold) and the per-stage benchmarks of
// the cold path. The Layout(Rows|Slicing)Cold* benches are the
// per-backend A/B: their area_um2/cap_fF metrics record which layout
// style wins each topology. The remaining serve and Monte-Carlo benches
// are excluded by default: their value is the serial/parallel and
// cold/hot *ratios*, which a single -benchtime 1x pass cannot measure
// meaningfully.
const defaultBenchSet = "Fig2CapReduction|Fig3CurrentMirror|Table1Case[1-4]$" +
	"|Fig5Layout|SCIntegrator|ConvergenceTrace|TwoStageSizing" +
	"|AblationFoldStyle|AblationEvalMethod|AblationShapeConstraint" +
	"|BatchSynthesize50Cold|BatchSynthesize50Warm" +
	"|Table1AllCases$|ServeSynthesizeCold$" +
	"|ModelCardEval$|ModelCardEvalID$|SizeBisectionCold" +
	"|LayoutPlanCold|ShapeFunctionCold|MCSampleBatched" +
	"|Layout(Rows|Slicing)Cold(FiveT|FoldedCascode|TwoStage)"

// metric is one reported benchmark quantity.
type metric struct {
	Value float64 `json:"value"`
	Hex   string  `json:"hex"`
}

// benchResult is one benchmark's snapshot entry.
type benchResult struct {
	NsPerOp float64           `json:"ns_op"`
	Metrics map[string]metric `json:"metrics,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "diff" {
		return runDiff(args[1:])
	}
	fs := flag.NewFlagSet("benchsnap", flag.ExitOnError)
	pattern := fs.String("bench", defaultBenchSet, "benchmark regex to snapshot")
	outPath := fs.String("o", "BENCH_9.json", "output file")
	dir := fs.String("dir", ".", "package directory holding the benchmarks")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime value")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-bench", *pattern,
		"-benchtime", *benchtime, "-count", "1", ".")
	cmd.Dir = *dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go test -bench: %v\n%s", err, out)
	}
	results, err := parseBenchOutput(string(out))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *pattern)
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("benchsnap: wrote %s (%d benchmarks: %s)\n",
		*outPath, len(results), strings.Join(names, ", "))
	return nil
}

// parseBenchOutput extracts result lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkFig5Layout-8    1    8123456 ns/op    10169 area_um2    6.0 layout_calls
//
// The -N GOMAXPROCS suffix is stripped so snapshots diff cleanly across
// machines with different core counts.
func parseBenchOutput(out string) (map[string]benchResult, error) {
	results := map[string]benchResult{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		// fields[1] is the iteration count; the rest are (value, unit) pairs.
		res := benchResult{Metrics: map[string]metric{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench line %q: bad value %q: %v", line, fields[i], err)
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				res.NsPerOp = v
				continue
			}
			res.Metrics[unit] = metric{Value: v, Hex: strconv.FormatFloat(v, 'x', -1, 64)}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		results[name] = res
	}
	return results, nil
}
