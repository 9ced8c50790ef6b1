package loas

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// The bench-metrics golden pins, bit for bit, the custom metrics of the
// figure, ablation and stage benchmarks in bench_test.go: the Fig. 3
// mirror, the fold-style and shape-constraint ablations, the SC
// integrator, the two-stage sizing, the device model, the width
// bisection, the layout plan per backend and topology, the shape
// function and one Monte-Carlo sample. Each benchmark runs exactly once
// through testing.Benchmark, and every metric is compared in strconv
// 'x' form, so a one-ULP drift fails here instead of hiding behind the
// four digits `go test -bench` prints. Rerun with
//
//	go test . -run TestBenchMetricsGolden -update
//
// only after an intentional model or solver change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/bench_metrics_golden.json from a live run")

const benchMetricsGoldenPath = "testdata/bench_metrics_golden.json"

// goldenBenches are the pinned benchmarks. Table 1, Fig. 5, the
// convergence trace and the eval ablation are not run here: their
// metrics are quantities internal/repro's table1 and eval-ablation
// goldens and internal/core's fingerprint golden pin at the same inputs.
var goldenBenches = []struct {
	name string
	fn   func(*testing.B)
}{
	{"Fig3CurrentMirror", BenchmarkFig3CurrentMirror},
	{"AblationFoldStyle", BenchmarkAblationFoldStyle},
	{"AblationShapeConstraint", BenchmarkAblationShapeConstraint},
	{"TwoStageSizing", BenchmarkTwoStageSizing},
	{"SCIntegrator", BenchmarkSCIntegrator},
	{"ModelCardEval", BenchmarkModelCardEval},
	{"ModelCardEvalID", BenchmarkModelCardEvalID},
	{"SizeBisectionCold", BenchmarkSizeBisectionCold},
	{"LayoutPlanCold", BenchmarkLayoutPlanCold},
	{"LayoutSlicingColdFiveT", BenchmarkLayoutSlicingColdFiveT},
	{"LayoutRowsColdFiveT", BenchmarkLayoutRowsColdFiveT},
	{"LayoutSlicingColdFoldedCascode", BenchmarkLayoutSlicingColdFoldedCascode},
	{"LayoutRowsColdFoldedCascode", BenchmarkLayoutRowsColdFoldedCascode},
	{"LayoutSlicingColdTwoStage", BenchmarkLayoutSlicingColdTwoStage},
	{"LayoutRowsColdTwoStage", BenchmarkLayoutRowsColdTwoStage},
	{"ShapeFunctionCold", BenchmarkShapeFunctionCold},
	{"MCSampleBatched", BenchmarkMCSampleBatched},
}

// benchMetrics maps benchmark name → metric unit → hex-exact value.
type benchMetrics map[string]map[string]string

// runGoldenBenches runs every pinned benchmark once and collects its
// custom metrics.
func runGoldenBenches(t *testing.T) benchMetrics {
	t.Helper()
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev) // prev parsed once already; it cannot fail now

	got := benchMetrics{}
	for _, bm := range goldenBenches {
		r := testing.Benchmark(bm.fn)
		if r.N != 1 {
			t.Fatalf("Benchmark%s ran %d iterations, want 1 (a failed benchmark reports 0)", bm.name, r.N)
		}
		m := map[string]string{}
		for unit, v := range r.Extra {
			m[unit] = strconv.FormatFloat(v, 'x', -1, 64)
		}
		got[bm.name] = m
	}
	return got
}

// TestBenchMetricsGolden compares the live metrics with the committed
// golden file.
func TestBenchMetricsGolden(t *testing.T) {
	got := runGoldenBenches(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(benchMetricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchMetricsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", benchMetricsGoldenPath)
		return
	}

	data, err := os.ReadFile(benchMetricsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want benchMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	diffs := diffBenchMetrics(want, got)
	for _, d := range diffs {
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Logf("live metrics diverge from %s (re-bless with -update if intentional)", benchMetricsGoldenPath)
	}
}

// diffBenchMetrics lists, in sorted order, every metric that is missing
// on one side or differs in any bit.
func diffBenchMetrics(want, got benchMetrics) []string {
	var diffs []string
	for name, m := range want {
		for unit, w := range m {
			g, ok := got[name][unit]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s/%s: golden metric %s not reported", name, unit, w))
			case g != w:
				diffs = append(diffs, fmt.Sprintf("%s/%s: got %s, want %s", name, unit, g, w))
			}
		}
	}
	for name, m := range got {
		for unit, g := range m {
			if _, ok := want[name][unit]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s/%s: live metric %s not in the golden", name, unit, g))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
