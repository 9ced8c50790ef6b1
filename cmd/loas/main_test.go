package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOut drives one subcommand's handler in-process and returns its
// output, failing the test on a non-nil (non-zero exit) result.
func runOut(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(cmd, args, &buf); err != nil {
		t.Fatalf("loas %s %v: %v", cmd, args, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("loas %s %v: empty output", cmd, args)
	}
	return buf.String()
}

func TestSmokeFig2(t *testing.T) {
	out := runOut(t, "fig2")
	if !strings.Contains(out, "F") {
		t.Fatalf("fig2 output unexpected: %q", out)
	}
}

func TestSmokeFig3(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "mirror.svg")
	out := runOut(t, "fig3", "-svg", svg)
	if !strings.Contains(out, "wrote "+svg) {
		t.Fatal("fig3 did not report the SVG file")
	}
	data, err := os.ReadFile(svg)
	if err != nil || !bytes.HasPrefix(data, []byte("<svg")) {
		t.Fatalf("fig3 svg: %v, %d bytes", err, len(data))
	}
}

func TestSmokeTable1SingleCase(t *testing.T) {
	out := runOut(t, "table1", "-case", "1")
	if !strings.Contains(out, "Case 1") || !strings.Contains(out, "GBW") {
		t.Fatalf("table1 output unexpected:\n%s", out)
	}
}

func TestSmokeTable1JSON(t *testing.T) {
	out := runOut(t, "table1", "-case", "1", "-json")
	var rep struct {
		Rows []struct {
			Case int `json:"case"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Case != 1 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
}

func TestSmokeMCJSON(t *testing.T) {
	out := runOut(t, "mc", "-n", "2", "-json")
	var rep struct {
		Stats struct {
			N        int `json:"n"`
			Failures int `json:"failures"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if rep.Stats.N+rep.Stats.Failures != 2 {
		t.Fatalf("mc samples: %+v", rep.Stats)
	}
}

func TestSmokeMCText(t *testing.T) {
	out := runOut(t, "mc", "-n", "2")
	if !strings.Contains(out, "sigma") || !strings.Contains(out, "analytic estimate") {
		t.Fatalf("mc text output unexpected:\n%s", out)
	}
}

func TestSmokeNetlist(t *testing.T) {
	out := runOut(t, "netlist", "-case", "1")
	if !strings.Contains(out, "M") {
		t.Fatalf("netlist output unexpected:\n%s", out)
	}
}

func TestSmokeTecheval(t *testing.T) {
	runOut(t, "techeval")
}

func TestSmokeConverge(t *testing.T) {
	runOut(t, "converge")
}

func TestSmokeTrace(t *testing.T) {
	out := runOut(t, "trace")
	for _, want := range []string{"Parasitic convergence", "layout calls", "converged"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeTraceJSON(t *testing.T) {
	out := runOut(t, "trace", "-json", "-case", "4")
	var rep struct {
		Case       int  `json:"case"`
		Converged  bool `json:"converged"`
		Iterations []struct {
			Call   int     `json:"call"`
			DeltaF float64 `json:"delta_f"`
		} `json:"iterations"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("trace -json not parseable: %v\n%s", err, out)
	}
	if rep.Case != 4 || !rep.Converged || len(rep.Iterations) < 2 {
		t.Fatalf("trace report implausible: %+v", rep)
	}
	if rep.Iterations[0].DeltaF != -1 {
		t.Fatalf("first iteration delta = %g, want -1 sentinel", rep.Iterations[0].DeltaF)
	}
}

func TestSmokeFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 runs a full case-4 synthesis")
	}
	svg := filepath.Join(t.TempDir(), "ota.svg")
	out := runOut(t, "fig5", "-svg", svg)
	if !strings.Contains(out, "Fig. 5") {
		t.Fatalf("fig5 output unexpected:\n%s", out)
	}
	if fi, err := os.Stat(svg); err != nil || fi.Size() == 0 {
		t.Fatalf("fig5 svg missing: %v", err)
	}
}

func TestSmokeCorners(t *testing.T) {
	if testing.Short() {
		t.Skip("corners runs a full case-4 synthesis plus five corner sims")
	}
	out := runOut(t, "corners")
	if !strings.Contains(out, "tt:") {
		t.Fatalf("corners output unexpected:\n%s", out)
	}
}

func TestUnknownCommandExitsUsage(t *testing.T) {
	var buf bytes.Buffer
	err := run("definitely-not-a-command", nil, &buf)
	if !errors.Is(err, errUnknownCommand) {
		t.Fatalf("want errUnknownCommand, got %v", err)
	}
}

func TestSmokeTopologies(t *testing.T) {
	out := runOut(t, "topologies")
	for _, want := range []string{"folded-cascode", "two-stage", "five-t", "(* = default)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("topologies output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeSynthEveryTopology drives `loas synth -topology T` for all
// three registered plans — the CLI face of the acceptance criterion
// that each topology completes the sizing↔layout convergence loop and
// emits a convergence trace.
func TestSmokeSynthEveryTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("synth runs full case-4 synthesis with verification")
	}
	for _, topo := range []string{"folded-cascode", "two-stage", "five-t"} {
		out := runOut(t, "synth", "-topology", topo)
		for _, want := range []string{topo + " case 4", "convergence trace:", "Parasitic convergence", "GBW"} {
			if !strings.Contains(out, want) {
				t.Fatalf("synth -topology %s missing %q:\n%s", topo, want, out)
			}
		}
	}
}

func TestSmokeSynthJSON(t *testing.T) {
	out := runOut(t, "synth", "-topology", "five-t", "-json", "-skipverify")
	var rep struct {
		Summary struct {
			Topology    string `json:"topology"`
			LayoutCalls int    `json:"layout_calls"`
		} `json:"summary"`
		Iterations []struct {
			Topology string `json:"topology"`
			Call     int    `json:"call"`
		} `json:"iterations"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("synth -json not parseable: %v\n%s", err, out)
	}
	if rep.Summary.Topology != "five-t" || rep.Summary.LayoutCalls < 2 {
		t.Fatalf("summary implausible: %+v", rep.Summary)
	}
	if len(rep.Iterations) < 2 || rep.Iterations[0].Topology != "five-t" {
		t.Fatalf("iterations not labelled: %+v", rep.Iterations)
	}
}

// TestUnknownTopologyExitsNonZero: the CLI must fail with the
// registry's message listing every registered plan — same text the
// daemon returns as a 400.
func TestUnknownTopologyExitsNonZero(t *testing.T) {
	for _, cmd := range []string{"synth", "mc", "corners"} {
		var buf bytes.Buffer
		err := run(cmd, []string{"-topology", "no-such-ota"}, &buf)
		if err == nil {
			t.Fatalf("loas %s -topology no-such-ota succeeded", cmd)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown topology") || !strings.Contains(msg, "registered:") {
			t.Fatalf("loas %s error %q lacks the registry listing", cmd, msg)
		}
		for _, name := range []string{"folded-cascode", "two-stage", "five-t"} {
			if !strings.Contains(msg, name) {
				t.Fatalf("loas %s error %q does not list %q", cmd, msg, name)
			}
		}
	}
}

func TestSmokeSynthRefine(t *testing.T) {
	out := runOut(t, "synth", "-case", "1", "-refine", "-refine-rounds", "1")
	for _, want := range []string{"refinement: 1 round(s)", "round 1: target GBW", "worst-corner margin"} {
		if !strings.Contains(out, want) {
			t.Fatalf("refined synth output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeSynthRefineJSON(t *testing.T) {
	out := runOut(t, "synth", "-case", "1", "-refine", "-refine-rounds", "1", "-json")
	var wrapper struct {
		Summary struct {
			Refine *struct {
				MaxRounds int `json:"max_rounds"`
				BestRound int `json:"best_round"`
				Rounds    []struct {
					Round   int `json:"round"`
					Corners []struct {
						Corner string `json:"corner"`
						Met    bool   `json:"met"`
					} `json:"corners"`
				} `json:"rounds"`
			} `json:"refine"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(out), &wrapper); err != nil {
		t.Fatalf("synth -refine -json not parseable: %v\n%s", err, out)
	}
	ref := wrapper.Summary.Refine
	if ref == nil || ref.MaxRounds != 1 || len(ref.Rounds) != 1 {
		t.Fatalf("refine report implausible: %+v", ref)
	}
	if len(ref.Rounds[0].Corners) != 5 {
		t.Fatalf("round 1 scored %d corners, want 5", len(ref.Rounds[0].Corners))
	}
}

func TestSynthRefineRejectsSkipVerify(t *testing.T) {
	var buf bytes.Buffer
	err := run("synth", []string{"-case", "1", "-refine", "-skipverify"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "skipverify") {
		t.Fatalf("synth -refine -skipverify: err = %v, want rejection", err)
	}
}
