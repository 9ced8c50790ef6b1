package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loas/internal/obs"
	"loas/internal/serve"
	"loas/internal/sizing"
)

// cannedBackend satisfies serve.Backend with fixed bodies, recording a
// short convergence trace into the live run like the real engine does —
// enough to exercise `loas runs/show/tail` against a daemon without
// paying for synthesis.
type cannedBackend struct {
	calls atomic.Int64
}

func (b *cannedBackend) Synthesize(ctx context.Context, _ sizing.OTASpec, req *serve.SynthesizeRequest) ([]byte, error) {
	run := obs.RunFromContext(ctx)
	run.Record(obs.Iteration{Topology: req.Topology, Call: 1, DeltaF: -1, Folds: 8})
	run.Record(obs.Iteration{Topology: req.Topology, Call: 2, DeltaF: 0.2e-15, Folds: 8})
	n := b.calls.Add(1)
	return []byte(fmt.Sprintf("{\"call\":%d}\n", n)), nil
}
func (b *cannedBackend) Table1(context.Context, sizing.OTASpec) ([]byte, error) {
	return []byte("{}\n"), nil
}
func (b *cannedBackend) MC(context.Context, sizing.OTASpec, *serve.MCRequest) ([]byte, error) {
	return []byte("{}\n"), nil
}
func (b *cannedBackend) LayoutSVG(context.Context, sizing.OTASpec) ([]byte, error) {
	return []byte("<svg/>"), nil
}

func startDaemon(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{Backend: &cannedBackend{}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

func TestSmokeRunsAndShow(t *testing.T) {
	url := startDaemon(t)
	// Two runs: one cold, one cache hit.
	runOut(t, "runs", "-addr", url) // header-only listing works on an idle daemon
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, url+"/v1/synthesize", `{"case":2}`)
		if resp != 200 {
			t.Fatalf("synthesize status %d: %s", resp, data)
		}
	}

	out := runOut(t, "runs", "-addr", url)
	for _, want := range []string{"run-000001", "run-000002", "ok", "cache-hit", "synthesize"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runs output missing %q:\n%s", want, out)
		}
	}
	if out := runOut(t, "runs", "-addr", url, "-outcome", "cache-hit"); strings.Contains(out, "run-000001") {
		t.Fatalf("outcome filter leaked the cold run:\n%s", out)
	}

	show := runOut(t, "show", "-addr", url, "run-000001")
	for _, want := range []string{"run-000001", "span tree:", "request", "queue-wait",
		"cache-lookup", "synthesize", "convergence trace:", "cache key:"} {
		if !strings.Contains(show, want) {
			t.Fatalf("show output missing %q:\n%s", want, show)
		}
	}
	// The replay run carries no iterations, so no convergence table.
	show2 := runOut(t, "show", "-addr", url, "run-000002")
	if strings.Contains(show2, "convergence trace:") {
		t.Fatalf("cache-hit run should have no trace:\n%s", show2)
	}
	if err := run("show", []string{"-addr", url, "run-999999"}, &bytes.Buffer{}); err == nil {
		t.Fatal("show of an unknown run should fail")
	}
	if err := run("show", []string{"-addr", url}, &bytes.Buffer{}); err == nil {
		t.Fatal("show without a run id should fail")
	}
}

func TestSmokeTail(t *testing.T) {
	url := startDaemon(t)
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run("tail", []string{"-addr", url, "-n", "4"}, &buf) }()

	// Generate lifecycle events until tail has seen its four; distinct
	// cases keep the backend cold so every run emits iterations too.
	stop := make(chan struct{})
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			postJSON(t, url+"/v1/synthesize", fmt.Sprintf(`{"case":%d}`, i%4+1))
			time.Sleep(10 * time.Millisecond)
		}
	}()
	select {
	case err := <-done:
		close(stop)
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
	case <-time.After(15 * time.Second):
		close(stop)
		t.Fatal("tail did not finish")
	}
	out := buf.String()
	if !strings.Contains(out, "tailing") || !strings.Contains(out, "start") {
		t.Fatalf("tail output unexpected:\n%s", out)
	}
}

// TestSmokeSynthLedger: `loas synth -ledger` appends one CLI-sourced
// run record — span tree and iterations included — in the exact format
// the daemon writes.
func TestSmokeSynthLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	runOut(t, "synth", "-topology", "five-t", "-skipverify", "-ledger", path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := obs.DecodeRunRecords(data, 0)
	if len(recs) != 1 {
		t.Fatalf("ledger has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Source != "cli" || rec.Kind != "synthesize" || rec.Outcome != "ok" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Topology != "five-t" || !rec.Converged || rec.LayoutCalls < 2 {
		t.Fatalf("record summary implausible: %+v", rec)
	}
	if len(rec.Iterations) != rec.LayoutCalls {
		t.Fatalf("iterations = %d, layout calls = %d", len(rec.Iterations), rec.LayoutCalls)
	}
	names := map[string]bool{}
	for _, s := range rec.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"request", "iteration", "sizing", "layout-extract"} {
		if !names[want] {
			t.Fatalf("ledger spans missing %q: %v", want, rec.Spans)
		}
	}

	// A second run continues the sequence in the same file.
	runOut(t, "synth", "-topology", "five-t", "-skipverify", "-ledger", path)
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs = obs.DecodeRunRecords(data, 0)
	if len(recs) != 2 || recs[1].Seq != 2 || recs[1].ID != "run-000002" {
		t.Fatalf("second append: %+v", recs)
	}
}

// postJSON is a tiny helper mirroring the serve package's test helper.
func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(data)
}

// TestSynthLedgerCountsEveryRound: a CLI record counts layout calls and
// keeps iterations the way a daemon record does — over every refinement
// round, and for a run that fails.
func TestSynthLedgerCountsEveryRound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	runOut(t, "synth", "-topology", "two-stage", "-refine", "-refine-rounds", "2", "-ledger", path)
	runErr := run("synth", []string{"-maxcalls", "2", "-ledger", path}, io.Discard)
	if runErr == nil {
		t.Fatal("two layout calls converged the folded cascode; want the budget to run out")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := obs.DecodeRunRecords(data, 0)
	if len(recs) != 2 {
		t.Fatalf("ledger has %d records, want 2", len(recs))
	}
	refined, failed := recs[0], recs[1]
	if refined.Outcome != "ok" || refined.LayoutCalls != 4 || len(refined.Iterations) != refined.LayoutCalls {
		t.Fatalf("refined record: outcome %q, %d layout calls, %d iterations; want ok, 4, 4",
			refined.Outcome, refined.LayoutCalls, len(refined.Iterations))
	}
	if failed.Outcome != "error" || failed.Error != runErr.Error() ||
		len(failed.Iterations) != 2 || failed.LayoutCalls != 2 || failed.Converged {
		t.Fatalf("failed record: outcome %q, error %q, %d iterations, %d layout calls, converged %v; want error, %q, 2, 2, false",
			failed.Outcome, failed.Error, len(failed.Iterations), failed.LayoutCalls, failed.Converged, runErr)
	}
}
