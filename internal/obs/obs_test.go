package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestTraceNilSafe: a nil run is a no-op recorder, so the engine
// records into whatever run its context carries.
func TestTraceNilSafe(t *testing.T) {
	var r *Run
	r.Record(Iteration{Call: 1}) // must not panic
	if r.Iterations() != nil || r.Root() != nil {
		t.Fatal("nil run should report no iterations and no root span")
	}
	r.Root().Child("x").End() // the nil root is a no-op span
}

func TestTraceRecordsInOrder(t *testing.T) {
	r := StartRun(RunRecord{Kind: "synthesize"}, nil)
	for i := 1; i <= 3; i++ {
		r.Record(Iteration{Call: i, DeltaF: float64(i)})
	}
	got := r.Iterations()
	if len(got) != 3 {
		t.Fatalf("expected 3 iterations, got %d", len(got))
	}
	for i, it := range got {
		if it.Call != i+1 {
			t.Fatalf("iteration %d out of order: call %d", i, it.Call)
		}
	}
	// The returned slice is a copy: mutating it must not affect the run.
	got[0].Call = 99
	if r.Iterations()[0].Call != 1 {
		t.Fatal("Iterations must return a copy")
	}
}

func TestTraceConcurrentRecord(t *testing.T) {
	r := StartRun(RunRecord{Kind: "table1"}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Iteration{Call: i})
			}
		}()
	}
	wg.Wait()
	if n := len(r.Iterations()); n != 800 {
		t.Fatalf("lost records: %d of 800", n)
	}
}

// TestRunFinish: Finish fills in how the run ended over its identity —
// outcome, error, duration, converged and layout_calls from the
// recorded iterations, the body's size and digest as given, the span
// tree — and returns a copy that a job still recording into the run
// cannot change.
func TestRunFinish(t *testing.T) {
	id := RunRecord{ID: "run-000007", Seq: 7, Source: "cli", Kind: "synthesize",
		Topology: "five-t", Layout: "rows", Case: 4, CacheKey: "k"}
	r := StartRun(id, nil)
	r.Root().Child("synthesize").End()
	r.Record(Iteration{Call: 1, DeltaF: -1})
	r.Record(Iteration{Call: 2, DeltaF: ConvergeTolF / 2})
	const sha = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" // SHA-256("abc")
	rec := r.Finish("ok", nil, 3, sha)
	r.Record(Iteration{Call: 3, DeltaF: -1}) // an abandoned job, after the fact

	if len(rec.Spans) != 2 || rec.Spans[0].Name != "request" || rec.Spans[0].Attrs["case"] != "4" ||
		rec.Spans[0].Attrs["layout"] != "rows" || rec.Spans[1].Parent != rec.Spans[0].ID {
		t.Fatalf("span tree = %+v", rec.Spans)
	}
	if rec.ID != id.ID || rec.Seq != id.Seq || rec.Source != "cli" || rec.Layout != "rows" || rec.CacheKey != "k" {
		t.Fatalf("identity lost: %+v", rec)
	}
	if rec.Outcome != "ok" || rec.Error != "" || rec.DurationNS != rec.Spans[0].DurationNS {
		t.Fatalf("outcome %q, error %q, duration %d (root span %d)",
			rec.Outcome, rec.Error, rec.DurationNS, rec.Spans[0].DurationNS)
	}
	if !rec.Converged || rec.LayoutCalls != 2 || len(rec.Iterations) != 2 {
		t.Fatalf("converged %v, layout calls %d, %d iterations; want true, 2, 2",
			rec.Converged, rec.LayoutCalls, len(rec.Iterations))
	}
	if rec.Bytes != 3 || rec.BodySHA256 != sha {
		t.Fatalf("bytes %d, sha %s", rec.Bytes, rec.BodySHA256)
	}
	failed := StartRun(id, nil).Finish("error", errors.New("boom"), 0, "")
	if failed.Error != "boom" || failed.Bytes != 0 || failed.BodySHA256 != "" || failed.Converged {
		t.Fatalf("failed record = %+v", failed)
	}
}

func TestConvergenceTableRendering(t *testing.T) {
	iters := []Iteration{
		{Call: 1, DeltaF: -1, OutCapF: 100e-15, FN1CapF: 50e-15, W1: 140e-6, Lc: 1e-6, Itail: 300e-6, Folds: 20},
		{Call: 2, DeltaF: 12e-15, OutCapF: 110e-15, FN1CapF: 55e-15, W1: 141e-6, Lc: 1.1e-6, Itail: 310e-6, Folds: 20},
	}
	txt := ConvergenceTable(iters)
	for _, want := range []string{"call", "Δ(fF)", "—", "12.00", "folds"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("table missing %q:\n%s", want, txt)
		}
	}
}

func TestConverged(t *testing.T) {
	tol := 1e-15
	cases := []struct {
		name  string
		iters []Iteration
		want  bool
	}{
		{"empty", nil, false},
		{"single call has no delta", []Iteration{{Call: 1, DeltaF: -1}}, false},
		{"fixpoint", []Iteration{{Call: 1, DeltaF: -1}, {Call: 2, DeltaF: 1e-16}}, true},
		{"still moving", []Iteration{{Call: 1, DeltaF: -1}, {Call: 2, DeltaF: 5e-15}}, false},
	}
	for _, c := range cases {
		if got := Converged(c.iters, tol); got != c.want {
			t.Errorf("%s: Converged = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+50; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	r := NewRegistry()
	r.Histogram("lat", "latency", []float64{0.1, 1, 10})
	// Re-registering returns the same instance.
	if r.Histogram("lat", "", nil) != r.Histogram("lat", "", nil) {
		t.Fatal("histogram registration not idempotent")
	}
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 50} {
		r.Histogram("lat", "", nil).Observe(v)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: ≤0.1 → 2 (0.05 and the boundary 0.1), ≤1 → 3,
	// ≤10 → 4, +Inf → 5.
	for _, want := range []string{
		`lat_bucket{le="0.1"} 2`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first").Inc()
	r.GaugeFunc("depth", "queue depth", func() float64 { return 3.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Sorted by name, typed, with help lines.
	ia, ib := strings.Index(out, "a_total 1"), strings.Index(out, "b_total 2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters missing or unsorted:\n%s", out)
	}
	for _, want := range []string{
		"# HELP a_total first",
		"# TYPE a_total counter",
		"# TYPE depth gauge",
		"depth 3.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Histogram("x", "", nil)
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 4000 {
		t.Fatalf("sum = %g, want 4000", h.Sum())
	}
}
