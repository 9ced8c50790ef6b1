package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"loas/internal/core"
	"loas/internal/obs"
	"loas/internal/sizing"
)

// raceEnabled reports a race-detector build (race_test.go), whose
// instrumented runtime allocates differently: sync.Pool drops a share
// of what it is given, so pooled JSON encoders are rebuilt.
var raceEnabled bool

// allocPerRun reports the mean heap bytes and allocations of one call to
// f over runs calls, after a warm-up call, with one P so that nothing
// else allocates meanwhile.
func allocPerRun(runs int, f func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestSynthesizeHitAllocBudget pins what one POST /v1/synthesize cache
// hit allocates through the handler, with the run ledger on: the warm
// read path a busy daemon serves most. The budgets sit 1.05× above the
// measured values, rounded up — tighter than the 1.25× of the analyses'
// budgets, because a few hundred bytes per hit already move the
// daemon's allocation per request by several percent — so rendering SSE
// frames that no subscriber reads, a second copy of the run record, or
// hashing the cached body again for the record fails here.
func TestSynthesizeHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; ci.sh's allocation-budget lane runs this without it")
	}
	h := budgetHandler(t, &stubBackend{})
	w := &reusedWriter{hdr: http.Header{}}
	synthesize := func(want string) {
		w.serve(t, h, http.MethodPost, "/v1/synthesize", `{"case":3}`)
		if w.code != http.StatusOK || w.hdr.Get("X-Loas-Cache") != want {
			t.Fatalf("status %d, cache %q; want 200, %s", w.code, w.hdr.Get("X-Loas-Cache"), want)
		}
	}
	synthesize("miss")
	n, allocs := allocPerRun(200, func() { synthesize("hit") })
	const maxBytes, maxAllocs = 9592, 94 // measured 9,135 B in 89
	if n > maxBytes || allocs > maxAllocs {
		t.Fatalf("a synthesize hit allocates %.0f B in %.0f allocations, budget %d B in %d", n, allocs, maxBytes, maxAllocs)
	}
}

// fullSummaryBackend returns a canonical core.Summary whose every
// figure has full float64 precision: a body of a real synthesis's size.
type fullSummaryBackend struct {
	stubBackend
}

func (b *fullSummaryBackend) Synthesize(_ context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	perf := func(x float64) sizing.Performance {
		return sizing.Performance{DCGainDB: 70 + x/3, GBW: spec.GBW * (1 - x/7), PhaseDeg: spec.PM + x/11,
			SlewRate: 1e8 / (3 + x), CMRRDB: 90 - x/13, Offset: x * 1e-7 / 3, Rout: 1e7 / (7 + x),
			NoiseRMS: x * 1e-5 / 7, NoiseTh: x * 1e-8 / 9, NoiseFl1: x * 1e-6 / 11, Power: x * 1e-3 / 3}
	}
	return marshalJSON(core.Summary{Topology: req.Topology, Case: req.Case,
		Synthesized: perf(float64(req.Case)), Extracted: perf(float64(req.Case) + 0.5),
		LayoutCalls: 3, SizingPasses: 4, ElapsedMS: 1e3 / 7,
		WidthUM: 100 / 3.0, HeightUM: 200 / 7.0, AreaUM2: 2e4 / 21})
}

// TestBatchHitAllocBudget pins what one POST /v1/batch of six items,
// all cache hits, allocates through the handler with the run ledger on:
// seven run records, and a report that splices each item's canonical
// summary in without encoding it again. Its budgets sit 1.05× above the
// measured values, rounded up, like the synthesize hit's, so a report
// that scans its summaries again (marshalJSON over the whole report)
// fails here.
func TestBatchHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; ci.sh's allocation-budget lane runs this without it")
	}
	h := budgetHandler(t, &fullSummaryBackend{})
	w := &reusedWriter{hdr: http.Header{}}
	const body = `{"items":[{"case":1},{"case":2},{"case":3},{"case":4},{"case":1,"topology":"five-t"},{"case":4,"topology":"two-stage"}]}`
	batch := func(want []byte) {
		w.serve(t, h, http.MethodPost, "/v1/batch", body)
		if w.code != http.StatusOK || !bytes.Contains(w.body, want) {
			t.Fatalf("status %d, body %s; want 200 and %s", w.code, w.body, want)
		}
	}
	batch([]byte(`"cache": "miss"`))
	hit := []byte(`"cache": "hit"`)
	n, allocs := allocPerRun(200, func() { batch(hit) })
	const maxBytes, maxAllocs = 77948, 564 // measured 74,236 B in 537
	if n > maxBytes || allocs > maxAllocs {
		t.Fatalf("a batch of six hits allocates %.0f B in %.0f allocations, budget %d B in %d", n, allocs, maxBytes, maxAllocs)
	}
}

// TestRunsReadAllocBudget pins what one GET /v1/runs?limit=20 over a
// full store of maxRuns records allocates, with the run ledger on: the
// twenty summaries it returns, not the store. Its budgets sit 1.05×
// above the measured values, rounded up, so a read that copies or sorts
// the store fails here.
func TestRunsReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; ci.sh's allocation-budget lane runs this without it")
	}
	h := budgetHandler(t, &stubBackend{})
	w := &reusedWriter{hdr: http.Header{}}
	for i := 0; i < maxRuns; i++ {
		w.serve(t, h, http.MethodPost, "/v1/synthesize", `{"case":3}`)
	}
	var rep RunsReport
	read := func() {
		w.serve(t, h, http.MethodGet, "/v1/runs?limit=20", "")
		if w.code != http.StatusOK {
			t.Fatalf("status %d, body %s", w.code, w.body)
		}
	}
	read()
	if err := json.Unmarshal(w.body, &rep); err != nil || rep.Total != maxRuns || len(rep.Runs) != 20 {
		t.Fatalf("runs report: total %d, %d runs, error %v; want %d, 20", rep.Total, len(rep.Runs), err, maxRuns)
	}
	n, allocs := allocPerRun(200, read)
	const maxBytes, maxAllocs = 22045, 17 // measured 20,995 B in 16
	if n > maxBytes || allocs > maxAllocs {
		t.Fatalf("a runs read allocates %.0f B in %.0f allocations, budget %d B in %d", n, allocs, maxBytes, maxAllocs)
	}
}

// budgetHandler is the handler of a server over backend b with its run
// ledger on, closed when the test ends.
func budgetHandler(t *testing.T, b Backend) http.Handler {
	t.Helper()
	ledger, err := obs.OpenLedger(filepath.Join(t.TempDir(), "runs.jsonl"), obs.LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: b, Ledger: ledger})
	t.Cleanup(func() {
		s.Close()
		ledger.Close()
	})
	return s.Handler()
}

// reusedWriter is a ResponseWriter that keeps its header map and body
// buffer across requests, so a measured request pays for the handler's
// allocations only.
type reusedWriter struct {
	hdr  http.Header
	code int
	body []byte
}

// serve sends one request through h, after clearing what the previous
// one wrote.
func (w *reusedWriter) serve(t *testing.T, h http.Handler, method, url, body string) {
	t.Helper()
	clear(w.hdr)
	w.code, w.body = 0, w.body[:0]
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	h.ServeHTTP(w, req)
}

func (w *reusedWriter) Header() http.Header { return w.hdr }

func (w *reusedWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusedWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}
