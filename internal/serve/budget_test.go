package serve

import (
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"loas/internal/obs"
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
// measured values — tighter than the 1.25× of the analyses' budgets,
// because a few hundred bytes per hit already move the daemon's
// allocation per request by several percent — so rendering SSE frames
// that no subscriber reads, or a second copy of the run record, fails
// here.
func TestSynthesizeHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; ci.sh's allocation-budget lane runs this without it")
	}
	ledger, err := obs.OpenLedger(filepath.Join(t.TempDir(), "runs.jsonl"), obs.LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ledger.Close()
	s := New(Config{Backend: &stubBackend{}, Ledger: ledger})
	defer s.Close()
	h := s.Handler()
	w := &reusedWriter{hdr: http.Header{}}
	synthesize := func(want string) {
		clear(w.hdr)
		w.code, w.body = 0, w.body[:0]
		req, err := http.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(`{"case":3}`))
		if err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.hdr.Get("X-Loas-Cache") != want {
			t.Fatalf("status %d, cache %q; want 200, %s", w.code, w.hdr.Get("X-Loas-Cache"), want)
		}
	}
	synthesize("miss")
	bytes, allocs := allocPerRun(200, func() { synthesize("hit") })
	const maxBytes, maxAllocs = 9700, 95 // measured 9,241 B in 91
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("a synthesize hit allocates %.0f B in %.0f allocations, budget %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// reusedWriter is a ResponseWriter that keeps its header map and body
// buffer across requests, so a measured request pays for the handler's
// allocations only.
type reusedWriter struct {
	hdr  http.Header
	code int
	body []byte
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
