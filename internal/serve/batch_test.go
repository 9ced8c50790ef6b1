package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"loas/internal/sizing"
)

// TestBatchDedupExactSyntheses is the batch acceptance contract: a
// 50-item batch with k unique specs costs exactly k backend syntheses —
// duplicates replay from the cache or join the in-flight leader — and
// the report comes back in submission order.
func TestBatchDedupExactSyntheses(t *testing.T) {
	stub := &stubBackend{}
	s, ts := newStubServer(t, Config{}, stub)

	const n, k = 50, 4
	var b strings.Builder
	b.WriteString(`{"items":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"case":%d}`, 1+i%k)
	}
	b.WriteString(`]}`)

	resp, data := post(t, ts.URL+"/v1/batch", b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	// The report is never served from cache; the canonical batch key is
	// still echoed for workload correlation.
	if h := resp.Header.Get("X-Loas-Cache"); h != "none" {
		t.Fatalf("X-Loas-Cache = %q, want none", h)
	}
	var rep BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	if rep.Key == "" || rep.Key != resp.Header.Get("X-Loas-Key") {
		t.Fatalf("report key %q != header %q", rep.Key, resp.Header.Get("X-Loas-Key"))
	}
	if rep.Items != n || rep.Unique != k || rep.Errors != 0 || len(rep.Results) != n {
		t.Fatalf("report = items %d unique %d errors %d results %d, want %d/%d/0/%d",
			rep.Items, rep.Unique, rep.Errors, len(rep.Results), n, k, n)
	}

	if got := stub.calls.Load(); got != k {
		t.Fatalf("backend ran %d times for %d items with %d unique specs, want %d", got, n, k, k)
	}
	if st := s.Stats(); st.BackendRuns != k {
		t.Fatalf("stats backend runs = %d, want %d", st.BackendRuns, k)
	}

	// Submission order, one leader per unique key, duplicates reused.
	leaders := 0
	for i, r := range rep.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d (order lost)", i, r.Index)
		}
		if r.Case != 1+i%k || r.Key == "" || r.RunID == "" {
			t.Fatalf("result %d = %+v", i, r)
		}
		switch r.Outcome {
		case outcomeOK:
			leaders++
			if r.Cache != "miss" {
				t.Fatalf("leader %d cache = %q, want miss", i, r.Cache)
			}
		case outcomeCacheHit, outcomeDedup:
			if r.Cache != "hit" && r.Cache != "dedup" {
				t.Fatalf("follower %d cache = %q", i, r.Cache)
			}
		default:
			t.Fatalf("result %d outcome %q", i, r.Outcome)
		}
		if len(r.Summary) == 0 || r.Error != "" {
			t.Fatalf("result %d missing summary or has error: %+v", i, r)
		}
	}
	if leaders != k {
		t.Fatalf("%d leader (outcome ok) items, want exactly %d", leaders, k)
	}

	// Items sharing a key replayed the same bytes the leader produced.
	byKey := map[string][]byte{}
	for _, r := range rep.Results {
		if prev, ok := byKey[r.Key]; ok {
			if !bytes.Equal(prev, r.Summary) {
				t.Fatalf("key %s has diverging summaries", r.Key)
			}
			continue
		}
		byKey[r.Key] = r.Summary
	}
	if len(byKey) != k {
		t.Fatalf("%d distinct item keys, want %d", len(byKey), k)
	}
}

// TestBatchKeyOrderInvariance pins the canonical batch key: a multiset
// hash over item keys — shuffle-invariant, multiplicity-sensitive.
func TestBatchKeyOrderInvariance(t *testing.T) {
	a, b, c := "k-aaa", "k-bbb", "k-ccc"
	base := batchKey([]string{a, b, c})
	for _, perm := range [][]string{
		{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a},
	} {
		if batchKey(perm) != base {
			t.Fatalf("permutation %v changed the batch key", perm)
		}
	}
	if batchKey([]string{a, b}) == base {
		t.Fatal("dropping an item kept the batch key")
	}
	if batchKey([]string{a, a, b, c}) == base {
		t.Fatal("duplicating an item kept the batch key (multiplicity lost)")
	}
	if batchKey([]string{a, b, "k-ddd"}) == base {
		t.Fatal("swapping an item kept the batch key")
	}
}

// TestBatchShuffledItemsShareKey: over HTTP, the same workload in a
// different item order lands on the same X-Loas-Key and costs zero
// extra syntheses (every item is already cached).
func TestBatchShuffledItemsShareKey(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	r1, _ := post(t, ts.URL+"/v1/batch", `{"items":[{"case":1},{"case":2},{"case":1}]}`)
	r2, data := post(t, ts.URL+"/v1/batch", `{"items":[{"case":2},{"case":1},{"case":1}]}`)
	if k1, k2 := r1.Header.Get("X-Loas-Key"), r2.Header.Get("X-Loas-Key"); k1 == "" || k1 != k2 {
		t.Fatalf("shuffled batch keys %q vs %q, want equal", k1, k2)
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (rerun must be all cache hits)", got)
	}
	var rep BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if r.Outcome != outcomeCacheHit {
			t.Fatalf("rerun item %d outcome %q, want cache-hit", i, r.Outcome)
		}
	}
}

// TestBatchParentLinkedRuns: the batch is one parent run (kind=batch)
// and every item a child synthesize run carrying Parent, so
// /v1/runs?parent=<id> reassembles the batch.
func TestBatchParentLinkedRuns(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	_, data := post(t, ts.URL+"/v1/batch", `{"items":[{"case":1},{"case":2},{"case":1}]}`)
	var rep BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}

	var parents RunsReport
	getJSON(t, ts.URL+"/v1/runs?kind=batch", &parents)
	if len(parents.Runs) != 1 || parents.Runs[0].Kind != "batch" || parents.Runs[0].Outcome != outcomeOK {
		t.Fatalf("batch run listing = %+v", parents.Runs)
	}
	parent := parents.Runs[0].ID

	var kids RunsReport
	getJSON(t, ts.URL+"/v1/runs?parent="+parent, &kids)
	if len(kids.Runs) != 3 {
		t.Fatalf("children = %d, want 3: %+v", len(kids.Runs), kids.Runs)
	}
	childIDs := map[string]bool{}
	for _, r := range kids.Runs {
		if r.Kind != "synthesize" || r.Parent != parent {
			t.Fatalf("child = %+v, want synthesize with parent %s", r, parent)
		}
		childIDs[r.ID] = true
	}
	for i, r := range rep.Results {
		if !childIDs[r.RunID] {
			t.Fatalf("report item %d run %s missing from the parent filter", i, r.RunID)
		}
	}

	// The parent filter composes with the kind filter and excludes the
	// parent itself.
	var none RunsReport
	getJSON(t, ts.URL+"/v1/runs?parent="+parent+"&kind=batch", &none)
	if len(none.Runs) != 0 {
		t.Fatalf("parent+kind=batch = %+v, want empty", none.Runs)
	}
}

// TestBatchEventsStream: a subscriber sees batch-start (with the item
// and unique counts), one batch-item frame per item carrying the parent
// run ID, and a final batch-end.
func TestBatchEventsStream(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	frames, stop := sseClient(t, ts.URL)
	defer stop()

	post(t, ts.URL+"/v1/batch", `{"items":[{"case":1},{"case":1},{"case":2}]}`)

	var start batchStartEvent
	items := map[int]batchItemEvent{}
	var end batchEndEvent
	for end.ID == "" {
		f := nextFrame(t, frames)
		switch f.event {
		case "batch-start":
			if err := json.Unmarshal([]byte(f.data), &start); err != nil {
				t.Fatalf("batch-start payload %q: %v", f.data, err)
			}
		case "batch-item":
			var ev batchItemEvent
			if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
				t.Fatalf("batch-item payload %q: %v", f.data, err)
			}
			items[ev.Index] = ev
		case "batch-end":
			if err := json.Unmarshal([]byte(f.data), &end); err != nil {
				t.Fatalf("batch-end payload %q: %v", f.data, err)
			}
		}
	}
	if start.ID == "" || start.Kind != "batch" || start.Items != 3 || start.Unique != 2 {
		t.Fatalf("batch-start = %+v", start)
	}
	if len(items) != 3 {
		t.Fatalf("batch-item frames for indices %v, want 0..2", items)
	}
	for i := 0; i < 3; i++ {
		ev, ok := items[i]
		if !ok || ev.Parent != start.ID || ev.Outcome == "" {
			t.Fatalf("batch-item %d = %+v (parent %s)", i, ev, start.ID)
		}
	}
	if end.ID != start.ID || end.Outcome != outcomeOK || end.Items != 3 || end.Errors != 0 {
		t.Fatalf("batch-end = %+v", end)
	}
}

// TestBatchValidation: malformed batches are rejected up front — before
// any item reaches the backend — with errors naming the offending item.
func TestBatchValidation(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{BatchMaxItems: 2}, stub)
	for _, tc := range []struct{ body, wantIn string }{
		{`{"items":[]}`, "at least one item"},
		{`{}`, "at least one item"},
		{`{"items":[{},{},{}]}`, "3 items exceeds the 2-item bound"},
		{`{"items":[{"case":9}]}`, "item 0"},
		{`{"items":[{"case":1},{"topology":"no-such-ota"}]}`, "item 1"},
		{`not json`, ""},
	} {
		resp, data := post(t, ts.URL+"/v1/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.body, resp.StatusCode, data)
		}
		if tc.wantIn != "" && !strings.Contains(string(data), tc.wantIn) {
			t.Errorf("%s: error %s does not mention %q", tc.body, data, tc.wantIn)
		}
	}
	if stub.calls.Load() != 0 {
		t.Fatalf("invalid batches reached the backend %d times", stub.calls.Load())
	}
}

// caseFailingBackend fails any synthesis of one case, deterministically.
type caseFailingBackend struct {
	stubBackend
	failCase int
}

func (b *caseFailingBackend) Synthesize(ctx context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	if req.Case == b.failCase {
		b.calls.Add(1)
		return nil, fmt.Errorf("sizing: case %d is out of reach", req.Case)
	}
	return b.stubBackend.Synthesize(ctx, spec, req)
}

// TestBatchItemErrorIsReportData: one failing item does not fail the
// batch — HTTP stays 200, the failure is per-item report data, and the
// parent run records the error outcome.
func TestBatchItemErrorIsReportData(t *testing.T) {
	stub := &caseFailingBackend{failCase: 3}
	_, ts := newStubServer(t, Config{}, stub)

	resp, data := post(t, ts.URL+"/v1/batch", `{"items":[{"case":1},{"case":3},{"case":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rep BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 {
		t.Fatalf("report errors = %d, want 1", rep.Errors)
	}
	bad := rep.Results[1]
	if bad.Outcome != outcomeError || bad.Error == "" || len(bad.Summary) != 0 {
		t.Fatalf("failing item = %+v", bad)
	}
	for _, i := range []int{0, 2} {
		if r := rep.Results[i]; r.Error != "" || len(r.Summary) == 0 {
			t.Fatalf("healthy item %d = %+v", i, r)
		}
	}

	var parents RunsReport
	getJSON(t, ts.URL+"/v1/runs?kind=batch", &parents)
	if len(parents.Runs) != 1 || parents.Runs[0].Outcome != outcomeError {
		t.Fatalf("batch parent run = %+v, want outcome error", parents.Runs)
	}

	mbody := metricsBody(t, ts.URL)
	if !strings.Contains(mbody, "loas_batch_item_errors_total 1") {
		t.Fatalf("metrics missing item error counter:\n%s", mbody)
	}
}

// metricsBody fetches /metrics as text.
func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestBatchExploreMetrics: the batch/explore counters, the size and
// front histograms, and the queue saturation gauge are all exposed.
func TestBatchExploreMetrics(t *testing.T) {
	stub := &summaryBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	post(t, ts.URL+"/v1/batch", `{"items":[{"case":1},{"case":2}]}`)
	post(t, ts.URL+"/v1/explore", `{"axes":{"gbw":[4e7,6.5e7]},"case":1}`)

	out := metricsBody(t, ts.URL)
	for _, want := range []string{
		"loas_batch_requests_total 1",
		"loas_batch_items_total 2",
		"loas_batch_item_errors_total 0",
		"# TYPE loas_batch_size_items histogram",
		"loas_batch_size_items_count 1",
		"loas_explore_requests_total 1",
		"loas_explore_probe_runs_total 2",
		"# TYPE loas_explore_front_size histogram",
		"loas_explore_front_size_count 1",
		"# TYPE loas_queue_saturation gauge",
		"loas_queue_saturation 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
