package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loas/internal/obs"
)

// TestEndToEndDaemon boots the real daemon (real backend, real
// synthesis engine) on an ephemeral port and exercises the acceptance
// path: two identical /v1/table1 requests (second must be a cache hit
// with byte-identical JSON), one /v1/mc, one /v1/layout.svg, then a
// graceful shutdown with a request still in flight.
func TestEndToEndDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test runs real synthesis")
	}
	srv := New(Config{})
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	postRaw := func(path, body string) (*http.Response, []byte, error) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp, data, err
	}
	mustPost := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, data, err := postRaw(path, body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, data)
		}
		return resp, data
	}

	// Two identical table1 requests: cold then byte-identical cache hit.
	r1, b1 := mustPost("/v1/table1", "")
	if h := r1.Header.Get("X-Loas-Cache"); h != "miss" {
		t.Fatalf("first table1 X-Loas-Cache = %q, want miss", h)
	}
	var rep struct {
		Rows []struct {
			Case   int `json:"case"`
			Result struct {
				LayoutCalls int `json:"layout_calls"`
			} `json:"result"`
		} `json:"rows"`
		ShapeViolations []string `json:"shape_violations"`
	}
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatalf("table1 response is not valid JSON: %v", err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("table1 rows = %d, want 4", len(rep.Rows))
	}
	if len(rep.ShapeViolations) != 0 {
		t.Fatalf("table1 shape violations over HTTP: %v", rep.ShapeViolations)
	}

	r2, b2 := mustPost("/v1/table1", "")
	if h := r2.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("second table1 X-Loas-Cache = %q, want hit", h)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache hit is not byte-identical to the cold response")
	}

	// The hit must be visible in /stats.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Cache.Hits < 1 {
		t.Fatalf("stats cache hits = %d, want >= 1 after the repeated table1", st.Cache.Hits)
	}

	// Monte-Carlo over HTTP.
	_, mcBody := mustPost("/v1/mc", `{"n":2,"seed":7}`)
	var mcRep MCReport
	if err := json.Unmarshal(mcBody, &mcRep); err != nil {
		t.Fatalf("mc response: %v", err)
	}
	if mcRep.Stats.N+mcRep.Stats.Failures != 2 {
		t.Fatalf("mc samples = %d + %d failures, want 2 total", mcRep.Stats.N, mcRep.Stats.Failures)
	}
	if mcRep.AnalyticSigmaV <= 0 {
		t.Fatal("mc analytic estimate missing")
	}

	// Case-4 converged layout as SVG.
	resp, err = http.Get(base + "/v1/layout.svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("layout.svg: status %d, err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("layout.svg content type %q", ct)
	}
	if !bytes.HasPrefix(svg, []byte("<svg")) || !bytes.Contains(svg, []byte("</svg>")) {
		t.Fatalf("layout.svg is not an SVG document (%d bytes)", len(svg))
	}

	// Graceful shutdown with a request in flight: launch a cold
	// synthesis, wait for it to reach the backend, then Shutdown — the
	// request must still complete with 200.
	type result struct {
		status int
		err    error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, data, err := postRaw("/v1/synthesize", `{"case":1}`)
		if err != nil {
			inFlight <- result{0, err}
			return
		}
		_ = data
		inFlight <- result{resp.StatusCode, nil}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().BackendRuns < 4 { // table1, mc, layout already ran; wait for the 4th to start
		if time.Now().After(deadline) {
			t.Fatal("in-flight synthesize never reached the backend")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown did not drain: %v", err)
	}
	srv.Close()

	got := <-inFlight
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: status %d, err %v", got.status, got.err)
	}
}

// TestEndToEndLedgerDaemon is the run-history acceptance path: a real
// daemon with a ledger serves one cold synthesize, one cache hit and
// one Monte-Carlo run; /v1/runs labels all three correctly, the cold
// run's span tree is internally consistent down to the per-iteration
// phases, /v1/events streamed every run-end live, and a restart on the
// same ledger file replays the history and continues the sequence.
func TestEndToEndLedgerDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end ledger test runs real synthesis")
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	ledger, err := obs.OpenLedger(path, obs.LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Ledger: ledger})
	ts := httptest.NewServer(srv.Handler())

	frames, stopSSE := sseClient(t, ts.URL)

	mustPost := func(base, p, body string) {
		t.Helper()
		resp, data := post(t, base+p, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", p, resp.StatusCode, data)
		}
	}
	mustPost(ts.URL, "/v1/synthesize", `{"case":4,"skip_verify":true}`) // cold
	mustPost(ts.URL, "/v1/synthesize", `{"case":4,"skip_verify":true}`) // byte replay
	mustPost(ts.URL, "/v1/mc", `{"n":2,"seed":7}`)

	// The subscriber connected before any run: it must have seen every
	// run-end live, with the outcome the listing will also report.
	endOutcomes := map[string]string{}
	for len(endOutcomes) < 3 {
		f := nextFrame(t, frames)
		if f.event != "run-end" {
			continue
		}
		var v struct {
			ID      string `json:"id"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal([]byte(f.data), &v); err != nil {
			t.Fatalf("run-end payload %q: %v", f.data, err)
		}
		endOutcomes[v.ID] = v.Outcome
	}
	stopSSE()
	wantOutcomes := map[string]string{
		"run-000001": "ok", "run-000002": "cache-hit", "run-000003": "ok",
	}
	for id, want := range wantOutcomes {
		if endOutcomes[id] != want {
			t.Fatalf("SSE outcomes = %v, want %v", endOutcomes, wantOutcomes)
		}
	}

	var rep RunsReport
	getJSON(t, ts.URL+"/v1/runs", &rep)
	if rep.Total != 3 || len(rep.Runs) != 3 {
		t.Fatalf("runs = %d/%d, want 3/3", rep.Total, len(rep.Runs))
	}
	// Newest first: mc, replay, cold.
	if rep.Runs[0].Kind != "mc" || rep.Runs[0].Outcome != "ok" ||
		rep.Runs[1].Kind != "synthesize" || rep.Runs[1].Outcome != "cache-hit" ||
		rep.Runs[2].Kind != "synthesize" || rep.Runs[2].Outcome != "ok" {
		t.Fatalf("run listing = %+v", rep.Runs)
	}
	if !rep.Runs[2].Converged || rep.Runs[2].Iterations < 2 {
		t.Fatalf("cold synthesize summary = %+v", rep.Runs[2])
	}

	// The cold run's span tree: every lifecycle phase present, children
	// nested inside their parents, sums consistent.
	var rec obs.RunRecord
	getJSON(t, ts.URL+"/v1/runs/run-000001", &rec)
	byID := map[int]obs.SpanRecord{}
	children := map[int][]obs.SpanRecord{}
	names := map[string]int{}
	for _, sp := range rec.Spans {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
		names[sp.Name]++
	}
	for _, want := range []string{"request", "queue-wait", "cache-lookup",
		"synthesize", "iteration", "sizing", "layout-extract"} {
		if names[want] == 0 {
			t.Fatalf("span tree missing %q: %v", names, rec.Spans)
		}
	}
	if names["iteration"] != rec.LayoutCalls || len(rec.Iterations) != rec.LayoutCalls {
		t.Fatalf("iteration spans = %d, trace rows = %d, layout calls = %d",
			names["iteration"], len(rec.Iterations), rec.LayoutCalls)
	}
	roots := children[0]
	if len(roots) != 1 || roots[0].Name != "request" {
		t.Fatalf("root spans = %+v", roots)
	}
	root := roots[0]
	if root.DurationNS <= 0 || rec.DurationNS < root.DurationNS {
		t.Fatalf("record %dns < root span %dns", rec.DurationNS, root.DurationNS)
	}
	for parent, kids := range children {
		if parent == 0 {
			continue
		}
		p := byID[parent]
		var sum int64
		for _, k := range kids {
			if k.StartNS < p.StartNS || k.StartNS+k.DurationNS > p.StartNS+p.DurationNS {
				t.Fatalf("span %s [%d,+%d] escapes parent %s [%d,+%d]",
					k.Name, k.StartNS, k.DurationNS, p.Name, p.StartNS, p.DurationNS)
			}
			sum += k.DurationNS
		}
		if sum > p.DurationNS {
			t.Fatalf("children of %s sum to %dns > parent %dns", p.Name, sum, p.DurationNS)
		}
	}

	// Restart on the same ledger: history replays, sequence continues.
	ts.Close()
	srv.Close()
	ledger.Close()
	ledger2, err := obs.OpenLedger(path, obs.LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Ledger: ledger2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { ts2.Close(); srv2.Close(); ledger2.Close() }()

	var rep2 RunsReport
	getJSON(t, ts2.URL+"/v1/runs", &rep2)
	if rep2.Total != 3 || rep2.Runs[0].ID != "run-000003" {
		t.Fatalf("after restart runs = %+v", rep2)
	}
	var replayed obs.RunRecord
	getJSON(t, ts2.URL+"/v1/runs/run-000001", &replayed)
	if len(replayed.Spans) != len(rec.Spans) || replayed.Outcome != "ok" {
		t.Fatalf("replayed record lost detail: %d spans vs %d", len(replayed.Spans), len(rec.Spans))
	}
	mustPost(ts2.URL, "/v1/mc", `{"n":3,"seed":7}`)
	getJSON(t, ts2.URL+"/v1/runs", &rep2)
	if rep2.Total != 4 || rep2.Runs[0].ID != "run-000004" {
		t.Fatalf("sequence did not continue after restart: %+v", rep2.Runs)
	}
}

// TestEndToEndBatchDedup is the batch acceptance path on the real
// engine: a 50-item batch with 3 unique specs costs exactly 3 real
// syntheses, streams one batch-item frame per item, and links every
// child run to the batch parent.
func TestEndToEndBatchDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end batch test runs real synthesis")
	}
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	frames, stopSSE := sseClient(t, ts.URL)
	defer stopSSE()

	// 50 items over 3 unique specs (skip_verify keeps each synthesis
	// one-pass; dedup is what's under test here).
	const n, k = 50, 3
	var b strings.Builder
	b.WriteString(`{"items":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"case":%d,"skip_verify":true}`, 1+i%k)
	}
	b.WriteString(`]}`)

	resp, data := post(t, ts.URL+"/v1/batch", b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var rep BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Items != n || rep.Unique != k || rep.Errors != 0 {
		t.Fatalf("report = %d items, %d unique, %d errors; want %d/%d/0",
			rep.Items, rep.Unique, rep.Errors, n, k)
	}
	if st := srv.Stats(); st.BackendRuns != k {
		t.Fatalf("real backend ran %d times for %d unique specs, want exactly %d",
			st.BackendRuns, k, k)
	}
	for i, r := range rep.Results {
		if r.Index != i || len(r.Summary) == 0 {
			t.Fatalf("result %d = %+v", i, r)
		}
		var sum struct {
			LayoutCalls int `json:"layout_calls"`
		}
		if err := json.Unmarshal(r.Summary, &sum); err != nil || sum.LayoutCalls < 1 {
			t.Fatalf("result %d summary not a synthesis summary: %v %s", i, err, r.Summary)
		}
	}

	// The SSE feed narrated every item under the batch parent.
	itemFrames := 0
	for {
		f := nextFrame(t, frames)
		if f.event == "batch-item" {
			itemFrames++
		}
		if f.event == "batch-end" {
			break
		}
	}
	if itemFrames != n {
		t.Fatalf("saw %d batch-item frames, want %d", itemFrames, n)
	}

	var parents, kids RunsReport
	getJSON(t, ts.URL+"/v1/runs?kind=batch", &parents)
	if len(parents.Runs) != 1 {
		t.Fatalf("batch runs = %+v", parents.Runs)
	}
	getJSON(t, ts.URL+"/v1/runs?parent="+parents.Runs[0].ID+"&limit=100", &kids)
	if len(kids.Runs) != n {
		t.Fatalf("children = %d, want %d", len(kids.Runs), n)
	}
}

// TestEndToEndExploreGolden pins the exploration report of the real
// engine to a golden file: the report must be byte-identical on every
// rerun and at every worker count — the determinism half of the
// acceptance criteria. Refresh with LOAS_UPDATE_GOLDEN=1.
func TestEndToEndExploreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end explore test runs real synthesis")
	}
	const body = `{"axes":{"gbw":[4e7,6.5e7]},"case":1}`
	golden := filepath.Join("testdata", "explore_golden.json")

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	resp, got := post(t, ts.URL+"/v1/explore", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status %d: %s", resp.StatusCode, got)
	}

	if os.Getenv("LOAS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with LOAS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("explore report drifted from %s:\ngot:  %s\nwant: %s", golden, got, want)
	}

	// The same exploration on a single-worker daemon reproduces the
	// golden bytes exactly.
	srv1 := New(Config{Workers: 1})
	ts1 := httptest.NewServer(srv1.Handler())
	defer func() { ts1.Close(); srv1.Close() }()
	_, got1 := post(t, ts1.URL+"/v1/explore", body)
	if !bytes.Equal(got1, want) {
		t.Fatalf("1-worker report differs from golden:\ngot:  %s\nwant: %s", got1, want)
	}

	// Sanity on the pinned content: two feasible probes of the default
	// topology and a non-empty front.
	var rep ExploreReport
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Probes != 2 ||
		rep.Results[0].Infeasible != 0 || len(rep.Results[0].Front) == 0 {
		t.Fatalf("golden content unexpected: %+v", rep.Results)
	}
}

// TestEndToEndRefineDaemon is the closed-loop acceptance path over
// HTTP: a refined request runs the outer loop on the real engine, the
// ledger record carries round-tagged iterations under refine-round
// spans, the SSE feed streams an iteration event per round live, the
// identical request replays from cache, and the unrefined spelling of
// the same case keys (and runs) separately.
func TestEndToEndRefineDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end refine test runs real synthesis")
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	ledger, err := obs.OpenLedger(path, obs.LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Ledger: ledger})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close(); ledger.Close() }()

	frames, stopSSE := sseClient(t, ts.URL)

	const refineBody = `{"case":1,"refine":true,"refine_max_rounds":2}`
	r1, b1 := post(t, ts.URL+"/v1/synthesize", refineBody)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("refined synthesize: status %d: %s", r1.StatusCode, b1)
	}
	if h := r1.Header.Get("X-Loas-Cache"); h != "miss" {
		t.Fatalf("cold refined run X-Loas-Cache = %q, want miss", h)
	}
	refKey := r1.Header.Get("X-Loas-Key")

	var sum struct {
		Refine *struct {
			MaxRounds int `json:"max_rounds"`
			BestRound int `json:"best_round"`
			Rounds    []struct {
				Round   int  `json:"round"`
				Met     bool `json:"met"`
				Corners []struct {
					Corner string `json:"corner"`
				} `json:"corners"`
			} `json:"rounds"`
		} `json:"refine"`
	}
	if err := json.Unmarshal(b1, &sum); err != nil {
		t.Fatalf("refined summary: %v", err)
	}
	if sum.Refine == nil || sum.Refine.MaxRounds != 2 || len(sum.Refine.Rounds) != 2 {
		t.Fatalf("refined summary report = %+v", sum.Refine)
	}
	for i, rr := range sum.Refine.Rounds {
		if rr.Round != i+1 || len(rr.Corners) != 5 {
			t.Fatalf("round %d malformed: %+v", i+1, rr)
		}
	}

	// Identical request: byte replay from cache under the same key.
	r2, b2 := post(t, ts.URL+"/v1/synthesize", refineBody)
	if h := r2.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("repeat refined run X-Loas-Cache = %q, want hit", h)
	}
	if r2.Header.Get("X-Loas-Key") != refKey || !bytes.Equal(b1, b2) {
		t.Fatal("refined cache hit is not a byte replay under the same key")
	}

	// The unrefined spelling of the same case is a distinct cache entry.
	r3, b3 := post(t, ts.URL+"/v1/synthesize", `{"case":1}`)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("unrefined synthesize: status %d: %s", r3.StatusCode, b3)
	}
	if h := r3.Header.Get("X-Loas-Cache"); h != "miss" {
		t.Fatalf("unrefined run X-Loas-Cache = %q, want miss (must not share the refined entry)", h)
	}
	if r3.Header.Get("X-Loas-Key") == refKey {
		t.Fatal("unrefined request produced the refined cache key")
	}
	if bytes.Contains(b3, []byte(`"refine"`)) {
		t.Fatalf("unrefined response leaks a refine report: %s", b3)
	}

	// Refinement without extracted verification is rejected up front.
	rBad, bBad := post(t, ts.URL+"/v1/synthesize", `{"case":1,"refine":true,"skip_verify":true}`)
	if rBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("refine+skip_verify: status %d (%s), want 400", rBad.StatusCode, bBad)
	}

	// The ledger record of the cold refined run: iterations tagged with
	// their outer round, one refine-round span per round, each with a
	// corner-sweep child.
	var rec obs.RunRecord
	getJSON(t, ts.URL+"/v1/runs/run-000001", &rec)
	rounds := map[int]int{}
	for _, it := range rec.Iterations {
		rounds[it.Round]++
	}
	if len(rounds) != 2 || rounds[1] == 0 || rounds[2] == 0 {
		t.Fatalf("ledger iterations not tagged with rounds 1..2: %v", rounds)
	}
	byID := map[int]obs.SpanRecord{}
	for _, sp := range rec.Spans {
		byID[sp.ID] = sp
	}
	refineSpans, sweeps := 0, 0
	for _, sp := range rec.Spans {
		switch sp.Name {
		case "refine-round":
			refineSpans++
		case "corner-sweep":
			sweeps++
			if byID[sp.Parent].Name != "refine-round" {
				t.Fatalf("corner-sweep parented by %q", byID[sp.Parent].Name)
			}
		}
	}
	if refineSpans != 2 || sweeps != 2 {
		t.Fatalf("span tree has %d refine-round / %d corner-sweep spans, want 2/2", refineSpans, sweeps)
	}

	// The SSE feed streamed the outer loop live: at least one iteration
	// event per round of the cold run, then its run-end.
	seenRounds := map[int]bool{}
	for {
		f := nextFrame(t, frames)
		if f.event == "iteration" {
			var it struct {
				RunID string `json:"run_id"`
				Round int    `json:"round"`
			}
			if err := json.Unmarshal([]byte(f.data), &it); err != nil {
				t.Fatalf("iteration payload %q: %v", f.data, err)
			}
			if it.RunID == "run-000001" {
				seenRounds[it.Round] = true
			}
			continue
		}
		if f.event == "run-end" {
			var v struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal([]byte(f.data), &v); err != nil {
				t.Fatalf("run-end payload %q: %v", f.data, err)
			}
			if v.ID == "run-000001" {
				break
			}
		}
	}
	stopSSE()
	if !seenRounds[1] || !seenRounds[2] {
		t.Fatalf("SSE iteration events missing rounds: %v", seenRounds)
	}
}
