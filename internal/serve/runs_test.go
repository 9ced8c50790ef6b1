package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"loas/internal/obs"
	"loas/internal/sizing"
)

// tracingStub is a stubBackend that also records its canned iterations
// into the run the server hands down via ctx — the behaviour the real
// engine has through core.Options.Ctx.
type tracingStub struct {
	stubBackend
}

func (b *tracingStub) Synthesize(ctx context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	run := obs.RunFromContext(ctx)
	for _, it := range stubIterations {
		run.Record(it)
	}
	return b.stubBackend.Synthesize(ctx, spec, req)
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestRunsLifecycle pins the outcome labels of the three paths through
// respond: a cold run is "ok", its replay is "cache-hit", and every
// completed request shows up on /v1/runs newest first.
func TestRunsLifecycle(t *testing.T) {
	stub := &tracingStub{}
	_, ts := newStubServer(t, Config{}, stub)

	post(t, ts.URL+"/v1/synthesize", `{"case":2}`) // cold → ok
	post(t, ts.URL+"/v1/synthesize", `{"case":2}`) // replay → cache-hit
	post(t, ts.URL+"/v1/mc", `{"n":4}`)            // cold → ok

	var rep RunsReport
	getJSON(t, ts.URL+"/v1/runs", &rep)
	if rep.Total != 3 || len(rep.Runs) != 3 {
		t.Fatalf("runs = %d/%d, want 3/3", len(rep.Runs), rep.Total)
	}
	// Newest first: mc(ok), synthesize(cache-hit), synthesize(ok).
	wants := []struct{ kind, outcome string }{
		{"mc", "ok"}, {"synthesize", "cache-hit"}, {"synthesize", "ok"},
	}
	for i, w := range wants {
		r := rep.Runs[i]
		if r.Kind != w.kind || r.Outcome != w.outcome {
			t.Fatalf("run %d = %s/%s, want %s/%s", i, r.Kind, r.Outcome, w.kind, w.outcome)
		}
		if r.ID != fmt.Sprintf("run-%06d", r.Seq) {
			t.Fatalf("run %d id %q does not match seq %d", i, r.ID, r.Seq)
		}
	}
	// The cold synthesize recorded the live iterations; the cache hit
	// replayed bytes and recorded none.
	if rep.Runs[2].Iterations != len(stubIterations) || !rep.Runs[2].Converged {
		t.Fatalf("cold run summary = %+v, want %d iterations, converged", rep.Runs[2], len(stubIterations))
	}
	if rep.Runs[1].Iterations != 0 || rep.Runs[1].Converged {
		t.Fatalf("cache-hit summary = %+v, want no iterations", rep.Runs[1])
	}
}

// TestRunByIDSpanTree: GET /v1/runs/{id} returns the full span tree —
// request → cache-lookup + queue-wait + synthesize — with the phase
// durations summing to no more than the root.
func TestRunByIDSpanTree(t *testing.T) {
	stub := &tracingStub{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/synthesize", `{}`)

	var rep RunsReport
	getJSON(t, ts.URL+"/v1/runs", &rep)
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	var rec obs.RunRecord
	getJSON(t, ts.URL+"/v1/runs/"+rep.Runs[0].ID, &rec)

	if rec.Outcome != "ok" || rec.Kind != "synthesize" {
		t.Fatalf("record = %s/%s", rec.Kind, rec.Outcome)
	}
	if len(rec.Iterations) != len(stubIterations) {
		t.Fatalf("iterations = %d, want %d", len(rec.Iterations), len(stubIterations))
	}
	byName := map[string]obs.SpanRecord{}
	var root obs.SpanRecord
	for _, s := range rec.Spans {
		byName[s.Name] = s
		if s.Parent == 0 {
			root = s
		}
	}
	for _, name := range []string{"request", "cache-lookup", "queue-wait", "synthesize"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from tree %v", name, rec.Spans)
		}
	}
	if root.Name != "request" {
		t.Fatalf("root span = %q, want request", root.Name)
	}
	var childSum int64
	for _, name := range []string{"cache-lookup", "queue-wait", "synthesize"} {
		s := byName[name]
		if s.Parent != root.ID {
			t.Fatalf("span %q parent = %d, want root %d", name, s.Parent, root.ID)
		}
		if s.DurationNS < 0 {
			t.Fatalf("span %q has negative duration", name)
		}
		childSum += s.DurationNS
	}
	if childSum > root.DurationNS {
		t.Fatalf("phase durations (%d ns) exceed the request span (%d ns)",
			childSum, root.DurationNS)
	}
	if rec.DurationNS < root.DurationNS {
		t.Fatalf("record duration %d ns below root span %d ns", rec.DurationNS, root.DurationNS)
	}

	// Unknown run IDs are 404.
	if resp := getJSON(t, ts.URL+"/v1/runs/run-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status %d, want 404", resp.StatusCode)
	}
}

// TestRunsFilters exercises the /v1/runs query surface: kind, outcome,
// converged, min_duration, limit, and the 400s for malformed values.
func TestRunsFilters(t *testing.T) {
	stub := &tracingStub{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/synthesize", `{"case":1}`)
	post(t, ts.URL+"/v1/synthesize", `{"case":1}`) // cache-hit
	post(t, ts.URL+"/v1/mc", `{"n":4}`)            // mc: no iterations → not converged

	fetch := func(query string) RunsReport {
		t.Helper()
		var rep RunsReport
		getJSON(t, ts.URL+"/v1/runs"+query, &rep)
		return rep
	}
	if rep := fetch("?kind=mc"); len(rep.Runs) != 1 || rep.Runs[0].Kind != "mc" {
		t.Fatalf("kind filter: %+v", rep.Runs)
	}
	if rep := fetch("?outcome=cache-hit"); len(rep.Runs) != 1 || rep.Runs[0].Outcome != "cache-hit" {
		t.Fatalf("outcome filter: %+v", rep.Runs)
	}
	if rep := fetch("?converged=true"); len(rep.Runs) != 1 || rep.Runs[0].Kind != "synthesize" {
		t.Fatalf("converged filter: %+v", rep.Runs)
	}
	if rep := fetch("?limit=2"); len(rep.Runs) != 2 || rep.Total != 3 {
		t.Fatalf("limit: got %d runs, total %d", len(rep.Runs), rep.Total)
	}
	// Every run here completes in far less than a minute.
	if rep := fetch("?min_duration=1m"); len(rep.Runs) != 0 {
		t.Fatalf("min_duration filter: %+v", rep.Runs)
	}
	if rep := fetch("?topology=folded-cascode"); len(rep.Runs) != 3 {
		t.Fatalf("topology filter: %+v", rep.Runs)
	}
	for _, q := range []string{"?converged=maybe", "?min_duration=fast", "?limit=0", "?limit=x"} {
		if resp := getJSON(t, ts.URL+"/v1/runs"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestRunStoreBounded: the in-memory store evicts oldest-first at its
// bound, like the trace store.
func TestRunStoreBounded(t *testing.T) {
	rs := newRunStore(2)
	for i := 1; i <= 3; i++ {
		rs.add(&obs.RunRecord{ID: fmt.Sprintf("run-%06d", i), Seq: int64(i), Kind: "mc"})
	}
	if rs.len() != 2 {
		t.Fatalf("len = %d, want 2", rs.len())
	}
	if _, ok := rs.get("run-000001"); ok {
		t.Fatal("oldest run should have been evicted")
	}
	recs := rs.list(runFilter{})
	if len(recs) != 2 || recs[0].Seq != 3 || recs[1].Seq != 2 {
		t.Fatalf("list = %+v", recs)
	}
}

// TestQueueWaitHistogram: a request that reaches the backend observes
// exactly one queue-wait sample; cache hits observe none.
func TestQueueWaitHistogram(t *testing.T) {
	stub := &tracingStub{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/synthesize", `{}`)
	post(t, ts.URL+"/v1/synthesize", `{}`) // hit: no queue admission

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE loas_queue_wait_seconds histogram",
		"loas_queue_wait_seconds_count 1",
		"loas_runs_stored 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestRunsKeyFilter: X-Loas-Key resolves through /v1/runs?key=. Both the
// cold run and its cache-hit replay carry the key, outcome=ok narrows
// the list to the run that computed the body, and that run's record
// holds the iterations the backend recorded.
func TestRunsKeyFilter(t *testing.T) {
	stub := &tracingStub{}
	_, ts := newStubServer(t, Config{}, stub)

	resp, _ := post(t, ts.URL+"/v1/synthesize", `{"case":2}`)
	key := resp.Header.Get("X-Loas-Key")
	if key == "" {
		t.Fatal("response missing X-Loas-Key")
	}
	resp2, _ := post(t, ts.URL+"/v1/synthesize", `{"case":2}`)
	if resp2.Header.Get("X-Loas-Cache") != "hit" {
		t.Fatal("second request should hit")
	}
	if resp2.Header.Get("X-Loas-Key") != key {
		t.Fatal("key must be stable across hit and miss")
	}
	post(t, ts.URL+"/v1/synthesize", `{"case":1}`) // another key
	if stub.calls.Load() != 2 {
		t.Fatalf("backend calls = %d, want 2", stub.calls.Load())
	}

	fetch := func(query string) RunsReport {
		t.Helper()
		var rep RunsReport
		getJSON(t, ts.URL+"/v1/runs"+query, &rep)
		return rep
	}
	if rep := fetch("?key=" + key); len(rep.Runs) != 2 ||
		rep.Runs[0].Outcome != "cache-hit" || rep.Runs[1].Outcome != "ok" {
		t.Fatalf("key filter: %+v", rep.Runs)
	}
	rep := fetch("?key=" + key + "&outcome=ok")
	if len(rep.Runs) != 1 {
		t.Fatalf("key+outcome filter: %+v", rep.Runs)
	}
	var rec obs.RunRecord
	getJSON(t, ts.URL+"/v1/runs/"+rep.Runs[0].ID, &rec)
	if rec.CacheKey != key || !rec.Converged || len(rec.Iterations) != len(stubIterations) {
		t.Fatalf("run record = key %q converged %v, %d iterations", rec.CacheKey, rec.Converged, len(rec.Iterations))
	}
	for i, it := range rec.Iterations {
		if it != stubIterations[i] {
			t.Fatalf("iteration %d = %+v, want %+v", i, it, stubIterations[i])
		}
	}
	if rep := fetch("?key=deadbeef"); len(rep.Runs) != 0 {
		t.Fatalf("unknown key listed runs: %+v", rep.Runs)
	}
}

// TestLedgerAppendFailureKeepsRequest: a ledger that refuses the record
// (here: already closed, as after a disk error) is counted on /metrics
// and never fails the request; the run is still listed in memory.
func TestLedgerAppendFailureKeepsRequest(t *testing.T) {
	ledger, err := obs.OpenLedger(filepath.Join(t.TempDir(), "runs.jsonl"), obs.LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts := newStubServer(t, Config{Ledger: ledger}, &stubBackend{})

	resp, body := post(t, ts.URL+"/v1/synthesize", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
	}
	if want := "{\"kind\":\"synthesize-4\",\"call\":1}\n"; string(body) != want {
		t.Fatalf("body %q, want %q", body, want)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\nloas_ledger_errors 1\n") {
		t.Fatalf("metrics missing loas_ledger_errors 1:\n%s", metrics)
	}
	var rep RunsReport
	getJSON(t, ts.URL+"/v1/runs", &rep)
	if len(rep.Runs) != 1 || rep.Runs[0].Kind != "synthesize" || rep.Runs[0].Outcome != "ok" {
		t.Fatalf("runs = %+v, want the one synthesize run", rep.Runs)
	}
}

// lateStub outlives a short request timeout: it sleeps past the
// deadline, then records an iteration into the run its request has
// already finished.
type lateStub struct {
	stubBackend
	done chan struct{} // closed once the late iteration is recorded
}

func (b *lateStub) Synthesize(ctx context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	time.Sleep(60 * time.Millisecond)
	obs.RunFromContext(ctx).Record(stubIterations[0])
	close(b.done)
	return b.stubBackend.Synthesize(ctx, spec, req)
}

// TestTimeoutAbandonsJob: a job that outlives Config.Timeout answers
// its request with a 504 and an error record naming the deadline, while
// the pool runs it on. The job then records into the finished run: the
// stored record stays as it was finished, and under -race nothing the
// job writes races the request that abandoned it.
func TestTimeoutAbandonsJob(t *testing.T) {
	stub := &lateStub{done: make(chan struct{})}
	_, ts := newStubServer(t, Config{Timeout: 20 * time.Millisecond}, stub)
	resp, data := post(t, ts.URL+"/v1/synthesize", `{}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	<-stub.done

	var rep RunsReport
	getJSON(t, ts.URL+"/v1/runs", &rep)
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %+v, want the one timed-out run", rep.Runs)
	}
	var rec obs.RunRecord
	getJSON(t, ts.URL+"/v1/runs/"+rep.Runs[0].ID, &rec)
	if rec.Outcome != outcomeError || !strings.Contains(rec.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("record outcome %q, error %q; want an error naming the deadline", rec.Outcome, rec.Error)
	}
	if len(rec.Iterations) != 0 || rec.LayoutCalls != 0 {
		t.Fatalf("record gained the abandoned job's iterations: %+v", rec.Iterations)
	}
}

// refRunStore is the run store as it stood before the Seq index: a FIFO
// of IDs whose list copies every retained record, sorts the copy by Seq
// and filters it. It stays as the reference that TestRunStoreMatchesReference
// holds runStore to.
type refRunStore struct {
	max   int
	order []string
	m     map[string]*obs.RunRecord
}

func (rs *refRunStore) add(rec *obs.RunRecord) {
	if _, ok := rs.m[rec.ID]; !ok {
		rs.order = append(rs.order, rec.ID)
		for len(rs.order) > rs.max {
			delete(rs.m, rs.order[0])
			rs.order = rs.order[1:]
		}
	}
	rs.m[rec.ID] = rec
}

func (rs *refRunStore) list(f runFilter) []*obs.RunRecord {
	recs := make([]*obs.RunRecord, 0, len(rs.order))
	for _, id := range rs.order {
		recs = append(recs, rs.m[id])
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq > recs[j].Seq })
	out := make([]*obs.RunRecord, 0, len(recs))
	for _, r := range recs {
		if f.topology != "" && r.Topology != f.topology {
			continue
		}
		if f.layout != "" && r.Layout != f.layout {
			continue
		}
		if f.kind != "" && r.Kind != f.kind {
			continue
		}
		if f.outcome != "" && r.Outcome != f.outcome {
			continue
		}
		if f.parent != "" && r.Parent != f.parent {
			continue
		}
		if f.key != "" && r.CacheKey != f.key {
			continue
		}
		if f.converged != nil && r.Converged != *f.converged {
			continue
		}
		if f.minDur > 0 && time.Duration(r.DurationNS) < f.minDur {
			continue
		}
		out = append(out, r)
		if f.limit > 0 && len(out) >= f.limit {
			break
		}
	}
	return out
}

// TestRunStoreMatchesReference holds the Seq-indexed store to the
// copy-and-sort reference. Records finish out of Seq order (most a few
// places late, some, like a slow cold run, hundreds), the store evicts,
// some adds replace a retained or an evicted ID (keeping its Seq or
// taking a new one), and after every burst of adds both stores answer
// the same queries: every filter, alone and combined, at limits from 0
// (all) to 2,000.
func TestRunStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	record := func(seq int64) *obs.RunRecord {
		return &obs.RunRecord{
			ID: fmt.Sprintf("run-%06d", seq), Seq: seq,
			Topology: pick("folded-cascode", "two-stage", "five-t"),
			Layout:   pick("", "rows"),
			Kind:     pick("synthesize", "synthesize", "batch", "mc"),
			Outcome:  pick(outcomeOK, outcomeCacheHit, outcomeCacheHit, outcomeDedup, outcomeError),
			Parent:   pick("", "", "run-000001", "run-000002"),
			CacheKey: pick("k0", "k1", "k2", "k3"),
			// Durations from 0 to 1 ms, in 1 µs steps.
			DurationNS: int64(rng.Intn(1000)) * 1000,
			Converged:  rng.Intn(2) == 0,
		}
	}
	filter := func() runFilter {
		var f runFilter
		if rng.Intn(4) == 0 {
			f.topology = pick("folded-cascode", "two-stage", "five-t", "none")
		}
		if rng.Intn(4) == 0 {
			f.layout = pick("rows", "none")
		}
		if rng.Intn(4) == 0 {
			f.kind = pick("synthesize", "batch", "mc")
		}
		if rng.Intn(4) == 0 {
			f.outcome = pick(outcomeOK, outcomeCacheHit, outcomeDedup, outcomeError)
		}
		if rng.Intn(4) == 0 {
			f.parent = pick("run-000001", "run-000002", "run-999999")
		}
		if rng.Intn(4) == 0 {
			f.key = pick("k0", "k1", "k2", "k3", "k9")
		}
		if rng.Intn(4) == 0 {
			c := rng.Intn(2) == 0
			f.converged = &c
		}
		if rng.Intn(4) == 0 {
			f.minDur = time.Duration(rng.Intn(1001)) * time.Microsecond
		}
		switch rng.Intn(3) {
		case 0:
			f.limit = rng.Intn(2001)
		case 1:
			f.limit = rng.Intn(21)
		}
		return f
	}

	for _, max := range []int{1, 7, 64, maxRuns} {
		rs := newRunStore(max)
		ref := &refRunStore{max: max, m: map[string]*obs.RunRecord{}}
		// Seqs 1..n finish in a shuffled order: each is delayed by a
		// few places, or now and then by hundreds.
		n := 3*max + 500
		type arrival struct {
			at  int
			seq int64
		}
		arrivals := make([]arrival, n)
		for i := range arrivals {
			delay := rng.Intn(4)
			if rng.Intn(50) == 0 {
				delay = rng.Intn(600)
			}
			arrivals[i] = arrival{at: i + delay, seq: int64(i + 1)}
		}
		sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
		nextSeq := int64(n + 1)
		var added []*obs.RunRecord
		for i, a := range arrivals {
			rec := record(a.seq)
			if len(added) > 0 && rng.Intn(10) == 0 {
				// Replace a retained or an evicted ID: same Seq, or a new
				// one past every other.
				old := added[rng.Intn(len(added))]
				rec = record(old.Seq)
				rec.ID = old.ID
				if rng.Intn(3) == 0 {
					rec.Seq = nextSeq
					nextSeq++
				}
			}
			added = append(added, rec)
			rs.add(rec)
			ref.add(rec)
			if rs.len() != len(ref.m) {
				t.Fatalf("max %d, add %d: len %d, reference %d", max, i, rs.len(), len(ref.m))
			}
			if i%17 != 0 && i != n-1 {
				continue
			}
			for q := 0; q < 8; q++ {
				f := filter()
				got, want := rs.list(f), ref.list(f)
				if len(got) != len(want) {
					t.Fatalf("max %d, add %d, filter %+v: %d runs, reference %d", max, i, f, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("max %d, add %d, filter %+v: run %d is %s (seq %d), reference %s (seq %d)",
							max, i, f, k, got[k].ID, got[k].Seq, want[k].ID, want[k].Seq)
					}
				}
			}
		}
		for id, want := range ref.m {
			if got, ok := rs.get(id); !ok || got != want {
				t.Fatalf("max %d: get(%s) = %v, %v; want the reference's record", max, id, got, ok)
			}
		}
	}
}
