package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
)

// POST /v1/batch fans many synthesize requests through the daemon's
// existing machinery in one round trip. Every item takes the same
// cache → singleflight → bounded queue path as POST /v1/synthesize and
// is its own child run (kind=synthesize, Parent=<batch run ID>), so a
// 50-item batch with k unique specs costs exactly k backend syntheses:
// duplicates either replay from the cache or join the in-flight leader.
// Item completions stream as batch-item frames on /v1/events; the final
// response is one ordered BatchReport.
//
// The report itself is NOT cached — the per-item cache already carries
// all the reuse, and the report embeds per-item outcomes (hit vs miss)
// that legitimately differ between reruns. The X-Loas-Key header still
// reports the canonical batch key (order-invariant over the item keys)
// so clients can correlate reruns of the same workload.

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Items []sizingItem `json:"items"`
	// Limit and Offset paginate the report's Results window: Offset
	// skips that many leading results, Limit bounds how many are
	// returned (0 = unbounded). Every item still executes — pagination
	// trims the response body, not the workload — and the deterministic
	// submission order is preserved, so walking pages covers each result
	// exactly once. Items/Unique/Errors always describe the full batch.
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

// sizingItem aliases SynthesizeRequest so the batch body reads
// {"items":[{...synthesize body...}, ...]}.
type sizingItem = SynthesizeRequest

// BatchItemResult is one submitted item's outcome, in submission order.
type BatchItemResult struct {
	Index    int    `json:"index"`
	Topology string `json:"topology"`
	Layout   string `json:"layout,omitempty"` // non-default layout backend
	Case     int    `json:"case"`
	Key      string `json:"key"`    // content-addressed item key
	RunID    string `json:"run_id"` // child run (GET /v1/runs/{id})
	Outcome  string `json:"outcome"`
	Cache    string `json:"cache"` // hit | miss | dedup
	Error    string `json:"error,omitempty"`
	// Summary is the item's core.Summary (absent on error): the same
	// JSON value POST /v1/synthesize returns, indented at its depth in
	// the report.
	Summary json.RawMessage `json:"summary,omitempty"`
	// canonical reports that Summary is a canonical body
	// (Value.canonical), which batchReportJSON splices in unscanned.
	canonical bool
}

// BatchReport is the POST /v1/batch payload.
type BatchReport struct {
	Key    string `json:"key"`    // canonical batch key
	Items  int    `json:"items"`  // submitted
	Unique int    `json:"unique"` // distinct item keys
	Errors int    `json:"errors,omitempty"`
	// Offset and Limit echo the request's pagination window (absent when
	// unpaginated, keeping the unpaginated wire format unchanged).
	Offset  int               `json:"offset,omitempty"`
	Limit   int               `json:"limit,omitempty"`
	Results []BatchItemResult `json:"results"` // submission order, windowed
}

// batchItem is one normalized, spec-resolved item ready to execute.
type batchItem struct {
	req  SynthesizeRequest
	spec sizing.OTASpec
	key  string
}

// batchKey hashes the multiset of item keys, order-invariantly: the
// keys are sorted before hashing, duplicates kept. Shuffling the items
// of a batch cannot change its key; adding a second copy of an item
// does (a different workload, even if it costs no extra synthesis).
func batchKey(itemKeys []string) string {
	sorted := append([]string(nil), itemKeys...)
	sort.Strings(sorted)
	var b strings.Builder
	b.WriteString("loas/1|kind=batch")
	for _, k := range sorted {
		b.WriteString("|item=")
		b.WriteString(k)
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:])
}

// batchBodyLimit bounds one POST /v1/batch body: thousands of specs fit
// well inside 8 MiB.
const batchBodyLimit = 8 << 20

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSONLimit(r, &req, batchBodyLimit); err != nil {
		s.badRequest(w, err)
		return
	}
	if len(req.Items) == 0 {
		s.badRequest(w, fmt.Errorf("batch requires at least one item"))
		return
	}
	if len(req.Items) > s.batchMax {
		s.badRequest(w, fmt.Errorf("batch of %d items exceeds the %d-item bound", len(req.Items), s.batchMax))
		return
	}
	if req.Limit < 0 || req.Offset < 0 {
		s.badRequest(w, fmt.Errorf("limit and offset must be >= 0, got limit=%d offset=%d", req.Limit, req.Offset))
		return
	}
	items := make([]batchItem, len(req.Items))
	keys := make([]string, len(req.Items))
	unique := map[string]bool{}
	for i := range req.Items {
		it := req.Items[i]
		if err := it.normalize(); err != nil {
			s.badRequest(w, fmt.Errorf("item %d: %w", i, err))
			return
		}
		spec, err := s.specFor(it.Spec, it.Topology)
		if err != nil {
			s.badRequest(w, fmt.Errorf("item %d: %w", i, err))
			return
		}
		key := it.cacheKey(s.tech, spec)
		items[i] = batchItem{req: it, spec: spec, key: key}
		keys[i] = key
		unique[key] = true
	}

	start := time.Now()
	s.requests.Add(1)
	s.batchRequests.Inc()
	s.batchItems.Add(int64(len(items)))
	s.batchSize.Observe(float64(len(items)))
	// Record the normalized batch with resolved specs embedded, so a
	// replayed batch re-keys identically even under different server
	// defaults. recordRequest bounds nothing — beginRun drops bodies
	// over maxRecordedRequest.
	recItems := make([]sizingItem, len(items))
	for i := range items {
		recItems[i] = items[i].req
		recItems[i].Spec = &items[i].spec
	}
	key := batchKey(keys)
	run := s.beginRun(obs.RunRecord{Kind: "batch", CacheKey: key,
		Request: recordRequest(BatchRequest{Items: recItems, Limit: req.Limit, Offset: req.Offset})})
	runID := run.Identity().ID
	run.Root().SetAttr("items", fmt.Sprintf("%d", len(items)))
	run.Root().SetAttr("unique", fmt.Sprintf("%d", len(unique)))
	s.events.publish("batch-start", batchStartEvent{
		ID: runID, Kind: "batch", Items: len(items), Unique: len(unique),
	})

	// Fan out on at most as many goroutines as the pool has workers: the
	// batch alone can then never overflow the bounded queue, and other
	// traffic keeps the queue slots as its admission headroom. Items run
	// under the daemon's lifetime (each leader already detaches from the
	// client context), so a disconnecting client wastes nothing — every
	// completed item is in the content-addressed cache.
	fan := run.Root().Child("batch-fanout")
	results, _ := parallel.MapN(context.Background(), s.pool.Stats().Workers, len(items),
		func(_ context.Context, i int) (BatchItemResult, error) {
			return s.runBatchItem(runID, i, items[i]), nil
		})
	fan.End()

	errs := 0
	for i := range results {
		if results[i].Error != "" {
			errs++
		}
	}
	outcome := outcomeOK
	var runErr error
	if errs > 0 {
		outcome = outcomeError
		runErr = fmt.Errorf("%d of %d items failed", errs, len(items))
	}
	// Pagination windows the response only: every item above executed
	// (and is cached / ledgered) regardless of the window.
	window := results
	if req.Offset > 0 {
		if req.Offset >= len(window) {
			window = window[len(window):]
		} else {
			window = window[req.Offset:]
		}
	}
	if req.Limit > 0 && req.Limit < len(window) {
		window = window[:req.Limit]
	}
	rep := BatchReport{
		Key: key, Items: len(items), Unique: len(unique),
		Errors: errs, Offset: req.Offset, Limit: req.Limit, Results: window,
	}
	body, err := batchReportJSON(rep)
	if err != nil {
		s.finishRun(run, outcomeError, err, Value{})
		s.fail(w, err)
		return
	}
	// The report is not cached, so only its digest is needed, once.
	v := Value{Body: body, ContentType: "application/json", SHA256: bodySHA256(body)}
	s.finishRun(run, outcome, runErr, v)
	s.events.publish("batch-end", batchEndEvent{
		ID: runID, Outcome: outcome, Items: len(items), Errors: errs,
		DurationNS: time.Since(start).Nanoseconds(),
	})
	s.write(w, v, key, "none", start)
}

// The form of a result's summary in a report: marshalJSON puts a
// result's fields at depth 3, six spaces in, and the summary last.
const (
	resultClose   = "\n    }"
	summaryField  = ",\n      \"summary\": "
	summaryIndent = "      "
)

// batchReportJSON renders rep exactly as marshalJSON(rep) does without
// encoding the summaries again. A canonical summary indented at its
// depth in the report is the body without its trailing newline, with
// six spaces after each remaining newline (a JSON string holds no raw
// newline). So the report is encoded without its summaries, and each is
// spliced in before its result's closing brace, the first "\n    }"
// after the previous one: no other line of that report closes at depth
// 2. A report with any non-canonical summary, such as a test backend's
// compact JSON, goes through marshalJSON.
func batchReportJSON(rep BatchReport) ([]byte, error) {
	if len(rep.Results) == 0 {
		return marshalJSON(rep)
	}
	shell := rep
	shell.Results = make([]BatchItemResult, len(rep.Results))
	grow := 0
	for i, r := range rep.Results {
		if len(r.Summary) > 0 {
			if !r.canonical {
				return marshalJSON(rep)
			}
			lines := bytes.Count(r.Summary, []byte("\n")) - 1
			grow += len(summaryField) + len(r.Summary) - 1 + lines*len(summaryIndent)
		}
		shell.Results[i] = r
		shell.Results[i].Summary = nil
	}
	rest, err := marshalJSON(shell)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(rest)+grow)
	for _, r := range rep.Results {
		end := bytes.Index(rest, []byte(resultClose))
		out = append(out, rest[:end]...)
		if len(r.Summary) > 0 {
			out = append(out, summaryField...)
			out = appendNested(out, r.Summary[:len(r.Summary)-1])
		}
		out = append(out, resultClose...)
		rest = rest[end+len(resultClose):]
	}
	return append(out, rest...), nil
}

// appendNested appends b with summaryIndent after each newline.
func appendNested(out, b []byte) []byte {
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return append(out, b...)
		}
		out = append(out, b[:i+1]...)
		out = append(out, summaryIndent...)
		b = b[i+1:]
	}
}

// runBatchItem executes one item as a child run and narrates it on
// /v1/events. Item failures are report data, not batch failures.
func (s *Server) runBatchItem(parentID string, i int, it batchItem) BatchItemResult {
	runID, v, outcome, err := s.runChild(parentID, it.req, it.spec, it.key)
	res := BatchItemResult{
		Index: i, Topology: it.req.Topology, Layout: it.req.Layout, Case: it.req.Case,
		Key: it.key, RunID: runID, Outcome: outcome,
	}
	if err != nil {
		s.batchItemErrors.Inc()
		res.Error = err.Error()
	} else {
		res.Cache = cacheSource(outcome)
		res.Summary = json.RawMessage(v.Body)
		res.canonical = v.canonical
	}
	s.events.publish("batch-item", batchItemEvent{
		Parent: parentID, Index: i, Outcome: res.Outcome, Cache: res.Cache,
		Topology: res.Topology, Case: res.Case, Error: res.Error,
	})
	return res
}

// runChild executes one synthesize request keyed by key as a child run
// of parentID — one batch item or exploration probe — through the keyed
// path, and finishes its run. outcome is outcomeError when err is set.
func (s *Server) runChild(parentID string, req SynthesizeRequest, spec sizing.OTASpec, key string) (runID string, v Value, outcome string, err error) {
	id, work := s.synthesize(req, spec, key, parentID)
	run := s.beginRun(id)
	v, outcome, err = s.executeKeyed(run, key, work)
	s.finishRun(run, outcome, err, v)
	return run.Identity().ID, v, outcome, err
}
