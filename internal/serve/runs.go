package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"loas/internal/core"
	"loas/internal/obs"
)

// The run layer makes history a first-class endpoint family: every
// request to a result endpoint — cold, cache-hit, dedup-joined or
// failed — becomes one obs.RunRecord held in a bounded in-memory store
// (GET /v1/runs, GET /v1/runs/{id}), appended to the on-disk ledger
// when one is configured, and narrated live over GET /v1/events.

// Run outcome labels.
const (
	outcomeOK       = "ok"        // cold execution reached the backend
	outcomeCacheHit = "cache-hit" // byte replay from the result cache
	outcomeDedup    = "dedup"     // joined an identical in-flight run
	outcomeError    = "error"
)

// runInfo is what a handler knows about a request before it runs.
type runInfo struct {
	kind       string // synthesize | table1 | mc | layout.svg | batch | explore
	topology   string
	layout     string // non-default layout backend, "" for slicing
	caseN      int
	key        string // content-addressed cache key
	specDigest string
	parent     string // batch/explore run ID this run is a child of
	// request is the canonicalized request body (compact JSON with the
	// resolved spec embedded) recorded into the ledger for `loas replay`.
	// nil for GET-style runs; bodies over maxRecordedRequest are dropped
	// at finish so one giant batch cannot blow the ledger's rotation.
	request []byte
}

// maxRecordedRequest bounds the request body copied into a RunRecord.
const maxRecordedRequest = 256 << 10

// recordRequest renders v as the runInfo.request canonical compact
// form, dropping it (nil, no error surfaced — recording is advisory)
// if encoding fails.
func recordRequest(v any) []byte {
	b, err := marshalCompact(v)
	if err != nil {
		return nil
	}
	return b
}

// activeRun is a run in flight: its recorder, root span and live trace.
type activeRun struct {
	info      runInfo
	id        string
	seq       int64
	startUnix int64
	rec       *obs.Recorder
	root      *obs.Span
	trace     *obs.Trace
}

// beginRun opens the run: allocates the ID (sequence numbers continue
// across restarts via the ledger), starts the span tree and announces
// run-start on the event stream.
func (s *Server) beginRun(info runInfo, start time.Time) *activeRun {
	seq := s.runSeq.Add(1)
	ar := &activeRun{
		info:      info,
		id:        fmt.Sprintf("run-%06d", seq),
		seq:       seq,
		startUnix: start.UnixNano(),
		rec:       obs.NewRecorder(),
	}
	ar.root = ar.rec.Root("request")
	ar.root.SetAttr("kind", info.kind)
	if info.topology != "" {
		ar.root.SetAttr("topology", info.topology)
	}
	if info.layout != "" {
		ar.root.SetAttr("layout", info.layout)
	}
	if info.caseN != 0 {
		ar.root.SetAttr("case", strconv.Itoa(info.caseN))
	}
	ar.trace = obs.NewTraceFunc(func(it obs.Iteration) {
		s.events.publish("iteration", iterationEvent{RunID: ar.id, Iteration: it})
	})
	s.events.publish("run-start", runStartEvent{
		ID: ar.id, Kind: info.kind, Topology: info.topology,
		Case: info.caseN, CacheKey: info.key, Parent: info.parent,
	})
	return ar
}

// finishRun closes the run: ends the root span, freezes the record
// (body is the response; its size and SHA-256 make the record a replay
// target), stores it, appends it to the ledger and announces run-end.
func (s *Server) finishRun(ar *activeRun, outcome string, err error, body []byte) {
	ar.root.End()
	iters := ar.trace.Iterations()
	rec := obs.RunRecord{
		ID:          ar.id,
		Seq:         ar.seq,
		StartUnixNS: ar.startUnix,
		Source:      "daemon",
		Kind:        ar.info.kind,
		Topology:    ar.info.topology,
		Layout:      ar.info.layout,
		Case:        ar.info.caseN,
		Parent:      ar.info.parent,
		CacheKey:    ar.info.key,
		SpecDigest:  ar.info.specDigest,
		Outcome:     outcome,
		DurationNS:  ar.root.Duration().Nanoseconds(),
		Converged:   obs.Converged(iters, core.ConvergeTolF),
		LayoutCalls: len(iters),
		Bytes:       len(body),
		Spans:       ar.rec.Snapshot(),
		Iterations:  iters,
	}
	if len(body) > 0 {
		sum := sha256.Sum256(body)
		rec.BodySHA256 = hex.EncodeToString(sum[:])
	}
	if len(ar.info.request) > 0 && len(ar.info.request) <= maxRecordedRequest {
		rec.Request = json.RawMessage(ar.info.request)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	s.runs.add(&rec)
	if lerr := s.ledger.Append(rec); lerr != nil {
		s.ledgerErrs.Add(1)
	}
	s.events.publish("run-end", runEndEvent{
		ID: ar.id, Outcome: outcome, DurationNS: rec.DurationNS,
		Converged: rec.Converged, LayoutCalls: rec.LayoutCalls, Error: rec.Error,
	})
}

// runStore retains recent run records in memory, bounded FIFO. Records
// are immutable once added.
type runStore struct {
	mu    sync.Mutex
	max   int
	order []string
	m     map[string]*obs.RunRecord
}

func newRunStore(max int) *runStore {
	return &runStore{max: max, m: map[string]*obs.RunRecord{}}
}

func (rs *runStore) add(rec *obs.RunRecord) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.m[rec.ID]; !ok {
		rs.order = append(rs.order, rec.ID)
		for len(rs.order) > rs.max {
			delete(rs.m, rs.order[0])
			rs.order = rs.order[1:]
		}
	}
	rs.m[rec.ID] = rec
}

func (rs *runStore) get(id string) (*obs.RunRecord, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.m[id]
	return rec, ok
}

func (rs *runStore) len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.m)
}

// runFilter is the /v1/runs query surface.
type runFilter struct {
	topology  string
	layout    string
	kind      string
	outcome   string
	parent    string
	key       string
	converged *bool
	minDur    time.Duration
	limit     int
}

// list returns matching records, newest (highest seq) first, up to
// limit.
func (rs *runStore) list(f runFilter) []*obs.RunRecord {
	rs.mu.Lock()
	recs := make([]*obs.RunRecord, 0, len(rs.order))
	for _, id := range rs.order {
		recs = append(recs, rs.m[id])
	}
	rs.mu.Unlock()
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

// RunSummary is one row of GET /v1/runs — the record without its span
// tree and iterations (fetch /v1/runs/{id} for those).
type RunSummary struct {
	ID          string `json:"id"`
	Seq         int64  `json:"seq"`
	StartUnixNS int64  `json:"start_unix_ns"`
	Source      string `json:"source"`
	Kind        string `json:"kind"`
	Topology    string `json:"topology,omitempty"`
	Layout      string `json:"layout,omitempty"`
	Case        int    `json:"case,omitempty"`
	Parent      string `json:"parent,omitempty"`
	Outcome     string `json:"outcome"`
	Error       string `json:"error,omitempty"`
	DurationNS  int64  `json:"duration_ns"`
	Converged   bool   `json:"converged"`
	LayoutCalls int    `json:"layout_calls"`
	Spans       int    `json:"spans"`
	Iterations  int    `json:"iterations"`
}

func summarize(r *obs.RunRecord) RunSummary {
	return RunSummary{
		ID: r.ID, Seq: r.Seq, StartUnixNS: r.StartUnixNS, Source: r.Source,
		Kind: r.Kind, Topology: r.Topology, Layout: r.Layout, Case: r.Case, Parent: r.Parent, Outcome: r.Outcome,
		Error: r.Error, DurationNS: r.DurationNS, Converged: r.Converged,
		LayoutCalls: r.LayoutCalls, Spans: len(r.Spans), Iterations: len(r.Iterations),
	}
}

// RunsReport is the GET /v1/runs payload.
type RunsReport struct {
	Total int          `json:"total"` // runs retained in the store
	Runs  []RunSummary `json:"runs"`  // newest first, after filters
}

// handleRuns lists recent runs. Query parameters: topology, layout
// (non-default layout backend name), kind
// (synthesize|table1|mc|layout.svg|batch|explore), outcome, parent
// (batch/explore run ID whose children to list), key (content-addressed
// key from X-Loas-Key; with outcome=ok it finds the run that computed a
// cached body), converged (true|false), min_duration (Go duration, e.g.
// 150ms), limit (default 50).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	f := runFilter{
		topology: q.Get("topology"),
		layout:   q.Get("layout"),
		kind:     q.Get("kind"),
		outcome:  q.Get("outcome"),
		parent:   q.Get("parent"),
		key:      q.Get("key"),
		limit:    50,
	}
	if v := q.Get("converged"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			s.errorBody(w, http.StatusBadRequest, fmt.Errorf("converged: %w", err))
			return
		}
		f.converged = &b
	}
	if v := q.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.errorBody(w, http.StatusBadRequest, fmt.Errorf("min_duration: %w", err))
			return
		}
		f.minDur = d
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.errorBody(w, http.StatusBadRequest, fmt.Errorf("limit must be a positive integer, got %q", v))
			return
		}
		f.limit = n
	}
	recs := s.runs.list(f)
	rep := RunsReport{Total: s.runs.len(), Runs: make([]RunSummary, 0, len(recs))}
	for _, rec := range recs {
		rep.Runs = append(rep.Runs, summarize(rec))
	}
	body, err := marshalJSON(rep)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.served.Add(1)
}

// handleRunByID serves one full run record: span tree + iterations.
func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	rec, ok := s.runs.get(id)
	if !ok {
		s.errorBody(w, http.StatusNotFound, fmt.Errorf("no run %q (the store keeps the most recent runs; see /v1/runs)", id))
		return
	}
	body, err := marshalJSON(rec)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.served.Add(1)
}
