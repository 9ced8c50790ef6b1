package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

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

// maxRecordedRequest bounds the request body copied into a RunRecord,
// so one giant batch cannot blow the ledger's rotation.
const maxRecordedRequest = 256 << 10

// recordRequest renders v as a record's canonical compact request body,
// dropping it (nil, no error surfaced — recording is advisory) if
// encoding fails.
func recordRequest(v any) json.RawMessage {
	b, err := marshalCompact(v)
	if err != nil {
		return nil
	}
	return b
}

// beginRun opens a run for the identity a handler filled in (kind,
// topology, layout, case, parent, cache key, spec digest, request): it
// allocates the ID (sequence numbers continue across restarts via the
// ledger), stamps the start and the daemon source, drops a request
// over maxRecordedRequest, and announces run-start on the event stream.
// Its iterations are narrated live as iteration events.
func (s *Server) beginRun(id obs.RunRecord) *obs.Run {
	id.Seq = s.runSeq.Add(1)
	id.ID = fmt.Sprintf("run-%06d", id.Seq)
	id.StartUnixNS = time.Now().UnixNano()
	id.Source = "daemon"
	if len(id.Request) > maxRecordedRequest {
		id.Request = nil
	}
	runID := id.ID
	run := obs.StartRun(id, func(it obs.Iteration) {
		s.events.publish("iteration", iterationEvent{RunID: runID, Iteration: it})
	})
	s.events.publish("run-start", runStartEvent{
		ID: id.ID, Kind: id.Kind, Topology: id.Topology,
		Case: id.Case, CacheKey: id.CacheKey, Parent: id.Parent,
	})
	return run
}

// finishRun closes the run (v is the response; its size and SHA-256
// make the record a replay target), stores the record, appends it to
// the ledger and announces run-end.
func (s *Server) finishRun(run *obs.Run, outcome string, err error, v Value) {
	rec := run.Finish(outcome, err, len(v.Body), v.SHA256)
	s.runs.add(&rec)
	if lerr := s.ledger.Append(rec); lerr != nil {
		s.ledgerErrs.Add(1)
	}
	s.events.publish("run-end", runEndEvent{
		ID: rec.ID, Outcome: outcome, DurationNS: rec.DurationNS,
		Converged: rec.Converged, LayoutCalls: rec.LayoutCalls, Error: rec.Error,
	})
}

// runStore retains recent run records in memory, bounded FIFO in the
// order they finish. Records are immutable once added. bySeq holds the
// same records in ascending Seq order, so a listing walks it from the
// newest end and stops at its limit. Eviction stays in finish order: a
// slow cold run has a low Seq and finishes late, and evicting by Seq
// would drop it as soon as it landed under hit traffic, so
// ?key=K&outcome=ok could no longer find the run that computed a cached
// body. Records finish almost in Seq order, so an add usually appends
// to bySeq and an eviction usually takes its first entry.
type runStore struct {
	mu    sync.Mutex
	max   int
	order []string // IDs, oldest finish first: the eviction order
	m     map[string]*obs.RunRecord
	bySeq []*obs.RunRecord
}

func newRunStore(max int) *runStore {
	return &runStore{max: max, m: map[string]*obs.RunRecord{}}
}

func (rs *runStore) add(rec *obs.RunRecord) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if old, ok := rs.m[rec.ID]; ok {
		rs.unindex(old)
	} else {
		rs.order = append(rs.order, rec.ID)
	}
	rs.m[rec.ID] = rec
	rs.index(rec)
	for len(rs.order) > rs.max {
		rs.unindex(rs.m[rs.order[0]])
		delete(rs.m, rs.order[0])
		rs.order = rs.order[1:]
	}
}

// index inserts rec into bySeq after every record with its Seq or a
// lower one.
func (rs *runStore) index(rec *obs.RunRecord) {
	i := len(rs.bySeq)
	for i > 0 && rs.bySeq[i-1].Seq > rec.Seq {
		i--
	}
	rs.bySeq = append(rs.bySeq, nil)
	copy(rs.bySeq[i+1:], rs.bySeq[i:])
	rs.bySeq[i] = rec
}

// unindex removes rec from bySeq, moving the shorter side of the index
// over its entry: taking the first entry only re-slices.
func (rs *runStore) unindex(rec *obs.RunRecord) {
	n := len(rs.bySeq)
	i := sort.Search(n, func(i int) bool { return rs.bySeq[i].Seq >= rec.Seq })
	for rs.bySeq[i] != rec {
		i++
	}
	if i < n/2 {
		copy(rs.bySeq[1:i+1], rs.bySeq[:i])
		rs.bySeq[0] = nil
		rs.bySeq = rs.bySeq[1:]
	} else {
		copy(rs.bySeq[i:], rs.bySeq[i+1:])
		rs.bySeq[n-1] = nil
		rs.bySeq = rs.bySeq[:n-1]
	}
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
// limit (0 = all): it walks the Seq index from the newest end and stops
// at the limit.
func (rs *runStore) list(f runFilter) []*obs.RunRecord {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := len(rs.bySeq)
	if f.limit > 0 && f.limit < n {
		n = f.limit
	}
	out := make([]*obs.RunRecord, 0, n)
	for i := len(rs.bySeq) - 1; i >= 0; i-- {
		r := rs.bySeq[i]
		if !f.match(r) {
			continue
		}
		out = append(out, r)
		if f.limit > 0 && len(out) >= f.limit {
			break
		}
	}
	return out
}

// match reports whether r passes every filter set in f.
func (f *runFilter) match(r *obs.RunRecord) bool {
	return (f.topology == "" || r.Topology == f.topology) &&
		(f.layout == "" || r.Layout == f.layout) &&
		(f.kind == "" || r.Kind == f.kind) &&
		(f.outcome == "" || r.Outcome == f.outcome) &&
		(f.parent == "" || r.Parent == f.parent) &&
		(f.key == "" || r.CacheKey == f.key) &&
		(f.converged == nil || r.Converged == *f.converged) &&
		(f.minDur <= 0 || time.Duration(r.DurationNS) >= f.minDur)
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
	s.reply(w, rep, true)
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
	s.reply(w, rec, true)
}
