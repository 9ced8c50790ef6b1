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

// finishRun closes the run (body is the response; its size and SHA-256
// make the record a replay target), stores the record, appends it to
// the ledger and announces run-end.
func (s *Server) finishRun(run *obs.Run, outcome string, err error, body []byte) {
	rec := run.Finish(outcome, err, body)
	s.runs.add(&rec)
	if lerr := s.ledger.Append(rec); lerr != nil {
		s.ledgerErrs.Add(1)
	}
	s.events.publish("run-end", runEndEvent{
		ID: rec.ID, Outcome: outcome, DurationNS: rec.DurationNS,
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
