// Package serve exposes the synthesis engine as a long-running HTTP
// daemon (the loasd binary). The paper's pitch is wall-clock — its loop
// beats the traditional extract-and-simulate flow — and a service
// amortizes that cost further: every result is stored in a
// content-addressed LRU cache, concurrent identical requests collapse
// into one synthesis (singleflight), and the work itself runs on a
// bounded job queue so the daemon sheds load instead of melting.
//
// Endpoints:
//
//	POST /v1/synthesize   one Table-1 case            → core.Summary JSON
//	POST /v1/table1       all four cases              → repro.Table1Report JSON
//	POST /v1/mc           mismatch Monte-Carlo        → MCReport JSON
//	POST /v1/batch        many specs, one request     → BatchReport JSON
//	POST /v1/explore      spec-grid / guided search   → ExploreReport JSON
//	GET  /v1/topologies   registered design plans     → TopologiesReport JSON
//	GET  /v1/layouts      registered layout backends  → LayoutsReport JSON
//	GET  /v1/layout.svg   case-4 converged layout     → SVG
//	GET  /v1/runs         recent run history (filterable)  → RunsReport JSON
//	GET  /v1/runs/{id}    one run: span tree + iterations  → obs.RunRecord JSON
//	GET  /v1/events       live run lifecycle stream        → Server-Sent Events
//	GET  /healthz         liveness
//	GET  /stats           cache + queue + latency counters
//	GET  /metrics         Prometheus text exposition (latency histogram,
//	                      cache/queue gauges, domain counters)
//	GET  /debug/pprof/*   net/http/pprof, only with Config.EnablePprof
//
// Cached responses are replayed verbatim, so a hit is byte-identical to
// the response that populated it; the X-Loas-Cache header reports
// hit | miss | dedup, and X-Loas-Key carries the content-addressed key:
// GET /v1/runs?key=<key>&outcome=ok lists the run that computed the body,
// and /v1/runs/{id} returns its convergence iterations and span tree.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"loas/internal/layout"
	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// maxRuns bounds the in-memory run store behind /v1/runs.
const maxRuns = 1024

// Config sizes the server. Zero values mean defaults; CacheBytes < 0
// disables the cache, TTL <= 0 disables expiry. The server runs the
// techno.Default060 technology, and a request that omits its spec gets
// its topology's default spec (the paper's 65 MHz target for the
// folded cascode).
type Config struct {
	CacheBytes int64         // default 64 MiB
	TTL        time.Duration // default: entries never expire
	Workers    int           // synthesis workers, default GOMAXPROCS
	QueueDepth int           // queued jobs beyond the workers; default 64, < 0 = none
	Timeout    time.Duration // per-job wall-clock bound, default 5 min
	Backend    Backend       // default StdBackend over the server's technology
	// BatchMaxItems bounds one POST /v1/batch request (default 4096).
	BatchMaxItems int
	// Ledger, when non-nil, receives one obs.RunRecord per completed run
	// and seeds the run store + sequence numbering from its replayed
	// history, so /v1/runs survives daemon restarts (loasd -ledger). A
	// nil ledger keeps history in memory only.
	Ledger *obs.Ledger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// Server is the HTTP synthesis service. Create with New, expose
// Handler() behind an http.Server, and Close() to drain.
type Server struct {
	tech     *techno.Tech
	timeout  time.Duration
	backend  Backend
	batchMax int

	cache  *Cache
	flight *Flight
	pool   *parallel.Pool
	mux    *http.ServeMux
	runs   *runStore
	events *eventBus
	ledger *obs.Ledger

	reg       *obs.Registry
	latency   *obs.Histogram
	queueWait *obs.Histogram

	batchRequests   *obs.Counter
	batchItems      *obs.Counter
	batchItemErrors *obs.Counter
	batchSize       *obs.Histogram
	exploreRequests *obs.Counter
	exploreProbes   *obs.Counter
	exploreFront    *obs.Histogram

	requests    atomic.Int64
	errs        atomic.Int64
	backendRuns atomic.Int64
	served      atomic.Int64
	runSeq      atomic.Int64
	ledgerErrs  atomic.Int64
}

// New builds a server from the config and starts its worker pool.
func New(cfg Config) *Server {
	tech := techno.Default060()
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.Backend == nil {
		cfg.Backend = &StdBackend{Tech: tech}
	}
	if cfg.BatchMaxItems <= 0 {
		cfg.BatchMaxItems = 4096
	}
	s := &Server{
		tech:     tech,
		timeout:  cfg.Timeout,
		backend:  cfg.Backend,
		batchMax: cfg.BatchMaxItems,
		cache:    NewCache(cfg.CacheBytes, cfg.TTL),
		flight:   NewFlight(),
		pool:     parallel.NewPool(cfg.Workers, cfg.QueueDepth),
		mux:      http.NewServeMux(),
		runs:     newRunStore(maxRuns),
		events:   newEventBus(),
		ledger:   cfg.Ledger,
	}
	// A restarted daemon resumes where the ledger left off: the replayed
	// tail seeds /v1/runs and run numbering continues past LastSeq.
	for _, rec := range cfg.Ledger.History() {
		rec := rec
		s.runs.add(&rec)
	}
	s.runSeq.Store(cfg.Ledger.LastSeq())
	s.initMetrics()
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /v1/table1", s.handleTable1)
	s.mux.HandleFunc("POST /v1/mc", s.handleMC)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /v1/layouts", s.handleLayouts)
	s.mux.HandleFunc("GET /v1/layout.svg", s.handleLayoutSVG)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunByID)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mountPprof(s.mux)
	}
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the job queue: queued and in-flight synthesis runs
// complete, new work is rejected. Call after http.Server.Shutdown so
// in-flight HTTP requests get their results first.
func (s *Server) Close() { s.pool.Close() }

// Stats is the /stats payload.
type Stats struct {
	Requests     int64              `json:"requests"`
	Served       int64              `json:"served"`
	Errors       int64              `json:"errors"`
	AvgLatencyMS float64            `json:"avg_latency_ms"`
	BackendRuns  int64              `json:"backend_runs"`
	DedupJoined  int64              `json:"dedup_joined"`
	Cache        CacheStats         `json:"cache"`
	Queue        parallel.PoolStats `json:"queue"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:    s.requests.Load(),
		Served:      s.served.Load(),
		Errors:      s.errs.Load(),
		BackendRuns: s.backendRuns.Load(),
		DedupJoined: s.flight.Joined(),
		Cache:       s.cache.Stats(),
		Queue:       s.pool.Stats(),
	}
	// The average covers exactly the responses the latency histogram
	// observed (result endpoints), not every request counted as served.
	if n := s.latency.Count(); n > 0 {
		st.AvgLatencyMS = s.latency.Sum() / float64(n) * 1e3
	}
	return st
}

// HealthReport is the GET /healthz payload: liveness plus the build
// stamp, so one probe identifies what is running where.
type HealthReport struct {
	Status     string `json:"status"`
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalJSON(HealthReport{
		Status:     "ok",
		Version:    BuildVersion(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalJSON(s.Stats())
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req SynthesizeRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if err := req.normalize(); err != nil {
		s.badRequest(w, err)
		return
	}
	spec, err := s.specFor(req.Spec, req.Topology)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	key := req.cacheKey(s.tech, spec)
	// The recorded request embeds the resolved spec so replaying it
	// against a daemon with different defaults still re-issues the same
	// workload (the cache key hashes the resolved spec either way).
	recReq := req
	recReq.Spec = &spec
	info := runInfo{kind: "synthesize", topology: req.Topology, caseN: req.Case,
		layout: req.Layout, key: key, specDigest: specDigest(s.tech, spec),
		request: recordRequest(recReq)}
	s.respond(w, info, "application/json",
		func(ctx context.Context) ([]byte, error) {
			return s.backend.Synthesize(ctx, spec, &req)
		})
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	var req Table1Request
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	spec, err := s.specFor(req.Spec, "")
	if err != nil {
		s.badRequest(w, err)
		return
	}
	info := runInfo{kind: "table1", key: req.cacheKey(s.tech, spec),
		specDigest: specDigest(s.tech, spec),
		request:    recordRequest(Table1Request{Spec: &spec})}
	s.respond(w, info, "application/json",
		func(ctx context.Context) ([]byte, error) {
			return s.backend.Table1(ctx, spec)
		})
}

func (s *Server) handleMC(w http.ResponseWriter, r *http.Request) {
	var req MCRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if err := req.normalize(); err != nil {
		s.badRequest(w, err)
		return
	}
	spec, err := s.specFor(req.Spec, req.Topology)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	recReq := req
	recReq.Spec = &spec
	info := runInfo{kind: "mc", topology: req.Topology, caseN: req.Case,
		key: req.cacheKey(s.tech, spec), specDigest: specDigest(s.tech, spec),
		request: recordRequest(recReq)}
	s.respond(w, info, "application/json",
		func(ctx context.Context) ([]byte, error) {
			return s.backend.MC(ctx, spec, &req)
		})
}

// TopologiesReport is the GET /v1/topologies payload.
type TopologiesReport struct {
	Default    string   `json:"default"`
	Topologies []string `json:"topologies"`
}

func (s *Server) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	s.requests.Add(1)
	body, err := marshalJSON(TopologiesReport{
		Default:    sizing.DefaultTopology,
		Topologies: sizing.Topologies(),
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.served.Add(1)
}

// LayoutsReport is the GET /v1/layouts payload: every registered layout
// backend's capability descriptor.
type LayoutsReport struct {
	Default string        `json:"default"`
	Layouts []layout.Info `json:"layouts"`
}

func (s *Server) handleLayouts(w http.ResponseWriter, _ *http.Request) {
	s.requests.Add(1)
	body, err := marshalJSON(LayoutsReport{
		Default: layout.DefaultBackend,
		Layouts: layout.Backends(),
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.served.Add(1)
}

func (s *Server) handleLayoutSVG(w http.ResponseWriter, _ *http.Request) {
	spec := sizing.Default65MHz()
	info := runInfo{kind: "layout.svg", key: layoutCacheKey(s.tech, spec),
		specDigest: specDigest(s.tech, spec)}
	s.respond(w, info, "image/svg+xml",
		func(ctx context.Context) ([]byte, error) {
			return s.backend.LayoutSVG(ctx, spec)
		})
}

// respond is the one path every result endpoint takes:
// cache → singleflight → bounded queue → backend → cache.
//
// Every pass through here is also one run: a span tree is recorded
// (request → cache-lookup → queue-wait → <kind> → backend phases), the
// finished obs.RunRecord lands in the run store and the ledger, and the
// lifecycle is narrated on /v1/events. The outcome labels the path
// taken: "cache-hit" (byte replay), "ok" (this request's leader closure
// executed the backend), "dedup" (joined another request's in-flight
// execution) or "error".
func (s *Server) respond(w http.ResponseWriter, info runInfo, contentType string,
	compute func(context.Context) ([]byte, error)) {
	start := time.Now()
	s.requests.Add(1)
	ar := s.beginRun(info, start)

	v, outcome, err := s.executeKeyed(ar, contentType, compute)
	if err != nil {
		s.finishRun(ar, outcomeError, err, nil)
		s.fail(w, err)
		return
	}
	s.finishRun(ar, outcome, nil, v.Body)
	s.write(w, v, info.key, cacheSource(outcome), start)
}

// cacheSource maps a run outcome to its X-Loas-Cache header value.
func cacheSource(outcome string) string {
	switch outcome {
	case outcomeCacheHit:
		return "hit"
	case outcomeDedup:
		return "dedup"
	}
	return "miss"
}

// executeKeyed runs one content-addressed unit of work through the
// cache → singleflight → bounded queue → backend → cache path and
// reports how it was satisfied (outcomeCacheHit / outcomeOK /
// outcomeDedup). It is the shared engine behind every result endpoint
// and every batch item / exploration probe; ar carries the unit's own
// run (span tree, live trace, content key).
func (s *Server) executeKeyed(ar *activeRun, contentType string,
	compute func(context.Context) ([]byte, error)) (Value, string, error) {
	info := ar.info
	lookup := ar.root.Child("cache-lookup")
	v, ok := s.cache.Get(info.key)
	lookup.End()
	if ok {
		return v, outcomeCacheHit, nil
	}

	// Opened before Submit, ended at job start: the span (and the
	// loas_queue_wait_seconds histogram) measure the real time this
	// request's work sat behind the bounded queue.
	queueWait := ar.root.Child("queue-wait")
	v, err, shared := s.flight.Do(info.key, func() (Value, error) {
		// Leader: run under the daemon's own lifetime, not the first
		// client's — if that client disconnects, joiners and the cache
		// still get the result.
		ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
		defer cancel()
		// Label the execution context so CPU/heap profile samples taken
		// anywhere under this run — pool worker, corner sweep, MC fan-out
		// — attribute to the request that caused them. The engine layers
		// finer phase labels (sizing, layout-extract, ...) on top.
		lay := info.layout
		if lay == "" {
			lay = layout.DefaultBackend
		}
		ctx = obs.LabelCtx(ctx,
			"phase", info.kind,
			"topology", info.topology,
			"layout", lay,
			"run_id", ar.id)
		var out Value
		err := s.pool.Submit(ctx, func(ctx context.Context) error {
			queueWait.End()
			s.queueWait.Observe(queueWait.Duration().Seconds())
			s.backendRuns.Add(1)
			work := ar.root.Child(info.kind)
			defer work.End()
			ctx = obs.ContextWithSpan(ctx, work)
			ctx = obs.ContextWithTrace(ctx, ar.trace)
			body, cErr := compute(ctx)
			if cErr != nil {
				return cErr
			}
			out = Value{Body: body, ContentType: contentType}
			s.cache.Put(info.key, out)
			return nil
		})
		if err != nil {
			return Value{}, err
		}
		return out, nil
	})
	// Idempotent close for the paths where the job never started
	// (joiner, queue full, pool closed). Those spans measured waiting on
	// someone else's execution, not this request's queue admission, so
	// only the in-job End above feeds the histogram.
	queueWait.End()
	if err != nil {
		return Value{}, outcomeError, err
	}
	outcome := outcomeOK
	if shared {
		outcome = outcomeDedup
	}
	return v, outcome, nil
}

func (s *Server) write(w http.ResponseWriter, v Value, key, src string, start time.Time) {
	w.Header().Set("Content-Type", v.ContentType)
	w.Header().Set("X-Loas-Cache", src)
	// The content-addressed key finds the run that computed this body
	// (GET /v1/runs?key=<key>&outcome=ok).
	w.Header().Set("X-Loas-Key", key)
	w.Write(v.Body)
	s.latency.Observe(time.Since(start).Seconds())
	s.served.Add(1)
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.requests.Add(1)
	s.errorBody(w, http.StatusBadRequest, err)
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		s.errorBody(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, parallel.ErrPoolClosed):
		s.errorBody(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.errorBody(w, http.StatusGatewayTimeout, err)
	default:
		s.errorBody(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) errorBody(w http.ResponseWriter, code int, err error) {
	s.errs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// specFor resolves a request's optional spec override against the
// server default and validates it. A request naming a non-default
// topology without a spec gets that topology's own default spec (the
// paper's 65 MHz target is out of reach for the smaller OTAs).
func (s *Server) specFor(o *sizing.OTASpec, topology string) (sizing.OTASpec, error) {
	spec := sizing.Default65MHz()
	if o == nil && topology != "" && topology != sizing.DefaultTopology {
		if plan, err := sizing.Lookup(topology); err == nil {
			spec = plan.DefaultSpec()
		}
	}
	if o != nil {
		spec = *o
	}
	if spec.VDD <= 0 || spec.GBW <= 0 || spec.CL <= 0 || spec.PM <= 0 {
		return spec, fmt.Errorf("spec requires positive vdd, gbw, pm, cl (got vdd=%g gbw=%g pm=%g cl=%g)",
			spec.VDD, spec.GBW, spec.PM, spec.CL)
	}
	return spec, nil
}

// decodeJSON reads a request body strictly (unknown fields are errors —
// a typo must not silently become a different cache key); an empty body
// selects the defaults.
func decodeJSON(r *http.Request, dst any) error {
	return decodeJSONLimit(r, dst, 1<<20)
}

// decodeJSONLimit is decodeJSON with an explicit body bound — the batch
// endpoint accepts thousands of specs and needs more than the single-
// request megabyte. The body holds one JSON value and nothing after it
// but whitespace: `{"case":1} {"case":2}` must not silently serve case 1.
func decodeJSONLimit(r *http.Request, dst any, limit int64) error {
	// One byte past the bound tells an oversized body from a full one.
	body := &io.LimitedReader{R: r.Body, N: limit + 1}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	switch {
	case err == nil:
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	case errors.Is(err, io.EOF):
		err = nil // empty body: the defaults
	}
	if body.N <= 0 {
		return fmt.Errorf("bad request body: larger than %d bytes", limit)
	}
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
