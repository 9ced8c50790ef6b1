package serve

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"

	"loas/internal/obs"
)

// latencyBuckets spans the service's dynamic range: sub-millisecond
// cache hits up to multi-minute cold Table-1 runs (seconds).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// queueWaitBuckets resolves the short end: an idle queue admits in
// microseconds, a saturated one holds jobs for seconds.
var queueWaitBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// batchSizeBuckets span one item up to the BatchMaxItems default.
var batchSizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// frontSizeBuckets span a single-point front up to a budget-sized one.
var frontSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// initMetrics builds the per-server registry. Counters the server
// already tracks atomically (requests, cache hits, queue depth) are
// exposed as gauges sampled at scrape time — one source of truth, two
// views (/stats JSON and /metrics Prometheus text).
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	r.InfoGauge("loas_build_info",
		"build identity of the running daemon (constant 1)",
		map[string]string{
			"version":    BuildVersion(),
			"go":         runtime.Version(),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		})
	s.latency = r.Histogram("loas_synth_latency_seconds",
		"request latency of result endpoints (cache hits and backend runs)", latencyBuckets)
	s.queueWait = r.Histogram("loas_queue_wait_seconds",
		"time a request's job waited behind the bounded queue before a worker picked it up",
		queueWaitBuckets)

	s.batchRequests = r.Counter("loas_batch_requests_total",
		"POST /v1/batch requests accepted")
	s.batchItems = r.Counter("loas_batch_items_total",
		"synthesize items submitted across all batches")
	s.batchItemErrors = r.Counter("loas_batch_item_errors_total",
		"batch items that ended in error")
	s.batchSize = r.Histogram("loas_batch_size_items",
		"items per accepted batch request", batchSizeBuckets)
	s.exploreRequests = r.Counter("loas_explore_requests_total",
		"POST /v1/explore requests accepted")
	s.exploreProbes = r.Counter("loas_explore_probe_runs_total",
		"exploration probes completed by this server (including cache hits and dedup joins)")
	s.exploreFront = r.Histogram("loas_explore_front_size",
		"Pareto-front points per explored topology", frontSizeBuckets)

	r.GaugeFunc("loas_requests", "requests received",
		func() float64 { return float64(s.requests.Load()) })
	r.GaugeFunc("loas_errors", "requests answered with an error status",
		func() float64 { return float64(s.errs.Load()) })
	r.GaugeFunc("loas_backend_runs", "synthesis executions that reached the backend",
		func() float64 { return float64(s.backendRuns.Load()) })
	r.GaugeFunc("loas_dedup_joined", "requests that joined an in-flight identical synthesis",
		func() float64 { return float64(s.flight.Joined()) })

	r.GaugeFunc("loas_cache_hits", "result cache hits",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.GaugeFunc("loas_cache_misses", "result cache misses",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.GaugeFunc("loas_cache_bytes", "bytes held by the result cache",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	r.GaugeFunc("loas_cache_entries", "entries held by the result cache",
		func() float64 { return float64(s.cache.Stats().Entries) })

	r.GaugeFunc("loas_queue_depth", "synthesis jobs accepted and not yet finished",
		func() float64 { return float64(s.pool.Stats().Depth) })
	r.GaugeFunc("loas_queue_depth_max", "high-water mark of the job queue depth",
		func() float64 { return float64(s.pool.Stats().MaxDepth) })
	r.GaugeFunc("loas_queue_rejected", "jobs shed because the queue was full",
		func() float64 { return float64(s.pool.Stats().Rejected) })
	r.GaugeFunc("loas_queue_saturation",
		"queue depth as a fraction of total admission capacity (workers + queue slots); 1.0 sheds load",
		func() float64 {
			st := s.pool.Stats()
			if cap := st.Workers + st.Capacity; cap > 0 {
				return float64(st.Depth) / float64(cap)
			}
			return 0
		})

	r.GaugeFunc("loas_runs_stored", "run records retained for /v1/runs",
		func() float64 { return float64(s.runs.len()) })
	r.GaugeFunc("loas_ledger_errors", "run records that failed to append to the ledger",
		func() float64 { return float64(s.ledgerErrs.Load()) })
	r.GaugeFunc("loas_event_subscribers", "clients connected to /v1/events",
		func() float64 { return float64(s.events.subscribers()) })
	r.GaugeFunc("loas_events_published", "SSE frames published to /v1/events subscribers",
		func() float64 { return float64(s.events.published.Load()) })
	r.GaugeFunc("loas_event_subscribers_dropped", "slow /v1/events subscribers dropped",
		func() float64 { return float64(s.events.dropped.Load()) })
}

// handleMetrics serves the Prometheus text exposition: the server's own
// registry first, then the process-wide obs.Default registry carrying
// the domain counters (sizing passes, layout plans, MC samples).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	obs.Default.WritePrometheus(w)
}

// mountPprof exposes the net/http/pprof profiles on the server mux
// (Config.EnablePprof / loasd -pprof). Mounted explicitly rather than
// through the package's DefaultServeMux side effect so an undebugged
// daemon serves nothing under /debug/.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
