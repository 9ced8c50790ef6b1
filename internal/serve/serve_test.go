package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// stubBackend counts invocations and returns canned bodies, so the
// cache/dedup/queue behaviour can be pinned down without paying for
// real synthesis.
type stubBackend struct {
	calls   atomic.Int64
	delay   time.Duration
	started chan struct{} // closed-once signal that a call began (optional)
	release chan struct{} // if non-nil, calls block until it closes
	once    sync.Once
}

func (b *stubBackend) do(kind string) ([]byte, error) {
	n := b.calls.Add(1)
	if b.started != nil {
		b.once.Do(func() { close(b.started) })
	}
	if b.release != nil {
		<-b.release
	}
	time.Sleep(b.delay)
	return []byte(fmt.Sprintf("{\"kind\":%q,\"call\":%d}\n", kind, n)), nil
}

// stubIterations is the canned convergence trace tracingStub records —
// three layout calls shrinking to a fixpoint, like the paper.
var stubIterations = []obs.Iteration{
	{Call: 1, DeltaF: -1, OutCapF: 100e-15},
	{Call: 2, DeltaF: 10e-15, OutCapF: 110e-15},
	{Call: 3, DeltaF: 0.5e-15, OutCapF: 110.5e-15},
}

func (b *stubBackend) Synthesize(_ context.Context, _ sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	return b.do(fmt.Sprintf("synthesize-%d", req.Case))
}
func (b *stubBackend) Table1(context.Context, sizing.OTASpec) ([]byte, error) {
	return b.do("table1")
}
func (b *stubBackend) MC(_ context.Context, _ sizing.OTASpec, req *MCRequest) ([]byte, error) {
	return b.do(fmt.Sprintf("mc-%d", req.N))
}
func (b *stubBackend) LayoutSVG(context.Context, sizing.OTASpec) ([]byte, error) {
	return b.do("layout")
}

func newStubServer(t *testing.T, cfg Config, b Backend) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Backend = b
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestDedupConcurrentIdenticalRequests is the singleflight contract: N
// concurrent identical requests cost exactly one backend synthesis.
func TestDedupConcurrentIdenticalRequests(t *testing.T) {
	stub := &stubBackend{started: make(chan struct{}), release: make(chan struct{})}
	s, ts := newStubServer(t, Config{}, stub)

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.URL+"/v1/synthesize", `{"case":3}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
			}
			bodies[i] = data
		}(i)
	}
	// Hold the leader inside the backend until every other request has
	// joined its flight, so all n provably overlapped.
	<-stub.started
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.Joined() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d joined the flight", s.flight.Joined(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(stub.release)
	wg.Wait()

	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times for %d identical concurrent requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs: %s vs %s", i, bodies[i], bodies[0])
		}
	}
	st := s.Stats()
	if st.BackendRuns != 1 {
		t.Fatalf("stats backend runs = %d, want 1", st.BackendRuns)
	}
	if st.DedupJoined != n-1 || st.Cache.Hits != 0 {
		t.Fatalf("dedup %d (want %d), hits %d (want 0)", st.DedupJoined, n-1, st.Cache.Hits)
	}
}

func TestCacheHitReplaysBytes(t *testing.T) {
	stub := &stubBackend{}
	s, ts := newStubServer(t, Config{}, stub)

	_, cold := post(t, ts.URL+"/v1/mc", `{"n":4,"seed":9}`)
	resp, warm := post(t, ts.URL+"/v1/mc", `{"n":4,"seed":9}`)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache replay differs: %q vs %q", cold, warm)
	}
	if h := resp.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("X-Loas-Cache = %q, want hit", h)
	}
	if stub.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1", stub.calls.Load())
	}
	// A different seed is a different content address.
	post(t, ts.URL+"/v1/mc", `{"n":4,"seed":10}`)
	if stub.calls.Load() != 2 {
		t.Fatalf("distinct request should miss, calls = %d", stub.calls.Load())
	}
	if st := s.Stats(); st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
}

// TestWorkersExcludedFromKey: worker count tunes execution, not the
// result (the engine is worker-invariant), so it must share the cache
// slot.
func TestWorkersExcludedFromKey(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/mc", `{"n":4,"seed":9,"workers":1}`)
	resp, _ := post(t, ts.URL+"/v1/mc", `{"n":4,"seed":9,"workers":7}`)
	if h := resp.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("worker count changed the cache key (X-Loas-Cache = %q)", h)
	}
	if stub.calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", stub.calls.Load())
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	stub := &stubBackend{started: make(chan struct{}), release: make(chan struct{})}
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: -1}, stub)

	// Occupy the only worker.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, _ := post(t, ts.URL+"/v1/synthesize", `{"case":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first request status %d", resp.StatusCode)
		}
	}()
	<-stub.started

	// A different key cannot queue: 503.
	resp, data := post(t, ts.URL+"/v1/synthesize", `{"case":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, data)
	}
	close(stub.release)
	<-firstDone
}

func TestBadRequests(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	for _, tc := range []struct{ path, body string }{
		{"/v1/synthesize", `{"case":9}`},
		{"/v1/synthesize", `{"unknown_field":1}`},
		{"/v1/mc", `{"n":-4}`},
		{"/v1/table1", `{"spec":{"vdd":-1}}`},
		{"/v1/synthesize", `not json`},
		{"/v1/synthesize", `{"topology":"no-such-ota"}`},
		{"/v1/mc", `{"topology":"no-such-ota"}`},
	} {
		resp, data := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", tc.path, tc.body, resp.StatusCode, data)
		}
	}
	if stub.calls.Load() != 0 {
		t.Fatalf("bad requests reached the backend %d times", stub.calls.Load())
	}
}

// TestRequestBodyStrict: a body is one JSON value plus optional
// whitespace. Trailing data after the value and a body over the bound
// are 400s that never reach the backend; a newline-terminated body, as
// json.Encoder writes it, still decodes.
func TestRequestBodyStrict(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	for _, tc := range []struct {
		body   string
		status int
		wantIn string
	}{
		{`{"case":1} {"case":2}`, http.StatusBadRequest, "trailing data"},
		{`{"case":1},{"case":3}`, http.StatusBadRequest, "trailing data"},
		{`{"case":1}garbage`, http.StatusBadRequest, "trailing data"},
		{`{"case":1` + strings.Repeat(" ", 1<<20) + `}`, http.StatusBadRequest, "larger than 1048576 bytes"},
		{"{\"case\":1}\n", http.StatusOK, ""},
		{" \t{\"case\":2} \r\n\n", http.StatusOK, ""},
	} {
		before := stub.calls.Load()
		resp, data := post(t, ts.URL+"/v1/synthesize", tc.body)
		name := tc.body
		if len(name) > 40 {
			name = name[:40] + "…"
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%q: status %d (%s), want %d", name, resp.StatusCode, data, tc.status)
		}
		if !strings.Contains(string(data), tc.wantIn) {
			t.Errorf("%q: error %s does not mention %q", name, data, tc.wantIn)
		}
		if tc.status != http.StatusOK && stub.calls.Load() != before {
			t.Errorf("%q: a rejected body reached the backend", name)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/synthesize", `{}`)
	post(t, ts.URL+"/v1/synthesize", `{}`)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Requests != 2 || st.BackendRuns != 1 || st.Cache.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Queue.Workers <= 0 {
		t.Fatalf("queue stats missing: %+v", st.Queue)
	}
}

// TestStatsAvgLatencyCoversResultResponses: avg_latency_ms averages the
// result responses the latency histogram observed. Listing endpoints
// count as served but carry no latency sample, so they must not dilute
// the average.
func TestStatsAvgLatencyCoversResultResponses(t *testing.T) {
	stub := &stubBackend{delay: 40 * time.Millisecond}
	s, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/synthesize", `{}`)
	for i := 0; i < 3; i++ {
		if resp := getJSON(t, ts.URL+"/v1/topologies", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("topologies status %d", resp.StatusCode)
		}
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Served != 4 {
		t.Fatalf("served = %d, want 4", st.Served)
	}
	if n := s.latency.Count(); n != 1 {
		t.Fatalf("latency histogram holds %d samples, want 1", n)
	}
	if want := s.latency.Sum() * 1e3; st.AvgLatencyMS != want || want < 40 {
		t.Fatalf("avg_latency_ms = %.2f, want the one synthesis' %.2f ms (>= 40)", st.AvgLatencyMS, want)
	}
}

// TestMetricsEndpoint: /metrics exposes the latency histogram, the
// cache/queue gauges and the process-wide domain counters in Prometheus
// text format.
func TestMetricsEndpoint(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/synthesize", `{}`)
	post(t, ts.URL+"/v1/synthesize", `{}`) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE loas_synth_latency_seconds histogram",
		`loas_synth_latency_seconds_bucket{le="+Inf"} 2`,
		"loas_synth_latency_seconds_count 2",
		"loas_cache_hits 1",
		"loas_cache_misses 1",
		"loas_backend_runs 1",
		"# TYPE loas_queue_depth gauge",
		"loas_queue_depth 0",
		// Domain counters from obs.Default (values vary across the test
		// binary's lifetime; presence is the contract here).
		"loas_sizing_passes_total",
		"loas_layout_plans_total",
		"loas_mc_samples_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestPprofGating: the profiler endpoints exist only when asked for.
func TestPprofGating(t *testing.T) {
	stub := &stubBackend{}
	_, off := newStubServer(t, Config{}, stub)
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof should be absent by default, got status %d", resp.StatusCode)
	}

	_, on := newStubServer(t, Config{EnablePprof: true}, stub)
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled but status %d", resp.StatusCode)
	}
}

// TestShutdownWithRequestsInFlight drives traffic while the pool is
// closed under it; with `go test -race` this doubles as the data-race
// gate on the shutdown path. Accepted requests complete, later ones
// are shed with 503.
func TestShutdownWithRequestsInFlight(t *testing.T) {
	stub := &stubBackend{delay: 20 * time.Millisecond}
	s := New(Config{Backend: stub, Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.URL+"/v1/mc", fmt.Sprintf(`{"n":%d}`, i+1))
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("in-flight shutdown: status %d (%s)", resp.StatusCode, data)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	s.Close() // drains accepted jobs, rejects the rest
	wg.Wait()

	st := s.Stats()
	if st.Queue.Depth != 0 {
		t.Fatalf("queue not drained: %+v", st.Queue)
	}
}

// TestTopologiesEndpoint: GET /v1/topologies lists every registered
// plan plus the default, in sorted order.
func TestTopologiesEndpoint(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	resp, err := http.Get(ts.URL + "/v1/topologies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rep TopologiesReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Default != sizing.DefaultTopology {
		t.Fatalf("default %q, want %q", rep.Default, sizing.DefaultTopology)
	}
	want := sizing.Topologies()
	if len(rep.Topologies) != len(want) {
		t.Fatalf("topologies %v, want %v", rep.Topologies, want)
	}
	for i := range want {
		if rep.Topologies[i] != want[i] {
			t.Fatalf("topologies %v, want %v", rep.Topologies, want)
		}
	}
	if stub.calls.Load() != 0 {
		t.Fatal("listing topologies must not reach the backend")
	}
}

// TestUnknownTopologyLists400: the 400 body for an unknown topology
// names every registered plan, so a client can self-correct.
func TestUnknownTopologyLists400(t *testing.T) {
	stub := &stubBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	for _, path := range []string{"/v1/synthesize", "/v1/mc"} {
		resp, data := post(t, ts.URL+path, `{"topology":"no-such-ota"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", path, resp.StatusCode, data)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("%s: non-JSON error body %q", path, data)
		}
		for _, name := range sizing.Topologies() {
			if !strings.Contains(body.Error, name) {
				t.Fatalf("%s: error %q does not list topology %q", path, body.Error, name)
			}
		}
	}
	if stub.calls.Load() != 0 {
		t.Fatalf("unknown topology reached the backend %d times", stub.calls.Load())
	}
}

// TestTopologyKeyCanonicalization is the deterministic complement of
// FuzzCanonicalKey: absent == explicit default (no cold-cache
// regression for pre-topology clients), and every registered topology
// keys distinctly on both synthesize and mc requests.
func TestTopologyKeyCanonicalization(t *testing.T) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()

	absent := SynthesizeRequest{}
	if err := absent.normalize(); err != nil {
		t.Fatal(err)
	}
	explicit := SynthesizeRequest{Topology: sizing.DefaultTopology}
	if err := explicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if absent.cacheKey(tech, spec) != explicit.cacheKey(tech, spec) {
		t.Fatal("absent topology must key identically to the explicit default")
	}

	seen := map[string]string{}
	for _, name := range sizing.Topologies() {
		sr := SynthesizeRequest{Topology: name}
		if err := sr.normalize(); err != nil {
			t.Fatal(err)
		}
		k := sr.cacheKey(tech, spec)
		if prev, dup := seen[k]; dup {
			t.Fatalf("topologies %q and %q collide on synthesize key", prev, name)
		}
		seen[k] = name

		mr := MCRequest{Topology: name}
		if err := mr.normalize(); err != nil {
			t.Fatal(err)
		}
		mk := mr.cacheKey(tech, spec)
		if prev, dup := seen[mk]; dup {
			t.Fatalf("mc key for %q collides with %q", name, prev)
		}
		seen[mk] = "mc/" + name
	}
}

// TestTopologyDefaultSpecSubstitution: naming a non-default topology
// without a spec must hand the backend that topology's own default
// specification, not the paper's 65 MHz folded-cascode target.
func TestTopologyDefaultSpecSubstitution(t *testing.T) {
	var got atomic.Value
	b := &specRecordingBackend{seen: &got}
	_, ts := newStubServer(t, Config{}, b)
	post(t, ts.URL+"/v1/synthesize", `{"topology":"two-stage"}`)
	plan, err := sizing.Lookup("two-stage")
	if err != nil {
		t.Fatal(err)
	}
	if spec := got.Load().(sizing.OTASpec); spec != plan.DefaultSpec() {
		t.Fatalf("backend saw spec %+v, want two-stage default %+v", spec, plan.DefaultSpec())
	}
}

// specRecordingBackend captures the spec the server resolved.
type specRecordingBackend struct {
	stubBackend
	seen *atomic.Value
}

func (b *specRecordingBackend) Synthesize(ctx context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	b.seen.Store(spec)
	return b.stubBackend.Synthesize(ctx, spec, req)
}
