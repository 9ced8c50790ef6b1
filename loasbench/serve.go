package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loas/internal/core"
	"loas/internal/obs"
	"loas/internal/serve"
	"loas/internal/sizing"
)

// serveHot is a warm daemon: GOMAXPROCS client goroutines in a closed
// loop call the handler of a default-config server with its run ledger
// on, over a working set primed during set-up. Every synthesize and
// batch item is a cache hit, so serve and obs (keys, cache replay, run
// records, ledger, events, JSON) carry the load and the engine is idle.
//
// A round is twenty ops: sixteen synthesize hits, two batches of the
// whole working set and two run-history reads, in seeded order.
// Synthesize hits hold the median, so op_p50_ms falls inside that
// class; batches are the slowest tenth, and op_tail_ms (p95) falls
// inside them.
var serveHot = workload{name: "serve-hot", tailPct: 95, setup: newServeHot}

const (
	// serveRoundS is the nominal length of one serve-hot round.
	serveRoundS = 0.0013
	// runsPath is the run-history read of the mix.
	runsPath = "/v1/runs?limit=20"
)

const (
	classSynth = iota
	classBatch
	classRuns
)

var serveClasses = []string{"synthesize-hit", "batch-hit", "runs-read"}

// serveOp is one request: its class and, for a synthesize hit, the
// working-set item.
type serveOp struct {
	class, item uint8
}

// genServeOps generates the working set (one spec per topology ×
// backend, from the spec pool) and the op list of a serve-hot run, whose
// order and synthesize items are drawn from seed. The working set keeps
// each topology's default CL: its subject is the warm read path, and an
// item that failed to synthesize would never become a hit.
func genServeOps(seed int64, rounds int) ([]serveOp, []serve.SynthesizeRequest) {
	pool := rand.New(rand.NewSource(poolSeed))
	var items []serve.SynthesizeRequest
	for _, t := range topologies {
		plan, err := sizing.Lookup(t)
		if err != nil {
			panic(err) // topologies lists registered names only
		}
		for k, spec := range perturbedSpecs(pool, t, len(backends)) {
			spec.CL = plan.DefaultSpec().CL
			items = append(items, serve.SynthesizeRequest{Topology: t, Layout: backends[k], Spec: &spec})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []serveOp
	for r := 0; r < rounds; r++ {
		var round []serveOp
		for k := 0; k < 16; k++ {
			item := k % len(items)
			if k >= 2*len(items) {
				item = rng.Intn(len(items))
			}
			round = append(round, serveOp{class: classSynth, item: uint8(item)})
		}
		round = append(round, serveOp{class: classBatch}, serveOp{class: classBatch},
			serveOp{class: classRuns}, serveOp{class: classRuns})
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		ops = append(ops, round...)
	}
	return ops, items
}

type serveInstance struct {
	dir string
	led *obs.Ledger
	srv *serve.Server
	h   http.Handler
	ops []serveOp

	synthBodies [][]byte // request bodies per working-set item
	batchBody   []byte   // one batch of the whole working set
	primed      [][]byte // response body per item, recorded while priming
	// batchItems is each item's summary as it appears inside a batch
	// response; it is checked against primed during set-up.
	batchItems [][]byte
	// outSum is each item's normalized response digest (elapsed time
	// zeroed), and batchSum the digest of a whole batch's items.
	outSum   [][sha256.Size]byte
	batchSum [sha256.Size]byte

	primeBackendRuns int64
	// next is the index of the next op a client takes in run.
	next atomic.Int64
	// stats brackets the timed phases, for the invariant and the
	// per-layer cache numbers.
	before, after []serve.Stats
}

func newServeHot(cfg config) (instance, error) {
	ops, items := genServeOps(cfg.seed, roundCount(cfg.seconds, serveRoundS))
	dir, err := os.MkdirTemp(cfg.outDir, "ledger-")
	if err != nil {
		return nil, err
	}
	s := &serveInstance{dir: dir, ops: ops}
	s.led, err = obs.OpenLedger(filepath.Join(dir, "runs.jsonl"), obs.LedgerOptions{})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = serve.New(serve.Config{Ledger: s.led})
	s.h = s.srv.Handler()
	if err := s.prime(items); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prime fills the cache with the working set (the daemon's write path:
// cold syntheses, cache puts, ledger appends), records each response,
// then warms one op of every class.
func (s *serveInstance) prime(items []serve.SynthesizeRequest) error {
	rw := newRecorder()
	for k, it := range items {
		body, err := json.Marshal(it)
		if err != nil {
			return err
		}
		s.synthBodies = append(s.synthBodies, body)
		rw.serve(s.h, http.MethodPost, "/v1/synthesize", body)
		if rw.status != http.StatusOK || rw.hdr.Get("X-Loas-Cache") != "miss" {
			return fmt.Errorf("priming item %d: status %d, cache %q: %s",
				k, rw.status, rw.hdr.Get("X-Loas-Cache"), rw.body)
		}
		s.primed = append(s.primed, append([]byte(nil), rw.body...))
		sum, err := normalizedSummary(rw.body)
		if err != nil {
			return fmt.Errorf("priming item %d: %w", k, err)
		}
		s.outSum = append(s.outSum, sum)
	}
	s.primeBackendRuns = s.srv.Stats().BackendRuns
	var err error
	if s.batchBody, err = json.Marshal(serve.BatchRequest{Items: items}); err != nil {
		return err
	}
	h := sha256.New()
	for _, sum := range s.outSum {
		h.Write(sum[:])
	}
	copy(s.batchSum[:], h.Sum(nil))

	// Warm-up, one op per class. The batch records how each item's
	// summary appears inside a batch response, after checking it is the
	// primed body.
	var b batchReply
	rw.serve(s.h, http.MethodPost, "/v1/batch", s.batchBody)
	if err := json.Unmarshal(rw.body, &b); err != nil || rw.status != http.StatusOK || len(b.Results) != len(items) {
		return fmt.Errorf("batch warm-up: status %d: %s", rw.status, rw.body)
	}
	s.batchItems = make([][]byte, len(items))
	for _, r := range b.Results {
		var got, want bytes.Buffer
		if err := json.Compact(&got, r.Summary); err != nil {
			return fmt.Errorf("batch warm-up item %d: %w", r.Index, err)
		}
		if err := json.Compact(&want, s.primed[r.Index]); err != nil {
			return fmt.Errorf("primed item %d: %w", r.Index, err)
		}
		if r.Cache != "hit" || !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("batch warm-up item %d: cache %q, summary differs from the primed body", r.Index, r.Cache)
		}
		s.batchItems[r.Index] = append([]byte(nil), r.Summary...)
	}
	for _, op := range []serveOp{{class: classSynth}, {class: classRuns}} {
		if f, bad := s.do(rw, &b, op); bad {
			return fmt.Errorf("%s warm-up: %s", serveClasses[op.class], f.cause)
		}
	}
	return nil
}

func (s *serveInstance) classes() []string { return serveClasses }
func (s *serveInstance) check(*phase)      {}

func (s *serveInstance) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.led != nil {
		if err := s.led.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "loasbench: closing the ledger:", err)
		}
	}
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "loasbench:", err)
	}
}

// invariant checks that the timed phases were all cache hits and ran
// no synthesis.
func (s *serveInstance) invariant() string {
	for i := range s.before {
		b, a := s.before[i], s.after[i]
		if runs := a.BackendRuns - b.BackendRuns; runs != 0 {
			return fmt.Sprintf("timed phase %d ran %d syntheses", i, runs)
		}
		if miss := a.Cache.Misses - b.Cache.Misses; miss != 0 {
			return fmt.Sprintf("timed phase %d missed the cache %d times", i, miss)
		}
	}
	return ""
}

func (s *serveInstance) timed() *phase {
	p := s.run(nil)
	p.heapLiveB = heapLive()
	return p
}

// run executes the op list on GOMAXPROCS closed-loop clients. Each op's
// latency is its handler call; the client then checks the reply before
// taking the next op.
func (s *serveInstance) run(tr *tracer) *phase {
	p := newPhase(len(s.ops))
	p.out = nil
	var mu sync.Mutex // guards p.fails
	var wg sync.WaitGroup
	s.next.Store(0)
	s.before = append(s.before, s.srv.Stats())
	m := readMeter()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw := newRecorder()
			var b batchReply
			for {
				i := int(s.next.Add(1) - 1)
				if i >= len(s.ops) {
					return
				}
				op := s.ops[i]
				if tr != nil {
					rw.around = func(call func()) {
						sp := tr.begin(serveClasses[op.class], -1, i)
						call()
						tr.end(sp)
					}
				}
				f, bad := s.do(rw, &b, op)
				p.latNS[i] = rw.took.Nanoseconds()
				p.class[i] = op.class
				if bad {
					mu.Lock()
					p.fails[i] = f
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	m.addTo(p)
	s.after = append(s.after, s.srv.Stats())
	p.sum = s.digest(p)
	return p
}

// do sends one op's request and checks the reply: status 200, a cache
// hit on every synthesize and batch item, and each summary byte-equal
// to the primed response.
func (s *serveInstance) do(rw *recorder, b *batchReply, op serveOp) (failure, bool) {
	name := serveClasses[op.class]
	var f failure
	switch op.class {
	case classSynth:
		rw.serve(s.h, http.MethodPost, "/v1/synthesize", s.synthBodies[op.item])
		if rw.status != http.StatusOK {
			return failure{phase: name, cause: fmt.Sprintf("status %d", rw.status)}, true
		}
		if c := rw.hdr.Get("X-Loas-Cache"); c != "hit" {
			f = failure{phase: name, cause: "X-Loas-Cache " + c, wrong: true}
		} else if !bytes.Equal(rw.body, s.primed[op.item]) {
			f = failure{phase: name, cause: "body differs from the primed response", wrong: true}
		}
	case classBatch:
		rw.serve(s.h, http.MethodPost, "/v1/batch", s.batchBody)
		if rw.status != http.StatusOK {
			return failure{phase: name, cause: fmt.Sprintf("status %d", rw.status)}, true
		}
		b.Results = b.Results[:0]
		if err := json.Unmarshal(rw.body, b); err != nil || len(b.Results) != len(s.primed) {
			return failure{phase: name, cause: "malformed batch report", wrong: true}, true
		}
		for _, r := range b.Results {
			if r.Cache != "hit" {
				f = failure{phase: name, cause: "item cache " + r.Cache, wrong: true}
			} else if r.Index < 0 || r.Index >= len(s.batchItems) || !bytes.Equal(r.Summary, s.batchItems[r.Index]) {
				f = failure{phase: name, cause: "item summary differs from the primed response", wrong: true}
			}
		}
	case classRuns:
		rw.serve(s.h, http.MethodGet, runsPath, nil)
		if rw.status != http.StatusOK {
			return failure{phase: name, cause: fmt.Sprintf("status %d", rw.status)}, true
		}
	}
	return f, f.cause != ""
}

// digest hashes each op's output in op order: the normalized primed
// response of a synthesize hit or of every batch item, the status of a
// run-history read, or the op's failure.
func (s *serveInstance) digest(p *phase) string {
	h := sha256.New()
	for i, op := range s.ops {
		if f, bad := p.fails[i]; bad {
			fmt.Fprintf(h, "%d fail %s %s\n", op.class, f.phase, f.cause)
			continue
		}
		switch op.class {
		case classSynth:
			h.Write(s.outSum[op.item][:])
		case classBatch:
			h.Write(s.batchSum[:])
		case classRuns:
			h.Write([]byte("runs 200\n"))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *serveInstance) traced(tr *tracer, untraced *phase) (*phase, map[string]float64) {
	sse, err := s.subscribe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loasbench:", err)
	}
	lm := startLedgerMeter(filepath.Join(s.dir, "runs.jsonl"))
	frames0 := sse.frames.Load()
	p := s.run(tr)
	grown := lm.stop()
	dropped := sse.stop()
	frames := sse.frames.Load() - frames0
	// A subscriber the server dropped as a slow client counts only the
	// requests that were sent while it was subscribed.
	subscribed := float64(len(s.ops))
	if dropped {
		subscribed = float64(min(sse.opsAtEnd, int64(len(s.ops))))
	}

	n := float64(len(s.ops))
	layer := map[string]float64{
		"serve.synthesize_hit_us":  quantile(p.okLatencies(classSynth), 0.5) / 1e3,
		"serve.batch_hit_ms":       quantile(p.okLatencies(classBatch), 0.5) / 1e6,
		"serve.runs_read_us":       quantile(p.okLatencies(classRuns), 0.5) / 1e3,
		"serve.alloc_kb_per_req":   float64(untraced.allocB) / 1e3 / n,
		"serve.prime_backend_runs": float64(s.primeBackendRuns),
		"obs.ledger_bytes_per_req": float64(grown) / n,
	}
	if subscribed > 0 {
		layer["obs.sse_frames_per_req"] = float64(frames) / subscribed
	}
	var hits, misses, runs int64
	for i := range s.before {
		hits += s.after[i].Cache.Hits - s.before[i].Cache.Hits
		misses += s.after[i].Cache.Misses - s.before[i].Cache.Misses
		runs += s.after[i].BackendRuns - s.before[i].BackendRuns
	}
	if hits+misses > 0 {
		layer["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	layer["serve.backend_runs"] = float64(runs)
	if dropped {
		fmt.Fprintf(os.Stderr, "loasbench: the /v1/events subscriber was dropped as a slow client after %.0f of %d requests\n",
			subscribed, len(s.ops))
	}
	return p, layer
}

// batchReply is the part of a batch report the checks read.
type batchReply struct {
	Results []struct {
		Index   int             `json:"index"`
		Cache   string          `json:"cache"`
		Summary json.RawMessage `json:"summary"`
	} `json:"results"`
}

// normalizedSummary hashes a synthesize response with its elapsed time
// zeroed.
func normalizedSummary(body []byte) ([sha256.Size]byte, error) {
	var sum core.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		return [sha256.Size]byte{}, err
	}
	sum.ElapsedMS = 0
	b, err := json.Marshal(sum)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   []byte
	took   time.Duration // the last handler call
	// around, when non-nil, wraps each handler call (the traced pass
	// records a span there); took includes it.
	around func(call func())
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.body = append(r.body, b...)
	return len(b), nil
}

// serve calls the handler with one request and times the call.
func (r *recorder) serve(h http.Handler, method, target string, body []byte) {
	clear(r.hdr)
	r.status, r.body = 0, r.body[:0]
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		panic(err) // fixed method and target
	}
	call := func() { h.ServeHTTP(r, req) }
	start := time.Now()
	if r.around != nil {
		r.around(call)
	} else {
		call()
	}
	r.took = time.Since(start)
}

// sseCounter is a /v1/events subscriber that counts the frames it gets.
type sseCounter struct {
	hdr    http.Header
	frames atomic.Int64
	cancel context.CancelFunc
	done   chan struct{}
	// opsAtEnd is how many ops the clients had taken when the stream
	// ended; read it after done is closed.
	opsAtEnd int64
}

func (c *sseCounter) Header() http.Header { return c.hdr }
func (c *sseCounter) WriteHeader(int)     {}
func (c *sseCounter) Flush()              {}

func (c *sseCounter) Write(b []byte) (int, error) {
	c.frames.Add(1)
	return len(b), nil
}

// subscribe opens a /v1/events stream and returns once it receives
// events: it sends synthesize hits until a frame beyond the stream's
// opening comment arrives. The error reports a stream that ended before
// that; the returned counter is usable either way.
func (s *serveInstance) subscribe() (*sseCounter, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &sseCounter{hdr: http.Header{}, cancel: cancel, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/events", nil)
	if err != nil {
		panic(err) // fixed method and target
	}
	go func() {
		defer close(c.done)
		s.h.ServeHTTP(c, req)
		c.opsAtEnd = s.next.Load()
	}()
	rw := newRecorder()
	var b batchReply
	for c.frames.Load() < 2 {
		select {
		case <-c.done:
			return c, fmt.Errorf("the /v1/events stream ended before its first event")
		case <-time.After(time.Millisecond):
		}
		s.do(rw, &b, serveOp{class: classSynth})
	}
	return c, nil
}

// stop ends the stream, waits for its handler to return and reports
// whether the server had dropped it before.
func (c *sseCounter) stop() (dropped bool) {
	select {
	case <-c.done:
		dropped = true
	default:
	}
	c.cancel()
	<-c.done
	return dropped
}

// ledgerMeter follows the growth of the ledger file across rotations by
// polling its size: when the size falls, the file was rotated to
// <path>.1, whose size is the old file's final size.
type ledgerMeter struct {
	path       string
	last, grew int64
	quit, done chan struct{}
}

func startLedgerMeter(path string) *ledgerMeter {
	m := &ledgerMeter{path: path, quit: make(chan struct{}), done: make(chan struct{})}
	m.last = m.size(path)
	go func() {
		defer close(m.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				m.poll()
				return
			case <-t.C:
				m.poll()
			}
		}
	}()
	return m
}

func (m *ledgerMeter) size(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (m *ledgerMeter) poll() {
	size := m.size(m.path)
	if size < m.last {
		m.grew += m.size(m.path+".1") - m.last
		m.last = 0
	}
	m.grew += size - m.last
	m.last = size
}

// stop ends the polling and returns the bytes the ledger grew by.
func (m *ledgerMeter) stop() int64 {
	close(m.quit)
	<-m.done
	return m.grew
}
