package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 200_000

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the parent span, -1 for none
	op         int           // index of the op the call belongs to
	// allocB is the bytes allocated during the span. It is exact only
	// where nothing else runs concurrently (the single-caller workloads).
	allocB uint64
	// builds counts the netlist builds inside an mc.OffsetSamples span.
	builds int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
	// opSpan is the span of the op in flight, the parent of the layer
	// calls the wrapped plans and backends record. Only the
	// single-caller workloads set it.
	opSpan, op int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), opSpan: -1, op: -1}
}

// begin opens a span and returns its index (-1 when dropped).
func (t *tracer) begin(name string, parent, op int) int {
	alloc := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch),
		parent: parent, op: op, allocB: alloc})
	return len(t.spans) - 1
}

// end closes the span begin opened.
func (t *tracer) end(i int) {
	alloc := heapAllocs()
	now := time.Since(t.epoch)
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	t.spans[i].allocB = alloc - t.spans[i].allocB
}

// beginOp opens the span of op i and makes it the parent of the layer
// calls recorded until endOp.
func (t *tracer) beginOp(name string, i int) {
	s := t.begin(name, -1, i)
	t.mu.Lock()
	t.opSpan, t.op = s, i
	t.mu.Unlock()
}

func (t *tracer) endOp() {
	t.mu.Lock()
	s := t.opSpan
	t.opSpan, t.op = -1, -1
	t.mu.Unlock()
	t.end(s)
}

// child opens a span under the op in flight.
func (t *tracer) child(name string) int {
	t.mu.Lock()
	parent, op := t.opSpan, t.op
	t.mu.Unlock()
	return t.begin(name, parent, op)
}

// write stores the spans as CSV: name, start and end in ns since the
// run's tracer started, parent span index, op index, bytes allocated.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,op,alloc_bytes")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d\n", i, s.name, s.start.Nanoseconds(),
			s.end.Nanoseconds(), s.parent, s.op, s.allocB)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSums totals the spans of one layer.
type layerSums struct {
	calls  int
	dur    time.Duration
	allocB uint64
}

// tracedPrefix marks the wrapper plans and backends the traced run
// registers beside the originals.
const tracedPrefix = "traced-"

// active is the tracer the wrapper plans and backends report to; nil
// outside a traced pass.
var (
	activeMu sync.Mutex
	active   *tracer
)

func setActive(t *tracer) {
	activeMu.Lock()
	active = t
	activeMu.Unlock()
}

func activeTracer() *tracer {
	activeMu.Lock()
	defer activeMu.Unlock()
	return active
}

var registerOnce sync.Once

// registerTraced registers, for every design plan and layout backend, a
// wrapper that records a span around each call and forwards to the
// original. A synthesis run under the wrapper names computes the same
// design as under the originals; only the names it reports differ.
func registerTraced() {
	registerOnce.Do(func() {
		for _, name := range sizing.Topologies() {
			p, err := sizing.Lookup(name)
			if err != nil {
				panic(err) // a name Topologies just listed
			}
			size := p.Size
			p.Name = tracedPrefix + p.Name
			p.Size = func(tech *techno.Tech, spec sizing.OTASpec, ps sizing.ParasiticState) (sizing.Design, error) {
				t := activeTracer()
				if t == nil {
					return size(tech, spec, ps)
				}
				s := t.child("sizing")
				defer t.end(s)
				return size(tech, spec, ps)
			}
			sizing.Register(p)
		}
		for _, info := range layout.Backends() {
			b, err := layout.Lookup(info.Name)
			if err != nil {
				panic(err) // a name Backends just listed
			}
			layout.Register(tracedBackend{inner: b})
		}
	})
}

// tracedBackend records a "layout" span around each Plan call.
type tracedBackend struct{ inner layout.Backend }

func (b tracedBackend) Info() layout.Info {
	info := b.inner.Info()
	info.Name = tracedPrefix + info.Name
	return info
}

func (b tracedBackend) Plan(tech *techno.Tech, d *cairo.Design, c layout.Constraint, s *layout.Session) (*layout.Plan, error) {
	t := activeTracer()
	if t == nil {
		return b.inner.Plan(tech, d, c, s)
	}
	sp := t.child("layout")
	defer t.end(sp)
	return b.inner.Plan(tech, d, c, s)
}

// untraced strips the wrapper prefix from a plan or backend name.
func untraced(name string) string { return strings.TrimPrefix(name, tracedPrefix) }
