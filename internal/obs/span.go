package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are the request-lifecycle complement of the convergence trace:
// where an Iteration tells the story of one sizing↔layout call, a span
// tree tells the story of one whole run — request → queue-wait →
// cache-lookup → synthesize → per-iteration phases → verification —
// with wall-clock attributed to every step. The corner and Monte-Carlo
// fan-outs open one span per worker item, so the tree also shows where
// parallel time goes.
//
// Span IDs come from the recorder's own counter, never from time or
// rand: two identical runs produce structurally identical trees, which
// is what keeps golden comparisons and the ledger replay exact.

// SpanRecord is the serialized form of one finished span — the wire
// format of GET /v1/runs/{id} and the ledger's `spans` field.
type SpanRecord struct {
	// ID and Parent are recorder-local: the root span has ID 1 and
	// Parent 0, children reference their parent's ID. IDs increase in
	// span start order.
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNS is the span's start offset from the recorder's epoch (the
	// run start), DurationNS its wall-clock length. A span still open at
	// snapshot time reports the elapsed time so far.
	StartNS    int64             `json:"start_ns"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	// AllocBytes and GCCycles are the span's resource deltas, present
	// only when the span opted in via BeginResources: heap bytes
	// allocated and GC cycles completed process-wide while the span ran.
	// Exact attribution on serial phases; an upper bound when other work
	// ran concurrently.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	GCCycles   int64 `json:"gc_cycles,omitempty"`
}

// Recorder allocates and collects the spans of one run. The zero value
// is not usable; create with NewRecorder. A nil *Recorder hands out nil
// spans, so unobserved call paths pay nothing.
type Recorder struct {
	mu     sync.Mutex
	nextID int
	spans  []*Span
	t0     time.Time
	now    func() time.Time // injectable for deterministic tests
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder {
	r := &Recorder{now: time.Now}
	r.t0 = r.now()
	return r
}

// setClock replaces the wall clock (tests only: deterministic spans).
func (r *Recorder) setClock(now func() time.Time) {
	r.mu.Lock()
	r.now = now
	r.t0 = now()
	r.mu.Unlock()
}

// Root opens a top-level span. Safe on a nil recorder (returns nil).
func (r *Recorder) Root(name string) *Span { return r.start(0, name) }

func (r *Recorder) start(parent int, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := &Span{
		rec:    r,
		id:     r.nextID,
		parent: parent,
		name:   name,
		start:  r.now(),
	}
	s.startNS = s.start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, s)
	return s
}

// Snapshot returns every span started so far, in start order. Spans not
// yet ended report their elapsed time at snapshot. Safe on nil.
func (r *Recorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := make([]*Span, len(r.spans))
	copy(spans, r.spans)
	now := r.now
	r.mu.Unlock()
	out := make([]SpanRecord, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.record(now))
	}
	return out
}

// Span is one live timed region. All methods are safe on a nil receiver
// and safe for concurrent use, so fan-out workers can open children of a
// shared parent without coordination.
type Span struct {
	rec     *Recorder
	id      int
	parent  int
	name    string
	start   time.Time
	startNS int64

	mu    sync.Mutex
	attrs map[string]string
	durNS int64
	ended bool

	// Resource sampling (BeginResources): res0 is the reading at opt-in;
	// the deltas freeze at End.
	sampled    bool
	res0       ResourceSample
	allocBytes int64
	gcCycles   int64
}

// Child opens a sub-span. Safe on nil (returns nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.start(s.id, name)
}

// SetAttr attaches a key/value label. Safe on nil.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
	s.mu.Unlock()
}

// BeginResources samples the process resource counters now, opting the
// span into allocation/GC-delta attribution: End will sample again and
// freeze the deltas into the record. Call it on serial phases where the
// delta is exact (sizing, layout-extract); on concurrent spans, such as
// the two verification passes, the delta would count the neighbors'
// work too. Safe on nil.
func (s *Span) BeginResources() {
	if s == nil {
		return
	}
	r := SampleResources()
	s.mu.Lock()
	if !s.ended {
		s.sampled = true
		s.res0 = r
	}
	s.mu.Unlock()
}

// End closes the span, freezing its duration (and resource deltas when
// BeginResources was called). Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	now := s.rec.now
	s.rec.mu.Unlock()
	s.mu.Lock()
	sampled := s.sampled && !s.ended
	s.mu.Unlock()
	// Sample outside the span lock; freeze under it only if still open.
	var r ResourceSample
	if sampled {
		r = SampleResources()
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.durNS = now().Sub(s.start).Nanoseconds()
		if sampled {
			s.allocBytes = int64(r.AllocBytes - s.res0.AllocBytes)
			s.gcCycles = int64(r.GCCycles - s.res0.GCCycles)
		}
	}
	s.mu.Unlock()
}

// Duration reports the span's length so far (frozen once ended). Safe
// on nil (zero).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.mu.Lock()
	now := s.rec.now
	s.rec.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return time.Duration(s.durNS)
	}
	return now().Sub(s.start)
}

func (s *Span) record(now func() time.Time) SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		StartNS:    s.startNS,
		DurationNS: s.durNS,
		AllocBytes: s.allocBytes,
		GCCycles:   s.gcCycles,
	}
	if !s.ended {
		rec.DurationNS = now().Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
	}
	return rec
}

// SpanTreeText renders a span slice as an indented text table — the
// `loas show` view. Children are indented under their parent in start
// order; attrs render as sorted k=v pairs.
func SpanTreeText(spans []SpanRecord) string {
	children := map[int][]SpanRecord{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var b strings.Builder
	b.WriteString("  span                              duration      attrs\n")
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, s := range children[parent] {
			label := strings.Repeat("  ", depth) + s.Name
			extra := attrText(s.Attrs)
			if s.AllocBytes > 0 || s.GCCycles > 0 {
				if extra != "" {
					extra += " "
				}
				extra += fmt.Sprintf("alloc=%.1fkB gc=%d", float64(s.AllocBytes)/1e3, s.GCCycles)
			}
			fmt.Fprintf(&b, "  %-32s %9.3f ms  %s\n",
				label, float64(s.DurationNS)/1e6, extra)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

func attrText(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+attrs[k])
	}
	return strings.Join(parts, " ")
}
