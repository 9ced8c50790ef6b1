package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock steps a deterministic wall clock: every reading advances by
// one millisecond, so span durations are exact and repeatable.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

// record builds the canonical three-level tree the daemon produces:
// request → {cache-lookup, queue-wait, synthesize → iteration → …}.
func recordTree() []SpanRecord {
	r := NewRecorder()
	r.setClock(fakeClock())
	root := r.Root("request")
	root.SetAttr("kind", "synthesize")
	look := root.Child("cache-lookup")
	look.End()
	q := root.Child("queue-wait")
	q.End()
	syn := root.Child("synthesize")
	for call := 1; call <= 2; call++ {
		it := syn.Child("iteration")
		s := it.Child("sizing")
		s.End()
		l := it.Child("layout-extract")
		l.End()
		it.End()
	}
	syn.End()
	root.End()
	return r.Snapshot()
}

// TestSpanTreeDeterminism: IDs come from the recorder's counter, not
// time or rand, so two identical recordings marshal byte-identically.
func TestSpanTreeDeterminism(t *testing.T) {
	a, err := json.Marshal(recordTree())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(recordTree())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("identical recordings differ:\n%s\n%s", a, b)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	spans := recordTree()
	if len(spans) != 10 {
		t.Fatalf("span count = %d, want 10", len(spans))
	}
	if spans[0].ID != 1 || spans[0].Parent != 0 || spans[0].Name != "request" {
		t.Fatalf("root span = %+v", spans[0])
	}
	if spans[0].Attrs["kind"] != "synthesize" {
		t.Fatalf("root attrs = %v", spans[0].Attrs)
	}
	// IDs are dense and increase in start order; parents precede children.
	byID := map[int]SpanRecord{}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has ID %d, want start-ordered dense IDs", i, s.ID)
		}
		if s.DurationNS <= 0 {
			t.Fatalf("span %q duration = %d, want > 0", s.Name, s.DurationNS)
		}
		byID[s.ID] = s
	}
	for _, s := range spans[1:] {
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %q references unknown parent %d", s.Name, s.Parent)
		}
	}
	// Children of a span sum to no more than the parent's duration (the
	// fake clock ticks on every reading, so strict accounting holds).
	var childSum int64
	for _, s := range spans {
		if s.Parent == spans[0].ID {
			childSum += s.DurationNS
		}
	}
	if childSum > spans[0].DurationNS {
		t.Fatalf("children (%d ns) exceed root (%d ns)", childSum, spans[0].DurationNS)
	}
}

// TestSpanNilSafety: every method of the nil recorder and nil span is a
// no-op, so unobserved call paths need no branches.
func TestSpanNilSafety(t *testing.T) {
	var r *Recorder
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v", got)
	}
	s := r.Root("x")
	if s != nil {
		t.Fatal("nil recorder handed out a non-nil span")
	}
	s.SetAttr("k", "v")
	s.End()
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if c := s.Child("y"); c != nil {
		t.Fatal("nil span handed out a non-nil child")
	}
}

// TestSpanConcurrentChildren: fan-out workers opening children of one
// shared parent (the corner/MC pattern) is race-clean and loses nothing.
func TestSpanConcurrentChildren(t *testing.T) {
	r := NewRecorder()
	root := r.Root("request")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("mc-sample")
			c.SetAttr("worker", "w")
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := r.Snapshot()
	if len(spans) != 17 {
		t.Fatalf("span count = %d, want 17", len(spans))
	}
}

// TestSnapshotOpenSpan: a span still open at snapshot time reports its
// elapsed-so-far duration rather than zero.
func TestSnapshotOpenSpan(t *testing.T) {
	r := NewRecorder()
	r.setClock(fakeClock())
	root := r.Root("request")
	spans := r.Snapshot()
	if spans[0].DurationNS <= 0 {
		t.Fatalf("open span duration = %d, want elapsed > 0", spans[0].DurationNS)
	}
	root.End()
	frozen := r.Snapshot()[0].DurationNS
	if again := r.Snapshot()[0].DurationNS; again != frozen {
		t.Fatalf("ended span duration moved: %d then %d", frozen, again)
	}
}

func TestSpanTreeText(t *testing.T) {
	out := SpanTreeText(recordTree())
	for _, want := range []string{"request", "  cache-lookup", "  synthesize", "    iteration", "      sizing", "kind=synthesize"} {
		if !strings.Contains(out, want) {
			t.Fatalf("span tree rendering missing %q:\n%s", want, out)
		}
	}
}

// TestTraceNotify: the live hook fires once per recorded iteration, in
// order, and the run still accumulates them normally.
func TestTraceNotify(t *testing.T) {
	var got []int
	r := StartRun(RunRecord{Kind: "synthesize"}, func(it Iteration) { got = append(got, it.Call) })
	for c := 1; c <= 3; c++ {
		r.Record(Iteration{Call: c})
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("notify calls = %v", got)
	}
	if n := len(r.Iterations()); n != 3 {
		t.Fatalf("run holds %d iterations", n)
	}
}
