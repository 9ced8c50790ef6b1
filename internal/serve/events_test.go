package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	event string
	data  string
}

// sseClient connects to /v1/events and feeds parsed frames to a
// channel. Closing the returned stop func tears the connection down.
func sseClient(t *testing.T, url string) (<-chan sseFrame, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("connect SSE: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	frames := make(chan sseFrame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var cur sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, ":"): // comment / preamble
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				frames <- cur
				cur = sseFrame{}
			}
		}
	}()
	return frames, func() { resp.Body.Close() }
}

// nextFrame reads one frame or fails the test after a timeout.
func nextFrame(t *testing.T, frames <-chan sseFrame) sseFrame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("SSE stream closed early")
		}
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for SSE frame")
		return sseFrame{}
	}
}

// TestEventsStreamLive: a subscriber connected before a run sees its
// whole lifecycle — run-start, each live iteration, run-end — with
// matching run IDs and the right outcome.
func TestEventsStreamLive(t *testing.T) {
	stub := &tracingStub{}
	_, ts := newStubServer(t, Config{}, stub)

	frames, stop := sseClient(t, ts.URL)
	defer stop()

	post(t, ts.URL+"/v1/synthesize", `{"case":3}`)

	start := nextFrame(t, frames)
	if start.event != "run-start" {
		t.Fatalf("first event %q, want run-start", start.event)
	}
	var sv struct {
		ID   string `json:"id"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(start.data), &sv); err != nil {
		t.Fatalf("run-start payload %q: %v", start.data, err)
	}
	if sv.Kind != "synthesize" || sv.ID == "" {
		t.Fatalf("run-start = %+v", sv)
	}

	for i := range stubIterations {
		f := nextFrame(t, frames)
		if f.event != "iteration" {
			t.Fatalf("event %d = %q, want iteration", i, f.event)
		}
		var iv struct {
			RunID string `json:"run_id"`
			Call  int    `json:"call"`
		}
		if err := json.Unmarshal([]byte(f.data), &iv); err != nil {
			t.Fatalf("iteration payload %q: %v", f.data, err)
		}
		if iv.RunID != sv.ID || iv.Call != stubIterations[i].Call {
			t.Fatalf("iteration %d = %+v, want run %s call %d", i, iv, sv.ID, stubIterations[i].Call)
		}
	}

	end := nextFrame(t, frames)
	if end.event != "run-end" {
		t.Fatalf("event %q, want run-end", end.event)
	}
	var ev struct {
		ID        string `json:"id"`
		Outcome   string `json:"outcome"`
		Converged bool   `json:"converged"`
	}
	if err := json.Unmarshal([]byte(end.data), &ev); err != nil {
		t.Fatalf("run-end payload %q: %v", end.data, err)
	}
	if ev.ID != sv.ID || ev.Outcome != "ok" || !ev.Converged {
		t.Fatalf("run-end = %+v", ev)
	}

	// A cache hit still narrates its (short) lifecycle.
	post(t, ts.URL+"/v1/synthesize", `{"case":3}`)
	if f := nextFrame(t, frames); f.event != "run-start" {
		t.Fatalf("replay first event %q", f.event)
	}
	f := nextFrame(t, frames)
	if f.event != "run-end" || !strings.Contains(f.data, `"outcome":"cache-hit"`) {
		t.Fatalf("replay end = %+v", f)
	}
}

// TestEventsConcurrentSubscribers: several live subscribers each see
// every frame of a burst published while all of them are draining.
// Run with -race this is also the bus's concurrency gate.
func TestEventsConcurrentSubscribers(t *testing.T) {
	bus := newEventBus()
	const subs, events = 4, 200

	var wg sync.WaitGroup
	counts := make([]int, subs)
	for i := 0; i < subs; i++ {
		sub := bus.subscribe()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for range sub.ch {
				counts[i]++
				if counts[i] == events {
					bus.unsubscribe(sub)
					// Drain whatever was buffered after the unsubscribe
					// raced a publish; the channel is never closed for a
					// fast client, so stop by count.
					return
				}
			}
		}(i)
	}

	var pubs sync.WaitGroup
	for p := 0; p < 2; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for e := 0; e < events/2; e++ {
				bus.publish("run-start", runStartEvent{ID: fmt.Sprintf("run-%d-%d", p, e), Kind: "mc"})
			}
		}(p)
	}
	pubs.Wait()
	wg.Wait()

	for i, n := range counts {
		if n != events {
			t.Fatalf("subscriber %d saw %d of %d events", i, n, events)
		}
	}
	if d := bus.dropped.Load(); d != 0 {
		t.Fatalf("no subscriber was slow, yet %d were dropped", d)
	}
	if p := bus.published.Load(); p != events {
		t.Fatalf("published = %d, want %d", p, events)
	}
}

// TestEventsSlowClientDropped: a subscriber that stops draining is
// dropped once its buffer fills — its channel closes, the publisher
// never blocks, and fast subscribers are unaffected.
func TestEventsSlowClientDropped(t *testing.T) {
	bus := newEventBus()
	slow := bus.subscribe()
	fast := bus.subscribe()

	// Fill both buffers exactly, then drain only the fast one: the next
	// publish finds the slow buffer full and drops that subscriber while
	// delivering to the fast one.
	for i := 0; i < subBuffer; i++ {
		bus.publish("iteration", iterationEvent{RunID: "run-000001"})
	}
	for i := 0; i < subBuffer; i++ {
		<-fast.ch
	}
	bus.publish("iteration", iterationEvent{RunID: "run-000001"})

	if d := bus.dropped.Load(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if bus.subscribers() != 1 {
		t.Fatalf("subscribers = %d, want the fast one only", bus.subscribers())
	}
	select {
	case <-fast.ch: // the dropping publish still reached the fast client
	default:
		t.Fatal("fast subscriber missed the frame that dropped the slow one")
	}
	bus.unsubscribe(fast)

	// The slow channel was closed by the bus: it still yields the
	// subBuffer frames it held, then reports closed — it never blocks.
	n := 0
	for range slow.ch {
		n++
	}
	if n != subBuffer {
		t.Fatalf("slow subscriber's buffer held %d frames, want %d", n, subBuffer)
	}
}

// TestEventsSlowHTTPClientStreamEnds: the HTTP view of the drop — a
// /v1/events client that never reads gets its stream terminated by the
// server instead of wedging the publisher.
func TestEventsSlowHTTPClientStreamEnds(t *testing.T) {
	stub := &tracingStub{}
	s, ts := newStubServer(t, Config{}, stub)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait for the subscription to land, then never read from resp.Body.
	deadline := time.Now().Add(5 * time.Second)
	for s.events.subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// Publishing far past the buffer plus the kernel's socket window
	// must never block the server; eventually the handler wedges on the
	// unread socket, the channel fills, and the subscriber is dropped.
	for i := 0; i < 200000 && s.events.dropped.Load() == 0; i++ {
		s.events.publish("iteration", iterationEvent{RunID: "run-000001"})
	}
	if s.events.dropped.Load() == 0 {
		t.Fatal("unread client was never dropped")
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.events.subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped subscriber still registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEventsPublishIdleRendersNothing: with no /v1/events client
// attached, a publish only counts its frame. Boxing the payload into
// the interface is its one allocation; marshalling the payload and
// formatting the frame would cost several more.
func TestEventsPublishIdleRendersNothing(t *testing.T) {
	bus := newEventBus()
	ev := runEndEvent{ID: "run-000001", Outcome: outcomeCacheHit, DurationNS: 26000}
	allocs := testing.AllocsPerRun(100, func() { bus.publish("run-end", ev) })
	if allocs > 1 {
		t.Fatalf("idle publish allocates %.0f times, want at most 1", allocs)
	}
	if p := bus.published.Load(); p != 101 {
		t.Fatalf("published = %d, want 101 (every idle publish counts)", p)
	}
}
