package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"loas/internal/obs"
)

// marshalCompact renders v as single-line JSON (HTML escaping off, like
// marshalJSON) — SSE carries one payload per "data:" line.
func marshalCompact(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSpace(buf.Bytes()), nil
}

// GET /v1/events streams the run lifecycle live as Server-Sent Events —
// the feed behind `loas tail` and operator dashboards. Three event
// types, each with a JSON data payload:
//
//	event: run-start   {id, kind, topology, case, cache_key, parent}
//	event: iteration   {run_id, ...obs.Iteration}
//	event: run-end     {id, outcome, duration_ns, converged, layout_calls, error}
//
// Batch and exploration requests add three more, so a client can follow
// a fan-out without polling /v1/runs:
//
//	event: batch-start {id, kind, items|probes, unique}
//	event: batch-item  {parent, index, outcome, cache, topology, case, error}
//	event: batch-end   {id, outcome, items, errors, duration_ns}
//
// Delivery is best-effort with hard memory bounds: every subscriber
// owns a fixed buffer, and a subscriber that cannot drain it (a slow or
// stalled client) is dropped — its stream ends — rather than buffered
// without bound or allowed to stall the publisher.

// runStartEvent is the data payload of event: run-start.
type runStartEvent struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Topology string `json:"topology,omitempty"`
	Case     int    `json:"case,omitempty"`
	CacheKey string `json:"cache_key,omitempty"`
	Parent   string `json:"parent,omitempty"`
}

// batchStartEvent is the data payload of event: batch-start — the
// fan-out announcement for a batch or exploration run.
type batchStartEvent struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`            // batch | explore
	Items  int    `json:"items,omitempty"` // submitted batch items
	Unique int    `json:"unique,omitempty"`
}

// batchItemEvent is the data payload of event: batch-item — one batch
// item (or exploration probe) finishing, in completion order.
type batchItemEvent struct {
	Parent   string `json:"parent"`
	Index    int    `json:"index"`
	Outcome  string `json:"outcome"`
	Cache    string `json:"cache,omitempty"` // hit | miss | dedup
	Topology string `json:"topology,omitempty"`
	Case     int    `json:"case,omitempty"`
	Error    string `json:"error,omitempty"`
}

// batchEndEvent is the data payload of event: batch-end.
type batchEndEvent struct {
	ID         string `json:"id"`
	Outcome    string `json:"outcome"`
	Items      int    `json:"items"`
	Errors     int    `json:"errors,omitempty"`
	DurationNS int64  `json:"duration_ns"`
}

// iterationEvent is the data payload of event: iteration — one live
// sizing↔layout convergence step of a run in flight.
type iterationEvent struct {
	RunID string `json:"run_id"`
	obs.Iteration
}

// runEndEvent is the data payload of event: run-end.
type runEndEvent struct {
	ID          string `json:"id"`
	Outcome     string `json:"outcome"`
	DurationNS  int64  `json:"duration_ns"`
	Converged   bool   `json:"converged,omitempty"`
	LayoutCalls int    `json:"layout_calls,omitempty"`
	Error       string `json:"error,omitempty"`
}

// subBuffer is each subscriber's frame buffer: deep enough to absorb a
// burst of iteration events, small enough that a stalled client costs
// bounded memory before it is dropped.
const subBuffer = 256

type eventSub struct {
	ch chan []byte
}

// eventBus fans pre-rendered SSE frames out to subscribers. publish
// never blocks: a subscriber whose buffer is full is dropped (its
// channel closed) under the bus lock, which is the slow-client
// semantics the /v1/events tests pin down.
type eventBus struct {
	mu        sync.Mutex
	subs      map[*eventSub]struct{}
	published atomic.Int64
	dropped   atomic.Int64
}

func newEventBus() *eventBus {
	return &eventBus{subs: map[*eventSub]struct{}{}}
}

func (b *eventBus) subscribe() *eventSub {
	s := &eventSub{ch: make(chan []byte, subBuffer)}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// unsubscribe detaches s (client went away). The channel is not closed
// here — only publish closes channels, so a concurrent drop cannot
// double-close.
func (b *eventBus) unsubscribe(s *eventSub) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// publish renders one SSE frame and offers it to every subscriber.
// With no subscriber attached it only counts the frame: nobody would
// read what rendering it costs.
func (b *eventBus) publish(event string, v any) {
	b.published.Add(1)
	if b.subscribers() == 0 {
		return
	}
	body, err := marshalCompact(v)
	if err != nil {
		return
	}
	frame := []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, body))
	b.mu.Lock()
	for s := range b.subs {
		select {
		case s.ch <- frame:
		default:
			// Slow client: drop it rather than buffer without bound.
			delete(b.subs, s)
			close(s.ch)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

func (b *eventBus) subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// handleEvents serves the live stream. The connection stays open until
// the client disconnects or the subscriber is dropped for falling
// behind.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	fl, ok := w.(http.Flusher)
	if !ok {
		s.errorBody(w, http.StatusInternalServerError,
			fmt.Errorf("response writer does not support streaming"))
		return
	}
	// Subscribe before the headers go out: a client that sees the
	// response has started must not miss a frame published right after.
	sub := s.events.subscribe()
	defer s.events.unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, ": loasd run events\n\n")
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-sub.ch:
			if !ok {
				return // dropped as a slow client
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
