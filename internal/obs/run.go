package obs

import (
	"strconv"
	"sync"
)

// ConvergeTolF is the parasitic fixpoint tolerance in farads: the
// synthesis loop stops once no net's parasitic capacitance moves by this
// much between two layout calls (1 fF — 0.03% of the 3 pF load, far
// below any performance-relevant delta), and a run record's converged
// flag judges the recorded iterations against the same value.
const ConvergeTolF = 1e-15

// Run records one run in flight — a daemon request or a `loas synth
// -ledger` invocation alike: its span tree under the root "request"
// span, and the convergence iterations the engine records live. Finish
// freezes it into the run's RunRecord. A nil *Run is a valid no-op
// recorder, so the engine records into whatever run its context carries
// without branching on whether it is observed.
type Run struct {
	identity RunRecord // set at StartRun; Finish fills in a copy
	spans    *Recorder
	root     *Span

	mu     sync.Mutex
	iters  []Iteration
	notify func(Iteration)
}

// StartRun opens a run with identity's fields (ID, kind, topology, …)
// and starts its root "request" span, labelled with the kind, topology,
// layout and case. onIteration, when non-nil, sees every recorded
// iteration as it happens: the daemon's live event feed.
func StartRun(identity RunRecord, onIteration func(Iteration)) *Run {
	r := &Run{identity: identity, spans: NewRecorder(), notify: onIteration}
	r.root = r.spans.Root("request")
	r.root.SetAttr("kind", identity.Kind)
	if identity.Topology != "" {
		r.root.SetAttr("topology", identity.Topology)
	}
	if identity.Layout != "" {
		r.root.SetAttr("layout", identity.Layout)
	}
	if identity.Case != 0 {
		r.root.SetAttr("case", strconv.Itoa(identity.Case))
	}
	return r
}

// Identity returns the identity fields the run was started with. Safe
// on nil (the zero record).
func (r *Run) Identity() RunRecord {
	if r == nil {
		return RunRecord{}
	}
	return r.identity
}

// Root returns the run's root span. Safe on nil (returns nil, itself a
// no-op span).
func (r *Run) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Record appends one iteration, then hands it to the live hook. Safe on
// a nil receiver, and for concurrent use: table1's four cases record
// into one run.
func (r *Run) Record(it Iteration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.iters = append(r.iters, it)
	r.mu.Unlock()
	if r.notify != nil {
		r.notify(it)
	}
}

// Iterations returns a copy of everything recorded so far, in record
// order. Safe on a nil receiver (returns nil).
func (r *Run) Iterations() []Iteration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Iteration(nil), r.iters...)
}

// Finish ends the root span and returns the run's record: the identity
// plus how the run ended — outcome, error text and duration; converged
// (judged against ConvergeTolF) and layout_calls (one per recorded
// iteration); the response body's size and hex SHA-256, which the
// caller computed once with the body (bodySHA256 is "" when there is no
// body); the span tree and the iterations. A job that outlives its run
// (its request timed out) may still record into it, so Finish only
// reads the run, under its locks, and fills a copy.
func (r *Run) Finish(outcome string, err error, bodyBytes int, bodySHA256 string) RunRecord {
	r.root.End()
	rec := r.identity
	rec.Outcome = outcome
	rec.DurationNS = r.root.Duration().Nanoseconds()
	rec.Iterations = r.Iterations()
	rec.Converged = Converged(rec.Iterations, ConvergeTolF)
	rec.LayoutCalls = len(rec.Iterations)
	rec.Bytes = bodyBytes
	rec.BodySHA256 = bodySHA256
	rec.Spans = r.spans.Snapshot()
	if err != nil {
		rec.Error = err.Error()
	}
	return rec
}
