package obs

import "context"

// Context propagation is the only way spans and the live trace reach
// the engine: the daemon (or `loas synth -ledger`) opens the run's spans
// and trace and hands both down through the context core, mc and
// explore already take, so no options struct carries an observer.
// Every accessor is nil-safe — a context without a span or trace yields
// the no-op nil recorder, so the engine never branches on whether it
// is being observed.

type ctxKey int

const (
	ctxSpan ctxKey = iota
	ctxTrace
)

// ContextWithSpan returns ctx carrying span as the current parent.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, ctxSpan, span)
}

// SpanFromContext returns the current span, or nil (a valid no-op).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxSpan).(*Span)
	return s
}

// ContextWithTrace returns ctx carrying a live iteration recorder.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxTrace, t)
}

// TraceFromContext returns the live trace, or nil (a valid no-op).
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxTrace).(*Trace)
	return t
}
