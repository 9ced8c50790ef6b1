package obs

import "context"

// Context propagation is the only way spans and the run reach the
// engine: the daemon (or `loas synth -ledger`) opens the Run and hands
// it and the current span down through the context core, mc and explore
// already take, so no options struct carries an observer. Every
// accessor is nil-safe — a context without a span or run yields the
// no-op nil recorder, so the engine never branches on whether it is
// being observed.

type ctxKey int

const (
	ctxSpan ctxKey = iota
	ctxRun
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

// ContextWithRun returns ctx carrying run, which the engine records
// each convergence iteration into.
func ContextWithRun(ctx context.Context, run *Run) context.Context {
	return context.WithValue(ctx, ctxRun, run)
}

// RunFromContext returns the run ctx carries, or nil (a valid no-op).
func RunFromContext(ctx context.Context) *Run {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxRun).(*Run)
	return r
}
