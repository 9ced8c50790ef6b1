package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// snapshotEnded ends root, lets the clock move on and snapshots rec,
// failing t for every span that ends after its parent. A span nobody
// ended reports its elapsed time at snapshot, so it then reads as
// outliving the ended root.
func snapshotEnded(t *testing.T, rec *obs.Recorder, root *obs.Span) []obs.SpanRecord {
	t.Helper()
	root.End()
	time.Sleep(time.Millisecond)
	spans := rec.Snapshot()
	byID := make(map[int]obs.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue // the root
		}
		if end, pend := s.StartNS+s.DurationNS, p.StartNS+p.DurationNS; end > pend {
			t.Errorf("span %d %q ends at %d ns, after its parent %d %q at %d ns",
				s.ID, s.Name, end, p.ID, p.Name, pend)
		}
	}
	return spans
}

// TestVerifyBothContract drives the verification fan-out with stub
// passes: every failure mode yields the serial flow's error, neither
// pass stops the other, a panic comes back as an error, a cancelled
// request context skips nothing, and both spans open in pass order, end
// inside the run's span and carry no resource deltas.
func TestVerifyBothContract(t *testing.T) {
	errSynth := errors.New("synth boom")
	errExt := errors.New("extracted boom")
	ok := func() error { return nil }
	for _, tc := range []struct {
		name        string
		synth, extr func() error
		wantErr     error  // matched with errors.Is
		wantPrefix  string // "" means success
		wantPanic   bool
		cancelled   bool // run under an already cancelled context
	}{
		{name: "both pass", synth: ok, extr: ok},
		{name: "cancelled request", synth: ok, extr: ok, cancelled: true},
		{name: "both fail", synth: func() error { return errSynth }, extr: func() error { return errExt },
			wantErr: errSynth, wantPrefix: "core: synthesized verification: "},
		{name: "synthesized fails", synth: func() error { return errSynth }, extr: ok,
			wantErr: errSynth, wantPrefix: "core: synthesized verification: "},
		{name: "extracted fails", synth: ok, extr: func() error { return errExt },
			wantErr: errExt, wantPrefix: "core: extracted verification: "},
		{name: "synthesized panics", synth: func() error { panic("synth panic") }, extr: func() error { return errExt },
			wantPrefix: "core: synthesized verification: ", wantPanic: true},
		{name: "extracted panics", synth: ok, extr: func() error { panic("extracted panic") },
			wantPrefix: "core: extracted verification: ", wantPanic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each pass allocates 1 MiB, which a span that opted into
			// BeginResources would report as its delta.
			var sink [2][]byte
			var ran [2]bool
			synth := func() error {
				sink[0] = make([]byte, 1<<20)
				ran[0] = true
				return tc.synth()
			}
			extr := func() error {
				sink[1] = make([]byte, 1<<20)
				ran[1] = true
				return tc.extr()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			rec := obs.NewRecorder()
			root := rec.Root("synthesize")
			err := verifyBoth(ctx, root, synth, extr)

			switch {
			case tc.wantPrefix == "":
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
			case err == nil || !strings.HasPrefix(err.Error(), tc.wantPrefix):
				t.Fatalf("err = %v, want the %q error", err, tc.wantPrefix)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want it to wrap %v", err, tc.wantErr)
			}
			var pe *parallel.PanicError
			if got := errors.As(err, &pe); got != tc.wantPanic {
				t.Fatalf("err = %v: is a PanicError %v, want %v", err, got, tc.wantPanic)
			}
			// Only a panic may leave the other pass unstarted.
			if !tc.wantPanic && !(ran[0] && ran[1]) {
				t.Fatalf("passes ran: %v, want both", ran)
			}

			spans := snapshotEnded(t, rec, root)
			if len(spans) != 3 {
				t.Fatalf("spans = %+v, want the root and two verification spans", spans)
			}
			for i, want := range []string{"verify-synthesized", "verify-extracted"} {
				s := spans[i+1]
				if s.Name != want || s.ID != i+2 || s.Parent != 1 {
					t.Errorf("span %d = %q (id %d, parent %d), want %q (id %d) under the root",
						i+1, s.Name, s.ID, s.Parent, want, i+2)
				}
				if s.AllocBytes != 0 || s.GCCycles != 0 {
					t.Errorf("%s reports resource deltas (alloc %d, gc %d)", s.Name, s.AllocBytes, s.GCCycles)
				}
			}
		})
	}
}

// TestFailedRunEndsSpans: a run that fails in sizing ends every span it
// opened, so a run record snapshotted after the caller ends its root
// span shows no child outliving its parent.
func TestFailedRunEndsSpans(t *testing.T) {
	plan, err := sizing.Lookup("five-t")
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.DefaultSpec()
	spec.GBW *= 1000 // no input pair within the plan's width limit reaches it
	rec := obs.NewRecorder()
	root := rec.Root("synthesize")
	_, err = Synthesize(techno.Default060(), spec, Options{
		Topology: plan.Name,
		Ctx:      obs.ContextWithSpan(context.Background(), root),
	})
	if err == nil || !strings.HasPrefix(err.Error(), "core: sizing pass 1: ") {
		t.Fatalf("err = %v, want a sizing failure", err)
	}
	var names []string
	for _, s := range snapshotEnded(t, rec, root) {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, " "); got != "synthesize iteration sizing" {
		t.Fatalf("spans = %s, want synthesize iteration sizing", got)
	}
}

// TestSynthesizeVerifySpans: in a real run the two verification spans
// follow the last iteration under the run's span, in pass order, and
// carry no resource deltas; every span ends inside its parent.
func TestSynthesizeVerifySpans(t *testing.T) {
	plan, err := sizing.Lookup("five-t")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	root := rec.Root("synthesize")
	res, err := Synthesize(techno.Default060(), plan.DefaultSpec(), Options{
		Topology: plan.Name,
		Ctx:      obs.ContextWithSpan(context.Background(), root),
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := snapshotEnded(t, rec, root)
	iterations := 0
	for _, s := range spans {
		if s.Name == "iteration" {
			iterations++
		}
	}
	if iterations != res.LayoutCalls {
		t.Errorf("%d iteration spans, %d layout calls", iterations, res.LayoutCalls)
	}
	n := len(spans)
	for i, want := range []string{"verify-synthesized", "verify-extracted"} {
		s := spans[n-2+i]
		if s.Name != want || s.Parent != 1 {
			t.Fatalf("span %d = %q under %d, want %q under the root", s.ID, s.Name, s.Parent, want)
		}
		if s.AllocBytes != 0 || s.GCCycles != 0 {
			t.Errorf("%s reports resource deltas (alloc %d, gc %d)", s.Name, s.AllocBytes, s.GCCycles)
		}
	}
}
