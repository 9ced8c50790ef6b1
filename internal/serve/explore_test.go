package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"loas/internal/core"
	"loas/internal/explore"
	"loas/internal/sizing"
)

// summaryBackend returns a valid core.Summary that is a pure function
// of the spec — fast, deterministic, and with real gain/GBW/power/area
// trade-offs so exploration builds non-trivial Pareto fronts. Targets
// past 300 MHz fail deterministically, modelling sizing infeasibility.
type summaryBackend struct {
	stubBackend
}

func (b *summaryBackend) Synthesize(_ context.Context, spec sizing.OTASpec, req *SynthesizeRequest) ([]byte, error) {
	b.calls.Add(1)
	if spec.GBW > 3e8 {
		return nil, fmt.Errorf("sizing: gbw target %g Hz is out of reach", spec.GBW)
	}
	sum := core.Summary{
		Topology: req.Topology,
		Case:     req.Case,
		Extracted: sizing.Performance{
			DCGainDB: 80 - spec.GBW/1e7, // faster → less gain
			GBW:      0.97 * spec.GBW,
			PhaseDeg: spec.PM,
			Power:    1e-4 * (spec.GBW / 1e7) * (spec.CL / 1e-12), // faster, heavier → hotter
		},
		AreaUM2: 1500 + spec.PM*20 + spec.GBW/1e5,
	}
	return marshalJSON(sum)
}

// TestExploreGridDeterministicAcrossWorkers is the determinism
// acceptance contract: the same exploration on a 1-worker and an
// 8-worker daemon returns byte-identical reports under the same key,
// and a rerun replays from cache byte-identically.
func TestExploreGridDeterministicAcrossWorkers(t *testing.T) {
	const body = `{"axes":{"gbw":[4e7,6.5e7,9e7],"pm":[55,70]},"case":1}`
	_, ts1 := newStubServer(t, Config{Workers: 1}, &summaryBackend{})
	_, ts8 := newStubServer(t, Config{Workers: 8}, &summaryBackend{})

	r1, b1 := post(t, ts1.URL+"/v1/explore", body)
	r8, b8 := post(t, ts8.URL+"/v1/explore", body)
	if r1.StatusCode != http.StatusOK || r8.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d: %s %s", r1.StatusCode, r8.StatusCode, b1, b8)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("worker count changed the report:\n1: %s\n8: %s", b1, b8)
	}
	if k1, k8 := r1.Header.Get("X-Loas-Key"), r8.Header.Get("X-Loas-Key"); k1 == "" || k1 != k8 {
		t.Fatalf("keys %q vs %q, want equal", k1, k8)
	}
	if h := r1.Header.Get("X-Loas-Cache"); h != "miss" {
		t.Fatalf("cold explore X-Loas-Cache = %q, want miss", h)
	}

	// Rerun: the report itself is content-addressed.
	r1b, b1b := post(t, ts1.URL+"/v1/explore", body)
	if h := r1b.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("rerun X-Loas-Cache = %q, want hit", h)
	}
	if !bytes.Equal(b1, b1b) {
		t.Fatal("cache hit is not byte-identical")
	}

	var rep ExploreReport
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "grid" || rep.Case != 1 || len(rep.Results) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	tf := rep.Results[0]
	if tf.Topology != sizing.DefaultTopology || tf.Probes != 6 || tf.Infeasible != 0 {
		t.Fatalf("front = %+v, want 6 feasible probes of the default topology", tf)
	}
	if len(tf.Front) == 0 || len(tf.Front) > tf.Probes {
		t.Fatalf("front size %d out of range (0, %d]", len(tf.Front), tf.Probes)
	}
	// The front is a real Pareto front: mutually non-dominated, feasible.
	for i, p := range tf.Front {
		if !p.Feasible {
			t.Fatalf("front point %d infeasible: %+v", i, p)
		}
		for j, q := range tf.Front {
			if i != j && explore.Dominates(p.Metrics, q.Metrics) {
				t.Fatalf("front point %d dominates front point %d", i, j)
			}
		}
	}
}

// TestExploreSpellingsShareCacheEntry: shuffled and duplicated axis
// values, duplicated topology names, and explicitly spelled-out inert
// defaults (budget/step in grid mode) all canonicalize onto one key.
func TestExploreSpellingsShareCacheEntry(t *testing.T) {
	stub := &summaryBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	r1, b1 := post(t, ts.URL+"/v1/explore",
		`{"axes":{"gbw":[9e7,4e7,4e7],"pm":[70,55]},"case":1}`)
	spelled := fmt.Sprintf(
		`{"axes":{"gbw":[4e7,9e7],"pm":[55,70]},"mode":"grid","budget":64,"step":0.15,"case":1,"topologies":[%q,%q]}`,
		sizing.DefaultTopology, sizing.DefaultTopology)
	r2, b2 := post(t, ts.URL+"/v1/explore", spelled)
	if k1, k2 := r1.Header.Get("X-Loas-Key"), r2.Header.Get("X-Loas-Key"); k1 != k2 {
		t.Fatalf("canonicalized spellings keyed apart: %q vs %q", k1, k2)
	}
	if h := r2.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("respelled request X-Loas-Cache = %q, want hit", h)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("respelled request body differs")
	}
	if got := stub.calls.Load(); got != 4 {
		t.Fatalf("backend calls = %d, want 4 (respelling must cost nothing)", got)
	}

	// Guided mode keys apart from grid even on the same axes.
	r3, _ := post(t, ts.URL+"/v1/explore",
		`{"axes":{"gbw":[4e7,9e7],"pm":[55,70]},"mode":"guided","budget":4,"case":1}`)
	if r3.Header.Get("X-Loas-Key") == r1.Header.Get("X-Loas-Key") {
		t.Fatal("guided exploration collided with the grid key")
	}
}

// TestExploreProbesShareSynthesizeCache: an exploration probe and a
// plain POST /v1/synthesize of the same (spec, case) are the same
// content address — exploring first makes the synthesize free.
func TestExploreProbesShareSynthesizeCache(t *testing.T) {
	stub := &summaryBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	plan, err := sizing.Lookup(sizing.DefaultTopology)
	if err != nil {
		t.Fatal(err)
	}
	base := plan.DefaultSpec()
	_, data := post(t, ts.URL+"/v1/explore",
		fmt.Sprintf(`{"axes":{"gbw":[%g]},"case":1}`, base.GBW))
	var rep ExploreReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if stub.calls.Load() != 1 || rep.Results[0].Probes != 1 {
		t.Fatalf("calls %d probes %d, want 1/1", stub.calls.Load(), rep.Results[0].Probes)
	}

	resp, _ := post(t, ts.URL+"/v1/synthesize", `{"case":1}`)
	if h := resp.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("synthesize after explore X-Loas-Cache = %q, want hit", h)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 (probe result must be reused)", got)
	}
}

// TestExploreGuidedDeterministicAndBounded: guided mode respects its
// probe budget, reports rounds, and is worker-invariant too.
func TestExploreGuidedDeterministicAndBounded(t *testing.T) {
	const body = `{"axes":{"gbw":[4e7,9e7]},"mode":"guided","budget":12,"step":0.2,"case":2}`
	_, ts1 := newStubServer(t, Config{Workers: 1}, &summaryBackend{})
	_, ts8 := newStubServer(t, Config{Workers: 8}, &summaryBackend{})

	_, b1 := post(t, ts1.URL+"/v1/explore", body)
	_, b8 := post(t, ts8.URL+"/v1/explore", body)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("guided search is worker-dependent:\n1: %s\n8: %s", b1, b8)
	}
	var rep ExploreReport
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "guided" || rep.Budget != 12 || rep.Step != 0.2 {
		t.Fatalf("report echoes %+v", rep)
	}
	tf := rep.Results[0]
	if tf.Probes < 2 || tf.Probes > 12 {
		t.Fatalf("guided probes = %d, want within [2, 12]", tf.Probes)
	}
	if tf.Rounds < 1 {
		t.Fatalf("guided rounds = %d, want >= 1", tf.Rounds)
	}
}

// TestExploreInfeasibleShapesFront: a deterministic sizing failure is
// exploration data — counted, excluded from the front, cacheable — not
// an HTTP error.
func TestExploreInfeasibleShapesFront(t *testing.T) {
	stub := &summaryBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	resp, data := post(t, ts.URL+"/v1/explore", `{"axes":{"gbw":[4e7,4e8]},"case":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rep ExploreReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	tf := rep.Results[0]
	if tf.Probes != 2 || tf.Infeasible != 1 || len(tf.Front) != 1 {
		t.Fatalf("front = %+v, want 2 probes, 1 infeasible, front of 1", tf)
	}
	if tf.Front[0].Spec.GBW != 4e7 {
		t.Fatalf("front kept the infeasible point: %+v", tf.Front[0])
	}

	r2, data2 := post(t, ts.URL+"/v1/explore", `{"axes":{"gbw":[4e7,4e8]},"case":1}`)
	if h := r2.Header.Get("X-Loas-Cache"); h != "hit" {
		t.Fatalf("partially-infeasible report not cached: X-Loas-Cache = %q", h)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("cached infeasibility report differs")
	}
}

// TestExploreParentLinkedRuns: the exploration is one parent run
// (kind=explore) and each probe a child synthesize run.
func TestExploreParentLinkedRuns(t *testing.T) {
	stub := &summaryBackend{}
	_, ts := newStubServer(t, Config{}, stub)
	post(t, ts.URL+"/v1/explore", `{"axes":{"gbw":[4e7,6.5e7]},"case":1}`)

	var parents RunsReport
	getJSON(t, ts.URL+"/v1/runs?kind=explore", &parents)
	if len(parents.Runs) != 1 || parents.Runs[0].Outcome != outcomeOK {
		t.Fatalf("explore run listing = %+v", parents.Runs)
	}
	var kids RunsReport
	getJSON(t, ts.URL+"/v1/runs?parent="+parents.Runs[0].ID, &kids)
	if len(kids.Runs) != 2 {
		t.Fatalf("probe children = %d, want 2: %+v", len(kids.Runs), kids.Runs)
	}
	for _, r := range kids.Runs {
		if r.Kind != "synthesize" {
			t.Fatalf("probe child kind %q", r.Kind)
		}
	}
}

// TestExploreValidation: malformed explorations never reach the backend.
func TestExploreValidation(t *testing.T) {
	stub := &summaryBackend{}
	_, ts := newStubServer(t, Config{}, stub)

	// A grid over the 512-point bound: 33 × 16 = 528.
	var big strings.Builder
	big.WriteString(`{"axes":{"gbw":[`)
	for i := 0; i < 33; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, "%g", 4e7+float64(i)*1e6)
	}
	big.WriteString(`],"pm":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, "%g", 45+float64(i))
	}
	big.WriteString(`]}}`)

	for _, tc := range []struct{ body, wantIn string }{
		{`{"mode":"random"}`, "mode"},
		{`{"axes":{"pm":[95]}}`, "pm"},
		{`{"axes":{"gbw":[-4e7]}}`, "gbw"},
		{`{"mode":"guided","budget":2000}`, "budget"},
		{`{"mode":"guided","step":1.5}`, "step"},
		{`{"case":9}`, "case"},
		{`{"topologies":["no-such-ota"]}`, "no-such-ota"},
		{big.String(), "exceeds the 512-point bound"},
		{`not json`, ""},
	} {
		resp, data := post(t, ts.URL+"/v1/explore", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.60s: status %d (%s), want 400", tc.body, resp.StatusCode, data)
		}
		if tc.wantIn != "" && !strings.Contains(string(data), tc.wantIn) {
			t.Errorf("%.60s: error %s does not mention %q", tc.body, data, tc.wantIn)
		}
	}
	if stub.calls.Load() != 0 {
		t.Fatalf("invalid explorations reached the backend %d times", stub.calls.Load())
	}
}
