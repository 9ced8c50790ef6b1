package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"loas/internal/techno"
)

// The op lists are a function of the seed alone.
func TestOpListsFollowTheSeed(t *testing.T) {
	if a, b := genSynthOps(7, 4), genSynthOps(7, 4); !reflect.DeepEqual(a, b) {
		t.Error("synth-cold: one seed gave two op lists")
	}
	if a, b := genSynthOps(7, 4), genSynthOps(8, 4); reflect.DeepEqual(a, b) {
		t.Error("synth-cold: two seeds gave one op list")
	}
	ma, sa := genMCOps(7, 4)
	mb, sb := genMCOps(7, 4)
	if !reflect.DeepEqual(ma, mb) || !reflect.DeepEqual(sa, sb) {
		t.Error("mc-offset: one seed gave two op lists")
	}
	if mc, _ := genMCOps(8, 4); reflect.DeepEqual(ma, mc) {
		t.Error("mc-offset: two seeds gave one op list")
	}
	oa, ia := genServeOps(7, 4)
	ob, ib := genServeOps(7, 4)
	if !reflect.DeepEqual(oa, ob) || !reflect.DeepEqual(ia, ib) {
		t.Error("serve-hot: one seed gave two op lists")
	}
}

// Every run of a seed holds the same multiset of ops; the seed sets only
// their order (and the Monte-Carlo seeds).
func TestSeedsShareTheSpecPool(t *testing.T) {
	count := func(ops []synthOp) map[synthOp]int {
		m := map[synthOp]int{}
		for _, op := range ops {
			m[op]++
		}
		return m
	}
	if !reflect.DeepEqual(count(genSynthOps(1, 4)), count(genSynthOps(2, 4))) {
		t.Error("synth-cold: two seeds ran different specs")
	}
}

// checkRepeatable runs a short op list untraced twice and traced once:
// all three must give one digest.
func checkRepeatable(t *testing.T, inst instance) {
	t.Helper()
	registerTraced()
	a := inst.timed()
	inst.check(a)
	b := inst.timed()
	inst.check(b)
	if a.digest() != b.digest() {
		t.Errorf("two untraced runs of one op list: digests %s and %s", a.digest(), b.digest())
	}
	tp, layer := inst.traced(newTracer(), b)
	if tp.digest() != a.digest() {
		t.Errorf("traced digest %s, untraced %s", tp.digest(), a.digest())
	}
	for _, p := range []*phase{a, b, tp} {
		for i, f := range p.fails {
			if f.wrong {
				t.Errorf("op %d returned a wrong output: %s: %s", i, f.phase, f.cause)
			}
		}
	}
	if msg := inst.invariant(); msg != "" {
		t.Error(msg)
	}
	if len(layer) == 0 {
		t.Error("the traced pass measured no per-layer metric")
	}
}

func TestSynthColdRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs syntheses")
	}
	// The two-stage/rows and five-t ops of a two-round list, one of
	// which fails in routing, keep the test short.
	var short []synthOp
	for _, op := range genSynthOps(3, 2) {
		if op.class == 1*2+1 || op.class/2 == 2 {
			short = append(short, op)
		}
	}
	inst := &synthInstance{tech: techno.Default060(), ops: short}
	if p := inst.timed(); len(p.fails) == 0 {
		t.Fatal("no op of the short list failed; the test no longer covers failures")
	}
	checkRepeatable(t, inst)
}

func TestMCOffsetRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte-Carlo")
	}
	inst, err := newMCOffset(config{seed: 3, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	mi := inst.(*mcInstance)
	mi.ops = mi.ops[:4]
	checkRepeatable(t, mi)
}

func TestServeHotRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("primes a daemon")
	}
	inst, err := newServeHot(config{seed: 3, seconds: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	si := inst.(*serveInstance)
	si.ops = si.ops[:400]
	checkRepeatable(t, si)
}

// A run prints one JSON object as its last line, with every end-to-end
// metric untraced and every per-layer metric traced.
func TestRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte-Carlo")
	}
	for _, trace := range []bool{false, true} {
		var buf bytes.Buffer
		cfg := config{workload: "mc-offset", seed: 5, seconds: 1, trace: trace, outDir: t.TempDir()}
		if err := run(cfg, &buf, 0); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
			"cpu_ms_per_op", "alloc_mb_per_op", "heap_live_mb", "ok_ratio"}
		if trace {
			want = want[:0]
			for name := range perLayerUnits {
				want = append(want, name)
			}
		}
		for _, name := range want {
			if m, ok := metrics[name]; !ok || m.Unit == "" {
				t.Errorf("trace=%t: metric %s missing", trace, name)
			}
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%t: %d metrics, want %d", trace, len(metrics), len(want))
		}
		if string(res["correct"]) != "true" {
			t.Errorf("trace=%t: correct = %s", trace, res["correct"])
		}
	}
}
