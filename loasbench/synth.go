package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"

	"loas/internal/core"
	"loas/internal/layout"
	"loas/internal/layout/drc"
	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// synthCold is the paper's headline operation: one caller, each op a
// cold case-4 core.Synthesize of a fresh spec — the sizing↔layout loop
// to convergence, then both verification passes.
//
// A round is six ops: two folded-cascode (one per layout backend), three
// two-stage and one five-t, backends alternating between rounds; the
// run executes its rounds' ops in seeded order. Two-stage holds the
// median, so op_p50_ms falls inside that class; folded-cascode is the
// slowest third, and op_tail_ms (p75) falls inside it.
var synthCold = workload{name: "synth-cold", tailPct: 75, setup: newSynthCold}

// synthRoundS is the nominal length of one synth-cold round.
const synthRoundS = 2.1

// synthOp is one synthesis: op class (topology index × 2 + backend
// index) and spec.
type synthOp struct {
	class int
	spec  sizing.OTASpec
}

func synthClasses() []string {
	var out []string
	for _, t := range topologies {
		for _, b := range backends {
			out = append(out, t+"/"+b)
		}
	}
	return out
}

// genSynthOps generates the op list of a synth-cold run: the spec pool
// in an order drawn from seed.
func genSynthOps(seed int64, rounds int) []synthOp {
	var ops []synthOp
	for r := 0; r < rounds; r++ {
		b := r % 2
		ops = append(ops,
			synthOp{class: 0*2 + 0}, synthOp{class: 0*2 + 1}, // folded-cascode, both backends
			synthOp{class: 1*2 + b}, synthOp{class: 1*2 + 1 - b}, synthOp{class: 1*2 + b}, // two-stage
			synthOp{class: 2*2 + b}, // five-t
		)
	}
	pool := rand.New(rand.NewSource(poolSeed))
	for t, name := range topologies {
		var idx []int
		for i, op := range ops {
			if op.class/2 == t {
				idx = append(idx, i)
			}
		}
		for k, spec := range perturbedSpecs(pool, name, len(idx)) {
			ops[idx[k]].spec = spec
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

type synthInstance struct {
	tech *techno.Tech
	ops  []synthOp
}

func newSynthCold(cfg config) (instance, error) {
	s := &synthInstance{
		tech: techno.Default060(),
		ops:  genSynthOps(cfg.seed, roundCount(cfg.seconds, synthRoundS)),
	}
	// One untimed warm-up op per class, at the topology's default spec.
	for c := range synthClasses() {
		plan, err := sizing.Lookup(topologies[c/2])
		if err != nil {
			return nil, err
		}
		if _, err := core.Synthesize(s.tech, plan.DefaultSpec(), s.options(c, false)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", synthClasses()[c], err)
		}
	}
	return s, nil
}

func (s *synthInstance) classes() []string { return synthClasses() }
func (s *synthInstance) invariant() string { return "" }
func (s *synthInstance) close()            {}

// check is a no-op: synth-cold checks each op between ops, off the clock.
func (s *synthInstance) check(*phase) {}

func (s *synthInstance) options(class int, traced bool) core.Options {
	o := core.Options{Topology: topologies[class/2], Layout: backends[class%2]}
	if traced {
		o.Topology, o.Layout = tracedPrefix+o.Topology, tracedPrefix+o.Layout
	}
	return o
}

func (s *synthInstance) timed() *phase {
	p := newPhase(len(s.ops))
	for i, op := range s.ops {
		p.class[i] = uint8(op.class)
		m := readMeter()
		res, err := core.Synthesize(s.tech, op.spec, s.options(op.class, false))
		p.latNS[i] = m.addTo(p).Nanoseconds()
		s.record(p, i, res, err)
	}
	p.heapLiveB = heapLive()
	return p
}

func (s *synthInstance) traced(tr *tracer, _ *phase) (*phase, map[string]float64) {
	setActive(tr)
	defer setActive(nil)
	hits := obs.Default.Counter("loas_eval_memo_hits_total", "")
	misses := obs.Default.Counter("loas_eval_memo_misses_total", "")
	hits0, misses0 := hits.Value(), misses.Value()

	p := newPhase(len(s.ops))
	for i, op := range s.ops {
		p.class[i] = uint8(op.class)
		m := readMeter()
		tr.beginOp("synthesize", i)
		res, err := core.Synthesize(s.tech, op.spec, s.options(op.class, true))
		tr.endOp()
		p.latNS[i] = m.addTo(p).Nanoseconds()
		s.record(p, i, res, err)
		if err == nil {
			sp := tr.begin("verify-extracted", -1, i)
			_, _, verr := core.VerifyExtracted(s.tech, op.spec, res.Design, res.Parasitics)
			tr.end(sp)
			if verr != nil {
				p.fails[i] = failure{phase: "traced-verify", cause: verr.Error(), wrong: true}
			}
		}
	}
	dh, dm := hits.Value()-hits0, misses.Value()-misses0

	layer := map[string]float64{}
	ok := float64(p.ok())
	if ok == 0 {
		return p, layer
	}
	// Totals over the successful ops' spans.
	var sz, lay, op, ver layerSums
	for _, sp := range tr.spans {
		if _, bad := p.fails[sp.op]; bad {
			continue
		}
		var dst *layerSums
		switch sp.name {
		case "sizing":
			dst = &sz
		case "layout":
			dst = &lay
		case "synthesize":
			dst = &op
		case "verify-extracted":
			dst = &ver
		default:
			continue
		}
		dst.calls++
		dst.dur += sp.dur()
		dst.allocB += sp.allocB
	}
	layer["sizing.ms_per_op"] = ms(sz.dur) / ok
	layer["sizing.alloc_mb_per_op"] = float64(sz.allocB) / 1e6 / ok
	layer["sizing.calls_per_op"] = float64(sz.calls) / ok
	layer["layout.ms_per_op"] = ms(lay.dur) / ok
	layer["layout.alloc_mb_per_op"] = float64(lay.allocB) / 1e6 / ok
	layer["core.self_ms_per_op"] = ms(op.dur-sz.dur-lay.dur) / ok
	layer["core.self_alloc_mb_per_op"] = (float64(op.allocB) - float64(sz.allocB) - float64(lay.allocB)) / 1e6 / ok
	layer["meas.verify_ms"] = ms(ver.dur) / ok
	layer["meas.verify_alloc_mb"] = float64(ver.allocB) / 1e6 / ok
	if dh+dm > 0 {
		layer["device.memo_hit_ratio"] = float64(dh) / float64(dh+dm)
	}
	return p, layer
}

// record stores op i's outcome: its failure, if any, and the digest of
// its normalized output. It runs the output checks: converged trace,
// finite extracted performance and a DRC-clean layout.
func (s *synthInstance) record(p *phase, i int, res *core.Result, err error) {
	if err != nil {
		f := synthFailure(err)
		p.fails[i] = f
		p.out[i] = sha256.Sum256([]byte(f.phase + "\x00" + f.cause))
		return
	}
	p.out[i] = summaryDigest(res)
	switch {
	case !obs.Converged(res.Trace, 1e-15):
		p.fails[i] = failure{phase: "check", cause: "parasitics not converged"}
	case !finitePerf(res.Extracted):
		p.fails[i] = failure{phase: "check", cause: "non-finite extracted performance"}
	case res.Layout == nil || res.Layout.Cell == nil:
		p.fails[i] = failure{phase: "check", cause: "no layout cell"}
	default:
		if v := drc.Check(s.tech, res.Layout.Cell); len(v) > 0 {
			p.fails[i] = failure{phase: "check", cause: "drc: " + v[0].Rule + " violations"}
		}
	}
}

// summaryDigest hashes the result's summary with the wrapper names
// mapped back to the originals and the elapsed time zeroed, so a traced
// and an untraced run of one op hash alike.
func summaryDigest(res *core.Result) [sha256.Size]byte {
	sum := res.Summary()
	sum.Topology = untraced(sum.Topology)
	if sum.Layout = untraced(sum.Layout); sum.Layout == layout.DefaultBackend {
		sum.Layout = ""
	}
	sum.ElapsedMS = 0
	b, err := json.Marshal(sum)
	if err != nil {
		b = []byte("unencodable summary: " + err.Error())
	}
	return sha256.Sum256(b)
}

func finitePerf(p sizing.Performance) bool {
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			return false
		}
	}
	return true
}

// synthFailure names the phase of a synthesis error from the engine's
// error prefix; the cause is the rest of the message.
func synthFailure(err error) failure {
	msg := err.Error()
	for _, p := range []struct {
		prefix, phase string
		numbered      bool
	}{
		{"core: sizing pass ", "sizing", true},
		{"core: layout call ", "layout", true},
		{"core: synthesized verification: ", "verify-synthesized", false},
		{"core: extracted verification: ", "verify-extracted", false},
		{"core: parasitics did not converge", "converge", false},
	} {
		rest, ok := strings.CutPrefix(msg, p.prefix)
		if !ok {
			continue
		}
		switch {
		case p.numbered:
			if _, after, found := strings.Cut(rest, ": "); found {
				rest = after
			}
		case p.phase == "converge":
			rest = strings.TrimPrefix(msg, "core: ")
		}
		return failure{phase: p.phase, cause: rest}
	}
	return failure{phase: "synthesize", cause: msg}
}
