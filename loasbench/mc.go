package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loas/internal/circuit"
	"loas/internal/mc"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// mcOffset is Monte-Carlo sign-off: one caller, each op an
// mc.RunOffset with the /v1/mc defaults (25 samples, case-1 design,
// Workers = GOMAXPROCS) and its own seed, on designs sized during
// set-up. DC Newton and LU fanned over the worker pool carry the load;
// sizing, layout and serving are idle.
//
// A round is eight ops: two folded-cascode, four two-stage and two
// five-t, designs alternating; the run executes its rounds' ops in
// seeded order, each with its own seeded Monte-Carlo seed. Two-stage holds the
// median, so op_p50_ms falls inside that class; folded-cascode is the
// slowest quarter, and op_tail_ms (p90) falls inside it.
var mcOffset = workload{name: "mc-offset", tailPct: 90, setup: newMCOffset}

const (
	// mcRoundS is the nominal length of one mc-offset round.
	mcRoundS = 1.4
	// mcSamples and mcCase are the /v1/mc defaults.
	mcSamples = 25
	mcCase    = 1
	// mcDesigns is how many designs each topology contributes.
	mcDesigns = 2
)

// mcOp is one Monte-Carlo run: design index (topology index ×
// mcDesigns + design) and seed.
type mcOp struct {
	design int
	seed   int64
}

type mcInstance struct {
	cfgs []mc.OffsetConfig // one per design
	ops  []mcOp
	// stats holds each op's untraced RunOffset statistics for the
	// checks.
	stats []*mc.OffsetStats
}

// genMCOps generates the op list and the design specs of an mc-offset
// run: the design pool, and ops in an order and with Monte-Carlo seeds
// drawn from seed.
func genMCOps(seed int64, rounds int) ([]mcOp, []sizing.OTASpec) {
	pool := rand.New(rand.NewSource(poolSeed))
	var specs []sizing.OTASpec
	for _, t := range topologies {
		specs = append(specs, perturbedSpecs(pool, t, mcDesigns)...)
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []mcOp
	for r := 0; r < rounds; r++ {
		d := r % 2
		ops = append(ops,
			mcOp{design: 0*mcDesigns + 0}, mcOp{design: 0*mcDesigns + 1}, // folded-cascode
			mcOp{design: 1*mcDesigns + d}, mcOp{design: 1*mcDesigns + 1 - d},
			mcOp{design: 1*mcDesigns + d}, mcOp{design: 1*mcDesigns + 1 - d}, // two-stage
			mcOp{design: 2*mcDesigns + 0}, mcOp{design: 2*mcDesigns + 1}, // five-t
		)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].seed = rng.Int63n(math.MaxInt64-1) + 1
	}
	return ops, specs
}

func newMCOffset(cfg config) (instance, error) {
	tech := techno.Default060()
	ops, specs := genMCOps(cfg.seed, roundCount(cfg.seconds, mcRoundS))
	s := &mcInstance{ops: ops}
	ps, err := sizing.Case(mcCase)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		plan, err := sizing.Lookup(topologies[i/mcDesigns])
		if err != nil {
			return nil, err
		}
		d, err := plan.Size(tech, spec, ps)
		if err != nil {
			return nil, fmt.Errorf("sizing design %d: %w", i, err)
		}
		s.cfgs = append(s.cfgs, mc.OffsetConfig{
			Build:   func() *circuit.Circuit { return d.Netlist("mc") },
			InP:     sizing.NetInP,
			InN:     sizing.NetInN,
			Out:     sizing.NetOut,
			VicmDC:  0.5 * (spec.ICMLow + spec.ICMHigh),
			VoutMid: 0.5 * (spec.OutLow + spec.OutHigh),
			Temp:    tech.Temp,
			NodeSet: d.NodeSet(),
		})
	}
	// One untimed warm-up op per topology.
	for t := range topologies {
		if _, err := mc.RunOffset(s.cfgs[t*mcDesigns], mcSamples, 1); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", topologies[t], err)
		}
	}
	return s, nil
}

func (s *mcInstance) classes() []string { return topologies }
func (s *mcInstance) invariant() string { return "" }
func (s *mcInstance) close()            {}

func (s *mcInstance) timed() *phase {
	p := newPhase(len(s.ops))
	s.stats = make([]*mc.OffsetStats, len(s.ops))
	for i, op := range s.ops {
		p.class[i] = uint8(op.design / mcDesigns)
		m := readMeter()
		st, err := mc.RunOffset(s.cfgs[op.design], mcSamples, op.seed)
		p.latNS[i] = m.addTo(p).Nanoseconds()
		s.stats[i] = st
		p.out[i] = statsDigest(st, err)
		if err != nil {
			p.fails[i] = failure{phase: "mc", cause: err.Error()}
		}
	}
	p.heapLiveB = heapLive()
	return p
}

// serialStats recomputes a run one sample at a time, each sample its own
// serial mc.OffsetSamples call, and reduces them in index order.
// around, when non-nil, wraps each call.
func serialStats(cfg mc.OffsetConfig, seed int64, around func(func())) *mc.OffsetStats {
	cfg.Workers = 1
	var all []mc.OffsetSample
	for i := 0; i < mcSamples; i++ {
		call := func() {
			out, err := mc.OffsetSamples(cfg, i, 1, seed)
			if err != nil {
				// OffsetSamples reports only worker panics as errors;
				// an empty result fails the comparison below.
				return
			}
			all = append(all, out...)
		}
		if around != nil {
			around(call)
		} else {
			call()
		}
	}
	return mc.ReduceOffsets(all)
}

// check compares every op's timed statistics with the serial
// recomputation, nproc ops at a time.
func (s *mcInstance) check(p *phase) {
	ref := make([]*mc.OffsetStats, len(s.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.ops) {
					return
				}
				op := s.ops[i]
				ref[i] = serialStats(s.cfgs[op.design], op.seed, nil)
			}
		}()
	}
	wg.Wait()
	compare(p, s.stats, ref)
}

// compare fails every op whose statistics are not bit-identical to the
// serial reference.
func compare(p *phase, stats, ref []*mc.OffsetStats) {
	for i := range stats {
		if _, failed := p.fails[i]; failed && ref[i].N == 0 {
			continue // the run failed and so did every serial sample
		}
		if statsDigest(ref[i], nil) != statsDigest(stats[i], nil) {
			p.fails[i] = failure{phase: "check",
				cause: "RunOffset statistics differ from the serial per-sample reduction", wrong: true}
		}
	}
}

func (s *mcInstance) traced(tr *tracer, untraced *phase) (*phase, map[string]float64) {
	var builds atomic.Int64
	p := newPhase(len(s.ops))
	stats := make([]*mc.OffsetStats, len(s.ops))
	ref := make([]*mc.OffsetStats, len(s.ops))
	for i, op := range s.ops {
		cfg := s.cfgs[op.design]
		build := cfg.Build
		cfg.Build = func() *circuit.Circuit {
			builds.Add(1)
			return build()
		}
		p.class[i] = uint8(op.design / mcDesigns)
		m := readMeter()
		tr.beginOp("mc.RunOffset", i)
		st, err := mc.RunOffset(cfg, mcSamples, op.seed)
		tr.endOp()
		p.latNS[i] = m.addTo(p).Nanoseconds()
		stats[i] = st
		p.out[i] = statsDigest(st, err)
		if err != nil {
			p.fails[i] = failure{phase: "mc", cause: err.Error()}
		}
		ref[i] = serialStats(cfg, op.seed, func(call func()) {
			b0 := builds.Load()
			sp := tr.begin("mc.OffsetSamples", -1, i)
			call()
			tr.end(sp)
			if b := builds.Load() - b0; sp >= 0 {
				tr.spans[sp].builds = b
			}
		})
	}
	compare(p, stats, ref)
	compare(untraced, s.stats, ref)

	// Totals over the successful ops: the RunOffset wall time and the
	// serial sample spans.
	var runDur, serialDur time.Duration
	var serialAlloc uint64
	var serialBuilds int64
	samples := 0
	for _, sp := range tr.spans {
		if _, bad := p.fails[sp.op]; bad {
			continue
		}
		switch sp.name {
		case "mc.RunOffset":
			runDur += sp.dur()
		case "mc.OffsetSamples":
			serialDur += sp.dur()
			serialAlloc += sp.allocB
			serialBuilds += sp.builds
			samples++
		}
	}
	layer := map[string]float64{}
	if samples > 0 {
		layer["mc.ms_per_sample"] = ms(serialDur) / float64(samples)
		layer["mc.alloc_mb_per_sample"] = float64(serialAlloc) / 1e6 / float64(samples)
		layer["mc.builds_per_sample"] = float64(serialBuilds) / float64(samples)
		layer["parallel.speedup"] = float64(serialDur) / float64(runDur)
	}
	return p, layer
}

// statsDigest hashes the exact bits of a run's statistics, or its error.
func statsDigest(st *mc.OffsetStats, err error) [sha256.Size]byte {
	if err != nil || st == nil {
		msg := "no statistics"
		if err != nil {
			msg = err.Error()
		}
		return sha256.Sum256([]byte("error: " + msg))
	}
	var b [40]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(st.N))
	binary.LittleEndian.PutUint64(b[8:], uint64(st.Failures))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(st.MeanV))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(st.SigmaV))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(st.WorstAbsV))
	return sha256.Sum256(b[:])
}
