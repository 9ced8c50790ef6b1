// Package mc is the statistical verification interface of the sizing
// tool ("a verification interface … permits to undergo statistical
// analysis to check the reliability of the synthesized circuit"). It
// perturbs every transistor's threshold and current factor with
// Pelgrom-scaled random mismatch (σ ∝ 1/√(W·L)), re-simulates the DC
// operating point, and extracts the input-referred offset distribution.
package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"loas/internal/circuit"
	"loas/internal/meas"
	"loas/internal/obs"
	"loas/internal/parallel"
	"loas/internal/sim"
	"loas/internal/techno"
)

// Sample is one Monte-Carlo draw.
type Sample struct {
	// DVT0 and DBeta map transistor name → applied shifts.
	DVT0  map[string]float64
	DBeta map[string]float64
}

// Draw generates mismatch shifts for every transistor in the circuit.
// Each device gets an independent N(0, σ) draw with Pelgrom scaling on
// its own W·L·M area (device-to-device correlation of identical pairs is
// then √2 larger, as the coefficients define).
func Draw(rng *rand.Rand, ckt *circuit.Circuit) Sample {
	s := Sample{DVT0: map[string]float64{}, DBeta: map[string]float64{}}
	for _, m := range ckt.MOSFETs() {
		area := m.Dev.W * m.Dev.L * m.Dev.M()
		if area <= 0 {
			continue
		}
		// Single-device σ is the pair coefficient divided by √2.
		sVT := m.Dev.Card.AVT / math.Sqrt(area) / math.Sqrt2
		sB := m.Dev.Card.ABeta / math.Sqrt(area) / math.Sqrt2
		s.DVT0[m.Name] = rng.NormFloat64() * sVT
		s.DBeta[m.Name] = rng.NormFloat64() * sB
	}
	return s
}

// Apply clones each transistor's model card and applies the shifts; the
// circuit is modified in place (use a freshly built netlist per sample).
func (s Sample) Apply(ckt *circuit.Circuit) {
	for _, m := range ckt.MOSFETs() {
		card := *m.Dev.Card
		card.VT0 += s.DVT0[m.Name]
		card.KP *= 1 + s.DBeta[m.Name]
		m.Dev.Card = &card
	}
}

// OffsetConfig describes the offset measurement for Monte Carlo.
type OffsetConfig struct {
	// Build returns a fresh amplifier netlist (no input sources).
	Build func() *circuit.Circuit
	// InP, InN, Out name the ports; VicmDC biases the inputs; VoutMid is
	// the output null target.
	InP, InN, Out string
	VicmDC        float64
	VoutMid       float64
	Temp          float64
	NodeSet       map[string]float64
	// Workers bounds the Monte-Carlo parallelism: samples are fanned out
	// across this many goroutines (0 = GOMAXPROCS, 1 = serial). The
	// statistics are identical for any value — see RunOffset.
	Workers int
	// Ctx, when non-nil, is the context the sample fan-out derives its
	// worker contexts from: cancellation propagates, pprof labels it
	// carries (the daemon's phase/topology/run_id) reach the per-sample
	// phase instrumentation, and a span it carries (obs.ContextWithSpan)
	// parents one "mc-sample" span per draw — the per-worker-item view of
	// where the fan-out's wall time goes. Observation only; the sample
	// statistics are unchanged. Nil means Background.
	Ctx context.Context
}

// searchMV bounds the offset search: the bisection brackets the
// differential input to ±searchMV millivolts.
const searchMV = 25.0

// simulateOffset nulls the output by bisection on the differential
// input for one mismatch sample and returns the input-referred offset.
// It applies the sample to ckt, a freshly built netlist, and adds the
// input sources.
func simulateOffset(cfg OffsetConfig, ckt *circuit.Circuit, s Sample) (float64, error) {
	// Build the sample's engine once and sweep only the input sources
	// across the bisection. The engine holds structure, source DC values
	// are read when stamping, and OP restarts from the node set every
	// call, so each probe solves the system a freshly built netlist
	// would.
	s.Apply(ckt)
	vp := &circuit.VSource{Name: "mcp", Pos: cfg.InP, Neg: circuit.Ground}
	vn := &circuit.VSource{Name: "mcn", Pos: cfg.InN, Neg: circuit.Ground}
	ckt.Add(vp, vn)
	eng := sim.NewEngine(ckt, cfg.Temp)
	ns := map[string]float64{cfg.InP: cfg.VicmDC, cfg.InN: cfg.VicmDC, cfg.Out: cfg.VoutMid}
	for k, v := range cfg.NodeSet {
		ns[k] = v
	}
	vid, ok, err := meas.NullInput(func(vid float64) (float64, error) {
		vp.DC = cfg.VicmDC + vid/2
		vn.DC = cfg.VicmDC - vid/2
		op, err := eng.OP(sim.OPOptions{NodeSet: ns})
		if err != nil {
			return 0, err
		}
		return op.Volt(ckt, cfg.Out) - cfg.VoutMid, nil
	}, searchMV*1e-3, 18, 0)
	if err == nil && !ok {
		err = fmt.Errorf("mc: offset outside ±%.0f mV search window", searchMV)
	}
	return vid, err
}

// OffsetStats summarizes a Monte-Carlo offset run. The JSON tags are
// the wire format shared by `loas mc -json` and the loasd daemon.
type OffsetStats struct {
	N         int     `json:"n"`
	MeanV     float64 `json:"mean_v"`
	SigmaV    float64 `json:"sigma_v"`
	WorstAbsV float64 `json:"worst_abs_v"`
	Failures  int     `json:"failures"` // samples whose offset escaped the search window
}

// sampleSeed derives the i-th sample's RNG seed from the run seed with a
// SplitMix64 step. Every sample owns an independent deterministic random
// stream, so the draw does not depend on which worker executes it or on
// how many workers exist.
func sampleSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e9b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// mcSamples counts completed Monte-Carlo offset samples process-wide
// (the loasd /metrics throughput number).
var mcSamples = obs.Default.Counter("loas_mc_samples_total",
	"completed Monte-Carlo offset samples (including failed searches)")

// OffsetSample is the outcome of one Monte-Carlo draw. Index is the
// sample's global position in the run's seed-split stream, so a run can
// be split into ranges and resumed: sample i is identical no matter
// which call — or which worker — produced it.
type OffsetSample struct {
	Index   int     `json:"index"`
	OffsetV float64 `json:"offset_v"`
	OK      bool    `json:"ok"` // false: search escaped the window or DC failed
}

// OffsetSamples simulates samples [start, start+n) of the run seeded by
// seed, fanning them across cfg.Workers goroutines. Each sample draws
// from its own seed-split random stream (sampleSeed), so the outcome of
// sample i depends only on (seed, i) — never on start, the worker count
// or GOMAXPROCS. Results come back in index order.
func OffsetSamples(cfg OffsetConfig, start, n int, seed int64) ([]OffsetSample, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	parent := obs.SpanFromContext(ctx)
	// A failed offset search (outside the window, no DC convergence) is a
	// per-sample outcome counted by the reducer, never a pool error — so
	// the only errors MapN can surface here are worker panics.
	return parallel.MapN(ctx, cfg.Workers, n,
		func(sctx context.Context, i int) (OffsetSample, error) {
			idx := start + i
			span := parent.Child("mc-sample")
			span.SetAttr("index", strconv.Itoa(idx))
			defer span.End()
			var out OffsetSample
			obs.Phase(sctx, "mc-sample", func() {
				// One netlist per sample: the draw reads its devices
				// before the sample is applied to it and solved.
				ckt := cfg.Build()
				s := Draw(rand.New(rand.NewSource(sampleSeed(seed, idx))), ckt)
				off, err := simulateOffset(cfg, ckt, s)
				mcSamples.Inc()
				if err != nil {
					out = OffsetSample{Index: idx}
					return
				}
				out = OffsetSample{Index: idx, OffsetV: off, OK: true}
			})
			return out, nil
		})
}

// ReduceOffsets folds samples into offset statistics, accumulating in
// the order given. Reducing the concatenation of consecutive ranges is
// bit-identical to reducing one full run — float addition is performed
// in the same sample order either way.
func ReduceOffsets(samples []OffsetSample) *OffsetStats {
	stats := &OffsetStats{}
	var sum, sum2 float64
	for _, o := range samples {
		if !o.OK {
			stats.Failures++
			continue
		}
		stats.N++
		sum += o.OffsetV
		sum2 += o.OffsetV * o.OffsetV
		if a := math.Abs(o.OffsetV); a > stats.WorstAbsV {
			stats.WorstAbsV = a
		}
	}
	if stats.N == 0 {
		return stats
	}
	stats.MeanV = sum / float64(stats.N)
	stats.SigmaV = math.Sqrt(sum2/float64(stats.N) - stats.MeanV*stats.MeanV)
	return stats
}

// RunOffset draws n samples and returns the offset statistics, fanning
// the samples across cfg.Workers goroutines. The run is deterministic
// for a given seed and bit-identical for any worker count or GOMAXPROCS,
// and for any split of the index range into OffsetSamples calls: each
// sample owns a seed-split random stream and the statistics are reduced
// serially in sample order.
func RunOffset(cfg OffsetConfig, n int, seed int64) (*OffsetStats, error) {
	outs, err := OffsetSamples(cfg, 0, n, seed)
	if err != nil {
		return nil, err
	}
	stats := ReduceOffsets(outs)
	if stats.N == 0 {
		return stats, fmt.Errorf("mc: all %d samples failed", n)
	}
	return stats, nil
}

// EstimateOffsetSigma is the analytic companion (the sizing tool's quick
// reliability number): the input pair's own VT mismatch plus the load
// mismatch divided by the pair's transconductance ratio.
//
// σ²(Voff) = σ²VT(pair) + (gmLoad/gmPair)²·σ²VT(load)
func EstimateOffsetSigma(card *techno.MOSCard, wPair, lPair float64,
	loadCard *techno.MOSCard, wLoad, lLoad, gmRatio float64) float64 {
	sPair := card.AVT / math.Sqrt(wPair*lPair)
	sLoad := loadCard.AVT / math.Sqrt(wLoad*lLoad)
	return math.Sqrt(sPair*sPair + gmRatio*gmRatio*sLoad*sLoad)
}
