package main

import (
	"math/rand"

	"loas/internal/sizing"
)

// Spec perturbation ranges around each topology's DefaultSpec: GBW is
// scaled, PM shifted (degrees) and CL scaled.
const (
	gbwLo, gbwHi = 0.85, 1.05
	pmLo, pmHi   = -3.0, 1.0
	clLo, clHi   = 0.8, 1.2
)

// poolSeed seeds the spec pools of synth-cold and mc-offset. The pools
// are the same for every run seed, which sets only the op order and the
// Monte-Carlo seeds: whether a synthesis fails (a routing error, an
// off-grid layout) depends on its spec, so a seeded spec set would make
// the failure count, and every per-successful-op metric with it, vary
// from seed to seed.
const poolSeed = 1

// topologies and backends are the op classes' axes, in class order.
var (
	topologies = []string{"folded-cascode", "two-stage", "five-t"}
	backends   = []string{"slicing", "rows"}
)

// lhs returns n values over [lo, hi), one drawn uniformly inside each of
// n equal strata, in random order (Latin hypercube sampling). Every run
// then covers the range evenly, so two seeds differ in where inside each
// stratum a value falls, not in how many values land near an edge.
func lhs(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i, p := range rng.Perm(n) {
		out[i] = lo + (hi-lo)*(float64(p)+rng.Float64())/float64(n)
	}
	return out
}

// perturbedSpecs returns n specifications around topology's DefaultSpec,
// GBW, PM and CL each spread over its range by Latin hypercube sampling.
func perturbedSpecs(rng *rand.Rand, topology string, n int) []sizing.OTASpec {
	plan, err := sizing.Lookup(topology)
	if err != nil {
		panic(err) // topologies lists registered names only
	}
	gbw, pm, cl := lhs(rng, n, gbwLo, gbwHi), lhs(rng, n, pmLo, pmHi), lhs(rng, n, clLo, clHi)
	out := make([]sizing.OTASpec, n)
	for i := range out {
		s := plan.DefaultSpec()
		s.GBW *= gbw[i]
		s.PM += pm[i]
		s.CL *= cl[i]
		out[i] = s
	}
	return out
}

// roundCount converts a run length into whole rounds of the op mix,
// given the nominal length of one round on a 2-vCPU Xeon. It is even,
// so alternating assignments (layout backend, design) balance.
func roundCount(seconds int, nominalRoundS float64) int {
	r := int(float64(seconds)/nominalRoundS/2+0.5) * 2
	if r < 2 {
		r = 2
	}
	return r
}
