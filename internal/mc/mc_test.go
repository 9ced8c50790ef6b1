package mc

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout/stack"
	"loas/internal/obs"
	"loas/internal/sizing"
	"loas/internal/techno"
)

const um = techno.Micron

func TestDrawPelgromScaling(t *testing.T) {
	tech := techno.Default060()
	mk := func(name string, w float64) *circuit.MOSFET {
		return &circuit.MOSFET{Name: name, D: "d", G: "g", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: w, L: 1 * um}}
	}
	small := circuit.New("s")
	small.Add(mk("m", 4*um))
	big := circuit.New("b")
	big.Add(mk("m", 64*um))

	// Empirical σ over many draws must scale as 1/√area (factor 4 here).
	var sSmall, sBig float64
	const n = 4000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		d := Draw(rng, small).DVT0["m"]
		sSmall += d * d
	}
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		d := Draw(rng, big).DVT0["m"]
		sBig += d * d
	}
	ratio := math.Sqrt(sSmall / sBig)
	if ratio < 3.4 || ratio > 4.6 {
		t.Fatalf("σ ratio for 16× area = %.2f, want ≈ 4", ratio)
	}
}

func TestApplyClonesCards(t *testing.T) {
	tech := techno.Default060()
	c := circuit.New("c")
	c.Add(
		&circuit.MOSFET{Name: "a", D: "d", G: "g", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: 10 * um, L: 1 * um}},
		&circuit.MOSFET{Name: "b", D: "d2", G: "g", S: "0", B: "0",
			Dev: device.MOS{Card: &tech.N, W: 10 * um, L: 1 * um}},
	)
	s := Sample{
		DVT0:  map[string]float64{"a": 5e-3, "b": -5e-3},
		DBeta: map[string]float64{"a": 0.01, "b": -0.01},
	}
	s.Apply(c)
	va := c.FindMOS("a").Dev.Card.VT0
	vb := c.FindMOS("b").Dev.Card.VT0
	if va == vb {
		t.Fatal("shifts not applied independently")
	}
	if tech.N.VT0 != 0.75 {
		t.Fatal("Apply mutated the shared technology card")
	}
}

// fcConfig builds the Monte-Carlo offset bench on the case-1 OTA.
func fcConfig(t *testing.T) OffsetConfig {
	t.Helper()
	tech := techno.Default060()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
	if err != nil {
		t.Fatal(err)
	}
	return OffsetConfig{
		Build:   func() *circuit.Circuit { return d.Netlist("mc") },
		InP:     sizing.NetInP,
		InN:     sizing.NetInN,
		Out:     sizing.NetOut,
		VicmDC:  0.645,
		VoutMid: 1.41,
		Temp:    tech.Temp,
		NodeSet: d.NodeSet(),
	}
}

// TestOffsetSamplesSpans: a parent span passed only through cfg.Ctx
// gets one "mc-sample" child per draw, labelled with the sample's
// global index.
func TestOffsetSamplesSpans(t *testing.T) {
	cfg := fcConfig(t)
	rec := obs.NewRecorder()
	root := rec.Root("mc")
	cfg.Ctx = obs.ContextWithSpan(context.Background(), root)
	const start, n = 5, 3
	if _, err := OffsetSamples(cfg, start, n, 7); err != nil {
		t.Fatal(err)
	}
	root.End()
	indices := map[string]bool{}
	for _, s := range rec.Snapshot() {
		if s.Name != "mc-sample" {
			continue
		}
		if s.Parent != 1 {
			t.Fatalf("mc-sample span %d has parent %d, want the root", s.ID, s.Parent)
		}
		indices[s.Attrs["index"]] = true
	}
	if len(indices) != n {
		t.Fatalf("got mc-sample spans for indices %v, want %d", indices, n)
	}
	for i := start; i < start+n; i++ {
		if !indices[strconv.Itoa(i)] {
			t.Fatalf("no mc-sample span for index %d: %v", i, indices)
		}
	}
}

func TestRunOffsetStatistics(t *testing.T) {
	cfg := fcConfig(t)
	stats, err := RunOffset(cfg, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if stats.N < 10 {
		t.Fatalf("only %d of 12 samples converged (%d failures)", stats.N, stats.Failures)
	}
	// Input-referred offset σ of a 140 µm / 1 µm pair with cascode loads:
	// fractions of a millivolt to a few millivolts.
	if stats.SigmaV < 0.1e-3 || stats.SigmaV > 8e-3 {
		t.Fatalf("σ(offset) = %.3f mV outside the plausible band", stats.SigmaV*1e3)
	}
	if math.Abs(stats.MeanV) > 3*stats.SigmaV {
		t.Fatalf("offset mean %.3f mV inconsistent with σ %.3f mV",
			stats.MeanV*1e3, stats.SigmaV*1e3)
	}
	if stats.WorstAbsV < stats.SigmaV/2 {
		t.Fatal("worst case below sigma — bookkeeping broken")
	}
}

func TestRunOffsetDeterministic(t *testing.T) {
	cfg := fcConfig(t)
	a, err := RunOffset(cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOffset(cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.SigmaV != b.SigmaV || a.MeanV != b.MeanV {
		t.Fatal("same seed must reproduce the same statistics")
	}
}

// TestRunOffsetWorkerInvariance pins the determinism contract of the
// engine as a property over execution shapes: the same (seed, n) yields
// bit-identical OffsetStats no matter how many workers execute the
// samples AND no matter how the sample range is split into resumed
// OffsetSamples batches — because sample i's random stream depends only
// on (seed, i) and the reduction runs in sample order.
func TestRunOffsetWorkerInvariance(t *testing.T) {
	const n, seed = 6, 7
	base := fcConfig(t)
	base.Workers = 1
	ref, err := RunOffset(base, n, seed)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		workers int
		split   []int // batch sizes summing to n; nil = single RunOffset
	}{
		{"workers=1", 1, nil},
		{"workers=4", 4, nil},
		{"workers=16", 16, nil},
		{"workers=numcpu", runtime.NumCPU(), nil},
		{"resume 2+4", 4, []int{2, 4}},
		{"resume 3+3", 1, []int{3, 3}},
		{"resume 1+2+3", 16, []int{1, 2, 3}},
		{"resume 1x6", 4, []int{1, 1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Workers = tc.workers
			var got *OffsetStats
			if tc.split == nil {
				got, err = RunOffset(cfg, n, seed)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				var all []OffsetSample
				start := 0
				for _, bn := range tc.split {
					batch, err := OffsetSamples(cfg, start, bn, seed)
					if err != nil {
						t.Fatalf("batch at %d: %v", start, err)
					}
					all = append(all, batch...)
					start += bn
				}
				if start != n {
					t.Fatalf("split %v does not cover %d samples", tc.split, n)
				}
				got = ReduceOffsets(all)
			}
			if *got != *ref {
				t.Fatalf("statistics not bit-identical:\n  reference %+v\n  got       %+v",
					*ref, *got)
			}
		})
	}
}

// TestOffsetSamplesIndexing: a resumed batch must carry absolute sample
// indices and reproduce exactly the samples a full run would have drawn
// at those indices.
func TestOffsetSamplesIndexing(t *testing.T) {
	cfg := fcConfig(t)
	full, err := OffsetSamples(cfg, 0, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := OffsetSamples(cfg, 3, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tail {
		want := full[3+i]
		if s.Index != 3+i {
			t.Fatalf("tail[%d].Index = %d, want %d", i, s.Index, 3+i)
		}
		if s != want {
			t.Fatalf("resumed sample %d differs: %+v vs %+v", s.Index, s, want)
		}
	}
}

// TestSampleSeedStreamsIndependent: adjacent samples must not share a
// stream (the classic seed+i mistake correlates draws).
func TestSampleSeedStreamsIndependent(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 1000; i++ {
			s := sampleSeed(seed, i)
			if j, dup := seen[s]; dup {
				t.Fatalf("seed collision between streams %d and %d", j, i)
			}
			seen[s] = i
		}
	}
	// First draws of consecutive streams should look uncorrelated.
	var dot, n float64
	for i := 0; i < 500; i++ {
		a := rand.New(rand.NewSource(sampleSeed(1, i))).NormFloat64()
		b := rand.New(rand.NewSource(sampleSeed(1, i+1))).NormFloat64()
		dot += a * b
		n++
	}
	if r := dot / n; math.Abs(r) > 0.15 {
		t.Fatalf("consecutive streams correlate: r = %.3f", r)
	}
}

// TestNullInputWindowError: an output no input can move escapes the
// ±25 mV search window, with mc's text.
func TestNullInputWindowError(t *testing.T) {
	cfg := OffsetConfig{
		Build: func() *circuit.Circuit {
			return circuit.New("pinned").Add(&circuit.VSource{Name: "o", Pos: "out", Neg: circuit.Ground, DC: 1})
		},
		InP: "inp", InN: "inn", Out: "out", VicmDC: 1, VoutMid: 2, Temp: techno.TempNominal,
	}
	_, err := simulateOffset(cfg, cfg.Build(), Sample{})
	if want := "mc: offset outside ±25 mV search window"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

func TestEstimateOffsetSigma(t *testing.T) {
	tech := techno.Default060()
	// Bigger devices → smaller offset.
	small := EstimateOffsetSigma(&tech.P, 20*um, 1*um, &tech.N, 20*um, 1*um, 0.5)
	big := EstimateOffsetSigma(&tech.P, 200*um, 1*um, &tech.N, 200*um, 1*um, 0.5)
	if big >= small {
		t.Fatalf("offset should shrink with area: %g vs %g", big, small)
	}
	// Load contribution suppressed by the gm ratio.
	loadHeavy := EstimateOffsetSigma(&tech.P, 20*um, 1*um, &tech.N, 20*um, 1*um, 2.0)
	if loadHeavy <= small {
		t.Fatal("larger gm ratio should worsen the load contribution")
	}
}

// gradientVTShift converts a linear VT process gradient along a stack
// (volts per gate pitch) into per-device threshold shifts using the
// pattern's signed centroids: the systematic offset the common-centroid
// style of the paper's Fig. 3 and Fig. 5 cancels. No flow applies it.
func gradientVTShift(p *stack.Pattern, voltsPerPitch float64) map[string]float64 {
	out := map[string]float64{}
	for name, c := range p.SignedCentroid() {
		out[name] = c * voltsPerPitch
	}
	return out
}

// gradientPairOffset returns the input-referred offset a VT gradient
// induces on a differential pair laid out as the given stack: the
// difference of the two devices' gradient shifts.
func gradientPairOffset(p *stack.Pattern, a, b string, voltsPerPitch float64) float64 {
	sh := gradientVTShift(p, voltsPerPitch)
	return sh[a] - sh[b]
}

func TestGradientRewardsCommonCentroid(t *testing.T) {
	// An optimized (near common-centroid) pair versus a naive AABB
	// arrangement under the same gradient.
	spec := stack.PatternSpec{
		Devices: []stack.Device{
			{Name: "A", Units: 2, DrainNet: "da", GateNet: "ga"},
			{Name: "B", Units: 2, DrainNet: "db", GateNet: "gb"},
		},
		SourceNet: "tail", EndDummies: true,
	}
	good, err := stack.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const grad = 1e-3 // 1 mV per gate pitch
	offGood := math.Abs(gradientPairOffset(good, "A", "B", grad))

	// Naive AABB: centroids differ by 2 pitches → 2 mV offset.
	offNaive := 2 * grad
	if offGood >= offNaive {
		t.Fatalf("optimized stack offset %.3g V should beat AABB %.3g V", offGood, offNaive)
	}
	if offGood > 0.8e-3 {
		t.Fatalf("optimized stack gradient offset %.3g V too large", offGood)
	}
}

func TestGradientShiftSigns(t *testing.T) {
	p, err := stack.Generate(stack.PatternSpec{
		Devices: []stack.Device{
			{Name: "L", Units: 1, DrainNet: "dl", GateNet: "g"},
			{Name: "R", Units: 1, DrainNet: "dr", GateNet: "g"},
		},
		SourceNet: "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := gradientVTShift(p, 1e-3)
	// Two single units: one sits left of centre, one right — equal and
	// opposite shifts.
	if math.Abs(sh["L"]+sh["R"]) > 1e-12 {
		t.Fatalf("antisymmetric shifts expected: %v", sh)
	}
	if sh["L"] == 0 {
		t.Fatal("distinct positions must shift")
	}
}
