package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"loas/internal/circuit"
	"loas/internal/techno"
)

// randomLadder builds an n-stage resistor ladder from a 1 V source and
// returns the circuit plus the analytically computed node voltages.
func randomLadder(r *rand.Rand, n int) (*circuit.Circuit, []float64) {
	c := circuit.New("ladder")
	c.Add(&circuit.VSource{Name: "in", Pos: "n0", Neg: "0", DC: 1})
	rs := make([]float64, 2*n)
	for i := range rs {
		rs[i] = math.Exp(r.Float64()*8 - 2) // 0.13 Ω … 400 Ω decades
	}
	for i := 0; i < n; i++ {
		c.Add(
			&circuit.Resistor{Name: fmt.Sprintf("s%d", i),
				A: fmt.Sprintf("n%d", i), B: fmt.Sprintf("n%d", i+1), R: rs[2*i]},
			&circuit.Resistor{Name: fmt.Sprintf("p%d", i),
				A: fmt.Sprintf("n%d", i+1), B: "0", R: rs[2*i+1]},
		)
	}
	// Analytic solution by backward impedance folding.
	z := make([]float64, n+1)
	z[n] = rs[2*n-1]
	for i := n - 1; i >= 1; i-- {
		zin := rs[2*i] + z[i+1]
		z[i] = rs[2*i-1] * zin / (rs[2*i-1] + zin)
	}
	v := make([]float64, n+1)
	v[0] = 1
	for i := 1; i <= n; i++ {
		zin := z[i]
		v[i] = v[i-1] * zin / (rs[2*(i-1)] + zin)
	}
	return c, v
}

func TestDCLadderMatchesAnalytic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		ckt, want := randomLadder(r, n)
		eng := NewEngine(ckt, techno.TempNominal)
		res, err := eng.OP(OPOptions{})
		if err != nil {
			return false
		}
		for i := 1; i <= n; i++ {
			got := res.Volt(ckt, fmt.Sprintf("n%d", i))
			if math.Abs(got-want[i]) > 1e-6+1e-6*math.Abs(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestACPassiveGainBounded(t *testing.T) {
	// Property: a passive RC network driven by a 1 V source never shows
	// |V(node)| > 1 anywhere at any frequency.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		ckt, _ := randomLadder(r, n)
		// Sprinkle capacitors to ground.
		for i := 1; i <= n; i++ {
			ckt.Add(&circuit.Capacitor{Name: fmt.Sprintf("c%d", i),
				A: fmt.Sprintf("n%d", i), B: "0", C: math.Exp(r.Float64()*6 - 30)})
		}
		for _, v := range ckt.VSources() {
			v.ACMag = 1
		}
		eng := NewEngine(ckt, techno.TempNominal)
		op, err := eng.OP(OPOptions{})
		if err != nil {
			return false
		}
		res, err := eng.AC(op, LogSpace(1, 1e12, 13))
		if err != nil {
			return false
		}
		for _, pt := range res {
			for i := 1; i <= n; i++ {
				if cmplx.Abs(pt.Volt(ckt, fmt.Sprintf("n%d", i))) > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestACDCLimitMatchesOP(t *testing.T) {
	// Property: the AC solution at a very low frequency equals the DC
	// small-signal response — computed here by comparing two DC solves
	// against the AC transfer on a resistive ladder.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(6)
		ckt, _ := randomLadder(r, n)
		for _, v := range ckt.VSources() {
			v.ACMag = 1
		}
		eng := NewEngine(ckt, techno.TempNominal)
		op, err := eng.OP(OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.AC(op, []float64{1e-3})
		if err != nil {
			t.Fatal(err)
		}
		// Linear network with 1 V DC and 1 V AC: phasor == DC voltage.
		for i := 1; i <= n; i++ {
			node := fmt.Sprintf("n%d", i)
			dc := op.Volt(ckt, node)
			ac := cmplx.Abs(res[0].Volt(ckt, node))
			if math.Abs(dc-ac) > 1e-9 {
				t.Fatalf("trial %d node %s: AC %.9g vs DC %.9g", trial, node, ac, dc)
			}
		}
	}
}

func TestTranSettlesToDC(t *testing.T) {
	// Property: with constant sources, the transient must hold the DC
	// solution indefinitely.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(4)
		ckt, _ := randomLadder(r, n)
		for i := 1; i <= n; i++ {
			ckt.Add(&circuit.Capacitor{Name: fmt.Sprintf("c%d", i),
				A: fmt.Sprintf("n%d", i), B: "0", C: 1e-12})
		}
		eng := NewEngine(ckt, techno.TempNominal)
		op, err := eng.OP(OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%d", i+1)
		}
		res, err := eng.Tran(1e-8, 1e-10, OPOptions{}, nil, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range nodes {
			w := res.Waveform(node)
			if len(w) != len(res.T) {
				t.Fatalf("trial %d node %s: %d samples for %d time points", trial, node, len(w), len(res.T))
			}
			if math.Abs(w[len(w)-1]-op.Volt(ckt, node)) > 1e-6 {
				t.Fatalf("trial %d node %s drifted from DC", trial, node)
			}
		}
	}
}

func TestNoiseScalesWithTemperature(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New("rt")
		c.Add(
			&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0},
			&circuit.Resistor{Name: "r", A: "a", B: "b", R: 1e4},
			&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 1e-12},
		)
		return c
	}
	psdAt := func(temp float64) float64 {
		ckt := build()
		eng := NewEngine(ckt, temp)
		op, err := eng.OP(OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := eng.PrepareAC(op).Noise("b", []float64{100})
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].OutPSD
	}
	cold, hot := psdAt(250), psdAt(400)
	if ratio := hot / cold; math.Abs(ratio-400.0/250.0) > 1e-6 {
		t.Fatalf("thermal noise should scale with T: ratio %g", ratio)
	}
}

func TestNoiseContributorBreakdown(t *testing.T) {
	c := circuit.New("two")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0},
		&circuit.Resistor{Name: "big", A: "a", B: "b", R: 9e3},
		&circuit.Resistor{Name: "small", A: "b", B: "0", R: 1e3},
	)
	eng := NewEngine(c, techno.TempNominal)
	op, err := eng.OP(OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := eng.PrepareAC(op).Noise("b", []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if want := []string{"big/thermal", "small/thermal"}; !slices.Equal(pt.Sources, want) {
		t.Fatalf("sources %v, want %v", pt.Sources, want)
	}
	if len(pt.Contrib) != len(pt.Sources) {
		t.Fatalf("%d contributions for %d sources", len(pt.Contrib), len(pt.Sources))
	}
	// Both noise currents see the same tap impedance R1∥R2, so the
	// contributions weight by conductance: the smaller resistor ranks
	// first.
	rank := []int{0, 1}
	sort.Slice(rank, func(i, j int) bool { return pt.Contrib[rank[i]] > pt.Contrib[rank[j]] })
	if top := pt.Sources[rank[0]]; top != "small/thermal" || pt.Contrib[rank[0]] <= pt.Contrib[rank[1]] {
		t.Fatalf("contributor weighting wrong: %v = %v", pt.Sources, pt.Contrib)
	}
	// Total equals the thermal noise of the parallel combination.
	want := 4 * techno.KBoltzmann * techno.TempNominal * (9e3 * 1e3 / 10e3)
	if math.Abs(pts[0].OutPSD-want)/want > 1e-9 {
		t.Fatalf("tap PSD %g, want 4kT·(R1∥R2) = %g", pts[0].OutPSD, want)
	}
}
