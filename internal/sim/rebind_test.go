package sim

import (
	"math"
	"math/rand"
	"testing"

	"loas/internal/circuit"
	"loas/internal/techno"
)

// sameComplex reports bit equality of both parts.
func sameComplex(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// sameEntries reports whether two stamp lists hold the same entries in
// the same order, values bit for bit.
func sameEntries(a, b []acEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].i != b[k].i || a[k].j != b[k].j || math.Float64bits(a[k].v) != math.Float64bits(b[k].v) {
			return false
		}
	}
	return true
}

// TestRebindBitIdentical holds Rebind and Relinearize to fresh objects.
// One engine is bound to the 5T OTA, rebound to a larger RC ladder, to a
// smaller RC low-pass and back to the OTA; one solver is relinearized at
// each operating point. At every step the OP (V and Iterations), the
// solver's stamp lists and excitation and the AC phasors must equal, bit
// for bit, those of a new engine and a fresh PrepareAC. A sizing pass's
// evaluator reuses its engine and solver this way.
func TestRebindBitIdentical(t *testing.T) {
	tech := techno.Default060()
	ota, otaSeeds := fiveTransistorOTA(tech)
	ladder, _ := randomLadder(rand.New(rand.NewSource(3)), 12)
	ladder.VSources()[0].ACMag = 1
	ladder.Add(&circuit.Capacitor{Name: "c", A: "n12", B: "0", C: 1e-9})
	lowpass := circuit.New("lowpass")
	lowpass.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", DC: 0.5, ACMag: 1},
		&circuit.Resistor{Name: "r", A: "a", B: "b", R: 1e3},
		&circuit.Capacitor{Name: "c", A: "b", B: "0", C: 1e-9},
	)
	steps := []struct {
		ckt   *circuit.Circuit
		seeds map[string]float64
	}{{ota, otaSeeds}, {ladder, nil}, {lowpass, nil}, {ota, otaSeeds}}
	freqs := []float64{1e3, 1e6, 1e8}

	var eng *Engine
	var solver *ACSolver
	for k, st := range steps {
		if eng == nil {
			eng = NewEngine(st.ckt, techno.TempNominal)
		} else {
			eng.Rebind(st.ckt)
		}
		got, err := eng.OP(st.seeds)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewEngine(st.ckt, techno.TempNominal)
		want, err := fresh.OP(st.seeds)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || len(got.V) != len(want.V) {
			t.Fatalf("step %d (%s): %d iterations and %d nodes, fresh engine %d and %d",
				k, st.ckt.Name, got.Iterations, len(got.V), want.Iterations, len(want.V))
		}
		for i := range want.V {
			if math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
				t.Fatalf("step %d (%s): V[%d] = %x, fresh engine %x", k, st.ckt.Name, i, got.V[i], want.V[i])
			}
		}

		if solver == nil {
			solver = eng.PrepareAC(got)
		} else {
			solver.Relinearize(got)
		}
		ref := fresh.PrepareAC(want)
		if !sameEntries(solver.st.g, ref.st.g) || !sameEntries(solver.st.c, ref.st.c) ||
			!sameEntries(solver.st.u, ref.st.u) {
			t.Fatalf("step %d (%s): relinearized stamps differ from a fresh PrepareAC", k, st.ckt.Name)
		}
		if len(solver.st.rhs) != len(ref.st.rhs) {
			t.Fatalf("step %d (%s): excitation has %d entries, fresh %d", k, st.ckt.Name, len(solver.st.rhs), len(ref.st.rhs))
		}
		for i := range ref.st.rhs {
			if !sameComplex(solver.st.rhs[i], ref.st.rhs[i]) {
				t.Fatalf("step %d (%s): excitation[%d] = %v, fresh %v", k, st.ckt.Name, i, solver.st.rhs[i], ref.st.rhs[i])
			}
		}
		gotAC, err := solver.Solve(freqs)
		if err != nil {
			t.Fatal(err)
		}
		wantAC, err := ref.Solve(freqs)
		if err != nil {
			t.Fatal(err)
		}
		for f := range wantAC {
			for i := range wantAC[f].V {
				if g, w := gotAC[f].V[i], wantAC[f].V[i]; !sameComplex(g, w) {
					t.Fatalf("step %d (%s) at %g Hz: V[%d] = %v, fresh %v", k, st.ckt.Name, freqs[f], i, g, w)
				}
			}
		}
	}
}
