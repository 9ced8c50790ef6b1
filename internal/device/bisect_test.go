package device

import (
	"fmt"
	"math"
	"testing"

	"loas/internal/techno"
)

// refIDsCore is idsCore as it was before its bias-independent factors
// moved into model: every factor evaluated again at each point. It is
// the reference the hoisted model is held to bit for bit.
func refIDsCore(m *MOS, vgb, vdb, vsb, vt float64) float64 {
	c := m.Card
	vgp := vgb - c.VT0 + c.Phi + c.Gamma*math.Sqrt(c.Phi)
	vgp = softPlus(vgp, 1e-6)
	half := c.Gamma / 2
	vp := vgp - c.Phi - c.Gamma*(math.Sqrt(vgp+half*half)-half)
	n := 1 + c.Gamma/(2*math.Sqrt(vp+c.Phi+1e-3))
	lf := lnOnePlusExp((vp - vsb) / (2 * vt))
	lr := lnOnePlusExp((vp - vdb) / (2 * vt))

	iff := lf * lf
	irr := lr * lr
	beta := c.KP * m.W * m.M() / m.Leff()
	veff := 2 * vt * lf
	beta /= 1 + c.Theta*veff
	id := 2 * n * beta * vt * vt * (iff - irr)
	va := c.VAL * m.Leff()
	id *= 1 + math.Abs(vdb-vsb)/va
	return id
}

// refIDSat and refGmAt are IDSat and GmAt on refIDsCore.
func refIDSat(m *MOS, veff, vsb, temp float64) float64 {
	vt := techno.ThermalVoltage(temp)
	vgb := veff + thresholdAt(m.Card, vsb) + vsb
	vdb := vsb + veff + 8*vt
	if veff < 0.1 {
		vdb = vsb + 0.1 + 8*vt
	}
	return refIDsCore(m, vgb, vdb, vsb, vt)
}

func refGmAt(m *MOS, veff, vsb, temp float64) float64 {
	vt := techno.ThermalVoltage(temp)
	vgb := veff + thresholdAt(m.Card, vsb) + vsb
	vdb := vsb + veff + 8*vt
	if veff < 0.1 {
		vdb = vsb + 0.1 + 8*vt
	}
	return (refIDsCore(m, vgb+dv, vdb, vsb, vt) - refIDsCore(m, vgb-dv, vdb, vsb, vt)) / (2 * dv)
}

// refSizeForCurrent, refSizeForGm and refVGSForCurrent are the three
// bisections as they were: every probe evaluates the whole model, and
// the loop always runs 80 steps.
func refSizeForCurrent(card *techno.MOSCard, l, veff, vsb, id, temp, wmin, wmax float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	probe := func(w float64) float64 {
		return refIDSat(&MOS{Card: card, W: w, L: l}, veff, vsb, temp) - id
	}
	lo, hi := wmin, wmax
	flo, fhi := probe(lo), probe(hi)
	if flo > 0 {
		return lo, nil
	}
	if fhi < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for ID=%g A at Veff=%g V (max %g A)",
			hi, id, veff, fhi+id)
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

func refSizeForGm(card *techno.MOSCard, l, veff, vsb, gm, temp, wmin, wmax float64) (float64, error) {
	if gm <= 0 {
		return 0, fmt.Errorf("device: target gm must be positive, got %g", gm)
	}
	probe := func(w float64) float64 {
		return refGmAt(&MOS{Card: card, W: w, L: l}, veff, vsb, temp) - gm
	}
	lo, hi := wmin, wmax
	if probe(lo) > 0 {
		return lo, nil
	}
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for gm=%g S at Veff=%g V", hi, gm, veff)
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

func refVGSForCurrent(m *MOS, id, vds, vsb, temp float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	vt := techno.ThermalVoltage(temp)
	probe := func(vgs float64) float64 {
		return refIDsCore(m, vgs+vsb, vsb+vds, vsb, vt) - id
	}
	lo, hi := -0.5, 5.0
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: cannot reach ID=%g A with VGS ≤ %g V (W=%g L=%g)", id, hi, m.W, m.L)
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if probe(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// sameResult requires a bisection and its reference to agree bit for
// bit, in the value and in the error text.
func sameResult(t *testing.T, what string, got, want float64, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %x (%g), reference %x (%g)", what, got, got, want, want)
	}
}

// The grid the bisection references run over: both cards, lengths from
// the minimum up, overdrives from weak to strong inversion (either side
// of IDSat's 0.1 V drain-bias switch), source-bulk biases and three
// temperatures. The sizing window is the plans' own.
var (
	gridL     = []float64{0.6 * um, 1 * um, 2.3 * um, 6 * um}
	gridVeff  = []float64{0.04, 0.1, 0.2, 0.45}
	gridVSB   = []float64{0, 0.5, 1.2}
	gridTemps = []float64{233.15, techno.TempNominal, 398.15}
)

const gridWMin, gridWMax = 0.8 * um, 2000 * um

func gridCards() []*techno.MOSCard {
	tech := techno.Default060()
	return []*techno.MOSCard{&tech.N, &tech.P}
}

// TestSizeForCurrentMatchesReference holds SizeForCurrent, with its
// hoisted bias point and its early stop, to the 80-step bisection on the
// full model. Targets run from below the minimum width's current (the
// clamp) to above the maximum width's (the error).
func TestSizeForCurrentMatchesReference(t *testing.T) {
	clamps, unreachable := 0, 0
	for _, c := range gridCards() {
		for _, l := range gridL {
			for _, veff := range gridVeff {
				for _, vsb := range gridVSB {
					for _, temp := range gridTemps {
						for _, id := range []float64{1e-9, 2e-6, 40e-6, 700e-6, 30e-3, 5} {
							got, gotErr := SizeForCurrent(c, l, veff, vsb, id, temp, gridWMin, gridWMax)
							want, wantErr := refSizeForCurrent(c, l, veff, vsb, id, temp, gridWMin, gridWMax)
							sameResult(t, fmt.Sprintf("%s card L=%g Veff=%g VSB=%g T=%g ID=%g", c.Type, l, veff, vsb, temp, id),
								got, want, gotErr, wantErr)
							if gotErr != nil {
								unreachable++
							} else if got == gridWMin {
								clamps++
							}
						}
					}
				}
			}
		}
	}
	if clamps == 0 || unreachable == 0 {
		t.Fatalf("grid reached %d clamps and %d unreachable targets; want both", clamps, unreachable)
	}
}

// TestSizeForGmMatchesReference is the same for SizeForGm, whose probes
// difference two bias points.
func TestSizeForGmMatchesReference(t *testing.T) {
	clamps, unreachable := 0, 0
	for _, c := range gridCards() {
		for _, l := range gridL {
			for _, veff := range gridVeff {
				for _, vsb := range gridVSB {
					for _, temp := range gridTemps {
						for _, gm := range []float64{1e-8, 20e-6, 300e-6, 4e-3, 2} {
							got, gotErr := SizeForGm(c, l, veff, vsb, gm, temp, gridWMin, gridWMax)
							want, wantErr := refSizeForGm(c, l, veff, vsb, gm, temp, gridWMin, gridWMax)
							sameResult(t, fmt.Sprintf("%s card L=%g Veff=%g VSB=%g T=%g gm=%g", c.Type, l, veff, vsb, temp, gm),
								got, want, gotErr, wantErr)
							if gotErr != nil {
								unreachable++
							} else if got == gridWMin {
								clamps++
							}
						}
					}
				}
			}
		}
	}
	if clamps == 0 || unreachable == 0 {
		t.Fatalf("grid reached %d clamps and %d unreachable targets; want both", clamps, unreachable)
	}
}

// TestVGSForCurrentMatchesReference holds VGSForCurrent to the 80-step
// bisection on the full model, over widths, drain biases and currents
// up to one no VGS reaches.
func TestVGSForCurrentMatchesReference(t *testing.T) {
	unreachable := 0
	for _, c := range gridCards() {
		for _, l := range gridL {
			for _, w := range []float64{gridWMin, 15 * um, 400 * um} {
				m := &MOS{Card: c, W: w, L: l}
				for _, vsb := range gridVSB {
					for _, temp := range gridTemps {
						for _, vds := range []float64{0.05, 0.9, 2.5} {
							for _, id := range []float64{1e-9, 5e-6, 120e-6, 3e-3, 10} {
								got, gotErr := m.VGSForCurrent(id, vds, vsb, temp)
								want, wantErr := refVGSForCurrent(m, id, vds, vsb, temp)
								sameResult(t, fmt.Sprintf("%s card W=%g L=%g VDS=%g VSB=%g T=%g ID=%g", c.Type, w, l, vds, vsb, temp, id),
									got, want, gotErr, wantErr)
								if gotErr != nil {
									unreachable++
								}
							}
						}
					}
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no target was unreachable")
	}
}

// checkModelReference holds EvalID, IDSat and GmAt, on the hoisted
// model, to the same evaluations on refIDsCore.
func checkModelReference(t *testing.T, m *MOS, vg, vd, vs, vb float64) {
	t.Helper()
	const temp = techno.TempNominal
	sign := m.Card.VTSign()
	vgb, vdb, vsb, swapped := m.bulkRef(vg, vd, vs, vb)
	want := sign * refIDsCore(m, vgb, vdb, vsb, techno.ThermalVoltage(temp))
	if swapped {
		want = -want
	}
	if got := m.EvalID(vg, vd, vs, vb, temp); !sameBits(got, want) {
		t.Fatalf("%s card at (vg %g, vd %g, vs %g, vb %g): EvalID %x, reference %x", m.Card.Type, vg, vd, vs, vb, got, want)
	}
	veff, vsbSat := vg-vs, math.Abs(vb)
	if got, want := m.IDSat(veff, vsbSat, temp), refIDSat(m, veff, vsbSat, temp); !sameBits(got, want) {
		t.Fatalf("%s card: IDSat(%g, %g) %x, reference %x", m.Card.Type, veff, vsbSat, got, want)
	}
	if got, want := m.GmAt(veff, vsbSat, temp), refGmAt(m, veff, vsbSat, temp); !sameBits(got, want) {
		t.Fatalf("%s card: GmAt(%g, %g) %x, reference %x", m.Card.Type, veff, vsbSat, got, want)
	}
}

func TestModelMatchesReference(t *testing.T) {
	for _, m := range stencilDevices() {
		for _, b := range stencilBiases {
			checkModelReference(t, m, b.vg, b.vd, b.vs, b.vb)
		}
	}
}
