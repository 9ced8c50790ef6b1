package stack

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// realize is the orientation walk on the reference path: a fresh Pattern
// per candidate, end dummies added around the finished walk. Generate
// walks into reused buffers instead; this is what it is held to.
func realize(spec PatternSpec, seq []int) *Pattern {
	p := &Pattern{Spec: spec}
	var strips []string
	var units []Unit
	cur := spec.SourceNet
	strips = append(strips, cur)
	for _, dev := range seq {
		d := spec.Devices[dev]
		switch cur {
		case spec.SourceNet:
			units = append(units, Unit{Dev: dev, Flip: false})
			cur = d.DrainNet
		case d.DrainNet:
			units = append(units, Unit{Dev: dev, Flip: true})
			cur = spec.SourceNet
		default:
			units = append(units, Unit{Dev: -1})
			strips = append(strips, spec.SourceNet)
			p.InsertedDummies++
			units = append(units, Unit{Dev: dev, Flip: false})
			cur = d.DrainNet
		}
		strips = append(strips, cur)
	}
	units = append([]Unit{{Dev: -1}}, units...)
	strips = append([]string{spec.SourceNet}, strips...)
	units = append(units, Unit{Dev: -1})
	strips = append(strips, spec.SourceNet)
	p.Units = units
	p.Strips = strips
	return p
}

// patternScore is the reference score: the public CentroidError and
// OrientationImbalance maps, read in device order. (Ranging over the
// maps instead would sum in Go's randomized iteration order.)
func patternScore(p *Pattern) float64 {
	s := 1.0 * float64(p.InsertedDummies)
	ce := p.CentroidError()
	for _, d := range p.Spec.Devices {
		if e, ok := ce[d.Name]; ok {
			s += 2.0 * e
		}
	}
	oi := p.OrientationImbalance()
	for _, d := range p.Spec.Devices {
		s += 0.25 * float64(oi[d.Name])
	}
	return s
}

// deviceSequence recovers the non-dummy device order of a pattern.
func deviceSequence(p *Pattern) []int {
	var seq []int
	for _, u := range p.Units {
		if !u.IsDummy() {
			seq = append(seq, u.Dev)
		}
	}
	return seq
}

// generateRef is Generate's search on the reference path: every seed and
// every hill-climb swap realized as its own Pattern and scored through
// the maps. spec must be valid.
func generateRef(spec PatternSpec) *Pattern {
	best := realize(spec, seedMirroredPairs(spec))
	bestScore := patternScore(best)
	for _, seed := range [][]int{seedMirroredUnits(spec), seedLeftoversOutside(spec)} {
		if p := realize(spec, seed); patternScore(p) < bestScore {
			best, bestScore = p, patternScore(p)
		}
	}
	seq := deviceSequence(best)
	for pass := 0; pass < 12; pass++ {
		improved := false
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				if seq[i] == seq[j] {
					continue
				}
				seq[i], seq[j] = seq[j], seq[i]
				if p := realize(spec, seq); patternScore(p) < bestScore {
					best, bestScore = p, patternScore(p)
					improved = true
				} else {
					seq[i], seq[j] = seq[j], seq[i]
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// referenceGrid is every spec of the grid: devices A and B with 1–12
// units each, a third device C with 0 (absent) to 8 units, and A and B
// on separate or on one shared drain net.
func referenceGrid() []PatternSpec {
	var out []PatternSpec
	for a := 1; a <= 12; a++ {
		for b := 1; b <= 12; b++ {
			for c := 0; c <= 8; c++ {
				for _, shared := range []bool{false, true} {
					db := "db"
					if shared {
						db = "da"
					}
					devs := []Device{
						{Name: "A", Units: a, DrainNet: "da", GateNet: "ga"},
						{Name: "B", Units: b, DrainNet: db, GateNet: "gb"},
					}
					if c > 0 {
						devs = append(devs, Device{Name: "C", Units: c, DrainNet: "dc", GateNet: "ga"})
					}
					out = append(out, PatternSpec{Devices: devs, SourceNet: "s"})
				}
			}
		}
	}
	return out
}

// TestGenerateMatchesReference holds Generate, which scores candidates
// in place, to the reference path: the same units, strips and
// inserted-dummy count. The full grid takes about 1.5 s, so the test
// checks every third spec, which still meets each (A, B, shared drain)
// cell with three sizes of C.
func TestGenerateMatchesReference(t *testing.T) {
	grid := referenceGrid()
	if len(grid) != 2592 {
		t.Fatalf("grid has %d specs, want 2592", len(grid))
	}
	start := time.Now()
	checked := 0
	for i := 0; i < len(grid); i += 3 {
		spec := grid[i]
		got, err := Generate(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want := generateRef(spec)
		if !slices.Equal(got.Units, want.Units) || !slices.Equal(got.Strips, want.Strips) ||
			got.InsertedDummies != want.InsertedDummies {
			t.Fatalf("spec %d (%s): Generate %s (%d inserted), reference %s (%d inserted)",
				i, describe(spec), got, got.InsertedDummies, want, want.InsertedDummies)
		}
		checked++
	}
	t.Logf("%d of %d specs match the reference (%v)", checked, len(grid), time.Since(start).Round(time.Millisecond))
}

func describe(spec PatternSpec) string {
	var s []string
	for _, d := range spec.Devices {
		s = append(s, fmt.Sprintf("%s:%d/%s", d.Name, d.Units, d.DrainNet))
	}
	return strings.Join(s, " ")
}
