// Package stack generates analog transistor stacks: several matched
// devices realized as interleaved unit transistors on one diffusion row,
// with common-centroid placement, current-direction-aware orientation and
// dummy insertion — the machinery behind the paper's Fig. 3 current mirror
// and the common-centroid input pair of the OTA layout (Fig. 5),
// following the stack-generation formulation of Malavasi & Pandini that
// the paper builds on.
package stack

import (
	"fmt"
	"math"
	"sort"
)

// Device is one logical transistor realized as Units parallel unit
// transistors inside the stack.
type Device struct {
	Name     string
	Units    int
	DrainNet string
	GateNet  string
}

// PatternSpec drives pattern generation.
type PatternSpec struct {
	Devices []Device
	// SourceNet is the net shared by every unit's source terminal.
	SourceNet string
}

// Unit is one gate position in the stack.
type Unit struct {
	// Dev indexes PatternSpec.Devices; −1 marks a dummy gate.
	Dev int
	// Flip is the channel orientation: false = source on the left
	// (current flows right), true = drain on the left.
	Flip bool
}

// IsDummy reports whether the unit is a dummy gate.
func (u Unit) IsDummy() bool { return u.Dev < 0 }

// Pattern is a generated stack arrangement.
type Pattern struct {
	Spec  PatternSpec
	Units []Unit
	// Strips holds the diffusion-strip nets; len = len(Units)+1.
	Strips []string
	// InsertedDummies counts dummies added mid-stack to separate
	// incompatible diffusions (end dummies not included).
	InsertedDummies int
}

// Generate builds a stack pattern optimizing the analog constraints
// jointly, in the spirit of the optimum-stack-generation literature the
// paper builds on:
//
//  1. Several deterministic seed arrangements are built (mirrored device
//     pairs with odd leftovers centred, mirrored single units, leftovers
//     at the ends).
//  2. Each arrangement is realized by an orientation walk that shares a
//     diffusion strip whenever abutting terminals carry the same net and
//     inserts an isolation dummy where they cannot (the paper's
//     dummy-insertion rule).
//  3. A deterministic all-pairs-swap hill climb minimizes the weighted sum
//     of inserted dummies, per-device centroid error and current-direction
//     imbalance.
//
// Every candidate is walked and scored in place, in one reused unit and
// strip buffer (walker), and the one Pattern returned is copied out of
// it at the end: the climb allocates nothing per candidate.
func Generate(spec PatternSpec) (*Pattern, error) {
	if len(spec.Devices) == 0 {
		return nil, fmt.Errorf("stack: no devices")
	}
	names := map[string]bool{}
	for _, d := range spec.Devices {
		if d.Units < 1 {
			return nil, fmt.Errorf("stack: device %s has %d units", d.Name, d.Units)
		}
		if names[d.Name] {
			return nil, fmt.Errorf("stack: duplicate device %s", d.Name)
		}
		names[d.Name] = true
		if d.DrainNet == spec.SourceNet {
			return nil, fmt.Errorf("stack: device %s drain equals the common source net %q",
				d.Name, spec.SourceNet)
		}
	}

	w := newWalker(spec)
	seq := seedMirroredPairs(spec)
	bestScore := w.score(seq)
	for _, seed := range [][]int{seedMirroredUnits(spec), seedLeftoversOutside(spec)} {
		if s := w.score(seed); s < bestScore {
			seq, bestScore = seed, s
		}
	}

	// Hill climb on the best seed's device sequence. A kept swap leaves
	// seq at the best sequence so far, so seq ends as the best one.
	for pass := 0; pass < 12; pass++ {
		improved := false
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				if seq[i] == seq[j] {
					continue
				}
				seq[i], seq[j] = seq[j], seq[i]
				if s := w.score(seq); s < bestScore {
					bestScore = s
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
	w.walk(seq)
	return w.pattern(), nil
}

// seedMirroredPairs pairs up each device's units (pairs share their drain
// strip), mirrors half of the pairs, and centres odd pairs and leftover
// units.
func seedMirroredPairs(spec PatternSpec) []int {
	type block struct{ dev, n int }
	var leftBlocks, centre []block
	for i, d := range spec.Devices {
		pairs := d.Units / 2
		for k := 0; k < pairs/2; k++ {
			leftBlocks = append(leftBlocks, block{i, 2})
		}
		if pairs%2 == 1 {
			centre = append(centre, block{i, 2})
		}
		if d.Units%2 == 1 {
			centre = append(centre, block{i, 1})
		}
	}
	sort.SliceStable(centre, func(a, b int) bool { return centre[a].n > centre[b].n })

	var seq []int
	for _, b := range leftBlocks {
		for k := 0; k < b.n; k++ {
			seq = append(seq, b.dev)
		}
	}
	for _, b := range centre {
		for k := 0; k < b.n; k++ {
			seq = append(seq, b.dev)
		}
	}
	for i := len(leftBlocks) - 1; i >= 0; i-- {
		for k := 0; k < leftBlocks[i].n; k++ {
			seq = append(seq, leftBlocks[i].dev)
		}
	}
	return seq
}

// seedMirroredUnits interleaves half of each device's units (largest
// remaining first), mirrors them, and centres the odd leftovers.
func seedMirroredUnits(spec PatternSpec) []int {
	rem := make([]int, len(spec.Devices))
	for i, d := range spec.Devices {
		rem[i] = d.Units / 2
	}
	var left []int
	for {
		best, bestRem := -1, 0
		for i, r := range rem {
			if r > bestRem {
				best, bestRem = i, r
			}
		}
		if best < 0 {
			break
		}
		left = append(left, best)
		rem[best]--
	}
	var seq []int
	seq = append(seq, left...)
	for i := len(spec.Devices) - 1; i >= 0; i-- {
		if spec.Devices[i].Units%2 == 1 {
			seq = append(seq, i)
		}
	}
	for i := len(left) - 1; i >= 0; i-- {
		seq = append(seq, left[i])
	}
	return seq
}

// seedLeftoversOutside is seedMirroredPairs with odd single units pushed
// to the stack ends (trading centroid for fewer dummies).
func seedLeftoversOutside(spec PatternSpec) []int {
	var singles []int
	for i, d := range spec.Devices {
		if d.Units%2 == 1 {
			singles = append(singles, i)
		}
	}
	inner := seedMirroredPairsEvenOnly(spec)
	var seq []int
	for i := 0; i < len(singles); i += 2 {
		seq = append(seq, singles[i])
	}
	seq = append(seq, inner...)
	for i := 1; i < len(singles); i += 2 {
		seq = append(seq, singles[i])
	}
	return seq
}

func seedMirroredPairsEvenOnly(spec PatternSpec) []int {
	even := PatternSpec{SourceNet: spec.SourceNet}
	idx := make([]int, 0, len(spec.Devices))
	for i, d := range spec.Devices {
		if d.Units >= 2 {
			d.Units -= d.Units % 2
			even.Devices = append(even.Devices, d)
			idx = append(idx, i)
		}
	}
	inner := seedMirroredPairs(even)
	for k, v := range inner {
		inner[k] = idx[v]
	}
	return inner
}

// walker realizes device sequences into reused unit and strip buffers
// and scores them there. Its walk is the orientation walk: it shares a
// diffusion strip whenever abutting terminals carry the same net and
// inserts an isolation dummy where they cannot.
type walker struct {
	spec     PatternSpec
	units    []Unit
	strips   []string
	inserted int
}

// newWalker sizes the buffers for the longest walk: every unit, one
// isolation dummy before each, and the two end dummies.
func newWalker(spec PatternSpec) *walker {
	units := 0
	for _, d := range spec.Devices {
		units += d.Units
	}
	return &walker{
		spec:   spec,
		units:  make([]Unit, 0, 2*units+2),
		strips: make([]string, 0, 2*units+3),
	}
}

// walk runs the orientation walk over a device sequence, inserting
// isolation dummies, and one dummy gate at each stack end (the matching
// rule).
func (w *walker) walk(seq []int) {
	spec := &w.spec
	w.inserted = 0
	// End dummies abut the end strips; the outermost strips tie to the
	// common source net (dummy gates are off, so an exposed drain next
	// to a dummy stays isolated from the outer strip).
	units := append(w.units[:0], Unit{Dev: -1})
	strips := append(w.strips[:0], spec.SourceNet)
	cur := spec.SourceNet // leftmost strip defaults to the common net
	strips = append(strips, cur)
	for _, dev := range seq {
		d := &spec.Devices[dev]
		switch cur {
		case spec.SourceNet:
			units = append(units, Unit{Dev: dev, Flip: false})
			cur = d.DrainNet
		case d.DrainNet:
			units = append(units, Unit{Dev: dev, Flip: true})
			cur = spec.SourceNet
		default:
			// Another device's drain is exposed: isolate with a dummy
			// whose right strip restarts at the common net.
			units = append(units, Unit{Dev: -1})
			strips = append(strips, spec.SourceNet)
			w.inserted++
			units = append(units, Unit{Dev: dev, Flip: false})
			cur = d.DrainNet
		}
		strips = append(strips, cur)
	}
	units = append(units, Unit{Dev: -1})
	strips = append(strips, spec.SourceNet)
	w.units, w.strips = units, strips
}

// score walks seq and returns its weighted analog-constraint cost, the
// one Generate minimizes: dummies cost area, centroid error costs
// systematic mismatch, orientation imbalance costs current-direction
// mismatch. The terms are summed in device order, so the score does not
// depend on map iteration order.
func (w *walker) score(seq []int) float64 {
	w.walk(seq)
	s := 1.0 * float64(w.inserted)
	for i := range w.spec.Devices {
		if c, ok := centroidOffset(w.units, i); ok {
			s += 2.0 * math.Abs(c)
		}
	}
	for i := range w.spec.Devices {
		s += 0.25 * float64(imbalance(w.units, i))
	}
	return s
}

// pattern copies the last walk out as a Pattern.
func (w *walker) pattern() *Pattern {
	if len(w.strips) != len(w.units)+1 {
		panic("stack: strip/unit bookkeeping out of sync")
	}
	return &Pattern{
		Spec:            w.spec,
		Units:           append([]Unit(nil), w.units...),
		Strips:          append([]string(nil), w.strips...),
		InsertedDummies: w.inserted,
	}
}

// UnitCount returns how many non-dummy units device dev has in the pattern.
func (p *Pattern) UnitCount(dev int) int {
	n := 0
	for _, u := range p.Units {
		if u.Dev == dev {
			n++
		}
	}
	return n
}

// SignedCentroid returns each device's centroid offset from the stack
// centre in gate pitches, with sign (positive = shifted right). A linear
// process gradient along the stack turns this directly into a threshold
// difference — the coupling the Monte-Carlo package exploits.
func (p *Pattern) SignedCentroid() map[string]float64 {
	out := map[string]float64{}
	for i, d := range p.Spec.Devices {
		if c, ok := centroidOffset(p.Units, i); ok {
			out[d.Name] = c
		}
	}
	return out
}

// CentroidError returns each device's centroid offset from the stack
// centre, in gate pitches. Perfectly common-centroid devices return 0.
func (p *Pattern) CentroidError() map[string]float64 {
	out := map[string]float64{}
	for i, d := range p.Spec.Devices {
		if c, ok := centroidOffset(p.Units, i); ok {
			out[d.Name] = math.Abs(c)
		}
	}
	return out
}

// OrientationImbalance returns, per device, |units flowing left − units
// flowing right| — the current-direction mismatch metric of the
// stack-generation literature (0 is ideal).
func (p *Pattern) OrientationImbalance() map[string]int {
	out := map[string]int{}
	for i, d := range p.Spec.Devices {
		out[d.Name] = imbalance(p.Units, i)
	}
	return out
}

// centroidOffset returns device dev's signed centroid offset from the
// centre of units, in gate pitches, its positions summed left to right;
// ok is false when dev has no unit.
func centroidOffset(units []Unit, dev int) (c float64, ok bool) {
	var sum float64
	var n int
	for pos, u := range units {
		if u.Dev == dev {
			sum += float64(pos)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum/float64(n) - float64(len(units)-1)/2, true
}

// imbalance returns |units of device dev flowing left − units flowing
// right|.
func imbalance(units []Unit, dev int) int {
	bal := 0
	for _, u := range units {
		if u.Dev == dev {
			if u.Flip {
				bal--
			} else {
				bal++
			}
		}
	}
	if bal < 0 {
		bal = -bal
	}
	return bal
}

// String renders the pattern like the figures in the paper, e.g.
// "[dum] M3→ ←M3 M2→ …" with arrows showing current direction.
func (p *Pattern) String() string {
	s := ""
	for i, u := range p.Units {
		if i > 0 {
			s += " "
		}
		if u.IsDummy() {
			s += "[dum]"
			continue
		}
		name := p.Spec.Devices[u.Dev].Name
		if u.Flip {
			s += "←" + name
		} else {
			s += name + "→"
		}
	}
	return s
}
