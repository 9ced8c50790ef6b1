// Package slicing implements floorplan area optimization with shape
// functions over slicing trees (Stockmeyer's algorithm), the method the
// paper's layout language uses to honour a global shape constraint: every
// module publishes its realizable (width, height) alternatives — e.g. the
// fold counts of a transistor — and the tree combination picks the
// alternative set that best fits the constraint.
package slicing

import (
	"fmt"
	"math"
	"sort"

	"loas/internal/layout/geom"
)

// Placed is one leaf module's realization inside an optimized floorplan.
type Placed struct {
	Name   string
	Rect   geom.Rect
	Choice int // the leaf option index that was selected
}

// Option is one realizable shape of a node. The realize closure places the
// subtree for this option with its lower-left corner at (x, y).
type Option struct {
	W, H    int64
	Choice  int
	realize func(x, y int64, out map[string]Placed)
}

// ShapeFn is a Pareto-minimal shape list sorted by increasing width
// (therefore non-increasing height).
type ShapeFn []Option

// Pareto filters dominated options and sorts the survivors.
func Pareto(opts []Option) ShapeFn {
	sort.Slice(opts, func(i, j int) bool {
		if opts[i].W != opts[j].W {
			return opts[i].W < opts[j].W
		}
		return opts[i].H < opts[j].H
	})
	var out ShapeFn
	for _, o := range opts {
		if len(out) > 0 {
			last := out[len(out)-1]
			if o.W == last.W || o.H >= last.H {
				// Same width (sorted: not shorter) or not strictly
				// shorter than the previous survivor: dominated.
				continue
			}
		}
		out = append(out, o)
	}
	return out
}

// Node is a slicing-tree node.
type Node interface {
	// Shapes returns the node's Pareto shape function.
	Shapes() ShapeFn
}

// Leaf is a module with explicit shape alternatives.
type Leaf struct {
	Name    string
	Options []Option // W, H, Choice filled by the caller
}

// NewLeaf builds a leaf from raw (w, h, choice) alternatives.
func NewLeaf(name string, alts []Option) *Leaf {
	l := &Leaf{Name: name}
	for _, a := range alts {
		a := a
		a.realize = func(x, y int64, out map[string]Placed) {
			out[l.Name] = Placed{
				Name:   l.Name,
				Rect:   geom.XYWH(x, y, a.W, a.H),
				Choice: a.Choice,
			}
		}
		l.Options = append(l.Options, a)
	}
	return l
}

// Shapes implements Node.
func (l *Leaf) Shapes() ShapeFn { return Pareto(append([]Option(nil), l.Options...)) }

// Cut composes children side by side (Vertical=true: left to right,
// widths add) or stacked (heights add), separated by Gap — the routing
// channel between modules.
type Cut struct {
	Vertical bool
	Gap      int64
	Children []Node
}

// NewCut builds an n-ary cut node.
func NewCut(vertical bool, gap int64, children ...Node) *Cut {
	return &Cut{Vertical: vertical, Gap: gap, Children: children}
}

// Shapes implements Node by folding pairwise Stockmeyer combinations over
// the children.
func (c *Cut) Shapes() ShapeFn {
	if len(c.Children) == 0 {
		return nil
	}
	acc := c.Children[0].Shapes()
	for _, ch := range c.Children[1:] {
		acc = combine(acc, ch.Shapes(), c.Vertical, c.Gap)
	}
	return acc
}

// combine merges two Pareto shape functions under a cut direction.
func combine(a, b ShapeFn, vertical bool, gap int64) ShapeFn {
	var opts []Option
	for _, oa := range a {
		for _, ob := range b {
			oa, ob := oa, ob
			var w, h int64
			if vertical {
				w = oa.W + gap + ob.W
				h = max64(oa.H, ob.H)
			} else {
				w = max64(oa.W, ob.W)
				h = oa.H + gap + ob.H
			}
			opts = append(opts, Option{
				W: w, H: h,
				realize: func(x, y int64, out map[string]Placed) {
					if vertical {
						oa.realize(x, y, out)
						ob.realize(x+oa.W+gap, y, out)
					} else {
						oa.realize(x, y, out)
						ob.realize(x, y+oa.H+gap, out)
					}
				},
			})
		}
	}
	return Pareto(opts)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Constraint is the global shape constraint: a bounding box and/or a
// target aspect ratio (width/height). Zero fields are unconstrained.
type Constraint struct {
	MaxW, MaxH int64
	// Aspect > 0 selects the option whose W/H is closest to it among
	// near-minimal-area options.
	Aspect float64
}

// Floorplan is a realized slicing floorplan.
type Floorplan struct {
	W, H   int64
	Placed map[string]Placed
}

// Area returns the floorplan bounding-box area in µm².
func (f *Floorplan) Area() float64 { return float64(f.W) * float64(f.H) * 1e-6 }

// Optimize evaluates the tree's shape function and realizes the best
// option under the constraint: minimal area among options that fit, with
// the aspect preference as tie-breaker; if nothing fits, the option with
// the smallest constraint violation.
func Optimize(root Node, c Constraint) (*Floorplan, error) {
	sf := root.Shapes()
	if len(sf) == 0 {
		return nil, fmt.Errorf("slicing: empty shape function")
	}
	best := -1
	bestKey := math.Inf(1)
	for i, o := range sf {
		fits := (c.MaxW <= 0 || o.W <= c.MaxW) && (c.MaxH <= 0 || o.H <= c.MaxH)
		area := float64(o.W) * float64(o.H)
		key := area
		if !fits {
			// Penalize violations heavily but proportionally so the
			// least-violating option wins when nothing fits.
			var over float64
			if c.MaxW > 0 && o.W > c.MaxW {
				over += float64(o.W-c.MaxW) / float64(c.MaxW)
			}
			if c.MaxH > 0 && o.H > c.MaxH {
				over += float64(o.H-c.MaxH) / float64(c.MaxH)
			}
			key = area * (1e6 + over)
		}
		if c.Aspect > 0 {
			ar := float64(o.W) / float64(o.H)
			dev := math.Abs(math.Log(ar / c.Aspect))
			key *= 1 + 0.05*dev*dev
		}
		if key < bestKey {
			bestKey, best = key, i
		}
	}
	o := sf[best]
	fp := &Floorplan{W: o.W, H: o.H, Placed: map[string]Placed{}}
	o.realize(0, 0, fp.Placed)
	return fp, nil
}
