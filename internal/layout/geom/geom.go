// Package geom is the layout geometry kernel: integer-nanometre
// rectangles tagged with a mask layer and a net, grouped into cells with
// named ports. Everything the motif generators, routers and extractors
// manipulate is built from these types. Using integers on the
// manufacturing grid makes geometry exactly reproducible — the property
// the synthesis loop's parasitic fixpoint depends on.
package geom

import (
	"fmt"

	"loas/internal/techno"
)

// Rect is an axis-aligned rectangle in nanometres. L ≤ R and B ≤ T for a
// valid rectangle.
type Rect struct {
	L, B, R, T int64
}

// XYWH builds a rectangle from an origin and size.
func XYWH(x, y, w, h int64) Rect { return Rect{L: x, B: y, R: x + w, T: y + h} }

// W returns the width.
func (r Rect) W() int64 { return r.R - r.L }

// H returns the height.
func (r Rect) H() int64 { return r.T - r.B }

// Valid reports whether the rectangle is non-degenerate.
func (r Rect) Valid() bool { return r.R > r.L && r.T > r.B }

// Area returns the area in nm².
func (r Rect) Area() int64 { return r.W() * r.H() }

// AreaUM2 returns the area in µm².
func (r Rect) AreaUM2() float64 { return float64(r.W()) * float64(r.H()) * 1e-6 }

// AreaM2 returns the area in m².
func (r Rect) AreaM2() float64 { return float64(r.W()) * float64(r.H()) * 1e-18 }

// PerimM returns the perimeter in metres.
func (r Rect) PerimM() float64 { return 2 * float64(r.W()+r.H()) * 1e-9 }

// Translate returns the rectangle moved by (dx, dy).
func (r Rect) Translate(dx, dy int64) Rect {
	return Rect{L: r.L + dx, B: r.B + dy, R: r.R + dx, T: r.T + dy}
}

// Union returns the bounding box of two rectangles.
func (r Rect) Union(o Rect) Rect {
	if !r.Valid() {
		return o
	}
	if !o.Valid() {
		return r
	}
	return Rect{
		L: min64(r.L, o.L), B: min64(r.B, o.B),
		R: max64(r.R, o.R), T: max64(r.T, o.T),
	}
}

// Intersects reports whether the rectangles overlap (touching edges do not
// count).
func (r Rect) Intersects(o Rect) bool {
	return r.L < o.R && o.L < r.R && r.B < o.T && o.B < r.T
}

// Intersect returns the overlap region (may be invalid when disjoint).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		L: max64(r.L, o.L), B: max64(r.B, o.B),
		R: min64(r.R, o.R), T: min64(r.T, o.T),
	}
}

// CenterX returns the x centre (nm, may round down half a grid).
func (r Rect) CenterX() int64 { return (r.L + r.R) / 2 }

// CenterY returns the y centre.
func (r Rect) CenterY() int64 { return (r.B + r.T) / 2 }

// Expand grows the rectangle by d on every side.
func (r Rect) Expand(d int64) Rect {
	return Rect{L: r.L - d, B: r.B - d, R: r.R + d, T: r.T + d}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %dx%d]", r.L, r.B, r.W(), r.H())
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Shape is a rectangle on a mask layer, optionally bound to a net.
type Shape struct {
	Layer techno.Layer
	R     Rect
	Net   string
}

// Port is a named connection point of a cell: a rectangle on a routable
// layer carrying a net.
type Port struct {
	Name  string
	Net   string
	Layer techno.Layer
	R     Rect
}

// Cell is a placed collection of shapes and ports. Cells compose by
// merging translated children, mirroring the flat procedural style of the
// CAIRO layout language.
type Cell struct {
	Name   string
	Shapes []Shape
	Ports  []Port
}

// NewCell creates an empty cell.
func NewCell(name string) *Cell { return &Cell{Name: name} }

// Reserve grows the cell's capacity so that shapes more shapes and ports
// more ports append without reallocating. A generator that knows its
// counts reserves them once instead of growing the slices shape by
// shape.
func (c *Cell) Reserve(shapes, ports int) {
	c.Shapes = reserve(c.Shapes, shapes)
	c.Ports = reserve(c.Ports, ports)
}

// reserve returns s with room for n more elements, copied into one new
// array when its capacity is short.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]T, len(s), len(s)+n)
	copy(grown, s)
	return grown
}

// Add appends a shape.
func (c *Cell) Add(layer techno.Layer, r Rect, net string) {
	c.Shapes = append(c.Shapes, Shape{Layer: layer, R: r, Net: net})
}

// AddPort appends a port (also visible as a shape for extraction).
func (c *Cell) AddPort(name, net string, layer techno.Layer, r Rect) {
	c.Ports = append(c.Ports, Port{Name: name, Net: net, Layer: layer, R: r})
}

// BBox returns the bounding box over all shapes and ports.
func (c *Cell) BBox() Rect {
	var bb Rect
	for _, s := range c.Shapes {
		bb = bb.Union(s.R)
	}
	for _, p := range c.Ports {
		bb = bb.Union(p.R)
	}
	return bb
}

// Translate moves every shape and port by (dx, dy).
func (c *Cell) Translate(dx, dy int64) {
	for i := range c.Shapes {
		c.Shapes[i].R = c.Shapes[i].R.Translate(dx, dy)
	}
	for i := range c.Ports {
		c.Ports[i].R = c.Ports[i].R.Translate(dx, dy)
	}
}

// Merge copies child's shapes and ports, translated by (dx, dy), into c.
// Port names are prefixed with the child cell name to stay unique.
func (c *Cell) Merge(child *Cell, dx, dy int64) {
	for _, s := range child.Shapes {
		c.Shapes = append(c.Shapes, Shape{Layer: s.Layer, R: s.R.Translate(dx, dy), Net: s.Net})
	}
	for _, p := range child.Ports {
		c.Ports = append(c.Ports, Port{
			Name:  child.Name + "." + p.Name,
			Net:   p.Net,
			Layer: p.Layer,
			R:     p.R.Translate(dx, dy),
		})
	}
}

// PortsOnNet returns every port carrying the given net.
func (c *Cell) PortsOnNet(net string) []Port {
	var out []Port
	for _, p := range c.Ports {
		if p.Net == net {
			out = append(out, p)
		}
	}
	return out
}

// NetShapes returns all shapes on a net and layer.
func (c *Cell) NetShapes(net string, layer techno.Layer) []Shape {
	var out []Shape
	for _, s := range c.Shapes {
		if s.Net == net && s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

// CheckGrid verifies every coordinate sits on the manufacturing grid and
// returns the first offender, if any.
func (c *Cell) CheckGrid(grid int64) error {
	if grid <= 1 {
		return nil
	}
	for _, s := range c.Shapes {
		for _, v := range [4]int64{s.R.L, s.R.B, s.R.R, s.R.T} {
			if v%grid != 0 {
				return fmt.Errorf("geom: %s shape %v off grid %d", s.Layer, s.R, grid)
			}
		}
	}
	return nil
}

// MinSpacingViolation scans same-layer shape pairs on different nets for
// spacing violations and returns a description of the first one found.
// O(n²); cells here are small (hundreds of shapes).
func (c *Cell) MinSpacingViolation(layer techno.Layer, space int64) (string, bool) {
	var shapes []Shape
	for _, s := range c.Shapes {
		if s.Layer == layer {
			shapes = append(shapes, s)
		}
	}
	for i := 0; i < len(shapes); i++ {
		for j := i + 1; j < len(shapes); j++ {
			a, b := shapes[i], shapes[j]
			if a.Net == b.Net && a.Net != "" {
				continue
			}
			if a.R.Expand(space).Intersects(b.R) && !a.R.Intersects(b.R) {
				return fmt.Sprintf("%s: %v (%s) to %v (%s) closer than %d nm",
					layer, a.R, a.Net, b.R, b.Net, space), true
			}
		}
	}
	return "", false
}

// WireCapM computes the capacitance to substrate of a wire rectangle using
// area + fringe coefficients (F).
func WireCapM(r Rect, cArea, cFringe float64) float64 {
	return r.AreaM2()*cArea + r.PerimM()*cFringe
}

// CouplingDistanceCutoff is the gap, in multiples of the minimum spacing,
// beyond which lateral coupling is treated as zero (the usual extractor
// cutoff: the lateral field is shielded by the substrate return long
// before this).
const CouplingDistanceCutoff = 20

// CouplingCapM returns the lateral coupling capacitance between two
// parallel wire rectangles: coefficient at minimum spacing, scaled by
// minSpace/actual and by the parallel-run length. Zero when they do not
// run alongside each other or are farther apart than the cutoff.
func CouplingCapM(a, b Rect, cCouple float64, minSpaceNM int64) float64 {
	// Horizontal overlap with vertical gap, or vice versa.
	overlapX := min64(a.R, b.R) - max64(a.L, b.L)
	overlapY := min64(a.T, b.T) - max64(a.B, b.B)
	var run, gap int64
	switch {
	case overlapX > 0 && overlapY <= 0:
		run = overlapX
		gap = max64(a.B, b.B) - min64(a.T, b.T)
	case overlapY > 0 && overlapX <= 0:
		run = overlapY
		gap = max64(a.L, b.L) - min64(a.R, b.R)
	default:
		return 0
	}
	if gap <= 0 || gap > CouplingDistanceCutoff*minSpaceNM {
		return 0
	}
	scale := float64(minSpaceNM) / float64(gap)
	if scale > 1 {
		scale = 1
	}
	return cCouple * float64(run) * 1e-9 * scale
}
