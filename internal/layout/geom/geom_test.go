package geom

import (
	"math"
	"testing"
	"testing/quick"

	"loas/internal/techno"
)

func TestRectBasics(t *testing.T) {
	r := XYWH(10, 20, 100, 50)
	if r.W() != 100 || r.H() != 50 || r.Area() != 5000 {
		t.Fatalf("bad rect arithmetic: %v", r)
	}
	if !r.Valid() {
		t.Fatal("rect should be valid")
	}
	if (Rect{L: 5, B: 5, R: 5, T: 9}).Valid() {
		t.Fatal("zero-width rect must be invalid")
	}
}

func TestRectUnitsConversions(t *testing.T) {
	r := XYWH(0, 0, 1000, 1000) // 1 µm × 1 µm
	if math.Abs(r.AreaUM2()-1) > 1e-12 {
		t.Fatalf("area = %g µm², want 1", r.AreaUM2())
	}
	if math.Abs(r.AreaM2()-1e-12) > 1e-24 {
		t.Fatalf("area = %g m², want 1e-12", r.AreaM2())
	}
	if math.Abs(r.PerimM()-4e-6) > 1e-18 {
		t.Fatalf("perimeter = %g m, want 4e-6", r.PerimM())
	}
}

func TestUnionIntersect(t *testing.T) {
	a := XYWH(0, 0, 10, 10)
	b := XYWH(5, 5, 10, 10)
	u := a.Union(b)
	if u.L != 0 || u.B != 0 || u.R != 15 || u.T != 15 {
		t.Fatalf("union = %v", u)
	}
	if !a.Intersects(b) {
		t.Fatal("should intersect")
	}
	i := a.Intersect(b)
	if i.W() != 5 || i.H() != 5 {
		t.Fatalf("intersect = %v", i)
	}
	c := XYWH(10, 0, 5, 5) // abutting only
	if a.Intersects(c) {
		t.Fatal("touching edges must not count as intersecting")
	}
}

func TestUnionWithInvalid(t *testing.T) {
	var z Rect
	a := XYWH(1, 1, 2, 2)
	if u := z.Union(a); u != a {
		t.Fatalf("union with zero rect = %v", u)
	}
	if u := a.Union(z); u != a {
		t.Fatalf("union with zero rect = %v", u)
	}
}

func TestTranslateProperty(t *testing.T) {
	f := func(x, y, dx, dy int16) bool {
		r := XYWH(int64(x), int64(y), 100, 200)
		tr := r.Translate(int64(dx), int64(dy))
		return tr.W() == r.W() && tr.H() == r.H() && tr.L == r.L+int64(dx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellMergeTranslates(t *testing.T) {
	child := NewCell("kid")
	child.Add(techno.LayerMetal1, XYWH(0, 0, 10, 10), "a")
	child.AddPort("P", "a", techno.LayerMetal1, XYWH(0, 0, 10, 10))
	top := NewCell("top")
	top.Merge(child, 100, 200)
	if top.Shapes[0].R.L != 100 || top.Shapes[0].R.B != 200 {
		t.Fatalf("merge did not translate: %v", top.Shapes[0].R)
	}
	if top.Ports[0].Name != "kid.P" {
		t.Fatalf("port name = %q, want kid.P", top.Ports[0].Name)
	}
	if len(top.PortsOnNet("a")) != 1 {
		t.Fatal("PortsOnNet missed the merged port")
	}
}

func TestCellBBox(t *testing.T) {
	c := NewCell("c")
	c.Add(techno.LayerPoly, XYWH(-5, -5, 10, 10), "")
	c.Add(techno.LayerPoly, XYWH(20, 20, 10, 10), "")
	bb := c.BBox()
	if bb.L != -5 || bb.T != 30 {
		t.Fatalf("bbox = %v", bb)
	}
}

func TestCheckGrid(t *testing.T) {
	c := NewCell("c")
	c.Add(techno.LayerMetal1, XYWH(0, 0, 100, 100), "")
	if err := c.CheckGrid(50); err != nil {
		t.Fatalf("on-grid cell flagged: %v", err)
	}
	c.Add(techno.LayerMetal1, XYWH(0, 0, 125, 100), "")
	if err := c.CheckGrid(50); err == nil {
		t.Fatal("off-grid shape not flagged")
	}
}

func TestMinSpacingViolation(t *testing.T) {
	c := NewCell("c")
	c.Add(techno.LayerMetal1, XYWH(0, 0, 100, 100), "a")
	c.Add(techno.LayerMetal1, XYWH(150, 0, 100, 100), "b")
	if _, bad := c.MinSpacingViolation(techno.LayerMetal1, 40); bad {
		t.Fatal("50 nm gap flagged at 40 nm rule")
	}
	if _, bad := c.MinSpacingViolation(techno.LayerMetal1, 80); !bad {
		t.Fatal("50 nm gap not flagged at 80 nm rule")
	}
	// Same net: never a violation.
	c2 := NewCell("c2")
	c2.Add(techno.LayerMetal1, XYWH(0, 0, 100, 100), "a")
	c2.Add(techno.LayerMetal1, XYWH(110, 0, 100, 100), "a")
	if _, bad := c2.MinSpacingViolation(techno.LayerMetal1, 500); bad {
		t.Fatal("same-net spacing flagged")
	}
}

func TestWireCap(t *testing.T) {
	// 100 µm × 1 µm wire at 30 aF/µm² + 40 aF/µm fringe:
	// area 100 µm² → 3 fF; perimeter 202 µm → 8.08 fF.
	r := XYWH(0, 0, 100000, 1000)
	c := WireCapM(r, 30e-6, 40e-12)
	want := 100e-12*30e-6*1e6 + 202e-6*40e-12
	_ = want
	wantF := 3e-15 + 8.08e-15
	if math.Abs(c-wantF)/wantF > 1e-9 {
		t.Fatalf("wire cap = %g, want %g", c, wantF)
	}
}

func TestCouplingCap(t *testing.T) {
	// Two horizontal wires, 100 µm parallel run, at min spacing.
	a := XYWH(0, 0, 100000, 1000)
	b := XYWH(0, 1800, 100000, 1000) // 800 nm gap
	c := CouplingCapM(a, b, 85e-12, 800)
	want := 85e-12 * 100e-6 // full coefficient at min space
	if math.Abs(c-want)/want > 1e-9 {
		t.Fatalf("coupling = %g, want %g", c, want)
	}
	// Double the gap halves the coupling.
	b2 := XYWH(0, 2600, 100000, 1000)
	c2 := CouplingCapM(a, b2, 85e-12, 800)
	if math.Abs(c2-want/2)/want > 1e-9 {
		t.Fatalf("coupling at 2× gap = %g, want %g", c2, want/2)
	}
	// No parallel run → zero.
	far := XYWH(200000, 0, 1000, 1000)
	if CouplingCapM(a, far, 85e-12, 800) != 0 {
		t.Fatal("non-parallel wires should not couple")
	}
	// Overlapping wires → zero (same net routing overlaps).
	if CouplingCapM(a, a, 85e-12, 800) != 0 {
		t.Fatal("overlapping rects should not report lateral coupling")
	}
}

// LayerArea sums the area (m²) of all shapes on a layer, ignoring
// overlaps between shapes (procedural generators do not overlap same-layer
// shapes except at abutments, where double counting is negligible).
func (c *Cell) LayerArea(layer techno.Layer) float64 {
	var a float64
	for _, s := range c.Shapes {
		if s.Layer == layer {
			a += s.R.AreaM2()
		}
	}
	return a
}

func TestLayerAreaAndNetShapes(t *testing.T) {
	c := NewCell("c")
	c.Add(techno.LayerMetal1, XYWH(0, 0, 1000, 1000), "x")
	c.Add(techno.LayerMetal1, XYWH(2000, 0, 1000, 1000), "y")
	c.Add(techno.LayerMetal2, XYWH(0, 0, 1000, 1000), "x")
	if a := c.LayerArea(techno.LayerMetal1); math.Abs(a-2e-12) > 1e-24 {
		t.Fatalf("layer area = %g", a)
	}
	if n := len(c.NetShapes("x", techno.LayerMetal1)); n != 1 {
		t.Fatalf("net shapes = %d", n)
	}
}
