package slicing

import (
	"testing"
	"testing/quick"
)

func leaf(name string, whs ...[2]int64) *Leaf {
	var opts []Option
	for i, wh := range whs {
		opts = append(opts, Option{W: wh[0], H: wh[1], Choice: i})
	}
	return NewLeaf(name, opts)
}

func TestParetoFilters(t *testing.T) {
	sf := Pareto([]Option{
		{W: 10, H: 10}, {W: 20, H: 5}, {W: 15, H: 12}, // 15x12 dominated by 10x10
		{W: 10, H: 8}, // beats 10x10
		{W: 30, H: 5}, // dominated by 20x5
	})
	if len(sf) != 2 {
		t.Fatalf("pareto kept %d options: %+v", len(sf), sf)
	}
	if sf[0].W != 10 || sf[0].H != 8 || sf[1].W != 20 || sf[1].H != 5 {
		t.Fatalf("wrong survivors: %+v", sf)
	}
}

func TestParetoMonotoneProperty(t *testing.T) {
	f := func(ws, hs []uint16) bool {
		n := len(ws)
		if len(hs) < n {
			n = len(hs)
		}
		var opts []Option
		for i := 0; i < n; i++ {
			opts = append(opts, Option{W: int64(ws[i]) + 1, H: int64(hs[i]) + 1})
		}
		sf := Pareto(opts)
		for i := 1; i < len(sf); i++ {
			if sf[i].W <= sf[i-1].W || sf[i].H >= sf[i-1].H {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVerticalCutAddsWidths(t *testing.T) {
	a := leaf("a", [2]int64{10, 20})
	b := leaf("b", [2]int64{30, 15})
	cut := NewCut(true, 5, a, b)
	sf := cut.Shapes()
	if len(sf) != 1 || sf[0].W != 45 || sf[0].H != 20 {
		t.Fatalf("V-cut shape = %+v", sf)
	}
}

func TestHorizontalCutAddsHeights(t *testing.T) {
	a := leaf("a", [2]int64{10, 20})
	b := leaf("b", [2]int64{30, 15})
	cut := NewCut(false, 5, a, b)
	sf := cut.Shapes()
	if len(sf) != 1 || sf[0].W != 30 || sf[0].H != 40 {
		t.Fatalf("H-cut shape = %+v", sf)
	}
}

func TestStockmeyerPicksFoldTradeoff(t *testing.T) {
	// A "transistor" that can be 100x10, 50x20 or 25x40 next to a fixed
	// 25x25 block: under a height cap of 30 the optimizer must pick the
	// 50x20 variant.
	tr := leaf("m", [2]int64{100, 10}, [2]int64{50, 20}, [2]int64{25, 40})
	fix := leaf("f", [2]int64{25, 25})
	root := NewCut(true, 0, tr, fix)
	fp, err := Optimize(root, Constraint{MaxH: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := fp.Placed["m"].Choice; got != 1 {
		t.Fatalf("chose option %d, want 1 (50x20)", got)
	}
	if fp.H > 30 {
		t.Fatalf("height %d exceeds cap", fp.H)
	}
}

func TestOptimizeRealizationConsistent(t *testing.T) {
	a := leaf("a", [2]int64{10, 30}, [2]int64{30, 10})
	b := leaf("b", [2]int64{20, 20})
	c := leaf("c", [2]int64{40, 5}, [2]int64{5, 40})
	root := NewCut(false, 2, NewCut(true, 3, a, b), c)
	fp, err := Optimize(root, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	// Realized rectangles must not overlap and must fit the floorplan.
	names := []string{"a", "b", "c"}
	for i, n1 := range names {
		r1 := fp.Placed[n1].Rect
		if r1.L < 0 || r1.B < 0 || r1.R > fp.W || r1.T > fp.H {
			t.Fatalf("%s %v outside floorplan %dx%d", n1, r1, fp.W, fp.H)
		}
		for _, n2 := range names[i+1:] {
			if r1.Intersects(fp.Placed[n2].Rect) {
				t.Fatalf("%s and %s overlap", n1, n2)
			}
		}
	}
}

func TestOptimizeGapsRespected(t *testing.T) {
	a := leaf("a", [2]int64{10, 10})
	b := leaf("b", [2]int64{10, 10})
	fp, err := Optimize(NewCut(true, 7, a, b), Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := fp.Placed["a"].Rect, fp.Placed["b"].Rect
	gap := rb.L - ra.R
	if gap != 7 {
		t.Fatalf("gap = %d, want 7", gap)
	}
}

func TestOptimizeAspectPreference(t *testing.T) {
	// Equal-area options: aspect preference must break the tie.
	m := leaf("m", [2]int64{100, 25}, [2]int64{50, 50}, [2]int64{25, 100})
	fpWide, _ := Optimize(m, Constraint{Aspect: 4})
	fpSq, _ := Optimize(m, Constraint{Aspect: 1})
	if fpWide.Placed["m"].Choice != 0 {
		t.Fatalf("aspect 4 chose %d", fpWide.Placed["m"].Choice)
	}
	if fpSq.Placed["m"].Choice != 1 {
		t.Fatalf("aspect 1 chose %d", fpSq.Placed["m"].Choice)
	}
}

func TestOptimizeInfeasiblePicksLeastBad(t *testing.T) {
	m := leaf("m", [2]int64{100, 40}, [2]int64{60, 70})
	fp, err := Optimize(m, Constraint{MaxW: 10, MaxH: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fp.W <= 0 {
		t.Fatal("no realization")
	}
}

func TestOptimizeEmptyTree(t *testing.T) {
	if _, err := Optimize(NewCut(true, 0), Constraint{}); err == nil {
		t.Fatal("empty cut accepted")
	}
}

func TestCombineAreaLowerBoundProperty(t *testing.T) {
	// Property: any combined option's area ≥ sum of the children's
	// minimal areas (no free lunch from slicing).
	f := func(w1, h1, w2, h2 uint8) bool {
		a := leaf("a", [2]int64{int64(w1) + 1, int64(h1) + 1})
		b := leaf("b", [2]int64{int64(w2) + 1, int64(h2) + 1})
		for _, vertical := range []bool{true, false} {
			sf := NewCut(vertical, 0, a, b).Shapes()
			for _, o := range sf {
				if o.W*o.H < (int64(w1)+1)*(int64(h1)+1)+(int64(w2)+1)*(int64(h2)+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinAreaOption(t *testing.T) {
	sf := Pareto([]Option{{W: 10, H: 10}, {W: 20, H: 4}, {W: 50, H: 3}})
	o, err := MinAreaOption(sf)
	if err != nil {
		t.Fatal(err)
	}
	if o.W != 20 || o.H != 4 {
		t.Fatalf("min area = %dx%d", o.W, o.H)
	}
	if _, err := MinAreaOption(nil); err == nil {
		t.Fatal("empty shape function accepted")
	}
}

func TestFloorplanArea(t *testing.T) {
	fp, err := Optimize(leaf("m", [2]int64{2000, 3000}), Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fp.Area(); got != 6 {
		t.Fatalf("area = %v um2, want 6", got)
	}
}
