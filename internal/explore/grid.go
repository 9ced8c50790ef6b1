package explore

import (
	"fmt"
	"sort"
	"strconv"

	"loas/internal/sizing"
)

// Axes are the swept dimensions of a spec grid. An empty axis keeps the
// base spec's value; axis values are canonicalized (sorted ascending,
// deduplicated by bit pattern) so any spelling of the same grid
// enumerates — and therefore keys and reports — identically.
type Axes struct {
	GBW []float64 `json:"gbw,omitempty"` // gain-bandwidth targets (Hz)
	PM  []float64 `json:"pm,omitempty"`  // phase-margin targets (degrees)
	CL  []float64 `json:"cl,omitempty"`  // load capacitances (F)
}

// Canonicalize sorts and deduplicates every axis in place.
func (a *Axes) Canonicalize() {
	a.GBW = canonAxis(a.GBW)
	a.PM = canonAxis(a.PM)
	a.CL = canonAxis(a.CL)
}

// Points is the grid size the axes induce (empty axes count as one).
func (a Axes) Points() int {
	return max1(len(a.GBW)) * max1(len(a.PM)) * max1(len(a.CL))
}

// Validate rejects axis values outside the synthesizable domain.
func (a Axes) Validate() error {
	for _, v := range a.GBW {
		if !(v > 0) {
			return fmt.Errorf("explore: gbw axis value must be positive, got %g", v)
		}
	}
	for _, v := range a.PM {
		if !(v > 0 && v < 90) {
			return fmt.Errorf("explore: pm axis value must be in (0, 90) degrees, got %g", v)
		}
	}
	for _, v := range a.CL {
		if !(v > 0) {
			return fmt.Errorf("explore: cl axis value must be positive, got %g", v)
		}
	}
	return nil
}

func canonAxis(vs []float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Grid enumerates the cartesian product of the axes over the base spec
// in canonical order (the axes are canonicalized first; GBW is the
// outer axis, CL the inner). The result is already in canonical spec
// order, so shuffling the axis values cannot change the probe list.
func Grid(base sizing.OTASpec, ax Axes) []sizing.OTASpec {
	ax.Canonicalize()
	gbw := axisOr(ax.GBW, base.GBW)
	pm := axisOr(ax.PM, base.PM)
	cl := axisOr(ax.CL, base.CL)
	out := make([]sizing.OTASpec, 0, len(gbw)*len(pm)*len(cl))
	for _, g := range gbw {
		for _, p := range pm {
			for _, c := range cl {
				s := base
				s.GBW, s.PM, s.CL = g, p, c
				out = append(out, s)
			}
		}
	}
	SortSpecs(out)
	return out
}

func axisOr(vs []float64, def float64) []float64 {
	if len(vs) == 0 {
		return []float64{def}
	}
	return vs
}

// SortSpecs puts specs into the canonical probe order: ascending,
// field by field in the canonical field order. Probing in this order —
// regardless of how the spec list was assembled — is what makes the
// front invariant under input shuffles.
func SortSpecs(specs []sizing.OTASpec) {
	sort.SliceStable(specs, func(i, j int) bool { return specLess(specs[i], specs[j]) })
}

func specFields(s sizing.OTASpec) [8]float64 {
	return [8]float64{s.VDD, s.GBW, s.PM, s.CL, s.ICMLow, s.ICMHigh, s.OutLow, s.OutHigh}
}

func specLess(a, b sizing.OTASpec) bool {
	fa, fb := specFields(a), specFields(b)
	for i := range fa {
		if fa[i] != fb[i] {
			return fa[i] < fb[i]
		}
	}
	return false
}

// SpecKey renders (topology, spec) as the canonical dedup key: hex
// floats, exact bit patterns, fixed field order — the same discipline
// as the serving layer's content-addressed request keys.
func SpecKey(topology string, s sizing.OTASpec) string {
	b := make([]byte, 0, 160)
	b = append(b, topology...)
	for _, f := range specFields(s) {
		b = append(b, '|')
		b = strconv.AppendFloat(b, f, 'x', -1, 64)
	}
	return string(b)
}
