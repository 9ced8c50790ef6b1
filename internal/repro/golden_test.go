package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"loas/internal/sizing"
	"loas/internal/techno"
)

// Golden-file encoding of the Table-1 experiment.
//
// Every float is rendered with strconv's 'x' format — the exact bit
// pattern, not a rounded decimal — so the golden file pins results to
// the ulp. The synthesis pipeline is deterministic by construction
// (sorted net/pair iteration everywhere floats accumulate, seed-split
// random streams), which is what makes a bit-exact golden viable; any
// unintended change to a model, a solver, or an iteration order shows
// up as a diff here before it can silently move the reproduced numbers.

// hexF encodes one float64 exactly.
func hexF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// GoldenPerf is a hex-exact sizing.Performance.
type GoldenPerf struct {
	DCGainDB string `json:"dc_gain_db"`
	GBW      string `json:"gbw_hz"`
	PhaseDeg string `json:"phase_margin_deg"`
	SlewRate string `json:"slew_rate_v_per_s"`
	CMRRDB   string `json:"cmrr_db"`
	Offset   string `json:"offset_v"`
	Rout     string `json:"rout_ohm"`
	NoiseRMS string `json:"noise_rms_v"`
	NoiseTh  string `json:"noise_thermal_v_rthz"`
	NoiseFl1 string `json:"noise_flicker_1hz_v_rthz"`
	Power    string `json:"power_w"`
}

func goldenPerf(p sizing.Performance) GoldenPerf {
	return GoldenPerf{
		DCGainDB: hexF(p.DCGainDB),
		GBW:      hexF(p.GBW),
		PhaseDeg: hexF(p.PhaseDeg),
		SlewRate: hexF(p.SlewRate),
		CMRRDB:   hexF(p.CMRRDB),
		Offset:   hexF(p.Offset),
		Rout:     hexF(p.Rout),
		NoiseRMS: hexF(p.NoiseRMS),
		NoiseTh:  hexF(p.NoiseTh),
		NoiseFl1: hexF(p.NoiseFl1),
		Power:    hexF(p.Power),
	}
}

// GoldenDevice pins one transistor's realized dimensions.
type GoldenDevice struct {
	W string `json:"w"`
	L string `json:"l"`
}

// GoldenCase is one Table-1 column, bit-exact.
type GoldenCase struct {
	Case         int                     `json:"case"`
	Synthesized  GoldenPerf              `json:"synthesized"`
	Extracted    GoldenPerf              `json:"extracted"`
	LayoutCalls  int                     `json:"layout_calls"`
	SizingPasses int                     `json:"sizing_passes"`
	Itail        string                  `json:"itail_a"`
	Lc           string                  `json:"lc_m"`
	WidthUM      string                  `json:"width_um"`
	HeightUM     string                  `json:"height_um"`
	AreaUM2      string                  `json:"area_um2"`
	Devices      map[string]GoldenDevice `json:"devices"`
}

// GoldenReport is the committed testdata/table1_golden.json schema.
type GoldenReport struct {
	Tech  string            `json:"tech"`
	Spec  map[string]string `json:"spec"`
	Cases []GoldenCase      `json:"cases"`
}

// BuildGolden projects a finished Table-1 run onto the golden schema.
func BuildGolden(tech *techno.Tech, spec sizing.OTASpec, cases []Table1Case) *GoldenReport {
	rep := &GoldenReport{
		Tech: tech.Name,
		Spec: map[string]string{
			"vdd":  hexF(spec.VDD),
			"gbw":  hexF(spec.GBW),
			"pm":   hexF(spec.PM),
			"cl":   hexF(spec.CL),
			"icml": hexF(spec.ICMLow),
			"icmh": hexF(spec.ICMHigh),
			"outl": hexF(spec.OutLow),
			"outh": hexF(spec.OutHigh),
		},
	}
	for _, c := range cases {
		r := c.Result
		op := r.Design.OperatingPoint()
		gc := GoldenCase{
			Case:         c.Case,
			Synthesized:  goldenPerf(r.Synthesized),
			Extracted:    goldenPerf(r.Extracted),
			LayoutCalls:  r.LayoutCalls,
			SizingPasses: r.SizingPasses,
			Itail:        hexF(op.Itail),
			Lc:           hexF(op.Lc),
			Devices:      map[string]GoldenDevice{},
		}
		if r.Parasitics != nil {
			gc.WidthUM = hexF(r.Parasitics.WidthUM)
			gc.HeightUM = hexF(r.Parasitics.HeightUM)
			gc.AreaUM2 = hexF(r.Parasitics.AreaUM2)
		}
		for name, d := range r.Design.DeviceTable() {
			gc.Devices[name] = GoldenDevice{W: hexF(d.W), L: hexF(d.L)}
		}
		rep.Cases = append(rep.Cases, gc)
	}
	sort.Slice(rep.Cases, func(i, j int) bool { return rep.Cases[i].Case < rep.Cases[j].Case })
	return rep
}

// DiffGolden compares a live report against the committed one and
// returns one human-readable line per mismatch (empty = bit-identical).
func DiffGolden(want, got *GoldenReport) []string {
	var bad []string
	add := func(format string, args ...interface{}) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	if want.Tech != got.Tech {
		add("tech: want %s, got %s", want.Tech, got.Tech)
	}
	for _, k := range sortedStrKeys(want.Spec) {
		if got.Spec[k] != want.Spec[k] {
			add("spec.%s: want %s, got %s", k, want.Spec[k], got.Spec[k])
		}
	}
	if len(want.Cases) != len(got.Cases) {
		add("case count: want %d, got %d", len(want.Cases), len(got.Cases))
		return bad
	}
	for i := range want.Cases {
		w, g := want.Cases[i], got.Cases[i]
		pfx := fmt.Sprintf("case %d", w.Case)
		if w.Case != g.Case {
			add("%s: case number mismatch (got %d)", pfx, g.Case)
			continue
		}
		diffPerf(&bad, pfx+".synthesized", w.Synthesized, g.Synthesized)
		diffPerf(&bad, pfx+".extracted", w.Extracted, g.Extracted)
		if w.LayoutCalls != g.LayoutCalls {
			add("%s.layout_calls: want %d, got %d", pfx, w.LayoutCalls, g.LayoutCalls)
		}
		if w.SizingPasses != g.SizingPasses {
			add("%s.sizing_passes: want %d, got %d", pfx, w.SizingPasses, g.SizingPasses)
		}
		for name, field := range map[string][2]string{
			"itail_a":   {w.Itail, g.Itail},
			"lc_m":      {w.Lc, g.Lc},
			"width_um":  {w.WidthUM, g.WidthUM},
			"height_um": {w.HeightUM, g.HeightUM},
			"area_um2":  {w.AreaUM2, g.AreaUM2},
		} {
			if field[0] != field[1] {
				add("%s.%s: want %s, got %s", pfx, name, field[0], field[1])
			}
		}
		for _, name := range sortedDevKeys(w.Devices) {
			wd, gd := w.Devices[name], g.Devices[name]
			if wd != gd {
				add("%s.devices.%s: want %+v, got %+v", pfx, name, wd, gd)
			}
		}
		if len(g.Devices) != len(w.Devices) {
			add("%s: device count: want %d, got %d", pfx, len(w.Devices), len(g.Devices))
		}
	}
	return bad
}

func diffPerf(bad *[]string, pfx string, w, g GoldenPerf) {
	for _, f := range [...][3]string{
		{"dc_gain_db", w.DCGainDB, g.DCGainDB},
		{"gbw_hz", w.GBW, g.GBW},
		{"phase_margin_deg", w.PhaseDeg, g.PhaseDeg},
		{"slew_rate_v_per_s", w.SlewRate, g.SlewRate},
		{"cmrr_db", w.CMRRDB, g.CMRRDB},
		{"offset_v", w.Offset, g.Offset},
		{"rout_ohm", w.Rout, g.Rout},
		{"noise_rms_v", w.NoiseRMS, g.NoiseRMS},
		{"noise_thermal_v_rthz", w.NoiseTh, g.NoiseTh},
		{"noise_flicker_1hz_v_rthz", w.NoiseFl1, g.NoiseFl1},
		{"power_w", w.Power, g.Power},
	} {
		if f[1] != f[2] {
			*bad = append(*bad, fmt.Sprintf("%s.%s: want %s, got %s", pfx, f[0], f[1], f[2]))
		}
	}
}

func sortedStrKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedDevKeys(m map[string]GoldenDevice) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from a live run")

const goldenPath = "testdata/table1_golden.json"

// TestTable1Golden diffs a live four-case Table-1 run against the
// committed bit-exact golden file. The synthesis pipeline is
// deterministic, so any diff is a real behavioural change: rerun with
//
//	go test ./internal/repro -run TestTable1Golden -update
//
// to re-bless after an intentional model or solver change.
func TestTable1Golden(t *testing.T) {
	got := BuildGolden(techno.Default060(), sizing.Default65MHz(), table1Cases(t))

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want GoldenReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if diffs := DiffGolden(&want, got); len(diffs) > 0 {
		t.Fatalf("live Table-1 run diverges from %s in %d field(s):\n  %s\n(re-bless with -update if intentional)",
			goldenPath, len(diffs), strings.Join(diffs, "\n  "))
	}
}

// TestGoldenRoundTrip: the golden encoding must survive JSON and the
// differ must actually detect perturbations (a differ that never fires
// would make the golden test vacuous).
func TestGoldenRoundTrip(t *testing.T) {
	rep := BuildGolden(techno.Default060(), sizing.Default65MHz(), table1Cases(t))
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back GoldenReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if diffs := DiffGolden(rep, &back); len(diffs) > 0 {
		t.Fatalf("round trip not identity: %v", diffs)
	}

	back.Cases[0].Extracted.GBW = hexF(1.0)
	back.Cases[3].LayoutCalls++
	diffs := DiffGolden(rep, &back)
	if len(diffs) != 2 {
		t.Fatalf("differ missed perturbations: %v", diffs)
	}
	for _, d := range diffs {
		if !strings.Contains(d, "case 1.extracted.gbw_hz") && !strings.Contains(d, "case 4.layout_calls") {
			t.Fatalf("unexpected diff line %q", d)
		}
	}
}

// TestGoldenHexEncoding pins the float codec itself: hex round trip is
// exact and distinguishes the edge cases decimal formatting blurs.
func TestGoldenHexEncoding(t *testing.T) {
	if hexF(0) == hexF(negZero()) {
		t.Fatal("hex encoding must distinguish +0 from -0")
	}
	v := 65e6
	if hexF(v) != hexF(6.5e7) {
		t.Fatal("equal values must encode equally")
	}
	if hexF(v) == hexF(math.Nextafter(v, math.Inf(1))) {
		t.Fatal("one ulp apart must encode differently")
	}
}

func negZero() float64 { z := 0.0; return -z }
