package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"loas/internal/circuit"
	"loas/internal/layout/route"
	"loas/internal/mc"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// The fingerprint golden pins the full output of every synthesis flow
// bit for bit: for each registered topology at its default spec, in
// three modes, the SHA-256 of the hex-exact fingerprint (summary, spec,
// device sizes, trace, parasitic report and the layout shape by shape),
// plus a Monte-Carlo offset run sample by sample. Besides the Table-1
// golden, which pins the paper's experiment field by field, it is the
// one golden of the synthesis flows: it catches a moved shape or a
// single-ULP drift anywhere in the pipeline, and a mismatch names the
// mode and topology but not the field. Rerun with
//
//	go test ./internal/core -run TestFingerprintGolden -update
//
// only after an intentional model or solver change.

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprint_golden.json from a live run")

const fingerprintGoldenPath = "testdata/fingerprint_golden.json"

// fingerprintModes are the pinned flows, all at case 4. The refined
// mode runs the default round budget, so every round a refined run
// takes is pinned.
var fingerprintModes = []struct {
	name string
	opts Options
}{
	{"oneshot", Options{}},
	{"refined", Options{Refine: RefineOptions{Enabled: true}}},
	{"rows", Options{Layout: "rows"}},
}

// fingerprintGolden is the committed golden file.
type fingerprintGolden struct {
	Synth []synthPrint `json:"synth"`
	MC    mcPrint      `json:"mc"`
}

// synthPrint pins one synthesis run.
type synthPrint struct {
	Mode     string `json:"mode"`
	Topology string `json:"topology"`
	SHA256   string `json:"sha256"`
	Shapes   int    `json:"shapes"`
	Ports    int    `json:"ports"`
}

// mcPrint pins a Monte-Carlo offset run; floats are exact hex.
type mcPrint struct {
	N        int        `json:"n"`
	Seed     int64      `json:"seed"`
	Samples  []mcSample `json:"samples"`
	Failures int        `json:"failures"`
	Mean     string     `json:"mean"`
	Sigma    string     `json:"sigma"`
	Worst    string     `json:"worst"`
}

type mcSample struct {
	Index  int    `json:"index"`
	OK     bool   `json:"ok"`
	Offset string `json:"offset"`
}

// TestFingerprintGolden runs every pinned case once and compares it with
// the committed golden.
func TestFingerprintGolden(t *testing.T) {
	var want fingerprintGolden
	if !*updateFingerprints {
		data, err := os.ReadFile(fingerprintGoldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt golden file: %v", err)
		}
	}
	wantSynth := map[string]synthPrint{}
	for _, p := range want.Synth {
		wantSynth[p.Mode+"/"+p.Topology] = p
	}

	tech := techno.Default060()
	topos := sizing.Topologies()
	var got fingerprintGolden
	for _, m := range fingerprintModes {
		prints := make([]synthPrint, len(topos))
		t.Run(m.name, func(t *testing.T) {
			for i, topo := range topos {
				t.Run(topo, func(t *testing.T) {
					t.Parallel()
					plan, err := sizing.Lookup(topo)
					if err != nil {
						t.Fatal(err)
					}
					opts := m.opts
					opts.Topology = topo
					res, err := Synthesize(tech, plan.DefaultSpec(), opts)
					if err != nil {
						t.Fatalf("synthesize %s: %v", topo, err)
					}
					sum := sha256.Sum256([]byte(fingerprint(t, res)))
					prints[i] = synthPrint{Mode: m.name, Topology: topo,
						SHA256: hex.EncodeToString(sum[:]),
						Shapes: len(res.Layout.Cell.Shapes), Ports: len(res.Layout.Cell.Ports)}
					if w := wantSynth[m.name+"/"+topo]; !*updateFingerprints && prints[i] != w {
						t.Errorf("fingerprint diverges from %s:\n  got  %+v\n  want %+v",
							fingerprintGoldenPath, prints[i], w)
					}
				})
			}
		})
		got.Synth = append(got.Synth, prints...)
	}
	t.Run("mc", func(t *testing.T) {
		got.MC = mcFingerprint(t, tech)
		if !*updateFingerprints && !reflect.DeepEqual(got.MC, want.MC) {
			t.Errorf("Monte-Carlo run diverges from %s:\n  got  %+v\n  want %+v",
				fingerprintGoldenPath, got.MC, want.MC)
		}
	})
	if t.Failed() {
		return
	}

	if *updateFingerprints {
		if got.MC.N == 0 || slices.ContainsFunc(got.Synth, func(p synthPrint) bool { return p.SHA256 == "" }) {
			t.Fatal("-update needs every case to run; drop the subtest filter")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", fingerprintGoldenPath)
		return
	}
	// Every golden case must have run: a topology that left the registry
	// would otherwise drop out unnoticed.
	if len(got.Synth) != len(want.Synth) {
		t.Fatalf("ran %d synthesis cases, golden has %d", len(got.Synth), len(want.Synth))
	}
}

// mcFingerprint runs the pinned Monte-Carlo case: offset samples of the
// case-1 folded-cascode design at the 65 MHz spec.
func mcFingerprint(t *testing.T, tech *techno.Tech) mcPrint {
	t.Helper()
	spec := sizing.Default65MHz()
	ps, err := sizing.Case(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sizing.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	d, err := plan.Size(tech, spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mc.OffsetConfig{
		Build:   func() *circuit.Circuit { return d.Netlist("mc") },
		InP:     sizing.NetInP,
		InN:     sizing.NetInN,
		Out:     sizing.NetOut,
		VicmDC:  0.5 * (spec.ICMLow + spec.ICMHigh),
		VoutMid: 0.5 * (spec.OutLow + spec.OutHigh),
		Temp:    tech.Temp,
		NodeSet: d.NodeSet(),
		Workers: 2,
	}
	const n, seed = 8, 7
	samples, err := mc.OffsetSamples(cfg, 0, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := mcPrint{Seed: seed}
	for _, s := range samples {
		p.Samples = append(p.Samples, mcSample{Index: s.Index, OK: s.OK, Offset: hx(s.OffsetV)})
	}
	st := mc.ReduceOffsets(samples)
	p.N, p.Failures, p.Mean, p.Sigma, p.Worst = st.N, st.Failures, hx(st.MeanV), hx(st.SigmaV), hx(st.WorstAbsV)
	return p
}

func hx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func fpPerf(b *strings.Builder, tag string, p sizing.Performance) {
	fmt.Fprintf(b, "%s: gain=%s gbw=%s pm=%s sr=%s cmrr=%s off=%s rout=%s nrms=%s nth=%s nfl=%s pwr=%s\n",
		tag, hx(p.DCGainDB), hx(p.GBW), hx(p.PhaseDeg), hx(p.SlewRate), hx(p.CMRRDB),
		hx(p.Offset), hx(p.Rout), hx(p.NoiseRMS), hx(p.NoiseTh), hx(p.NoiseFl1), hx(p.Power))
}

// fingerprint renders everything a synthesis produced — summary, spec,
// device sizes, trace, parasitics, geometry — with every float in exact
// hex; two runs agree iff their results are bit-identical.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	s := res.Summary()
	fmt.Fprintf(&b, "topology=%s layout=%s layout_calls=%d sizing_passes=%d\n",
		s.Topology, s.Layout, s.LayoutCalls, s.SizingPasses)
	fpPerf(&b, "synthesized", s.Synthesized)
	fpPerf(&b, "extracted", s.Extracted)
	fmt.Fprintf(&b, "floorplan: w=%s h=%s area=%s\n", hx(s.WidthUM), hx(s.HeightUM), hx(s.AreaUM2))
	sp := res.Spec
	fmt.Fprintf(&b, "spec: vdd=%s gbw=%s pm=%s cl=%s icml=%s icmh=%s outl=%s outh=%s\n",
		hx(sp.VDD), hx(sp.GBW), hx(sp.PM), hx(sp.CL), hx(sp.ICMLow), hx(sp.ICMHigh), hx(sp.OutLow), hx(sp.OutHigh))
	devs := res.Design.DeviceTable()
	var names []string
	for n := range devs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "size %s: w=%s l=%s\n", n, hx(devs[n].W), hx(devs[n].L))
	}
	if s.Refine != nil {
		// The refine report carries no wall-clock; JSON floats use the
		// shortest round-trip rendering, which is injective on bit
		// patterns.
		j, err := json.Marshal(s.Refine)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "refine: %s\n", j)
	}

	for _, it := range res.Trace {
		fmt.Fprintf(&b, "iter r%d c%d: delta=%s out=%s hot=%s total=%s folds=%d w1=%s lc=%s itail=%s\n",
			it.Round, it.Call, hx(it.DeltaF), hx(it.OutCapF), hx(it.FN1CapF), hx(it.TotalCapF),
			it.Folds, hx(it.W1), hx(it.Lc), hx(it.Itail))
	}

	par := res.Parasitics
	names = names[:0]
	for n := range par.NetCap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "netcap %s=%s\n", n, hx(par.NetCap[n]))
	}
	pairs := make([]route.NetPair, 0, len(par.Coupling))
	for p := range par.Coupling {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, p := range pairs {
		fmt.Fprintf(&b, "coupling %s~%s=%s\n", p.A, p.B, hx(par.Coupling[p]))
	}
	names = names[:0]
	for n := range par.WellCap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "wellcap %s=%s\n", n, hx(par.WellCap[n]))
	}
	names = names[:0]
	for n := range par.DeviceGeom {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := par.DeviceGeom[n]
		f := par.Folds[n]
		fmt.Fprintf(&b, "dev %s: ad=%s pd=%s as=%s ps=%s folds=%d fw=%s style=%d strips=%d/%d/%d/%d\n",
			n, hx(g.AD), hx(g.PD), hx(g.AS), hx(g.PS),
			f.Folds, hx(f.FingerW), f.Style, f.DrainStrips, f.DrainExt, f.SourceStrips, f.SourceExt)
	}

	cell := res.Layout.Cell
	fmt.Fprintf(&b, "cell %s: %d shapes %d ports\n", cell.Name, len(cell.Shapes), len(cell.Ports))
	for _, sh := range cell.Shapes {
		fmt.Fprintf(&b, "shape %d %d,%d,%d,%d %s\n", sh.Layer, sh.R.L, sh.R.B, sh.R.R, sh.R.T, sh.Net)
	}
	for _, p := range cell.Ports {
		fmt.Fprintf(&b, "port %s %s %d %d,%d,%d,%d\n", p.Name, p.Net, p.Layer, p.R.L, p.R.B, p.R.R, p.R.T)
	}
	return b.String()
}
