package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"loas/internal/core"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// floatEquiv reports whether two floats produce the same canonical key
// encoding: strconv's 'x' format renders every NaN bit pattern as "NaN"
// and otherwise distinguishes exact bit patterns (so +0 != -0 and 1-ulp
// perturbations differ).
func floatEquiv(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// specFields flattens an OTASpec into the 8 floats the canonical
// encoding covers, in a fixed order.
func specFields(s sizing.OTASpec) [8]float64 {
	return [8]float64{s.VDD, s.GBW, s.PM, s.CL, s.ICMLow, s.ICMHigh, s.OutLow, s.OutHigh}
}

func specFromFields(f [8]float64) sizing.OTASpec {
	return sizing.OTASpec{
		VDD: f[0], GBW: f[1], PM: f[2], CL: f[3],
		ICMLow: f[4], ICMHigh: f[5], OutLow: f[6], OutHigh: f[7],
	}
}

// FuzzBatchCanonicalKey checks the batch-key contract on real item
// keys: the key is a multiset hash — invariant under any reordering of
// the items, sensitive to multiplicity (adding a duplicate changes the
// workload identity even though it costs no synthesis), and sensitive
// to any change that moves a single item's content address (a case
// flip, or a 1-ulp perturbation of one spec field).
func FuzzBatchCanonicalKey(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(1), uint64(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint64(1))
	f.Add(uint8(4), uint8(2), uint8(0), uint8(5), uint64(1)<<63)
	f.Add(uint8(0), uint8(3), uint8(2), uint8(0), uint64(0))

	tech := techno.Default060()
	spec := sizing.Default65MHz()
	f.Fuzz(func(t *testing.T, c1, c2, c3, rot uint8, xorBits uint64) {
		itemKey := func(c uint8, s sizing.OTASpec) string {
			r := SynthesizeRequest{Case: 1 + int(c%4)}
			if err := r.normalize(); err != nil {
				t.Fatal(err)
			}
			return r.cacheKey(tech, s)
		}
		keys := []string{itemKey(c1, spec), itemKey(c2, spec), itemKey(c3, spec)}
		base := batchKey(keys)

		// Order invariance: every rotation and the reversal spell the
		// same workload.
		n := len(keys)
		r := int(rot) % n
		rotated := append(append([]string{}, keys[r:]...), keys[:r]...)
		reversed := []string{keys[2], keys[1], keys[0]}
		for _, alt := range [][]string{rotated, reversed} {
			if batchKey(alt) != base {
				t.Fatalf("reordering %v changed the batch key (base order %v)", alt, keys)
			}
		}

		// Multiplicity: one more copy of an existing item is a different
		// workload; dropping one is too.
		if batchKey(append(append([]string{}, keys...), keys[0])) == base {
			t.Fatal("duplicating an item kept the batch key")
		}
		if batchKey(keys[:2]) == base {
			t.Fatal("dropping an item kept the batch key")
		}

		// Item sensitivity: perturbing one item's spec by the fuzzed bit
		// pattern moves the batch key exactly when it moves the item key.
		spec2 := spec
		spec2.GBW = math.Float64frombits(math.Float64bits(spec.GBW) ^ xorBits)
		perturbed := []string{keys[0], keys[1], itemKey(c3, spec2)}
		wantEqual := floatEquiv(spec.GBW, spec2.GBW)
		if (batchKey(perturbed) == base) != wantEqual {
			t.Fatalf("item-key perturbation equality = %v, want %v (xor %#x)",
				batchKey(perturbed) == base, wantEqual, xorBits)
		}

		// A batch never collides with its own single item's key namespace.
		if batchKey(keys[:1]) == keys[0] {
			t.Fatal("single-item batch key collided with the item key itself")
		}
	})
}

// FuzzCanonicalKey checks the two directions of the content-addressed
// key contract on SynthesizeRequest.cacheKey (after normalize, which is
// how the server always keys — an absent topology is canonicalized to
// the default name before hashing):
//
//   - equal requests (where "equal" treats all NaN bit patterns alike
//     and distinguishes +0 from -0) hash to equal keys, and
//   - perturbing any single spec field — including by one ulp, a sign
//     flip on zero, or into NaN — or any request field, including the
//     topology, changes the key.
//
// The fuzzer drives spec A directly, derives spec B by XORing `xorBits`
// into the bit pattern of field `field%9` (9 selects "no perturbation"),
// and compares key equality against field-wise float equivalence.
//
// The refine parameters get the same treatment: refined and unrefined
// spellings of one case must never collide, a 1-ulp perturbation of
// MarginStep must change the key, and the canonicalized spellings of
// the defaults (absent, ±0) must all land on one cache entry.
func FuzzCanonicalKey(f *testing.F) {
	// Identity, 1-ulp, signed zero, and NaN seeds around the default spec.
	d := specFields(sizing.Default65MHz())
	seed := func(field uint8, xor uint64, caseN, maxCalls uint8, skip bool, topo uint8,
		refine bool, refRounds uint8, stepBits uint64) {
		f.Add(d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7], field, xor, caseN, maxCalls, skip, topo,
			refine, refRounds, stepBits)
	}
	seed(9, 0, 1, 0, false, 0, false, 0, 0)                            // identical specs, one-shot
	seed(0, 1, 1, 0, false, 0, true, 0, 0)                             // vdd off by one ulp, refined with defaults
	seed(3, 1<<63, 4, 3, true, 1, true, 3, math.Float64bits(1.0))      // cl sign flip, refined at step 1
	seed(6, math.Float64bits(math.NaN()), 2, 0, false, 2, false, 7, 1) // outl -> NaN-ish, inert refine params
	seed(9, 0, 4, 0, false, 0, true, 5, math.Float64bits(0.5))         // refined, custom rounds and step
	z := d
	z[6] = 0
	f.Add(z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7], uint8(6), uint64(1)<<63, uint8(1), uint8(0), false, uint8(0),
		true, uint8(0), uint64(1)<<63) // +0 vs -0 spec field, -0 margin step

	tech := techno.Default060()
	names := sizing.Topologies()
	f.Fuzz(func(t *testing.T, f0, f1, f2, f3, f4, f5, f6, f7 float64,
		field uint8, xorBits uint64, caseN, maxCalls uint8, skip bool, topo uint8,
		refine bool, refRounds uint8, stepBits uint64) {
		a := [8]float64{f0, f1, f2, f3, f4, f5, f6, f7}
		b := a
		if i := int(field % 9); i < 8 {
			b[i] = math.Float64frombits(math.Float64bits(a[i]) ^ xorBits)
		}

		// Sanitize the refine inputs into normalize's accepted domain,
		// keeping 0 ("use the default") reachable for both sub-params.
		// ±0 and out-of-range bit patterns collapse to 0, which normalize
		// must canonicalize onto the explicit defaults.
		step := math.Float64frombits(stepBits)
		if !(step > 0 && step <= 2) {
			step = 0
		}
		rounds := int(refRounds % 17) // 0 (default) or 1..16
		req := SynthesizeRequest{
			Topology:         names[int(topo)%len(names)],
			Case:             1 + int(caseN%4),
			MaxLayoutCalls:   int(maxCalls % 9),
			SkipVerify:       skip && !refine, // refine rejects skip_verify
			Refine:           refine,
			RefineMaxRounds:  rounds,
			RefineMarginStep: step,
		}
		if err := req.normalize(); err != nil {
			t.Fatalf("normalize rejected a valid request: %v", err)
		}
		keyA := req.cacheKey(tech, specFromFields(a))
		keyB := req.cacheKey(tech, specFromFields(b))

		equiv := true
		for i := range a {
			if !floatEquiv(a[i], b[i]) {
				equiv = false
				break
			}
		}
		if (keyA == keyB) != equiv {
			t.Fatalf("spec equivalence %v but key equality %v\na=%x\nb=%x",
				equiv, keyA == keyB, a, b)
		}

		// Request-field perturbations must always change the key.
		otherTopo := names[(int(topo)+1)%len(names)]
		alts := []SynthesizeRequest{}
		for _, mut := range []func(r *SynthesizeRequest){
			func(r *SynthesizeRequest) { r.Case = 1 + (r.Case % 4) },
			func(r *SynthesizeRequest) { r.MaxLayoutCalls++ },
			func(r *SynthesizeRequest) { r.SkipVerify = !r.SkipVerify },
			func(r *SynthesizeRequest) { r.Topology = otherTopo },
			func(r *SynthesizeRequest) { // refined <-> one-shot, both normalized spellings
				r.Refine = !r.Refine
				if r.Refine {
					r.SkipVerify = false
					r.RefineMaxRounds = core.DefaultRefineMaxRounds
					r.RefineMarginStep = core.DefaultRefineMarginStep
				} else {
					r.RefineMaxRounds = 0
					r.RefineMarginStep = 0
				}
			},
		} {
			alt := req
			mut(&alt)
			alts = append(alts, alt)
		}
		if req.Refine {
			// A 1-ulp nudge of MarginStep or a ±1 on the round budget is a
			// different refinement and must key separately.
			ulp := req
			ulp.RefineMarginStep = math.Float64frombits(math.Float64bits(req.RefineMarginStep) ^ 1)
			rnd := req
			rnd.RefineMaxRounds = 1 + (req.RefineMaxRounds % 16)
			alts = append(alts, ulp, rnd)
		}
		for _, alt := range alts {
			if alt.cacheKey(tech, specFromFields(a)) == keyA {
				t.Fatalf("request perturbation %+v did not change key (base %+v)", alt, req)
			}
		}

		// The canonicalized spellings of the refine defaults — absent
		// sub-params, explicit defaults, and a -0 margin step — must all
		// land on req's cache entry when they describe the same request.
		if req.Refine {
			for _, spell := range []SynthesizeRequest{
				{Topology: req.Topology, Case: req.Case, MaxLayoutCalls: req.MaxLayoutCalls,
					Refine: true},
				{Topology: req.Topology, Case: req.Case, MaxLayoutCalls: req.MaxLayoutCalls,
					Refine: true, RefineMaxRounds: req.RefineMaxRounds, RefineMarginStep: math.Copysign(0, -1)},
			} {
				if err := spell.normalize(); err != nil {
					t.Fatal(err)
				}
				wantEq := spell.RefineMaxRounds == req.RefineMaxRounds &&
					spell.RefineMarginStep == req.RefineMarginStep &&
					math.Signbit(spell.RefineMarginStep) == math.Signbit(req.RefineMarginStep)
				if (spell.cacheKey(tech, specFromFields(a)) == keyA) != wantEq {
					t.Fatalf("canonicalized refine spelling %+v key equality != %v (base %+v)", spell, wantEq, req)
				}
			}
		} else {
			// Sub-parameters are inert without refine=true: any values
			// normalize to the one unrefined entry.
			inert := SynthesizeRequest{Topology: req.Topology, Case: req.Case,
				MaxLayoutCalls: req.MaxLayoutCalls, SkipVerify: req.SkipVerify,
				RefineMaxRounds: 12, RefineMarginStep: 1.75}
			if err := inert.normalize(); err != nil {
				t.Fatal(err)
			}
			if inert.cacheKey(tech, specFromFields(a)) != keyA {
				t.Fatal("inert refine sub-params leaked into the unrefined cache key")
			}
		}

		// An absent topology must key identically to the explicit default
		// (normalize canonicalizes it), so existing clients keep their
		// warm cache entries.
		absent := SynthesizeRequest{Case: req.Case, MaxLayoutCalls: req.MaxLayoutCalls, SkipVerify: req.SkipVerify,
			Refine: req.Refine, RefineMaxRounds: req.RefineMaxRounds, RefineMarginStep: req.RefineMarginStep}
		if err := absent.normalize(); err != nil {
			t.Fatal(err)
		}
		wantEqual := req.Topology == sizing.DefaultTopology
		if (absent.cacheKey(tech, specFromFields(a)) == keyA) != wantEqual {
			t.Fatalf("absent-topology key equality = %v, want %v (topology %q)",
				!wantEqual, wantEqual, req.Topology)
		}

		// Different endpoint kinds must never collide even on one spec.
		t1 := Table1Request{}
		if t1.cacheKey(tech, specFromFields(a)) == keyA {
			t.Fatal("table1 key collided with synthesize key")
		}
	})
}

// FuzzBatchReport holds batchReportJSON to marshalJSON byte for byte.
// The fuzzer picks the item count, the echoed offset and limit, and
// which results carry an error text (quotes, control characters, <>&,
// non-ASCII and invalid UTF-8 alike) or a summary: the fuzzed body as
// given (often not canonical, or not JSON at all), its canonical form
// as marshalJSON would render it, or the canonical {} and []. Results
// may also be nil or empty. As in the server, a summary counts as
// canonical exactly when isCanonical says so.
func FuzzBatchReport(f *testing.F) {
	nested := "{\n  \"topology\": \"five-t\",\n  \"extracted\": {\n    \"gbw\": 6.5e+07,\n    \"tags\": [\n      \"a\",\n      {}\n    ]\n  },\n  \"empty\": []\n}\n"
	f.Add(uint8(3), 0, 0, "", []byte(nested), uint16(0x0e4))
	f.Add(uint8(6), 2, 3, "sizing: \"gbw\" <out> & of reach\t\x01ü ", []byte(`{"kind":"synthesize-4","call":1}`+"\n"), uint16(0x1b1))
	f.Add(uint8(0), 0, 0, "", []byte("{}\n"), uint16(0))
	f.Add(uint8(0), 0, 0, "", []byte("[]\n"), uint16(0x8000))
	f.Add(uint8(2), 0, 1, "x", []byte("[1,\n2]\n\n"), uint16(0x55))
	f.Add(uint8(4), 5, 0, "\xff", []byte("\"line\\nbreak\" \n"), uint16(0x3ff))
	f.Fuzz(func(t *testing.T, n uint8, offset, limit int, errText string, body []byte, sel uint16) {
		var compact bytes.Buffer
		canonical := []byte("{}\n")
		if json.Compact(&compact, body) == nil {
			var buf bytes.Buffer
			if err := json.Indent(&buf, append(compact.Bytes(), '\n'), "", "  "); err == nil {
				canonical = buf.Bytes()
			}
		}
		summaries := [][]byte{body, canonical, []byte("{}\n"), []byte("[]\n")}
		rep := BatchReport{Key: "k\"<&>", Items: int(n), Unique: int(n) / 2, Offset: offset, Limit: limit}
		switch {
		case sel&0x8000 != 0:
			rep.Results = []BatchItemResult{}
		case n > 0:
			rep.Results = make([]BatchItemResult, int(n%12))
		}
		for i := range rep.Results {
			r := &rep.Results[i]
			*r = BatchItemResult{Index: i, Topology: "five-t", Case: 4, Key: "key", RunID: "run-000001",
				Outcome: outcomeCacheHit, Cache: "hit"}
			if i%2 == 1 {
				r.Layout = "rows"
			}
			// Three bits of sel per result, from the lowest, pick an
			// error (0 or 5) or one of the summaries.
			switch c := int(sel>>(3*uint(i%5))) & 7; c {
			case 0, 5:
				r.Outcome, r.Cache, r.Error = outcomeError, "", errText
			default:
				r.Summary = summaries[c%len(summaries)]
				r.canonical = isCanonical(r.Summary)
			}
		}
		want, wantErr := marshalJSON(rep)
		got, err := batchReportJSON(rep)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("batchReportJSON error %v, marshalJSON error %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batchReportJSON differs from marshalJSON:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}
