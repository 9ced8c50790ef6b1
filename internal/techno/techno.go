// Package techno describes a fabrication technology to the rest of the
// system: MOS model cards, layout design rules, interconnect parasitic
// coefficients and reliability limits.
//
// It plays the role of the foundry design kit plus the "technology
// evaluation interface" of the COMDIAC sizing tool described in the paper.
// All electrical quantities are SI (volts, amperes, farads, metres, ohms);
// layout geometry elsewhere in the repository uses integer nanometres and
// converts at the extraction boundary.
package techno

import (
	"fmt"
	"math"
)

// Physical constants used across the library.
const (
	// Boltzmann constant (J/K).
	KBoltzmann = 1.380649e-23
	// Elementary charge (C).
	QElectron = 1.602176634e-19
	// Permittivity of SiO2 (F/m).
	EpsSiO2 = 3.45313e-11
	// Default analysis temperature (K): 300.15 K ≈ 27 °C.
	TempNominal = 300.15
)

// Micron expressed in metres; handy for model cards and specs.
const Micron = 1e-6

// ThermalVoltage returns kT/q at temperature t (K).
func ThermalVoltage(t float64) float64 { return KBoltzmann * t / QElectron }

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

const (
	NMOS MOSType = iota
	PMOS
)

// String implements fmt.Stringer.
func (t MOSType) String() string {
	if t == NMOS {
		return "nmos"
	}
	return "pmos"
}

// MOSCard is a level-1+ MOS model card. The model implemented in package
// device extends SPICE level 1 with length-dependent channel-length
// modulation (constant Early voltage per unit length), body effect, a
// continuous weak-inversion tail, Meyer intrinsic capacitances, overlap
// capacitances and bias-dependent junction capacitances.
type MOSCard struct {
	Type MOSType

	VT0   float64 // zero-bias threshold voltage magnitude (V)
	KP    float64 // transconductance parameter µCox (A/V²)
	Gamma float64 // body-effect coefficient (V^0.5)
	Phi   float64 // surface potential 2φF (V)
	VAL   float64 // Early voltage per unit length (V/m): VA = VAL·Leff
	Theta float64 // mobility degradation vs Veff (1/V)

	Cox  float64 // gate oxide capacitance per area (F/m²)
	LD   float64 // lateral diffusion per side (m)
	CGDO float64 // gate-drain overlap capacitance per width (F/m)
	CGSO float64 // gate-source overlap capacitance per width (F/m)
	CGBO float64 // gate-bulk overlap capacitance per length (F/m)

	CJ   float64 // zero-bias junction bottom capacitance (F/m²)
	CJSW float64 // zero-bias junction sidewall capacitance (F/m)
	MJ   float64 // bottom grading coefficient
	MJSW float64 // sidewall grading coefficient
	PB   float64 // junction built-in potential (V)

	KF float64 // flicker noise coefficient (SPICE level-1 form)
	AF float64 // flicker noise current exponent

	// Pelgrom matching coefficients: σ(ΔVT0) = AVT/√(W·L),
	// σ(Δβ/β) = ABeta/√(W·L), for the difference between two
	// identically drawn devices.
	AVT   float64 // V·m
	ABeta float64 // (fraction)·m

	// NoiseGamma is the thermal channel-noise factor (2/3 in strong
	// inversion for long-channel devices).
	NoiseGamma float64
}

// VTSign returns +1 for NMOS and −1 for PMOS; device equations are written
// for NMOS and mirrored through this sign.
func (c *MOSCard) VTSign() float64 {
	if c.Type == NMOS {
		return 1
	}
	return -1
}

// Layer identifies a mask layer used by the layout generators.
type Layer int

// Mask layers, bottom-up.
const (
	LayerNWell Layer = iota
	LayerActive
	LayerPoly
	LayerContact
	LayerMetal1
	LayerVia1
	LayerMetal2
	LayerNImplant
	LayerPImplant
	LayerPoly2 // capacitor top plate
	NumLayers
)

var layerNames = [...]string{
	"nwell", "active", "poly", "contact", "metal1", "via1", "metal2",
	"nimplant", "pimplant", "poly2",
}

// String implements fmt.Stringer.
func (l Layer) String() string {
	if l < 0 || int(l) >= len(layerNames) {
		return fmt.Sprintf("layer(%d)", int(l))
	}
	return layerNames[l]
}

// Rules is the subset of layout design rules the procedural generators
// need. All values are in nanometres.
type Rules struct {
	Grid int64 // manufacturing grid; every coordinate snaps to it

	PolyWidth   int64 // minimum (= drawn) gate length support
	PolySpace   int64
	PolyExtGate int64 // poly endcap extension beyond active

	ActiveWidth int64
	ActiveSpace int64

	ContactSize      int64
	ContactSpace     int64
	ContactActiveEnc int64 // active enclosure of contact
	ContactPolyEnc   int64
	ContactMetalEnc  int64 // metal1 enclosure of contact
	ContactToGate    int64 // contact to gate-poly spacing

	Metal1Width int64
	Metal1Space int64
	Metal2Width int64
	Metal2Space int64
	Via1Size    int64
	Via1Space   int64
	Via1Enc     int64

	NWellEncActive int64 // n-well enclosure of p-active
	NWellSpace     int64

	GateSpace int64 // poly gate to poly gate inside a diffusion stack
}

// Interconnect carries wiring parasitic coefficients and reliability
// limits, per routing layer.
type Interconnect struct {
	// CArea is capacitance to substrate per area (F/m²) for metal1, metal2.
	CAreaM1, CAreaM2 float64
	// CFringe is fringe capacitance per edge length (F/m).
	CFringeM1, CFringeM2 float64
	// CCouple is lateral coupling capacitance per length at minimum
	// spacing (F/m); scaled by minSpace/space for wider gaps.
	CCoupleM1, CCoupleM2 float64
	// CPolyArea / CPolyFringe for poly routing over field.
	CPolyArea, CPolyFringe float64
	// RSheet: sheet resistances (Ω/sq).
	RSheetM1, RSheetM2, RSheetPoly float64
	// RContact, RVia: single contact/via resistance (Ω).
	RContact, RVia float64
	// JMax: maximum current density for electromigration (A/m of wire
	// width). 1 mA/µm = 1000 A/m.
	JMax float64
	// IContact: maximum current per contact/via (A).
	IContact float64
	// CWellArea: floating n-well to substrate capacitance (F/m²),
	// CWellPerim (F/m).
	CWellArea, CWellPerim float64
	// CPolyPoly: poly–poly2 capacitor dielectric capacitance (F/m²).
	CPolyPoly float64
	// RSheetPoly2 (Ω/sq) for the capacitor top plate.
	RSheetPoly2 float64
}

// Tech bundles everything the sizing and layout tools need to know about a
// process.
type Tech struct {
	Name string
	// Feature is the drawn minimum gate length (m).
	Feature float64
	// VDDNominal is the nominal supply (V).
	VDDNominal float64
	Temp       float64 // analysis temperature (K)

	N MOSCard // n-channel card
	P MOSCard // p-channel card

	Rules Rules
	Wire  Interconnect

	// DiffExtContacted: length of a contacted source/drain diffusion
	// strip along the channel direction (m). Used for junction area
	// estimates before layout exists.
	DiffExtContacted float64
	// DiffExtShared: length of a diffusion shared between two gates (m).
	DiffExtShared float64
}

// Card returns the model card for the requested device type.
func (t *Tech) Card(mt MOSType) *MOSCard {
	if mt == NMOS {
		return &t.N
	}
	return &t.P
}

// Default060 returns a generic 0.6 µm CMOS technology with typical
// mid-1990s parameters. It substitutes for the proprietary foundry kit used
// in the paper; see DESIGN.md §5.
func Default060() *Tech {
	const tox = 12e-9
	cox := EpsSiO2 / tox // ≈ 2.88e-3 F/m² = 2.88 fF/µm²
	t := &Tech{
		Name:       "generic-cmos-0.6um",
		Feature:    0.6 * Micron,
		VDDNominal: 3.3,
		Temp:       TempNominal,
		N: MOSCard{
			Type:       NMOS,
			VT0:        0.75,
			KP:         450e-4 * cox, // µn = 450 cm²/Vs → 1.30e-4 A/V²
			Gamma:      0.60,
			Phi:        0.70,
			VAL:        8.0 / Micron, // 8 V per µm of channel length
			Theta:      0.20,
			Cox:        cox,
			LD:         0.05 * Micron,
			CGDO:       0.05 * Micron * cox, // overlap = LD·Cox ≈ 0.144 fF/µm
			CGSO:       0.05 * Micron * cox,
			CGBO:       0.10e-9, // 0.1 fF/µm
			CJ:         0.42e-3, // 0.42 fF/µm²
			CJSW:       0.33e-9, // 0.33 fF/µm
			MJ:         0.45,
			MJSW:       0.33,
			PB:         0.90,
			KF:         3.0e-28,
			AF:         1.0,
			AVT:        11e-9,    // 11 mV·µm, typical 0.6 µm NMOS
			ABeta:      0.018e-6, // 1.8 %·µm
			NoiseGamma: 2.0 / 3.0,
		},
		P: MOSCard{
			Type:       PMOS,
			VT0:        0.80,
			KP:         160e-4 * cox, // µp = 160 cm²/Vs → 4.6e-5 A/V²
			Gamma:      0.55,
			Phi:        0.70,
			VAL:        12.0 / Micron, // PMOS shows higher VA/L in this card
			Theta:      0.15,
			Cox:        cox,
			LD:         0.05 * Micron,
			CGDO:       0.05 * Micron * cox,
			CGSO:       0.05 * Micron * cox,
			CGBO:       0.10e-9,
			CJ:         0.56e-3,
			CJSW:       0.38e-9,
			MJ:         0.48,
			MJSW:       0.32,
			PB:         0.95,
			KF:         1.0e-28, // buried-channel PMOS: less 1/f noise
			AF:         1.0,
			AVT:        13e-9, // PMOS matches slightly worse
			ABeta:      0.022e-6,
			NoiseGamma: 2.0 / 3.0,
		},
		Rules: Rules{
			Grid:             50, // 0.05 µm grid
			PolyWidth:        600,
			PolySpace:        700,
			PolyExtGate:      500,
			ActiveWidth:      800,
			ActiveSpace:      1000,
			ContactSize:      600,
			ContactSpace:     700,
			ContactActiveEnc: 300,
			ContactPolyEnc:   300,
			ContactMetalEnc:  250,
			ContactToGate:    500,
			Metal1Width:      800,
			Metal1Space:      800,
			Metal2Width:      900,
			Metal2Space:      900,
			Via1Size:         600,
			Via1Space:        700,
			Via1Enc:          300,
			NWellEncActive:   1200,
			NWellSpace:       2400,
			GateSpace:        1700, // contacted gate pitch inside a stack
		},
		Wire: Interconnect{
			CAreaM1:     30e-6,  // 30 aF/µm²
			CAreaM2:     17e-6,  // 17 aF/µm²
			CFringeM1:   40e-12, // 40 aF/µm
			CFringeM2:   35e-12,
			CCoupleM1:   85e-12, // 85 aF/µm at min spacing
			CCoupleM2:   90e-12,
			CPolyArea:   55e-6,
			CPolyFringe: 45e-12,
			RSheetM1:    0.07,
			RSheetM2:    0.05,
			RSheetPoly:  25.0,
			RContact:    8.0,
			RVia:        4.0,
			JMax:        1.0e3, // 1 mA/µm
			IContact:    0.8e-3,
			CWellArea:   0.10e-3, // 0.1 fF/µm²
			CWellPerim:  0.25e-9,
			CPolyPoly:   0.90e-3, // 0.9 fF/µm² poly–poly capacitor
			RSheetPoly2: 40.0,
		},
		DiffExtContacted: 1.7 * Micron, // contact + 2 enclosures + gate gap
		DiffExtShared:    1.7 * Micron,
	}
	return t
}

// SnapNM rounds a length in nanometres to the manufacturing grid, away from
// zero, so widths never shrink below a design-rule minimum when snapped.
func (r *Rules) SnapNM(v int64) int64 {
	if r.Grid <= 1 {
		return v
	}
	g := r.Grid
	if v >= 0 {
		return (v + g - 1) / g * g
	}
	return -((-v + g - 1) / g * g)
}

// SnapDownNM rounds towards zero onto the grid.
func (r *Rules) SnapDownNM(v int64) int64 {
	if r.Grid <= 1 {
		return v
	}
	g := r.Grid
	if v >= 0 {
		return v / g * g
	}
	return -(-v / g * g)
}

// MetersToNM converts an SI length to integer nanometres (rounded).
func MetersToNM(m float64) int64 { return int64(math.Round(m * 1e9)) }

// NMToMeters converts integer nanometres to SI metres.
func NMToMeters(nm int64) float64 { return float64(nm) * 1e-9 }

// Validate performs a sanity check of the card and rules; it returns an
// error naming the first inconsistent field.
func (t *Tech) Validate() error {
	for _, c := range []*MOSCard{&t.N, &t.P} {
		switch {
		case c.VT0 <= 0:
			return fmt.Errorf("techno %s: %s VT0 must be positive (magnitude convention)", t.Name, c.Type)
		case c.KP <= 0:
			return fmt.Errorf("techno %s: %s KP must be positive", t.Name, c.Type)
		case c.Cox <= 0:
			return fmt.Errorf("techno %s: %s Cox must be positive", t.Name, c.Type)
		case c.PB <= 0:
			return fmt.Errorf("techno %s: %s PB must be positive", t.Name, c.Type)
		case c.VAL <= 0:
			return fmt.Errorf("techno %s: %s VAL must be positive", t.Name, c.Type)
		}
	}
	if t.Rules.Grid <= 0 {
		return fmt.Errorf("techno %s: grid must be positive", t.Name)
	}
	if t.Wire.JMax <= 0 {
		return fmt.Errorf("techno %s: JMax must be positive", t.Name)
	}
	if t.Feature <= 0 || t.VDDNominal <= 0 {
		return fmt.Errorf("techno %s: feature and VDD must be positive", t.Name)
	}
	return nil
}

// Corner names the standard process corners.
type Corner string

// Process corners: typical, slow/slow, fast/fast, slow-N/fast-P and
// fast-N/slow-P.
const (
	CornerTT Corner = "tt"
	CornerSS Corner = "ss"
	CornerFF Corner = "ff"
	CornerSF Corner = "sf"
	CornerFS Corner = "fs"
)

// AtCorner returns a deep copy of the technology shifted to a process
// corner: ±8% on VT0 and ∓10% on KP per device type (slow = high VT, low
// mobility). The nominal card is CornerTT.
func (t *Tech) AtCorner(c Corner) (*Tech, error) {
	shift := func(card *MOSCard, slow bool) {
		if slow {
			card.VT0 *= 1.08
			card.KP *= 0.90
		} else {
			card.VT0 *= 0.92
			card.KP *= 1.10
		}
	}
	out := *t
	out.Name = t.Name + "-" + string(c)
	switch c {
	case CornerTT:
		return &out, nil
	case CornerSS:
		shift(&out.N, true)
		shift(&out.P, true)
	case CornerFF:
		shift(&out.N, false)
		shift(&out.P, false)
	case CornerSF:
		shift(&out.N, true)
		shift(&out.P, false)
	case CornerFS:
		shift(&out.N, false)
		shift(&out.P, true)
	default:
		return nil, fmt.Errorf("techno: unknown corner %q", c)
	}
	return &out, nil
}
