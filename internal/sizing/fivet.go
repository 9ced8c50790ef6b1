package sizing

import (
	"fmt"
	"math"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/layout/cairo"
	"loas/internal/layout/route"
	"loas/internal/layout/stack"
	"loas/internal/techno"
)

// Five-transistor OTA device and net names (third topology).
const (
	MF1 = "MF1" // input pair, diode side (non-inverting input)
	MF2 = "MF2" // input pair, output side
	MF3 = "MF3" // mirror load, diode
	MF4 = "MF4" // mirror load, output
	MF5 = "MF5" // tail

	NetFX = "fx" // mirror diode node
)

func init() {
	Register(Plan{
		Name:        "five-t",
		Description: "five-transistor OTA: single-stage PMOS pair with NMOS mirror load",
		Size: func(tech *techno.Tech, spec OTASpec, ps ParasiticState) (Design, error) {
			return SizeFiveT(tech, spec, ps)
		},
		DefaultSpec: DefaultFiveTSpec,
	})
}

// DefaultFiveTSpec is a specification the single-stage plan can meet:
// the mirror pole caps the usable GBW well below the paper's 65 MHz.
func DefaultFiveTSpec() OTASpec {
	return OTASpec{
		VDD: 3.3, GBW: 30e6, PM: 60, CL: 2e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.5, OutHigh: 2.8,
	}
}

// FiveT is the classic single-stage five-transistor OTA — the smallest
// entry in the topology library, useful as an SC-filter buffer or a bias
// amplifier. Its one bias rail is the tail gate, vbp.
type FiveT struct {
	ota
}

// SizeFiveT runs the single-stage plan: one transconductance, one pole —
// the GBW target fixes gm1, the mirror pole is checked by simulation.
func SizeFiveT(tech *techno.Tech, spec OTASpec, ps ParasiticState) (*FiveT, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if spec.GBW <= 0 || spec.CL <= 0 || spec.VDD <= 0 {
		return nil, fmt.Errorf("sizing: incomplete spec %+v", spec)
	}
	l := 1.0 * techno.Micron
	veff1 := clamp(spec.VDD-spec.ICMHigh-0.2-tech.P.VT0-0.05, 0.12, 0.25)
	veff3 := clamp(0.9*spec.OutLow, 0.15, 0.35)
	vtl := 0.20

	wmin := techno.NMToMeters(tech.Rules.ActiveWidth)
	wmax := 20000 * techno.Micron
	boost := 1.0
	var d *FiveT

	build := func() error {
		gm1 := 2 * math.Pi * spec.GBW * spec.CL * boost
		w1, err := device.SizeForGm(&tech.P, l, veff1, 0, gm1, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: 5T input pair: %w", err)
		}
		m1 := device.MOS{Card: &tech.P, W: w1, L: l}
		id1 := m1.IDSat(veff1, 0, tech.Temp)
		itail := 2 * id1
		w3, err := device.SizeForCurrent(&tech.N, l, veff3, 0, id1, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: MF3: %w", err)
		}
		w5, err := device.SizeForCurrent(&tech.P, l, vtl, 0, itail, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: MF5: %w", err)
		}

		d = &FiveT{ota: newOTA(tech, spec, ps, itail, 5, 6)}
		d.add(MF1, techno.PMOS, w1, l, veff1, id1, 0)
		d.add(MF2, techno.PMOS, w1, l, veff1, id1, 0)
		d.add(MF3, techno.NMOS, w3, l, veff3, id1, 0)
		d.add(MF4, techno.NMOS, w3, l, veff3, id1, 0)
		d.add(MF5, techno.PMOS, w5, l, vtl, itail, 0)

		vcm := clamp(0.5*(spec.ICMLow+spec.ICMHigh), 0.3, spec.VDD)
		mn3 := device.MOS{Card: &tech.N, W: w3, L: l}
		vx, err := mn3.VGSForCurrent(id1, 0.9, 0, tech.Temp)
		if err != nil {
			return err
		}
		d.NodeEst[NetVDD] = spec.VDD
		d.NodeEst[NetInP], d.NodeEst[NetInN] = vcm, vcm
		d.NodeEst[NetTail] = vcm + tech.P.VT0 + veff1
		d.NodeEst[NetFX] = vx
		d.NodeEst[NetOut] = vx

		vbp, err := d.tailBias(tech, MF5)
		if err != nil {
			return err
		}
		d.Bias = map[string]float64{NetVBP: vbp}
		return nil
	}

	var gbw, pm float64
	var ev evaluator // the pass's one engine and AC solver
	for iter := 0; iter < 12; iter++ {
		if err := build(); err != nil {
			return nil, err
		}
		// The assumed netlist folds the last layout report's wiring
		// capacitance into the evaluation, closing the routing-awareness
		// feedback under case 4 just like the folded-cascode plan.
		var err error
		gbw, pm, err = d.evalGBWPM(&ev, d.AssumedNetlist("5t-eval"))
		if err != nil {
			return nil, err
		}
		if gbw > 0.99*spec.GBW && gbw < 1.04*spec.GBW {
			break
		}
		boost = clamp(boost*spec.GBW/gbw, 0.3, 5)
	}
	if gbw < 0.97*spec.GBW {
		return nil, fmt.Errorf("sizing: 5T GBW %.2f MHz unreachable", gbw/1e6)
	}
	if pm < spec.PM {
		return nil, fmt.Errorf("sizing: 5T phase margin %.1f° below target %.1f° "+
			"(the mirror pole is fixed by the topology — relax GBW or PM)", pm, spec.PM)
	}

	d.Predicted.GBW = gbw
	d.Predicted.PhaseDeg = pm
	d.Predicted.Power = spec.VDD * d.Itail
	d.Predicted.SlewRate = d.Itail / spec.CL
	op1 := evalAt(tech, d.Devices[MF1])
	op4 := evalAt(tech, d.Devices[MF4])
	d.Predicted.DCGainDB = DB(op1.Gm / (op1.Gds + op4.Gds))
	sizingPasses.Inc()
	return d, nil
}

// AssumedNetlist is Netlist plus the sizing-time routing assumption:
// when routing awareness is on, the last layout report's wiring/
// coupling/well capacitance is lumped onto each net whose wiring
// capacitance matters to the small-signal behaviour (Design).
func (d *FiveT) AssumedNetlist(name string) *circuit.Circuit {
	return d.assumed(d.Netlist(name), NetOut, NetFX, NetTail, NetInP, NetInN)
}

// OperatingPoint snapshots the design point (Design). All channels sit
// at the plan's fixed length, so the mirror's L stands in for the
// "non-input length" slot.
func (d *FiveT) OperatingPoint() OperatingPoint {
	return OperatingPoint{W1: d.Devices[MF1].W, Lc: d.Devices[MF3].L, Itail: d.Itail}
}

// HotNet is the mirror diode node — the only internal high-impedance-ish
// node whose capacitance sets the non-dominant pole (Design).
func (d *FiveT) HotNet() string { return NetFX }

// BiasFor recomputes the tail bias on an alternate technology (a
// process corner) for the same device sizes (Design).
func (d *FiveT) BiasFor(tech *techno.Tech) (map[string]float64, error) {
	vbp, err := d.tailBias(tech, MF5)
	if err != nil {
		return nil, fmt.Errorf("sizing: 5T corner vbp: %w", err)
	}
	return map[string]float64{NetVBP: vbp}, nil
}

// OffsetRefs returns the input pair against the mirror load; the gm
// ratio follows from the fixed overdrives at equal drain currents
// (Design).
func (d *FiveT) OffsetRefs() (pair, load DeviceSize, gmRatio float64) {
	pair, load = d.Devices[MF1], d.Devices[MF3]
	gmRatio = pair.Veff / load.Veff
	return pair, load, gmRatio
}

// Netlist builds the 5T OTA.
func (d *FiveT) Netlist(name string) *circuit.Circuit {
	c := circuit.New(name)
	c.Add(
		&circuit.VSource{Name: "dd", Pos: NetVDD, Neg: NetGND, DC: d.Spec.VDD},
		&circuit.VSource{Name: "bp", Pos: NetVBP, Neg: NetGND, DC: d.Bias[NetVBP]},
		d.mos(MF1, NetFX, NetInP, NetTail, NetVDD),
		d.mos(MF2, NetOut, NetInN, NetTail, NetVDD),
		d.mos(MF3, NetFX, NetFX, NetGND, NetGND),
		d.mos(MF4, NetOut, NetFX, NetGND, NetGND),
		d.mos(MF5, NetTail, NetVBP, NetVDD, NetVDD),
	)
	return c
}

// Layout builds the two matched stacks plus the tail.
func (d *FiveT) Layout() *cairo.Design {
	chanW := int64(6000)
	pair := &cairo.MatchedStack{
		Label: "fpair", Type: techno.PMOS,
		Devices: []stack.Device{
			{Name: MF1, Units: 2, DrainNet: NetFX, GateNet: NetInP},
			{Name: MF2, Units: 2, DrainNet: NetOut, GateNet: NetInN},
		},
		SourceNet: NetTail, BulkNet: NetVDD,
		WidthPerBaseUnit: d.Devices[MF1].W / 2,
		L:                d.Devices[MF1].L,
		Currents:         map[string]float64{NetFX: d.Devices[MF1].ID, NetOut: d.Devices[MF2].ID},
		EndDummies:       true, Splits: []int{1, 2},
	}
	mir := &cairo.MatchedStack{
		Label: "fmir", Type: techno.NMOS,
		Devices: []stack.Device{
			{Name: MF3, Units: 2, DrainNet: NetFX, GateNet: NetFX},
			{Name: MF4, Units: 2, DrainNet: NetOut, GateNet: NetFX},
		},
		SourceNet: "gnd", BulkNet: "gnd",
		WidthPerBaseUnit: d.Devices[MF3].W / 2,
		L:                d.Devices[MF3].L,
		Currents:         map[string]float64{NetFX: d.Devices[MF3].ID, NetOut: d.Devices[MF4].ID},
		EndDummies:       true, Splits: []int{1, 2},
	}
	tail := &cairo.Transistor{
		Inst: MF5, Type: techno.PMOS,
		W: d.Devices[MF5].W, L: d.Devices[MF5].L,
		Style:    device.DrainInternal,
		DrainNet: NetTail, GateNet: NetVBP, SourceNet: NetVDD, BulkNet: NetVDD,
		IDrain: d.Itail, MaxFolds: 8, EvenOnly: true,
	}
	return &cairo.Design{
		Name:    "five-transistor-ota",
		Modules: []cairo.Module{pair, mir, tail},
		Tree: &cairo.Tree{
			Vertical: false, GapNM: chanW,
			Children: []*cairo.Tree{
				{Vertical: true, GapNM: chanW, Leaves: []string{"fmir"}},
				{Vertical: true, GapNM: chanW, Leaves: []string{"fpair", MF5}},
			},
		},
		Nets: []route.Net{
			{Name: NetFX, Current: d.Devices[MF1].ID},
			{Name: NetOut, Current: d.Devices[MF2].ID},
			{Name: NetTail, Current: d.Itail},
			{Name: NetInP}, {Name: NetInN}, {Name: NetVBP},
			{Name: NetVDD, Current: d.Itail},
			{Name: "gnd", Current: d.Itail},
		},
	}
}
