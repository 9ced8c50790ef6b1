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

// Two-stage Miller OTA device and net names. The second topology of the
// tool demonstrates the paper's claim that "the use of hierarchy
// simplifies the addition of new topologies": the layout building blocks
// (pair, mirror, single transistors) and, through the embedded base, the
// design state, simulated evaluation, simulator seeds and tail bias carry
// over; only the plan, netlist and layout differ.
const (
	MT1 = "MT1" // input pair +
	MT2 = "MT2" // input pair −
	MT3 = "MT3" // mirror load, diode side
	MT4 = "MT4" // mirror load, output side
	MT5 = "MT5" // tail
	MT6 = "MT6" // second-stage common source
	MT7 = "MT7" // second-stage current source

	NetX1 = "x1" // first-stage diode node
	NetX2 = "x2" // first-stage output / second-stage gate
	NetCZ = "cz" // between the Miller cap and the nulling resistor
)

func init() {
	Register(Plan{
		Name:        "two-stage",
		Description: "two-stage Miller-compensated OTA: mirror-loaded pair, common-source second stage, nulling resistor",
		Size: func(tech *techno.Tech, spec OTASpec, ps ParasiticState) (Design, error) {
			return SizeTwoStage(tech, spec, ps)
		},
		DefaultSpec: DefaultTwoStageSpec,
	})
}

// DefaultTwoStageSpec is the reference specification the two-stage plan
// is tuned for (the paper's 65 MHz folded-cascode target is out of its
// reach at 3 pF).
func DefaultTwoStageSpec() OTASpec {
	return OTASpec{
		VDD: 3.3, GBW: 20e6, PM: 65, CL: 5e-12,
		ICMLow: 0.4, ICMHigh: 1.8,
		OutLow: 0.4, OutHigh: 2.9,
	}
}

// TwoStage is a sized two-stage Miller-compensated OTA. Its one bias
// rail is the tail and second-stage source gate, vbp.
type TwoStage struct {
	ota

	I6     float64
	CC, RZ float64
}

// SizeTwoStage runs the two-stage design plan: the Miller capacitor sets
// gm1 from the GBW target, the second-stage transconductance is iterated
// until the simulated phase margin meets the specification (the output
// pole gm6/CL is the PM knob), and a nulling resistor 1/gm6 cancels the
// right-half-plane zero.
func SizeTwoStage(tech *techno.Tech, spec OTASpec, ps ParasiticState) (*TwoStage, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if spec.GBW <= 0 || spec.CL <= 0 || spec.VDD <= 0 {
		return nil, fmt.Errorf("sizing: incomplete spec %+v", spec)
	}

	l := 1.0 * techno.Micron
	veff1 := clamp(spec.VDD-spec.ICMHigh-0.2-tech.P.VT0-0.05, 0.12, 0.25)
	veff3 := 0.22
	veff6 := clamp(0.9*spec.OutLow, 0.15, 0.4)
	veff7 := clamp(0.9*(spec.VDD-spec.OutHigh), 0.15, 0.6)
	vtl := 0.20

	cc := spec.CL / 4
	if cc < 0.5e-12 {
		cc = 0.5e-12
	}
	boost := 1.0
	k6 := 2.6 // gm6 ≈ k6·2π·GBW·CL

	var d *TwoStage
	wmax := 20000 * techno.Micron
	wmin := techno.NMToMeters(tech.Rules.ActiveWidth)

	build := func() error {
		gm1 := 2 * math.Pi * spec.GBW * cc * boost
		w1, err := device.SizeForGm(&tech.P, l, veff1, 0, gm1, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: two-stage input pair: %w", err)
		}
		m1 := device.MOS{Card: &tech.P, W: w1, L: l}
		id1 := m1.IDSat(veff1, 0, tech.Temp)
		itail := 2 * id1

		gm6 := k6 * 2 * math.Pi * spec.GBW * spec.CL
		w6, err := device.SizeForGm(&tech.N, l, veff6, 0, gm6, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: MT6: %w", err)
		}
		m6 := device.MOS{Card: &tech.N, W: w6, L: l}
		i6 := m6.IDSat(veff6, 0, tech.Temp)

		w3, err := device.SizeForCurrent(&tech.N, l, veff3, 0, id1, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: MT3: %w", err)
		}
		w5, err := device.SizeForCurrent(&tech.P, l, vtl, 0, itail, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: MT5: %w", err)
		}
		w7, err := device.SizeForCurrent(&tech.P, l, veff7, 0, i6, tech.Temp, wmin, wmax)
		if err != nil {
			return fmt.Errorf("sizing: MT7: %w", err)
		}

		d = &TwoStage{ota: newOTA(tech, spec, ps, itail, 7, 8), I6: i6, CC: cc, RZ: 1 / gm6}
		d.add(MT1, techno.PMOS, w1, l, veff1, id1, 0)
		d.add(MT2, techno.PMOS, w1, l, veff1, id1, 0)
		d.add(MT3, techno.NMOS, w3, l, veff3, id1, 0)
		d.add(MT4, techno.NMOS, w3, l, veff3, id1, 0)
		d.add(MT5, techno.PMOS, w5, l, vtl, itail, 0)
		d.add(MT6, techno.NMOS, w6, l, veff6, i6, 0)
		d.add(MT7, techno.PMOS, w7, l, veff7, i6, 0)

		vcm := 0.5 * (spec.ICMLow + spec.ICMHigh)
		if vcm < 0.3 {
			vcm = 0.3
		}
		mn3 := device.MOS{Card: &tech.N, W: w3, L: l}
		vgs3, err := mn3.VGSForCurrent(id1, 0.9, 0, tech.Temp)
		if err != nil {
			return fmt.Errorf("sizing: x1 estimate: %w", err)
		}
		d.NodeEst[NetVDD] = spec.VDD
		d.NodeEst[NetInP], d.NodeEst[NetInN] = vcm, vcm
		d.NodeEst[NetTail] = vcm + tech.P.VT0 + veff1
		d.NodeEst[NetX1] = vgs3
		d.NodeEst[NetX2] = tech.N.VT0 + veff6
		d.NodeEst[NetOut] = 0.5 * (spec.OutLow + spec.OutHigh)
		d.NodeEst[NetCZ] = d.NodeEst[NetOut]

		vbp, err := d.tailBias(tech, MT5)
		if err != nil {
			return fmt.Errorf("sizing: vbp: %w", err)
		}
		d.Bias = map[string]float64{NetVBP: vbp}
		return nil
	}

	var gbw, pm float64
	var ev evaluator // the pass's one engine and AC solver
	for iter := 0; iter < 25; iter++ {
		if err := build(); err != nil {
			return nil, err
		}
		// The assumed netlist folds the last layout report's wiring
		// capacitance into the evaluation, so under routing awareness
		// (case 4) the plan reacts to its own layout — the same feedback
		// the folded-cascode plan gets.
		var err error
		gbw, pm, err = d.evalGBWPM(&ev, d.AssumedNetlist("ts-eval"))
		if err != nil {
			return nil, err
		}
		gbwOK := gbw > 0.99*spec.GBW && gbw < 1.04*spec.GBW
		pmOK := pm >= spec.PM && pm < spec.PM+10
		if gbwOK && pmOK {
			break
		}
		if !gbwOK {
			boost = clamp(boost*spec.GBW/gbw, 0.3, 5)
		}
		if pm < spec.PM {
			k6 *= 1.25
			if k6 > 14 {
				return nil, fmt.Errorf("sizing: two-stage PM %0.1f° unreachable", pm)
			}
		} else if pm > spec.PM+10 {
			k6 /= 1.1
		}
	}
	if gbw < 0.97*spec.GBW || pm < spec.PM-1 {
		return nil, fmt.Errorf("sizing: two-stage did not converge (GBW %.1f MHz, PM %.1f°)",
			gbw/1e6, pm)
	}

	d.Predicted.GBW = gbw
	d.Predicted.PhaseDeg = pm
	d.Predicted.Power = spec.VDD * (d.Itail + d.I6)
	d.Predicted.SlewRate = math.Min(d.Itail/d.CC, d.I6/spec.CL)
	// Gain: both stages on the analytic small-signal parameters.
	op1 := evalAt(tech, d.Devices[MT1])
	op4 := evalAt(tech, d.Devices[MT4])
	op6 := evalAt(tech, d.Devices[MT6])
	op7 := evalAt(tech, d.Devices[MT7])
	a1 := op1.Gm / (op1.Gds + op4.Gds)
	a2 := op6.Gm / (op6.Gds + op7.Gds)
	d.Predicted.DCGainDB = DB(a1 * a2)
	sizingPasses.Inc()
	return d, nil
}

// evalAt evaluates a sized device at a representative saturated bias.
func evalAt(tech *techno.Tech, ds DeviceSize) device.OP {
	card := &tech.N
	if ds.Type == techno.PMOS {
		card = &tech.P
	}
	m := device.MOS{Card: card, W: ds.W, L: ds.L, Geom: ds.Geom}
	sign := card.VTSign()
	vgs, err := m.VGSForCurrent(ds.ID, ds.Veff+0.3, 0, tech.Temp)
	if err != nil {
		vgs = card.VT0 + ds.Veff
	}
	return m.Eval(sign*vgs, sign*(ds.Veff+0.3), 0, 0, tech.Temp)
}

// Netlist builds the two-stage OTA with its Miller network.
func (d *TwoStage) Netlist(name string) *circuit.Circuit {
	c := circuit.New(name)
	c.Add(
		&circuit.VSource{Name: "dd", Pos: NetVDD, Neg: NetGND, DC: d.Spec.VDD},
		&circuit.VSource{Name: "bp", Pos: NetVBP, Neg: NetGND, DC: d.Bias[NetVBP]},

		// MT2 (the x2 side) is the non-inverting input: two signal
		// inversions from inp to out.
		d.mos(MT1, NetX1, NetInN, NetTail, NetVDD),
		d.mos(MT2, NetX2, NetInP, NetTail, NetVDD),
		d.mos(MT3, NetX1, NetX1, NetGND, NetGND),
		d.mos(MT4, NetX2, NetX1, NetGND, NetGND),
		d.mos(MT5, NetTail, NetVBP, NetVDD, NetVDD),
		d.mos(MT6, NetOut, NetX2, NetGND, NetGND),
		d.mos(MT7, NetOut, NetVBP, NetVDD, NetVDD),

		&circuit.Resistor{Name: "z", A: NetOut, B: NetCZ, R: d.RZ},
		&circuit.Capacitor{Name: "c", A: NetCZ, B: NetX2, C: d.CC},
	)
	return c
}

// AssumedNetlist is Netlist plus the sizing-time routing assumption:
// when routing awareness is on, the last layout report's wiring/
// coupling/well capacitance is lumped onto each net whose wiring
// capacitance matters to the small-signal behaviour (Design).
func (d *TwoStage) AssumedNetlist(name string) *circuit.Circuit {
	return d.assumed(d.Netlist(name), NetOut, NetX1, NetX2, NetCZ, NetTail, NetInP, NetInN)
}

// OperatingPoint snapshots the design point (Design). The "non-input
// length" slot reports the second-stage device length — the plan keeps
// every channel at its fixed L and tunes gm6 instead.
func (d *TwoStage) OperatingPoint() OperatingPoint {
	return OperatingPoint{W1: d.Devices[MT1].W, Lc: d.Devices[MT6].L, Itail: d.Itail}
}

// HotNet is the first-stage output / second-stage gate — the node the
// Miller network pivots on (Design).
func (d *TwoStage) HotNet() string { return NetX2 }

// BiasFor recomputes the single bias voltage on an alternate technology
// (a process corner) for the same tail device (Design).
func (d *TwoStage) BiasFor(tech *techno.Tech) (map[string]float64, error) {
	vbp, err := d.tailBias(tech, MT5)
	if err != nil {
		return nil, fmt.Errorf("sizing: two-stage corner vbp: %w", err)
	}
	return map[string]float64{NetVBP: vbp}, nil
}

// OffsetRefs returns the input pair against the mirror load; the gm
// ratio follows from the fixed overdrives (gm = 2·ID/Veff at equal
// currents) (Design).
func (d *TwoStage) OffsetRefs() (pair, load DeviceSize, gmRatio float64) {
	pair, load = d.Devices[MT1], d.Devices[MT3]
	gmRatio = pair.Veff / load.Veff
	return pair, load, gmRatio
}

// Layout builds the CAIRO design: pair and mirror stacks, three single
// transistors, the Miller capacitor and the nulling resistor.
func (d *TwoStage) Layout() *cairo.Design {
	chanW := int64(6000)
	tr := func(inst, dn, g, s, b string) *cairo.Transistor {
		ds := d.Devices[inst]
		return &cairo.Transistor{
			Inst: inst, Type: ds.Type, W: ds.W, L: ds.L,
			Style:    device.DrainInternal,
			DrainNet: dn, GateNet: g, SourceNet: s, BulkNet: b,
			IDrain:   ds.ID,
			MaxFolds: 10, EvenOnly: true,
		}
	}
	pair := &cairo.MatchedStack{
		Label: "tpair", Type: techno.PMOS,
		Devices: []stack.Device{
			{Name: MT1, Units: 2, DrainNet: NetX1, GateNet: NetInN},
			{Name: MT2, Units: 2, DrainNet: NetX2, GateNet: NetInP},
		},
		SourceNet: NetTail, BulkNet: NetVDD,
		WidthPerBaseUnit: d.Devices[MT1].W / 2,
		L:                d.Devices[MT1].L,
		Currents: map[string]float64{
			NetX1: d.Devices[MT1].ID, NetX2: d.Devices[MT2].ID,
		},
		EndDummies: true, Splits: []int{1, 2, 3},
	}
	mir := &cairo.MatchedStack{
		Label: "tmir", Type: techno.NMOS,
		Devices: []stack.Device{
			{Name: MT3, Units: 2, DrainNet: NetX1, GateNet: NetX1},
			{Name: MT4, Units: 2, DrainNet: NetX2, GateNet: NetX1},
		},
		SourceNet: "gnd", BulkNet: "gnd",
		WidthPerBaseUnit: d.Devices[MT3].W / 2,
		L:                d.Devices[MT3].L,
		Currents: map[string]float64{
			NetX1: d.Devices[MT3].ID, NetX2: d.Devices[MT4].ID,
		},
		EndDummies: true, Splits: []int{1, 2, 3},
	}

	return &cairo.Design{
		Name: "two-stage-miller-ota",
		Modules: []cairo.Module{
			pair, mir,
			tr(MT5, NetTail, NetVBP, NetVDD, NetVDD),
			tr(MT6, NetOut, NetX2, "gnd", "gnd"),
			tr(MT7, NetOut, NetVBP, NetVDD, NetVDD),
			&cairo.CapModule{Inst: "CC", C: d.CC, TopNet: NetX2, BottomNet: NetCZ},
			&cairo.ResistorModule{Inst: "RZ", R: d.RZ, ANet: NetOut, BNet: NetCZ},
		},
		Tree: &cairo.Tree{
			Vertical: false,
			GapNM:    chanW,
			Children: []*cairo.Tree{
				{Vertical: true, GapNM: chanW, Leaves: []string{"tmir", MT6}},
				{Vertical: true, GapNM: chanW, Leaves: []string{"tpair", MT5}},
				{Vertical: true, GapNM: chanW, Leaves: []string{MT7, "CC", "RZ"}},
			},
		},
		Nets: []route.Net{
			{Name: NetX1, Current: d.Devices[MT1].ID},
			{Name: NetX2, Current: d.Devices[MT2].ID},
			{Name: NetOut, Current: d.I6},
			{Name: NetTail, Current: d.Itail},
			{Name: NetCZ},
			{Name: NetInP}, {Name: NetInN}, {Name: NetVBP},
			{Name: NetVDD, Current: d.Itail + d.I6},
			{Name: "gnd", Current: d.Itail + d.I6},
		},
	}
}
