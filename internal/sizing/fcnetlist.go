package sizing

import (
	"loas/internal/circuit"
	"loas/internal/layout/cairo"
	"loas/internal/layout/route"
	"loas/internal/layout/stack"
	"loas/internal/techno"
)

// Netlist builds the sized OTA as a circuit: the eleven transistors of
// Fig. 4, the supply and the four computed bias voltages. Input nets
// (inp, inn) and the output are left for the testbench to drive/load.
// Device junction geometries carry the sizing-time assumption; the
// extractor overwrites them for the extracted netlist.
func (d *FoldedCascode) Netlist(name string) *circuit.Circuit {
	c := circuit.New(name)
	c.Add(
		&circuit.VSource{Name: "dd", Pos: NetVDD, Neg: NetGND, DC: d.Spec.VDD},
		&circuit.VSource{Name: "bp", Pos: NetVBP, Neg: NetGND, DC: d.Bias[NetVBP]},
		&circuit.VSource{Name: "bn", Pos: NetVBN, Neg: NetGND, DC: d.Bias[NetVBN]},
		&circuit.VSource{Name: "c1", Pos: NetVC1, Neg: NetGND, DC: d.Bias[NetVC1]},
		&circuit.VSource{Name: "c3", Pos: NetVC3, Neg: NetGND, DC: d.Bias[NetVC3]},

		// Input pair in a source-tied well (bulk = tail).
		d.mos(MP1, NetFN1, NetInP, NetTail, NetTail),
		d.mos(MP2, NetFN2, NetInN, NetTail, NetTail),
		d.mos(MP5, NetTail, NetVBP, NetVDD, NetVDD),

		// Top PMOS cascode current mirror.
		d.mos(MP3, NetN3, NetMO1, NetVDD, NetVDD),
		d.mos(MP4, NetN4, NetMO1, NetVDD, NetVDD),
		d.mos(MP3C, NetMO1, NetVC3, NetN3, NetVDD),
		d.mos(MP4C, NetOut, NetVC3, NetN4, NetVDD),

		// NMOS cascodes and bottom sinks.
		d.mos(MN1C, NetMO1, NetVC1, NetFN1, NetGND),
		d.mos(MN2C, NetOut, NetVC1, NetFN2, NetGND),
		d.mos(MN5, NetFN1, NetVBN, NetGND, NetGND),
		d.mos(MN6, NetFN2, NetVBN, NetGND, NetGND),
	)
	return c
}

// Layout builds the CAIRO design for the sized OTA: matched stacks for
// the input pair, the top sources and the bottom sinks; single folded
// transistors for the cascodes and the tail; slicing rows bottom-up
// (sinks, N cascodes, P cascodes, sources, pair+tail); and the signal and
// bias nets with their DC currents for reliability-driven routing.
//
// Frequency-critical drains (out, fold and mirror nodes) use the
// drain-internal even-fold style of Fig. 2 case (a).
func (d *FoldedCascode) Layout() *cairo.Design {
	chan6 := int64(6 * 1000) // 6 µm routing channel, in nm

	tr := func(inst, dn, g, s, b string) *cairo.Transistor {
		ds := d.Devices[inst]
		return &cairo.Transistor{
			Inst: inst, Type: ds.Type, W: ds.W, L: ds.L,
			DrainNet: dn, GateNet: g, SourceNet: s, BulkNet: b,
			IDrain: ds.ID, MaxFolds: 10,
		}
	}

	pairUnits := 2
	pair := &cairo.MatchedStack{
		Label: "pair", Type: techno.PMOS,
		Devices: []stack.Device{
			{Name: MP1, Units: pairUnits, DrainNet: NetFN1, GateNet: NetInP},
			{Name: MP2, Units: pairUnits, DrainNet: NetFN2, GateNet: NetInN},
		},
		SourceNet: NetTail, BulkNet: NetTail, WellNet: NetTail,
		WidthPerBaseUnit: d.Devices[MP1].W / float64(pairUnits),
		L:                d.Devices[MP1].L,
		Currents: map[string]float64{
			NetFN1: d.Devices[MP1].ID, NetFN2: d.Devices[MP2].ID,
		},
		Splits: []int{1, 2, 3},
	}
	pmir := &cairo.MatchedStack{
		Label: "pmir", Type: techno.PMOS,
		Devices: []stack.Device{
			{Name: MP3, Units: 2, DrainNet: NetN3, GateNet: NetMO1},
			{Name: MP4, Units: 2, DrainNet: NetN4, GateNet: NetMO1},
		},
		SourceNet: NetVDD, BulkNet: NetVDD,
		WidthPerBaseUnit: d.Devices[MP3].W / 2,
		L:                d.Devices[MP3].L,
		Currents: map[string]float64{
			NetN3: d.Devices[MP3].ID, NetN4: d.Devices[MP4].ID,
		},
		Splits: []int{1, 2, 3},
	}
	nsink := &cairo.MatchedStack{
		Label: "nsink", Type: techno.NMOS,
		Devices: []stack.Device{
			{Name: MN5, Units: 2, DrainNet: NetFN1, GateNet: NetVBN},
			{Name: MN6, Units: 2, DrainNet: NetFN2, GateNet: NetVBN},
		},
		SourceNet: "gnd", BulkNet: "gnd",
		WidthPerBaseUnit: d.Devices[MN5].W / 2,
		L:                d.Devices[MN5].L,
		Currents: map[string]float64{
			NetFN1: d.Devices[MN5].ID, NetFN2: d.Devices[MN6].ID,
		},
		Splits: []int{1, 2, 3},
	}

	des := &cairo.Design{
		Name: "folded-cascode-ota",
		Modules: []cairo.Module{
			pair, pmir, nsink,
			tr(MP5, NetTail, NetVBP, NetVDD, NetVDD),
			tr(MP3C, NetMO1, NetVC3, NetN3, NetVDD),
			tr(MP4C, NetOut, NetVC3, NetN4, NetVDD),
			tr(MN1C, NetMO1, NetVC1, NetFN1, "gnd"),
			tr(MN2C, NetOut, NetVC1, NetFN2, "gnd"),
		},
		Tree: &cairo.Tree{ // rows bottom-up, separated by routing channels
			Vertical: false,
			GapNM:    chan6,
			Children: []*cairo.Tree{
				{Vertical: true, GapNM: chan6, Leaves: []string{"nsink"}},
				{Vertical: true, GapNM: chan6, Leaves: []string{MN1C, MN2C}},
				{Vertical: true, GapNM: chan6, Leaves: []string{MP3C, MP4C}},
				{Vertical: true, GapNM: chan6, Leaves: []string{"pmir"}},
				{Vertical: true, GapNM: chan6, Leaves: []string{"pair", MP5}},
			},
		},
		Nets: []route.Net{
			{Name: NetFN1, Current: d.Devices[MN5].ID},
			{Name: NetFN2, Current: d.Devices[MN6].ID},
			{Name: NetMO1, Current: d.Icasc},
			{Name: NetN3, Current: d.Icasc},
			{Name: NetN4, Current: d.Icasc},
			{Name: NetOut, Current: d.Icasc},
			{Name: NetTail, Current: d.Itail},
			{Name: NetInP}, {Name: NetInN},
			{Name: NetVBP}, {Name: NetVBN}, {Name: NetVC1}, {Name: NetVC3},
			{Name: NetVDD, Current: d.Itail + 2*d.Icasc},
			{Name: "gnd", Current: d.Itail + 2*d.Icasc},
		},
	}
	return des
}
