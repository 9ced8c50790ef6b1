package sizing

import (
	"slices"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/techno"
)

// ota is the state and behaviour every sized OTA shares, whatever its
// topology. Each design embeds it and adds only its plan, netlist and
// layout — the hierarchy the paper credits with making new topologies
// cheap to add.
type ota struct {
	Tech *techno.Tech
	Spec OTASpec
	Par  ParasiticState

	Devices map[string]DeviceSize
	// Bias holds the bias rails, keyed by net. The netlist drives each
	// rail from one voltage source whose Pos is that net, which is how
	// corner verification finds the sources to retune.
	Bias      map[string]float64
	NodeEst   map[string]float64 // estimated DC node voltages
	Itail     float64
	Predicted Performance
}

// newOTA starts a design with empty device and node tables; the plan
// fills them and sets Bias.
func newOTA(tech *techno.Tech, spec OTASpec, ps ParasiticState, itail float64) ota {
	return ota{Tech: tech, Spec: spec, Par: ps, Itail: itail,
		Devices: map[string]DeviceSize{}, NodeEst: map[string]float64{}}
}

// PredictedPerf exposes the plan's performance prediction (Design).
func (d *ota) PredictedPerf() Performance { return d.Predicted }

// DeviceTable exposes the sized devices (Design).
func (d *ota) DeviceTable() map[string]DeviceSize { return d.Devices }

// NodeSet seeds the simulator with the design-time node estimates and
// every bias rail (Design).
func (d *ota) NodeSet() map[string]float64 {
	ns := make(map[string]float64, len(d.NodeEst)+len(d.Bias))
	for k, v := range d.NodeEst {
		ns[k] = v
	}
	for k, v := range d.Bias {
		ns[k] = v
	}
	return ns
}

// ACGroundNets lists the supplies, ground and the bias rails, whose
// wiring capacitance lands on AC ground (Design).
func (d *ota) ACGroundNets() []string {
	nets := append(make([]string, 0, 3+len(d.Bias)), NetVDD, "gnd", circuit.Ground)
	for net := range d.Bias {
		nets = append(nets, net)
	}
	slices.Sort(nets[3:])
	return nets
}

// add records a sized device with the junction geometry the parasitic
// state assumes for it.
func (d *ota) add(name string, t techno.MOSType, w, l, veff, id, vsb float64) {
	d.Devices[name] = DeviceSize{Type: t, W: w, L: l, Veff: veff, ID: id, VSB: vsb,
		Geom: d.Par.deviceGeom(d.Tech, name, w)}
}

// mos stamps the sized device inst onto its drain, gate, source and bulk
// nets.
func (d *ota) mos(inst, dn, g, s, b string) *circuit.MOSFET {
	ds := d.Devices[inst]
	return &circuit.MOSFET{Name: inst, D: dn, G: g, S: s, B: b,
		Dev: device.MOS{Card: d.Tech.Card(ds.Type), W: ds.W, L: ds.L, Geom: ds.Geom}}
}

// assumed adds the sizing-time routing assumption to ckt: when routing
// awareness is on, the last layout report's wiring, coupling and well
// capacitance lumped onto each of the topology's signal nets.
func (d *ota) assumed(ckt *circuit.Circuit, signalNets ...string) *circuit.Circuit {
	if d.Par.Routing && d.Par.Report != nil {
		for _, net := range signalNets {
			if c := d.Par.wiringCap(net); c > 0 {
				ckt.Add(&circuit.Capacitor{Name: "asm_" + net, A: net, B: circuit.Ground, C: c})
			}
		}
	}
	return ckt
}

// tailBias is the vbp that makes the PMOS tail device carry its sized
// current on tech, with its drain at the estimated tail node.
func (d *ota) tailBias(tech *techno.Tech, tail string) (float64, error) {
	t := d.Devices[tail]
	m := device.MOS{Card: &tech.P, W: t.W, L: t.L}
	vgs, err := m.VGSForCurrent(t.ID, d.Spec.VDD-d.NodeEst[NetTail], 0, tech.Temp)
	if err != nil {
		return 0, err
	}
	return d.Spec.VDD - vgs, nil
}

// evalGBWPM is the plans' small-signal evaluation of a sizing point. It
// drives ckt, an evaluation copy of the assumed netlist, with a
// differential AC input at the estimated common mode, loads it with the
// specified CL, and locates the unity-gain frequency and phase margin
// from a DC operating point and an AC sweep. This replaces closed-form
// pole counting — the plans evaluate performance on the exact same
// engine and models the verification uses, which is the paper's stated
// accuracy recipe taken to its conclusion.
func (d *ota) evalGBWPM(ckt *circuit.Circuit) (gbw, pm float64, err error) {
	vcm := d.NodeEst[NetInP]
	ckt.Add(
		&circuit.VSource{Name: "szp", Pos: NetInP, Neg: circuit.Ground, DC: vcm, ACMag: 0.5},
		&circuit.VSource{Name: "szn", Pos: NetInN, Neg: circuit.Ground, DC: vcm, ACMag: 0.5, ACPhase: 180},
		&circuit.Capacitor{Name: "szload", A: NetOut, B: circuit.Ground, C: d.Spec.CL},
	)
	return EvalGBWPM(d.Tech, ckt, NetOut, d.NodeSet())
}
