package sizing

import (
	"fmt"
	"math"

	"loas/internal/device"
	"loas/internal/obs"
	"loas/internal/techno"
)

// Device names follow the paper's Fig. 4.
const (
	MP1  = "MP1" // input pair +
	MP2  = "MP2" // input pair −
	MP5  = "MP5" // tail current source
	MP3  = "MP3" // top current source, mirror side
	MP4  = "MP4" // top current source, output side
	MP3C = "MP3C"
	MP4C = "MP4C"
	MN1C = "MN1C"
	MN2C = "MN2C"
	MN5  = "MN5" // bottom sink, mirror side
	MN6  = "MN6" // bottom sink, output side
)

// Net names of the folded-cascode OTA.
const (
	NetVDD  = "vdd"
	NetGND  = "0"
	NetInP  = "inp"
	NetInN  = "inn"
	NetTail = "tail"
	NetFN1  = "fn1" // fold node, mirror side
	NetFN2  = "fn2" // fold node, output side
	NetN3   = "n3"  // source of MP3C
	NetN4   = "n4"  // source of MP4C
	NetMO1  = "mo1" // mirror gate node (drain of MP3C)
	NetOut  = "out"
	NetVBP  = "vbp"
	NetVBN  = "vbn"
	NetVC1  = "vc1"
	NetVC3  = "vc3"
)

// DeviceSize is one sized transistor with its design-time bias estimate.
type DeviceSize struct {
	Type techno.MOSType
	W, L float64
	Veff float64
	ID   float64 // magnitude (A)
	VSB  float64 // assumed source-bulk reverse bias (V)
	Geom device.DiffGeom
}

// FoldedCascode is a fully sized design. Its bias rails are vbp, vbn,
// vc1 and vc3.
type FoldedCascode struct {
	ota

	Icasc float64
	Lc    float64 // non-input channel length from the PM iteration
	// PMAnalytic is the closed-form pole-counting phase margin at the
	// final sizing point — kept for the ablation against the simulated
	// evaluation the plan actually uses.
	PMAnalytic float64
	Iterations int
}

func init() {
	Register(Plan{
		Name:        "folded-cascode",
		Description: "folded-cascode OTA (paper Fig. 4): cascoded single stage, four bias voltages",
		Size: func(tech *techno.Tech, spec OTASpec, ps ParasiticState) (Design, error) {
			return SizeFoldedCascode(tech, spec, ps)
		},
		DefaultSpec: Default65MHz,
	})
}

// OperatingPoint snapshots the design point (Design).
func (d *FoldedCascode) OperatingPoint() OperatingPoint {
	return OperatingPoint{W1: d.Devices[MP1].W, Lc: d.Lc, Itail: d.Itail}
}

// HotNet is the mirror-side fold node — the net whose parasitics drive
// the GBW/PM feedback (Design).
func (d *FoldedCascode) HotNet() string { return NetFN1 }

// OffsetRefs returns the mismatch-critical devices for the analytic
// offset estimate: the input pair against the bottom sinks (Design).
func (d *FoldedCascode) OffsetRefs() (pair, load DeviceSize, gmRatio float64) {
	return d.Devices[MP1], d.Devices[MN5], 0.7
}

// plan bundles the working state of one sizing pass.
type plan struct {
	tech *techno.Tech
	spec OTASpec
	ps   ParasiticState

	l1, lc                   float64
	veff1, veffN, veffP, vtl float64
	ratio                    float64 // Icasc / Itail
	gbwBoost                 float64 // gm over-design vs the analytic load estimate

	d               *FoldedCascode
	iters           int
	lastGBW, lastPM float64   // from the simulated evaluation
	ev              evaluator // the pass's one engine and AC solver
}

// SizeFoldedCascode runs the design plan. The paper's procedure: fix
// operating points, estimate currents from GBW, size widths on the exact
// model, iterate non-input lengths for phase margin, re-estimate until
// the GBW loop converges.
func SizeFoldedCascode(tech *techno.Tech, spec OTASpec, ps ParasiticState) (*FoldedCascode, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if spec.GBW <= 0 || spec.CL <= 0 || spec.VDD <= 0 {
		return nil, fmt.Errorf("sizing: incomplete spec %+v", spec)
	}
	p := &plan{tech: tech, spec: spec, ps: ps}
	p.l1 = 1.0 * techno.Micron
	p.ratio = 0.55
	p.gbwBoost = 1.0

	// Operating points from the voltage-range specification (the
	// knowledge in the knowledge-based plan).
	p.veffP = clamp(0.9*(spec.VDD-spec.OutHigh)/2, 0.15, 0.6)
	p.veffN = clamp(0.9*spec.OutLow/2, 0.15, 0.6)
	p.vtl = 0.20 // tail overdrive
	// Input pair overdrive bounded by the upper common-mode limit.
	icmLimit := spec.VDD - spec.ICMHigh - p.vtl - tech.P.VT0 - 0.05
	p.veff1 = clamp(icmLimit, 0.12, 0.25)

	// Phase-margin iteration on the shared non-input channel length:
	// longer channels raise gain but load the internal nodes (C ∝ W·L
	// with W ∝ L at fixed current and overdrive), dropping the
	// non-dominant poles. Bisect for the target, prefer the longest
	// channel that still meets it.
	const lMin, lMax = 0.6 * techno.Micron, 4.0 * techno.Micron
	for {
		pmAtMin, err := p.pmAt(lMin)
		if err != nil {
			return nil, err
		}
		if pmAtMin >= spec.PM {
			break
		}
		// Even minimal lengths miss the target: raise the cascode
		// current for more pole-frequency headroom.
		p.ratio *= 1.3
		if p.ratio > 1.6 {
			return nil, fmt.Errorf("sizing: phase margin %0.1f° unreachable (best %0.1f°)",
				spec.PM, pmAtMin)
		}
	}
	pmAtMax, err := p.pmAt(lMax)
	if err != nil {
		return nil, err
	}
	lo, hi := lMin, lMax
	if pmAtMax >= spec.PM {
		lo = lMax // longest channel already meets PM
	} else {
		for i := 0; i < 14; i++ {
			mid := 0.5 * (lo + hi)
			pm, err := p.pmAt(mid)
			if err != nil {
				return nil, err
			}
			if pm >= spec.PM {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	if _, err := p.pmAt(lo); err != nil { // final sizing at the chosen length
		return nil, err
	}
	p.d.Lc = lo
	p.d.Iterations = p.iters
	p.d.PMAnalytic = p.analyticPhaseMargin()
	p.predict()
	sizingPasses.Inc()
	return p.d, nil
}

// sizingPasses counts completed passes of every design plan — the
// COMDIAC-side half of the loasd /metrics convergence picture.
var sizingPasses = obs.Default.Counter("loas_sizing_passes_total",
	"completed sizing passes (all design plans)")

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// pmAt sizes the amplifier for the GBW target at non-input length lc,
// corrects the transconductance until the *simulated* GBW meets the
// target, and returns the simulated phase margin.
func (p *plan) pmAt(lc float64) (float64, error) {
	p.lc = lc
	for k := 0; k < 5; k++ {
		if err := p.size(); err != nil {
			return 0, err
		}
		gbw, pm, err := p.d.evalGBWPM(&p.ev, p.d.AssumedNetlist("sizing-eval"))
		if err != nil {
			return 0, err
		}
		p.lastGBW, p.lastPM = gbw, pm
		rel := gbw / p.spec.GBW
		if rel > 0.99 && rel < 1.03 {
			break
		}
		p.gbwBoost = clamp(p.gbwBoost*p.spec.GBW/gbw, 0.3, 5)
	}
	return p.lastPM, nil
}

// size runs the inner GBW fixpoint: output load → gm1 → currents → widths
// → new output load, until the load stabilizes.
func (p *plan) size() error {
	tech := p.tech
	spec := p.spec
	cout := spec.CL
	var d *FoldedCascode
	for iter := 0; iter < 20; iter++ {
		p.iters++
		gm1 := 2 * math.Pi * spec.GBW * cout * p.gbwBoost
		w1, err := device.SizeForGm(&tech.P, p.l1, p.veff1, 0, gm1,
			tech.Temp, techno.NMToMeters(tech.Rules.ActiveWidth), 20000*techno.Micron)
		if err != nil {
			return fmt.Errorf("sizing: input pair: %w", err)
		}
		m1 := device.MOS{Card: &tech.P, W: w1, L: p.l1}
		id1 := m1.IDSat(p.veff1, 0, tech.Temp)
		itail := 2 * id1
		icasc := p.ratio * itail
		in5 := id1 + icasc

		vfn := p.veffN + 0.10
		vn3 := p.veffP + 0.10 // below VDD

		szFor := func(card *techno.MOSCard, l, veff, vsb, id float64) (float64, error) {
			return device.SizeForCurrent(card, l, veff, vsb, id, tech.Temp,
				techno.NMToMeters(tech.Rules.ActiveWidth), 20000*techno.Micron)
		}
		wn5, err := szFor(&tech.N, p.lc, p.veffN, 0, in5)
		if err != nil {
			return fmt.Errorf("sizing: MN5: %w", err)
		}
		wn1c, err := szFor(&tech.N, p.lc, p.veffN, vfn, icasc)
		if err != nil {
			return fmt.Errorf("sizing: MN1C: %w", err)
		}
		wp3, err := szFor(&tech.P, p.lc, p.veffP, 0, icasc)
		if err != nil {
			return fmt.Errorf("sizing: MP3: %w", err)
		}
		wp3c, err := szFor(&tech.P, p.lc, p.veffP, vn3, icasc)
		if err != nil {
			return fmt.Errorf("sizing: MP3C: %w", err)
		}
		wp5, err := szFor(&tech.P, p.lc, p.vtl, 0, itail)
		if err != nil {
			return fmt.Errorf("sizing: MP5: %w", err)
		}

		d = &FoldedCascode{ota: newOTA(tech, spec, p.ps, itail, 11, 10), Icasc: icasc, Lc: p.lc}
		d.add(MP1, techno.PMOS, w1, p.l1, p.veff1, id1, 0)
		d.add(MP2, techno.PMOS, w1, p.l1, p.veff1, id1, 0)
		d.add(MP5, techno.PMOS, wp5, p.lc, p.vtl, itail, 0)
		d.add(MP3, techno.PMOS, wp3, p.lc, p.veffP, icasc, 0)
		d.add(MP4, techno.PMOS, wp3, p.lc, p.veffP, icasc, 0)
		d.add(MP3C, techno.PMOS, wp3c, p.lc, p.veffP, icasc, vn3)
		d.add(MP4C, techno.PMOS, wp3c, p.lc, p.veffP, icasc, vn3)
		d.add(MN5, techno.NMOS, wn5, p.lc, p.veffN, in5, 0)
		d.add(MN6, techno.NMOS, wn5, p.lc, p.veffN, in5, 0)
		d.add(MN1C, techno.NMOS, wn1c, p.lc, p.veffN, icasc, vfn)
		d.add(MN2C, techno.NMOS, wn1c, p.lc, p.veffN, icasc, vfn)

		p.d = d
		p.estimateNodes()
		if d.Bias, err = d.BiasFor(tech); err != nil {
			return err
		}

		newCout := p.nodeCap(NetOut, spec.CL)
		if math.Abs(newCout-cout) < 0.002*cout {
			cout = newCout
			break
		}
		cout = newCout
	}
	return nil
}

// estimateNodes fills the design-time DC node voltage estimates (also the
// simulator's NodeSet seed).
func (p *plan) estimateNodes() {
	d := p.d
	spec := p.spec
	vcm := 0.5 * (spec.ICMLow + spec.ICMHigh)
	if vcm < 0.3 {
		vcm = 0.3
	}
	vfn := p.veffN + 0.10
	d.NodeEst[NetVDD] = spec.VDD
	d.NodeEst[NetInP] = vcm
	d.NodeEst[NetInN] = vcm
	d.NodeEst[NetTail] = vcm + p.tech.P.VT0 + p.veff1
	d.NodeEst[NetFN1] = vfn
	d.NodeEst[NetFN2] = vfn
	d.NodeEst[NetN3] = spec.VDD - (p.veffP + 0.10)
	d.NodeEst[NetN4] = spec.VDD - (p.veffP + 0.10)
	d.NodeEst[NetMO1] = spec.VDD - (p.tech.P.VT0 + p.veffP)
	d.NodeEst[NetOut] = 0.5 * (spec.OutLow + spec.OutHigh)
}

// evalDev evaluates a sized device at its design-time bias estimate,
// returning the operating point and capacitances.
func (p *plan) evalDev(name string) (device.OP, device.CapSet) {
	ds := p.d.Devices[name]
	card := &p.tech.N
	if ds.Type == techno.PMOS {
		card = &p.tech.P
	}
	m := device.MOS{Card: card, W: ds.W, L: ds.L, Geom: ds.Geom}
	// Synthetic saturated bias consistent with the estimates: VDS one
	// overdrive plus margin, VSB per the table.
	sign := card.VTSign()
	vs := 0.0
	vb := 0.0
	if ds.VSB > 0 {
		vs = sign * ds.VSB
	}
	vgs, err := m.VGSForCurrent(ds.ID, ds.Veff+0.2, ds.VSB, p.tech.Temp)
	if err != nil {
		vgs = card.VT0 + ds.Veff
	}
	vg := vs + sign*vgs
	vd := vs + sign*(ds.Veff+0.2)
	op := m.Eval(vg, vd, vs, vb, p.tech.Temp)
	return op, m.Caps(op, p.tech.Temp)
}

// nodeCap estimates the total small-signal capacitance on a net under the
// current parasitic state.
func (p *plan) nodeCap(net string, external float64) float64 {
	c := external + p.ps.wiringCap(net)
	switch net {
	case NetOut:
		_, c2 := p.evalDev(MN2C)
		_, c4 := p.evalDev(MP4C)
		c += c2.CDB + c2.CGD + c4.CDB + c4.CGD
	case NetFN1, NetFN2:
		_, cp := p.evalDev(MP1)
		_, cn := p.evalDev(MN5)
		_, cc := p.evalDev(MN1C)
		c += cp.CDB + cp.CGD + cn.CDB + cn.CGD + cc.CGS + cc.CSB
	case NetMO1:
		_, c3c := p.evalDev(MP3C)
		_, c3 := p.evalDev(MP3)
		_, cn := p.evalDev(MN1C)
		c += c3c.CDB + c3c.CGD + 2*(c3.CGS+c3.CGB) + cn.CDB + cn.CGD
	case NetN3, NetN4:
		_, c3 := p.evalDev(MP3)
		_, cc := p.evalDev(MP3C)
		c += c3.CDB + c3.CGD + cc.CGS + cc.CSB
	}
	return c
}

// analyticPhaseMargin evaluates the closed-form pole-counting phase
// margin — kept for the ablation study against the simulated evaluation
// (pole counting is pessimistic: it ignores the mirror pole-zero doublet).
func (p *plan) analyticPhaseMargin() float64 {
	gbw := p.achievedGBW()
	pm := 90.0
	for _, pole := range p.nonDominantPoles() {
		pm -= math.Atan(gbw/pole) * 180 / math.Pi
	}
	return pm
}

// nonDominantPoles returns the fold-node, mirror-node and cascode-source
// pole frequencies (Hz).
func (p *plan) nonDominantPoles() []float64 {
	opN, _ := p.evalDev(MN1C)
	opP3, _ := p.evalDev(MP3)
	opP3C, _ := p.evalDev(MP3C)
	cfn := p.nodeCap(NetFN1, 0)
	cmo := p.nodeCap(NetMO1, 0)
	cn3 := p.nodeCap(NetN3, 0)
	return []float64{
		(opN.Gm + opN.Gmb) / (2 * math.Pi * cfn),
		opP3.Gm / (2 * math.Pi * cmo),
		(opP3C.Gm + opP3C.Gmb) / (2 * math.Pi * cn3),
	}
}

// achievedGBW is gm1 over the sized output load.
func (p *plan) achievedGBW() float64 {
	op1, _ := p.evalDev(MP1)
	return op1.Gm / (2 * math.Pi * p.nodeCap(NetOut, p.spec.CL))
}

// predict fills the Performance block from the design-plan equations.
func (p *plan) predict() {
	d := p.d
	op1, _ := p.evalDev(MP1)
	opN2C, _ := p.evalDev(MN2C)
	opN6, _ := p.evalDev(MN5)
	opP4, _ := p.evalDev(MP3)
	opP4C, _ := p.evalDev(MP3C)
	opT, _ := p.evalDev(MP5)

	cout := p.nodeCap(NetOut, p.spec.CL)
	gm1 := op1.Gm

	// Output resistance: cascoded NMOS branch || cascoded PMOS branch.
	roN := 1 / opN2C.Gds
	roSink := 1 / opN6.Gds
	roPair := 1 / op1.Gds
	rDown := (opN2C.Gm + opN2C.Gmb) * roN * parallel(roSink, roPair)
	roP := 1 / opP4C.Gds
	rUp := (opP4C.Gm + opP4C.Gmb) * roP / opP4.Gds
	rout := parallel(rDown, rUp)

	d.Predicted.DCGainDB = DB(gm1 * rout)
	d.Predicted.GBW = p.lastGBW
	d.Predicted.PhaseDeg = p.lastPM
	d.Predicted.Rout = rout
	d.Predicted.SlewRate = math.Min(d.Itail, 2*d.Icasc) / cout
	d.Predicted.Offset = 0
	d.Predicted.Power = p.spec.VDD * (d.Itail + 2*d.Icasc)

	// CMRR: tail rejection times cascode-mirror balance.
	cmrr := 2 * op1.Gm / opT.Gds * (opP4.Gm / opP4.Gds) / 2
	d.Predicted.CMRRDB = DB(cmrr)

	// Noise: input pair, bottom sinks and top sources dominate.
	kT4 := 4 * techno.KBoltzmann * p.tech.Temp
	gammaN, gammaP := p.tech.N.NoiseGamma, p.tech.P.NoiseGamma
	svTh := 2 * kT4 / (gm1 * gm1) *
		(gammaP*gm1 + gammaN*opN6.Gm + gammaP*opP4.Gm)
	d.Predicted.NoiseTh = math.Sqrt(svTh)

	leffIn := d.Devices[MP1].L - 2*p.tech.P.LD
	leffC := p.lc - 2*p.tech.N.LD
	cox := p.tech.N.Cox
	fl := 2 / (gm1 * gm1) * (p.tech.P.KF*d.Devices[MP1].ID/(cox*leffIn*leffIn) +
		p.tech.N.KF*d.Devices[MN5].ID/(cox*leffC*leffC)*1 +
		p.tech.P.KF*d.Devices[MP3].ID/(cox*leffC*leffC))
	d.Predicted.NoiseFl1 = math.Sqrt(fl)

	// Integrated input noise, 1 Hz … GBW: white × π/2·GBW plus 1/f × ln.
	gbw := d.Predicted.GBW
	total := svTh*(math.Pi/2)*gbw + fl*math.Log(gbw)
	d.Predicted.NoiseRMS = math.Sqrt(total)
}

func parallel(a, b float64) float64 { return a * b / (a + b) }
