// Package circuit holds the netlist representation shared by the sizing
// tool, the layout generators and the simulator: named nodes, passive
// elements, independent sources and MOS instances. It deliberately looks
// like a SPICE deck turned into data; Export writes one back out.
package circuit

import (
	"fmt"
	"sort"
	"strings"

	"loas/internal/device"
)

// Ground is the reference node name; "gnd" is accepted as an alias.
const Ground = "0"

// Element is anything that can live in a netlist.
type Element interface {
	// ElemName returns the instance name (unique within a circuit).
	ElemName() string
	// ElemNodes returns the connected node names in terminal order: the
	// first n entries of the array, which has room for the four of a
	// MOSFET. An array, not a slice, so the call allocates nothing.
	ElemNodes() (names [4]string, n int)
	// Card returns the element's SPICE-like card for export.
	Card() string
}

// Resistor is a linear resistor between nodes A and B.
type Resistor struct {
	Name string
	A, B string
	R    float64 // Ω
}

// ElemName implements Element.
func (r *Resistor) ElemName() string { return r.Name }

// ElemNodes implements Element.
func (r *Resistor) ElemNodes() ([4]string, int) { return [4]string{r.A, r.B}, 2 }

// Card implements Element.
func (r *Resistor) Card() string { return fmt.Sprintf("R%s %s %s %.6g", r.Name, r.A, r.B, r.R) }

// Capacitor is a linear capacitor between nodes A and B.
type Capacitor struct {
	Name string
	A, B string
	C    float64 // F
}

// ElemName implements Element.
func (c *Capacitor) ElemName() string { return c.Name }

// ElemNodes implements Element.
func (c *Capacitor) ElemNodes() ([4]string, int) { return [4]string{c.A, c.B}, 2 }

// Card implements Element.
func (c *Capacitor) Card() string { return fmt.Sprintf("C%s %s %s %.6g", c.Name, c.A, c.B, c.C) }

// VSource is an independent voltage source. DC sets the operating point;
// ACMag/ACPhase drive small-signal analyses; Pulse (optional) drives
// transient analysis.
type VSource struct {
	Name     string
	Pos, Neg string
	DC       float64
	ACMag    float64
	ACPhase  float64 // degrees
	Pulse    *Pulse
}

// Pulse describes a SPICE-style pulse waveform for transient analysis.
// A zero Width means the pulse never falls back (the SPICE default of
// "width = simulation stop time").
type Pulse struct {
	V1, V2 float64 // initial and pulsed value
	Delay  float64 // s
	Rise   float64 // s
	Fall   float64 // s
	Width  float64 // s; 0 = hold V2 forever
	Period float64 // s; 0 = single pulse
}

// At evaluates the pulse at time t.
func (p *Pulse) At(t float64) float64 {
	if p == nil {
		return 0
	}
	t -= p.Delay
	if t < 0 {
		return p.V1
	}
	if p.Period > 0 {
		for t >= p.Period {
			t -= p.Period
		}
	}
	switch {
	case t < p.Rise:
		if p.Rise <= 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*t/p.Rise
	case p.Width <= 0, t < p.Rise+p.Width:
		return p.V2
	case t < p.Rise+p.Width+p.Fall:
		if p.Fall <= 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(t-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}

// ElemName implements Element.
func (v *VSource) ElemName() string { return v.Name }

// ElemNodes implements Element.
func (v *VSource) ElemNodes() ([4]string, int) { return [4]string{v.Pos, v.Neg}, 2 }

// Card implements Element.
func (v *VSource) Card() string {
	s := fmt.Sprintf("V%s %s %s DC %.6g", v.Name, v.Pos, v.Neg, v.DC)
	if v.ACMag != 0 {
		s += fmt.Sprintf(" AC %.6g %.6g", v.ACMag, v.ACPhase)
	}
	return s
}

// Value returns the source value at time t (DC when no pulse is set).
func (v *VSource) Value(t float64) float64 {
	if v.Pulse != nil {
		return v.Pulse.At(t)
	}
	return v.DC
}

// ISource is an independent current source pushing current from Pos to Neg
// through the source (i.e. conventional current exits at Neg).
type ISource struct {
	Name     string
	Pos, Neg string
	DC       float64
	ACMag    float64
	ACPhase  float64
	Pulse    *Pulse
}

// ElemName implements Element.
func (i *ISource) ElemName() string { return i.Name }

// ElemNodes implements Element.
func (i *ISource) ElemNodes() ([4]string, int) { return [4]string{i.Pos, i.Neg}, 2 }

// Card implements Element.
func (i *ISource) Card() string {
	s := fmt.Sprintf("I%s %s %s DC %.6g", i.Name, i.Pos, i.Neg, i.DC)
	if i.ACMag != 0 {
		s += fmt.Sprintf(" AC %.6g %.6g", i.ACMag, i.ACPhase)
	}
	return s
}

// Value returns the source value at time t.
func (i *ISource) Value(t float64) float64 {
	if i.Pulse != nil {
		return i.Pulse.At(t)
	}
	return i.DC
}

// MOSFET is a transistor instance.
type MOSFET struct {
	Name       string
	D, G, S, B string
	Dev        device.MOS
}

// ElemName implements Element.
func (m *MOSFET) ElemName() string { return m.Name }

// ElemNodes implements Element.
func (m *MOSFET) ElemNodes() ([4]string, int) { return [4]string{m.D, m.G, m.S, m.B}, 4 }

// Card implements Element.
func (m *MOSFET) Card() string {
	g := m.Dev.Geom
	return fmt.Sprintf("M%s %s %s %s %s %s W=%.4gu L=%.4gu AD=%.4gp PD=%.4gu AS=%.4gp PS=%.4gu M=%g",
		m.Name, m.D, m.G, m.S, m.B, m.Dev.Card.Type,
		m.Dev.W*1e6, m.Dev.L*1e6, g.AD*1e12, g.PD*1e6, g.AS*1e12, g.PS*1e6, m.Dev.M())
}

// Circuit is a flat netlist with a node table. The zero value is not
// usable; call New.
type Circuit struct {
	Name     string
	Elements []Element

	nodeIdx   map[string]int
	nodeNames []string
}

// New creates an empty circuit containing only the ground node.
func New(name string) *Circuit {
	c := &Circuit{Name: name, nodeIdx: map[string]int{}}
	c.nodeNames = append(c.nodeNames, Ground)
	c.nodeIdx[Ground] = 0
	c.nodeIdx["gnd"] = 0
	c.nodeIdx["GND"] = 0
	return c
}

// Node interns a node name and returns its index; ground is always 0.
func (c *Circuit) Node(name string) int {
	if i, ok := c.nodeIdx[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIdx[name] = i
	return i
}

// NodeIndex returns the index of an existing node and whether it exists.
func (c *Circuit) NodeIndex(name string) (int, bool) {
	i, ok := c.nodeIdx[name]
	return i, ok
}

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// Add appends elements, interning their nodes, and returns the circuit for
// chaining. Duplicate instance names are rejected with a panic: they are
// programming errors in generators, never runtime conditions.
func (c *Circuit) Add(elems ...Element) *Circuit {
	for _, e := range elems {
		for _, prev := range c.Elements {
			if prev.ElemName() == e.ElemName() && sameKind(prev, e) {
				panic(fmt.Sprintf("circuit %q: duplicate element %q", c.Name, e.ElemName()))
			}
		}
		names, n := e.ElemNodes()
		for _, name := range names[:n] {
			c.Node(name)
		}
		c.Elements = append(c.Elements, e)
	}
	return c
}

func sameKind(a, b Element) bool { return fmt.Sprintf("%T", a) == fmt.Sprintf("%T", b) }

// FindMOS returns the named transistor or nil.
func (c *Circuit) FindMOS(name string) *MOSFET {
	for _, e := range c.Elements {
		if m, ok := e.(*MOSFET); ok && m.Name == name {
			return m
		}
	}
	return nil
}

// MOSFETs returns all transistors in insertion order.
func (c *Circuit) MOSFETs() []*MOSFET {
	var out []*MOSFET
	for _, e := range c.Elements {
		if m, ok := e.(*MOSFET); ok {
			out = append(out, m)
		}
	}
	return out
}

// VSources returns all voltage sources in insertion order.
func (c *Circuit) VSources() []*VSource {
	var out []*VSource
	for _, e := range c.Elements {
		if v, ok := e.(*VSource); ok {
			out = append(out, v)
		}
	}
	return out
}

// NodeCap sums all two-terminal capacitors attached between node and
// ground plus half of floating caps touching it; a quick loading estimate
// used in tests and sizing heuristics.
func (c *Circuit) NodeCap(node string) float64 {
	var total float64
	for _, e := range c.Elements {
		cap, ok := e.(*Capacitor)
		if !ok {
			continue
		}
		switch {
		case cap.A == node && cap.B == Ground, cap.B == node && cap.A == Ground:
			total += cap.C
		case cap.A == node || cap.B == node:
			total += cap.C
		}
	}
	return total
}

// Export writes the netlist as a SPICE-like deck (deterministic order).
func (c *Circuit) Export() string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s — exported by loas\n", c.Name)
	for _, e := range c.Elements {
		b.WriteString(e.Card())
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String()
}

// Nodes returns all node names except ground, sorted, for reporting.
func (c *Circuit) Nodes() []string {
	out := make([]string, 0, len(c.nodeNames)-1)
	for _, n := range c.nodeNames[1:] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
