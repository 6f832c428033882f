package qpi

import (
	"math"

	"mqsspulse/internal/waveform"
)

// ParamExpr is an affine symbolic expression over one named template
// parameter: value = Scale·p + Offset — the QPI's name for the one slot type
// the whole stack carries (see waveform.ParamExpr).
type ParamExpr = waveform.ParamExpr

// Sym makes the identity expression over a named parameter (value = p).
func Sym(name string) *ParamExpr { return &ParamExpr{Param: name, Scale: 1} }

// SymAffine makes a general affine expression value = scale·p + offset. A
// zero scale yields a constant that still participates in the template's
// key under the parameter's name.
func SymAffine(name string, scale, offset float64) *ParamExpr {
	return &ParamExpr{Param: name, Scale: scale, Offset: offset}
}

// finite reports whether f is neither NaN nor ±Inf: every number a kernel
// records is.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validExpr reports whether the expression is structurally usable: a named
// parameter and finite coefficients.
func validExpr(e *ParamExpr) bool {
	return e != nil && e.Param != "" && finite(e.Scale) && finite(e.Offset)
}

// cloneExpr returns a private copy so later caller mutations cannot alias
// into the recorded circuit.
func cloneExpr(e *ParamExpr) *ParamExpr {
	cp := *e
	return &cp
}

// checkExpr validates a parameter expression in a builder method.
func (c *Circuit) checkExpr(where string, e *ParamExpr) bool {
	if e == nil {
		c.fail("qpi: %s: nil parameter expression", where)
		return false
	}
	if !validExpr(e) {
		c.fail("qpi: %s: invalid parameter expression (param %q, scale %g, offset %g)",
			where, e.Param, e.Scale, e.Offset)
		return false
	}
	return true
}

// gateP appends a single-qubit rotation gate whose angle is a parameter
// expression. Only rx, ry, and rz admit symbolic angles: their lowerings are
// affine in the angle, so the slot survives gate→pulse lowering.
func (c *Circuit) gateP(name string, q int, theta *ParamExpr) *Circuit {
	if !c.appendable() {
		return c
	}
	if !c.checkExpr("gate "+name, theta) {
		return c
	}
	switch name {
	case "rx", "ry", "rz":
	default:
		return c.fail("qpi: gate %q does not accept a parametric angle", name)
	}
	if !c.checkQubit(q) {
		return c.fail("qpi: qubit %d out of range [0,%d)", q, c.qubits)
	}
	c.ops = append(c.ops, Op{Kind: OpGate, Gate: name, Qubits: []int{q},
		Params: []float64{0}, AngleExpr: cloneExpr(theta)})
	return c
}

// RXP appends an X rotation with a symbolic angle (bound at submit time).
func (c *Circuit) RXP(q int, theta *ParamExpr) *Circuit { return c.gateP("rx", q, theta) }

// RYP appends a Y rotation with a symbolic angle.
func (c *Circuit) RYP(q int, theta *ParamExpr) *Circuit { return c.gateP("ry", q, theta) }

// RZP appends a Z rotation with a symbolic angle (virtual-Z at bind time).
func (c *Circuit) RZP(q int, theta *ParamExpr) *Circuit { return c.gateP("rz", q, theta) }

// FrameChangeP adjusts a port's carrier frame with symbolic frequency and/or
// phase. A nil expression means the literal 0 for that slot; to mix a
// concrete value with a symbolic one, use SymAffine(param, 0, value) for the
// concrete slot. At least one slot must be symbolic.
func (c *Circuit) FrameChangeP(port string, freq, phase *ParamExpr) *Circuit {
	if !c.appendable() {
		return c
	}
	if port == "" {
		return c.fail("qpi: frame change on empty port name")
	}
	if freq == nil && phase == nil {
		return c.fail("qpi: parametric frame change with no parameter expression")
	}
	if freq != nil && !c.checkExpr("frame change frequency", freq) {
		return c
	}
	if phase != nil && !c.checkExpr("frame change phase", phase) {
		return c
	}
	op := Op{Kind: OpFrameChange, Port: port}
	if freq != nil {
		op.FreqExpr = cloneExpr(freq)
	}
	if phase != nil {
		op.PhaseExpr = cloneExpr(phase)
	}
	c.ops = append(c.ops, op)
	return c
}

// DelayP idles a port for a symbolic number of samples; the bound value is
// rounded to the nearest integer and must be non-negative.
func (c *Circuit) DelayP(port string, samples *ParamExpr) *Circuit {
	if !c.appendable() {
		return c
	}
	if port == "" {
		return c.fail("qpi: delay on empty port name")
	}
	if !c.checkExpr("delay", samples) {
		return c
	}
	c.ops = append(c.ops, Op{Kind: OpDelay, Port: port, DelayExpr: cloneExpr(samples)})
	return c
}

// WaveformP is Waveform with an amplitude slot: the explicit samples are
// stored as given and binding multiplies them by the bound factor, so a
// sweep over a measured or device-supplied envelope (a Rabi sweep over the
// calibrated π pulse) re-scales without redefining it.
func (c *Circuit) WaveformP(name string, amps []complex128, amp *ParamExpr) *Circuit {
	if c.err != nil || !c.checkExpr("waveform "+name, amp) {
		return c
	}
	def := len(c.ops)
	if c.Waveform(name, amps); c.err == nil {
		c.ops[def].AmpExpr = cloneExpr(amp)
	}
	return c
}

// WaveformEnvelopeP is WaveformP over a parametric envelope, materialized
// once at build time: a sweep re-scales without re-evaluating the envelope.
func (c *Circuit) WaveformEnvelopeP(name string, env waveform.Envelope, n int, amp *ParamExpr) *Circuit {
	if c.err != nil {
		return c
	}
	w, err := env.Materialize(name, n)
	if err != nil {
		return c.fail("qpi: waveform %q: %v", name, err)
	}
	return c.WaveformP(name, w.Samples, amp)
}

// IsParametric reports whether any op carries an unbound parameter slot.
func (c *Circuit) IsParametric() bool {
	for i := range c.ops {
		if c.ops[i].hasExpr() {
			return true
		}
	}
	return false
}

// ParamNames returns the sorted, de-duplicated names of every template
// parameter referenced by the circuit.
func (c *Circuit) ParamNames() []string {
	seen := map[string]bool{}
	for i := range c.ops {
		for _, e := range c.ops[i].exprs() {
			if e != nil {
				seen[e.Param] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	// Insertion sort keeps this allocation-light for the handful of
	// parameters templates carry.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// hasExpr reports whether the op carries any parameter expression.
func (o *Op) hasExpr() bool {
	return o.AngleExpr != nil || o.FreqExpr != nil || o.PhaseExpr != nil ||
		o.DelayExpr != nil || o.AmpExpr != nil
}

// exprs returns the op's parameter-expression slots (nil entries included).
func (o *Op) exprs() [5]*ParamExpr {
	return [5]*ParamExpr{o.AngleExpr, o.FreqExpr, o.PhaseExpr, o.DelayExpr, o.AmpExpr}
}
