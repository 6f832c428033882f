package waveform

import (
	"math"
	"slices"
)

// Gate is one row of the stack's gate table: the one place a gate's name,
// shape, exchange-format callee and meaning in pulses are declared. The QPI's
// gate set, the QIR signatures, a device's native-gate and operation lists,
// the compiler's gate→pulse pass and a device's link-time lowering all read
// these rows; none keeps a list of its own.
type Gate struct {
	Name   string
	Arity  int    // operand qubits
	Params int    // angle parameters, 0 or 1
	QIS    string // QIR intrinsic callee
	// steps decomposes the gate; nil for one that is declared (kernels may
	// name it, QIR may carry it) and has no pulse lowering.
	steps []gateStep
}

// gateStep is one factor of a decomposition, applied in order: a virtual Z
// by angle (PulseShiftPhase) or a rotation by angle about the equatorial axis
// at phase axis (PulseDrive), on operand q, or the cz of operands 0 and 1.
// The angle is fixed, or the gate's parameter.
type gateStep struct {
	kind  PulseKind
	q     int
	angle float64
	param bool
	axis  float64
}

func qis(name string) string { return "__quantum__qis__" + name + "__body" }

// hadamard is H ∝ RZ(π/2)·RX(π/2)·RZ(π/2) on operand q.
func hadamard(q int) []gateStep {
	return []gateStep{
		{kind: PulseShiftPhase, q: q, angle: math.Pi / 2},
		{kind: PulseDrive, q: q, angle: math.Pi / 2},
		{kind: PulseShiftPhase, q: q, angle: math.Pi / 2},
	}
}

// Gates is the gate table, in the order devices list their native gates.
var Gates = []Gate{
	{"x", 1, 0, qis("x"), []gateStep{{kind: PulseDrive, angle: math.Pi}}},
	{"y", 1, 0, qis("y"), []gateStep{{kind: PulseDrive, angle: math.Pi, axis: math.Pi / 2}}},
	{"z", 1, 0, qis("z"), []gateStep{{kind: PulseShiftPhase, angle: math.Pi}}},
	{"h", 1, 0, qis("h"), hadamard(0)},
	{"s", 1, 0, qis("s"), []gateStep{{kind: PulseShiftPhase, angle: math.Pi / 2}}},
	{"t", 1, 0, qis("t"), []gateStep{{kind: PulseShiftPhase, angle: math.Pi / 4}}},
	{"sx", 1, 0, qis("sx"), []gateStep{{kind: PulseDrive, angle: math.Pi / 2}}},
	{"rx", 1, 1, qis("rx"), []gateStep{{kind: PulseDrive, param: true}}},
	{"ry", 1, 1, qis("ry"), []gateStep{{kind: PulseDrive, param: true, axis: math.Pi / 2}}},
	{"rz", 1, 1, qis("rz"), []gateStep{{kind: PulseShiftPhase, param: true}}},
	{"cz", 2, 0, qis("cz"), []gateStep{{kind: PulseCZ}}},
	// cx = (I⊗H)·CZ·(I⊗H): the H sandwich sits on the target.
	{"cx", 2, 0, qis("cnot"), append(append(hadamard(1), gateStep{kind: PulseCZ}), hadamard(1)...)},
	{"iswap", 2, 0, qis("iswap"), nil},
}

// GateByName returns the table row of a gate, or nil.
func GateByName(name string) *Gate {
	for i := range Gates {
		if Gates[i].Name == name {
			return &Gates[i]
		}
	}
	return nil
}

// GateByQIS returns the table row whose QIR callee is callee, or nil.
func GateByQIS(callee string) *Gate {
	for i := range Gates {
		if Gates[i].QIS == callee {
			return &Gates[i]
		}
	}
	return nil
}

// HasLowering reports whether the gate decomposes into pulses; one that does
// not fails with the device's "not supported" wherever it would be played.
func (g *Gate) HasLowering() bool { return g.steps != nil }

// Virtual reports whether g only shifts frames — it takes no time and is
// exact — and the phase its row shifts by (0 for rz, whose angle is its
// parameter). No gate (a nil row) is not virtual.
func (g *Gate) Virtual() (phase float64, ok bool) {
	if g == nil || !g.HasLowering() {
		return 0, false
	}
	for _, st := range g.steps {
		if st.kind != PulseShiftPhase {
			return 0, false
		}
		phase += st.angle
	}
	return phase, true
}

// PlaysCZ reports whether g's lowering plays a cz; no gate (a nil row) does.
func (g *Gate) PlaysCZ() bool {
	return g != nil && slices.ContainsFunc(g.steps, func(st gateStep) bool { return st.kind == PulseCZ })
}

// PulseKind names the three primitives every gate lowers to.
type PulseKind int

// Pulse primitives.
const (
	// PulseShiftPhase shifts the operand's drive frame by Value radians.
	PulseShiftPhase PulseKind = iota
	// PulseDrive plays the operand's calibrated π envelope scaled by Value.
	PulseDrive
	// PulseCZ plays the calibrated cz of operands 0 and 1.
	PulseCZ
)

// GatePulse is one primitive of a lowered gate. Qubit is the operand index
// it acts on (not a device site); a non-nil Expr replaces Value with an
// unbound slot.
type GatePulse struct {
	Kind  PulseKind
	Qubit int
	Value float64
	Expr  *ParamExpr
}

// Lower calls emit with the gate's pulse primitives, in order, at angle
// theta — or, for a rotation gate, at the symbolic angle expr when it is
// non-nil. The compiler's emit writes dialect ops, a device's writes schedule
// instructions; what a gate means is decided here and nowhere else.
func (g *Gate) Lower(theta float64, expr *ParamExpr, emit func(GatePulse) error) error {
	for _, st := range g.steps {
		angle, sym := st.angle, (*ParamExpr)(nil)
		if st.param {
			angle, sym = theta, expr
		}
		var err error
		switch st.kind {
		case PulseShiftPhase:
			err = virtualZ(st.q, angle, sym, emit)
		case PulseDrive:
			err = rotate(st.q, angle, sym, st.axis, emit)
		case PulseCZ:
			err = emit(GatePulse{Kind: PulseCZ})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// virtualZ realises RZ(θ) as a frame shift: commuting RZ(θ) past a later
// equatorial rotation R(φ, α) yields R(φ−θ, α), so every later drive phase on
// the operand shifts by −θ, and the residual RZ is unobservable in a Z-basis
// measurement. A symbolic angle stays an unwrapped slot: phase accumulates
// mod 2π downstream.
func virtualZ(q int, angle float64, sym *ParamExpr, emit func(GatePulse) error) error {
	switch {
	case sym != nil:
		return emit(GatePulse{Kind: PulseShiftPhase, Qubit: q, Expr: sym.Times(-1)})
	case angle == 0:
		return nil
	}
	return emit(GatePulse{Kind: PulseShiftPhase, Qubit: q, Value: WrapPhase(-angle)})
}

// rotate realises a rotation by angle about the equatorial axis at phase
// axis: the π envelope scaled by angle/π, between a frame shift onto the axis
// and one back. A concrete angle is first reduced into (−π, π] by WrapPhase
// — a negative one plays a negative amplitude, one past π goes the short way
// round — and a whole turn is nothing (not a zero-amplitude play that still
// takes schedule time).
//
// A symbolic angle is reduced by whoever binds it: template compilation
// keeps its range inside [−π, π], so any point in (−π, π] reduces to itself.
// The scale is angle·(1/π), not angle/π, the product an expression's
// coefficients reproduce bit for bit at bind time, so a bound payload is
// byte-identical to a fresh compile at any nonzero angle of (−π, π].
func rotate(q int, angle float64, sym *ParamExpr, axis float64, emit func(GatePulse) error) error {
	drive := GatePulse{Kind: PulseDrive, Qubit: q}
	if sym != nil {
		drive.Expr = sym.Times(1 / math.Pi)
	} else {
		if angle = WrapPhase(angle); angle == 0 {
			return nil
		}
		drive.Value = angle * (1 / math.Pi)
	}
	if axis == 0 {
		return emit(drive)
	}
	if err := emit(GatePulse{Kind: PulseShiftPhase, Qubit: q, Value: WrapPhase(axis)}); err != nil {
		return err
	}
	if err := emit(drive); err != nil {
		return err
	}
	return emit(GatePulse{Kind: PulseShiftPhase, Qubit: q, Value: WrapPhase(-axis)})
}

// WrapPhase maps a phase into (-π, π].
func WrapPhase(p float64) float64 {
	p = math.Mod(p, 2*math.Pi)
	if p > math.Pi {
		p -= 2 * math.Pi
	} else if p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}
