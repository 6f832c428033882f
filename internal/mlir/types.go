// Package mlir implements a self-contained MLIR-style pulse dialect — the
// intermediate representation layer of the stack (paper Section 5.2,
// Listing 2). The op set mirrors the IBM Quantum Engine pulse dialect the
// paper adopts: sequences over mixed frames with play, frame_change,
// shift/set phase and frequency, delay, barrier, capture, and gate-level
// "standard" ops that lowering passes replace with calibrated pulses.
//
// The dialect has a stable textual format with a full printer and parser so
// modules can cross process boundaries, mirroring how MQSS adapters hand
// MLIR jobs to the compiler.
package mlir

import "fmt"

// Type is the small type system of the pulse dialect.
type Type int

// Dialect types.
const (
	// TypeMixedFrame is !pulse.mixed_frame: a port/frame pair.
	TypeMixedFrame Type = iota
	// TypeF64 is a 64-bit float (frequencies, phases, angles).
	TypeF64
	// TypeI1 is a single classical bit (capture results).
	TypeI1
	// TypeWaveform is the internal type of waveform_ref results; it cannot
	// appear as a sequence argument or result type.
	TypeWaveform
)

// String renders the MLIR-style type syntax.
func (t Type) String() string {
	switch t {
	case TypeMixedFrame:
		return "!pulse.mixed_frame"
	case TypeF64:
		return "f64"
	case TypeI1:
		return "i1"
	case TypeWaveform:
		return "!pulse.waveform"
	default:
		return fmt.Sprintf("!pulse.unknown<%d>", int(t))
	}
}

// ParseType parses the textual type syntax.
func ParseType(s string) (Type, error) {
	switch s {
	case "!pulse.mixed_frame":
		return TypeMixedFrame, nil
	case "f64":
		return TypeF64, nil
	case "i1":
		return TypeI1, nil
	default:
		return 0, fmt.Errorf("mlir: unknown type %q", s)
	}
}

// Value is an SSA-ish operand: a reference to a named value (sequence
// argument or op result, written %name), an f64 literal, or — on the
// deferred-binding template path — an unbound affine parameter expression.
type Value struct {
	IsRef bool
	Ref   string  // without the leading %
	Lit   float64 // used when !IsRef and Expr == nil
	// Expr, when non-nil, marks the operand as an unbound parameter slot;
	// it is mutually exclusive with IsRef. Canonicalization never folds
	// expression operands, and the backend forwards them into QIR args.
	Expr *ParamExpr
}

// Ref makes a value reference.
func Ref(name string) Value { return Value{IsRef: true, Ref: name} }

// Lit makes an f64 literal.
func Lit(v float64) Value { return Value{Lit: v} }

// String renders the operand.
func (v Value) String() string {
	if v.IsRef {
		return "%" + v.Ref
	}
	if v.Expr != nil {
		return exprString(v.Expr)
	}
	return fmt.Sprintf("%g", v.Lit)
}

// Arg is a typed sequence argument.
type Arg struct {
	Name string
	Type Type
}
