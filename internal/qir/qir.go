// Package qir implements the exchange format of the stack: an LLVM-flavored
// Quantum Intermediate Representation module with the paper's proposed
// Pulse Profile (Section 5.4, Listing 3). Pulse operations appear as calls
// to declared-but-undefined __quantum__pulse__* intrinsics on opaque %Port,
// %Waveform, and %Frame types; gate-level QIS calls coexist in the same
// module. A linker binds intrinsic call sites to device runtime
// implementations, mirroring how "a QIR job becomes an executable
// intermediate object".
package qir

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// Profile names (the QIR spec's qir_profiles attribute values).
const (
	ProfileBase  = "base"
	ProfilePulse = "pulse"
)

// Intrinsic callee names. Pulse intrinsics follow the paper's
// __quantum__pulse__*__body convention; a gate's standard QIS name is its
// gate-table row's (GateIntrinsics), and the measurement's is IntrMz.
const (
	IntrWaveform       = "__quantum__pulse__waveform__body"
	IntrPlay           = "__quantum__pulse__waveform_play__body"
	IntrFrameChange    = "__quantum__pulse__frame_change__body"
	IntrShiftPhase     = "__quantum__pulse__shift_phase__body"
	IntrSetPhase       = "__quantum__pulse__set_phase__body"
	IntrShiftFrequency = "__quantum__pulse__shift_frequency__body"
	IntrSetFrequency   = "__quantum__pulse__set_frequency__body"
	IntrDelay          = "__quantum__pulse__delay__body"
	IntrBarrier        = "__quantum__pulse__barrier__body"
	IntrCapture        = "__quantum__pulse__capture__body"

	IntrMz = "__quantum__qis__mz__body"
)

// FrameIntrinsic is the exchange form of one frame-update kind: its callee,
// and the positions of its frequency (Hz) and phase among its arguments.
// Argument 0 is the port; every other argument is a double; a position is 0
// for a value the kind does not read.
type FrameIntrinsic struct {
	Callee    string
	Hz, Phase int
}

// FrameIntrinsics maps each frame-update kind to its intrinsic. The
// backend's emission and the link read it.
var FrameIntrinsics = [...]FrameIntrinsic{
	pulse.ShiftPhase:     {IntrShiftPhase, 0, 1},
	pulse.SetPhase:       {IntrSetPhase, 0, 1},
	pulse.ShiftFrequency: {IntrShiftFrequency, 1, 0},
	pulse.SetFrequency:   {IntrSetFrequency, 1, 0},
	pulse.FrameChange:    {IntrFrameChange, 1, 2},
}

// frameKinds inverts FrameIntrinsics.
var frameKinds = map[string]pulse.FrameKind{}

// Call is the kind's call on port with frequency hz and phase phase; a
// value the kind does not read is dropped.
func (fi FrameIntrinsic) Call(port, hz, phase Arg) Call {
	args := make([]Arg, 1+max(fi.Hz, fi.Phase))
	args[0] = port
	if fi.Hz > 0 {
		args[fi.Hz] = hz
	}
	if fi.Phase > 0 {
		args[fi.Phase] = phase
	}
	return Call{Callee: fi.Callee, Args: args}
}

// values returns c's frequency and phase, 0 for a value the kind does not
// read.
func (fi FrameIntrinsic) values(c Call) (hz, phase float64) {
	if fi.Hz > 0 {
		hz = c.Args[fi.Hz].F
	}
	if fi.Phase > 0 {
		phase = c.Args[fi.Phase].F
	}
	return hz, phase
}

// GateIntrinsics maps QPI gate names to QIS intrinsic callees, as the gate
// table declares them.
var GateIntrinsics = map[string]string{}

// Every gate-table row contributes its callee and its signature: its angle
// parameters, then its qubits. Every frame update contributes its port and
// its doubles.
func init() {
	for _, g := range waveform.Gates {
		GateIntrinsics[g.Name] = g.QIS
		intrinsicSigs[g.QIS] = append(slices.Repeat([]ArgKind{ArgF64}, g.Params),
			slices.Repeat([]ArgKind{ArgQubit}, g.Arity)...)
	}
	for k, fi := range FrameIntrinsics {
		frameKinds[fi.Callee] = pulse.FrameKind(k)
		intrinsicSigs[fi.Callee] = append([]ArgKind{ArgPort}, slices.Repeat([]ArgKind{ArgF64}, max(fi.Hz, fi.Phase))...)
	}
}

// PulseIntrinsics lists every pulse-profile intrinsic.
var PulseIntrinsics = []string{
	IntrWaveform, IntrPlay, IntrFrameChange, IntrShiftPhase, IntrSetPhase,
	IntrShiftFrequency, IntrSetFrequency, IntrDelay, IntrBarrier, IntrCapture,
}

// ArgKind classifies call arguments.
type ArgKind int

// Argument kinds.
const (
	ArgQubit    ArgKind = iota // %Qubit* inttoptr handle
	ArgResult                  // %Result* inttoptr handle
	ArgPort                    // %Port* inttoptr handle
	ArgWaveform                // %Waveform* global symbol reference
	ArgF64                     // double literal
	ArgI64                     // i64 literal
)

// String implements fmt.Stringer.
func (k ArgKind) String() string {
	switch k {
	case ArgQubit:
		return "qubit"
	case ArgResult:
		return "result"
	case ArgPort:
		return "port"
	case ArgWaveform:
		return "waveform"
	case ArgF64:
		return "f64"
	case ArgI64:
		return "i64"
	default:
		return fmt.Sprintf("ArgKind(%d)", int(k))
	}
}

// Arg is one call argument.
type Arg struct {
	Kind ArgKind
	I    int64   // handle index or i64 literal
	F    float64 // f64 literal
	Sym  string  // waveform symbol
	// Expr, when non-nil, marks the argument as an unbound template slot of
	// the declared Kind (ArgF64 or ArgI64 only); Bind evaluates it. The
	// literal fields are placeholders until then and are not part of the
	// exchange text.
	Expr *ParamExpr
}

// QubitArg makes a qubit handle argument.
func QubitArg(i int64) Arg { return Arg{Kind: ArgQubit, I: i} }

// ResultArg makes a result handle argument.
func ResultArg(i int64) Arg { return Arg{Kind: ArgResult, I: i} }

// PortArg makes a port handle argument.
func PortArg(i int64) Arg { return Arg{Kind: ArgPort, I: i} }

// WaveformArg references a module-level waveform constant.
func WaveformArg(sym string) Arg { return Arg{Kind: ArgWaveform, Sym: sym} }

// F64Arg makes a double literal.
func F64Arg(v float64) Arg { return Arg{Kind: ArgF64, F: v} }

// I64Arg makes an i64 literal.
func I64Arg(v int64) Arg { return Arg{Kind: ArgI64, I: v} }

// Call is one instruction in the (straight-line) entry function body.
type Call struct {
	Callee string
	Args   []Arg
}

// WaveformConst is a module-level waveform constant: interleaved I/Q sample
// data, the linkable analogue of an AWG memory upload. A play scales it by
// the play's factor, its double argument.
type WaveformConst struct {
	Name    string
	Samples []complex128
}

// Module is a QIR module specialized to the Base-Profile shape (one entry
// point, straight-line body) plus the Pulse Profile extensions.
type Module struct {
	ID        string
	Profile   string // ProfileBase or ProfilePulse
	EntryName string
	// Required resource counts (attribute group values).
	NumQubits  int
	NumResults int
	NumPorts   int
	// PortNames maps port handle indices to vendor port IDs (module
	// metadata, the pulse analogue of output labeling).
	PortNames []string
	Waveforms []WaveformConst
	Body      []Call
}

// FindWaveform returns the named waveform constant.
func (m *Module) FindWaveform(name string) (*WaveformConst, bool) {
	for i := range m.Waveforms {
		if m.Waveforms[i].Name == name {
			return &m.Waveforms[i], true
		}
	}
	return nil, false
}

// UsesPulse reports whether any pulse intrinsic is called.
func (m *Module) UsesPulse() bool {
	for _, c := range m.Body {
		for _, p := range PulseIntrinsics {
			if c.Callee == p {
				return true
			}
		}
	}
	return false
}

// intrinsicSigs describes each intrinsic's expected argument kinds; a nil
// signature marks a variadic list of ports (barrier). Gate rows and frame
// updates are added from their tables.
var intrinsicSigs = map[string][]ArgKind{
	IntrWaveform: {ArgWaveform}, // upload/bind a waveform constant

	IntrPlay:    {ArgPort, ArgWaveform, ArgF64}, // port, waveform, factor
	IntrDelay:   {ArgPort, ArgI64},
	IntrBarrier: nil,
	IntrCapture: {ArgPort, ArgResult, ArgI64},
	IntrMz:      {ArgQubit, ArgResult},
}

// Verify checks profile conformance: declared resource counts cover every
// handle used, waveform references resolve, intrinsics and signatures are
// known, pulse intrinsics only appear under the Pulse Profile, every double
// is finite, and template slots sit only on numeric arguments.
func (m *Module) Verify() error {
	if m.EntryName == "" {
		return errors.New("qir: module has no entry point")
	}
	switch m.Profile {
	case ProfileBase, ProfilePulse:
	default:
		return fmt.Errorf("qir: unknown profile %q", m.Profile)
	}
	if m.UsesPulse() && m.Profile != ProfilePulse {
		return fmt.Errorf("qir: pulse intrinsics used under profile %q", m.Profile)
	}
	if len(m.PortNames) != m.NumPorts {
		return fmt.Errorf("qir: %d port names for required_num_ports=%d", len(m.PortNames), m.NumPorts)
	}
	seen := map[string]bool{}
	for _, w := range m.Waveforms {
		if w.Name == "" {
			return errors.New("qir: waveform constant with empty name")
		}
		if seen[w.Name] {
			return fmt.Errorf("qir: duplicate waveform constant @%s", w.Name)
		}
		if len(w.Samples) == 0 {
			return fmt.Errorf("qir: waveform constant @%s has no samples", w.Name)
		}
		seen[w.Name] = true
	}
	for ci, c := range m.Body {
		sig, known := intrinsicSigs[c.Callee]
		if !known {
			return fmt.Errorf("qir: call %d to unknown intrinsic %s", ci, c.Callee)
		}
		if c.Callee == IntrBarrier {
			for _, a := range c.Args {
				if a.Kind != ArgPort {
					return fmt.Errorf("qir: call %d: barrier arg must be port", ci)
				}
			}
		} else {
			if len(c.Args) != len(sig) {
				return fmt.Errorf("qir: call %d to %s: %d args, want %d", ci, c.Callee, len(c.Args), len(sig))
			}
			for ai, a := range c.Args {
				if a.Kind != sig[ai] {
					return fmt.Errorf("qir: call %d to %s: arg %d is %s, want %s",
						ci, c.Callee, ai, a.Kind, sig[ai])
				}
			}
		}
		for ai, a := range c.Args {
			if a.Expr != nil && a.Kind != ArgF64 && a.Kind != ArgI64 {
				return fmt.Errorf("qir: call %d arg %d: a %s argument cannot be a template slot", ci, ai, a.Kind)
			}
			switch a.Kind {
			case ArgF64:
				if a.Expr == nil && (math.IsNaN(a.F) || math.IsInf(a.F, 0)) {
					return fmt.Errorf("qir: call %d arg %d: double %g is not finite", ci, ai, a.F)
				}
			case ArgQubit:
				if a.I < 0 || a.I >= int64(m.NumQubits) {
					return fmt.Errorf("qir: call %d arg %d: qubit %d outside required_num_qubits=%d",
						ci, ai, a.I, m.NumQubits)
				}
			case ArgResult:
				if a.I < 0 || a.I >= int64(m.NumResults) {
					return fmt.Errorf("qir: call %d arg %d: result %d outside required_num_results=%d",
						ci, ai, a.I, m.NumResults)
				}
				if a.I >= pulse.OutcomeBits {
					return fmt.Errorf("qir: call %d arg %d: result %d beyond the %d-bit outcome",
						ci, ai, a.I, pulse.OutcomeBits)
				}
			case ArgPort:
				if a.I < 0 || a.I >= int64(m.NumPorts) {
					return fmt.Errorf("qir: call %d arg %d: port %d outside required_num_ports=%d",
						ci, ai, a.I, m.NumPorts)
				}
			case ArgWaveform:
				if _, ok := m.FindWaveform(a.Sym); !ok {
					return fmt.Errorf("qir: call %d arg %d: undefined waveform @%s", ci, ai, a.Sym)
				}
			}
		}
	}
	return nil
}
