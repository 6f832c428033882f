package mlir

import (
	"fmt"
	"strings"

	"mqsspulse/internal/pulse"
)

// Op is one operation inside a pulse.sequence.
type Op interface {
	// OpName returns the dialect op mnemonic, e.g. "pulse.play".
	OpName() string
	// Render prints the op in the textual format.
	Render() string
	isOp()
}

// StandardGateOp is a gate-level operation expressed in the pulse dialect
// (e.g. pulse.standard_x in the paper's Listing 2). Lowering passes replace
// it with calibrated play/frame ops.
type StandardGateOp struct {
	Gate   string  // x, y, z, h, sx, rx, ry, rz, cz, cx, iswap
	Frames []Value // one mixed frame per operand qubit
	Params []float64
	// ParamExprs, when non-empty, parallels Params; a non-nil entry marks
	// that parameter as an unbound template slot (the literal in Params is
	// then a placeholder). Only rx/ry/rz lowerings accept symbolic angles.
	ParamExprs []*ParamExpr
}

// OpName implements Op.
func (o *StandardGateOp) OpName() string { return "pulse.standard_" + o.Gate }

// Render implements Op.
func (o *StandardGateOp) Render() string {
	frames := make([]string, len(o.Frames))
	for i, f := range o.Frames {
		frames[i] = f.String()
	}
	s := fmt.Sprintf("%s(%s)", o.OpName(), strings.Join(frames, ", "))
	if len(o.Params) > 0 {
		ps := make([]string, len(o.Params))
		for i, p := range o.Params {
			if i < len(o.ParamExprs) && o.ParamExprs[i] != nil {
				ps[i] = exprString(o.ParamExprs[i])
			} else {
				ps[i] = fmt.Sprintf("%g", p)
			}
		}
		s += fmt.Sprintf(" {params = [%s]}", strings.Join(ps, ", "))
	}
	return s
}

func (o *StandardGateOp) isOp() {}

// WaveformRefOp binds a module-level waveform definition to an SSA value
// (the paper's %wf1 = pulse.waveform.amplitudes @waveform_1).
type WaveformRefOp struct {
	Result   string // SSA name without %
	Waveform string // module symbol without @
}

// OpName implements Op.
func (o *WaveformRefOp) OpName() string { return "pulse.waveform_ref" }

// Render implements Op.
func (o *WaveformRefOp) Render() string {
	return fmt.Sprintf("%%%s = pulse.waveform_ref @%s", o.Result, o.Waveform)
}

func (o *WaveformRefOp) isOp() {}

// PlayOp emits a waveform on a mixed frame (pulse.play), every sample
// multiplied by Factor: an f64 literal, ref or parameter expression. The
// factor is the one place a play's amplitude is written, so a calibrated
// pulse is one def that each play of it scales.
type PlayOp struct {
	Frame    Value
	Waveform Value // must reference a WaveformRefOp result
	Factor   Value
}

// OpName implements Op.
func (o *PlayOp) OpName() string { return "pulse.play" }

// Render implements Op.
func (o *PlayOp) Render() string {
	return fmt.Sprintf("pulse.play(%s, %s, %s)", o.Frame, o.Waveform, o.Factor)
}

func (o *PlayOp) isOp() {}

// FrameOp updates a mixed frame's carrier in zero time, as Kind says:
// pulse.shift_phase, pulse.set_phase, pulse.shift_frequency,
// pulse.set_frequency, or pulse.frame_change — the direct lowering of the
// paper's qFrameChange, which sets the frequency and shifts the phase.
// Freq (Hz) and Phase (rad) are f64 refs, literals or parameter
// expressions; a kind leaves the one it does not read (pulse.FrameKind.Reads)
// zero.
type FrameOp struct {
	Kind  pulse.FrameKind
	Frame Value
	Freq  Value
	Phase Value
}

// OpName implements Op.
func (o *FrameOp) OpName() string { return "pulse." + o.Kind.String() }

// Render implements Op.
func (o *FrameOp) Render() string {
	if o.Kind == pulse.FrameChange {
		return fmt.Sprintf("pulse.frame_change(%s, freq = %s, phase = %s)", o.Frame, o.Freq, o.Phase)
	}
	v := o.Phase
	if hz, _ := o.Kind.Reads(); hz {
		v = o.Freq
	}
	return fmt.Sprintf("%s(%s, %s)", o.OpName(), o.Frame, v)
}

func (o *FrameOp) isOp() {}

// DelayOp idles a frame for a sample count (pulse.delay).
type DelayOp struct {
	Frame   Value
	Samples int64
	// SamplesExpr, when non-nil, makes the sample count an unbound template
	// slot (Samples is then a placeholder); the bound value rounds to the
	// nearest non-negative integer.
	SamplesExpr *ParamExpr
}

// OpName implements Op.
func (o *DelayOp) OpName() string { return "pulse.delay" }

// Render implements Op.
func (o *DelayOp) Render() string {
	if o.SamplesExpr != nil {
		return fmt.Sprintf("pulse.delay(%s, %s)", o.Frame, exprString(o.SamplesExpr))
	}
	return fmt.Sprintf("pulse.delay(%s, %d)", o.Frame, o.Samples)
}

func (o *DelayOp) isOp() {}

// BarrierOp synchronizes frames; empty means all (pulse.barrier).
type BarrierOp struct {
	Frames []Value
}

// OpName implements Op.
func (o *BarrierOp) OpName() string { return "pulse.barrier" }

// Render implements Op.
func (o *BarrierOp) Render() string {
	frames := make([]string, len(o.Frames))
	for i, f := range o.Frames {
		frames[i] = f.String()
	}
	return fmt.Sprintf("pulse.barrier(%s)", strings.Join(frames, ", "))
}

func (o *BarrierOp) isOp() {}

// CaptureOp acquires a readout result into an i1 SSA value (pulse.capture).
type CaptureOp struct {
	Result  string
	Frame   Value
	Samples int64 // acquisition window length
}

// OpName implements Op.
func (o *CaptureOp) OpName() string { return "pulse.capture" }

// Render implements Op.
func (o *CaptureOp) Render() string {
	return fmt.Sprintf("%%%s = pulse.capture(%s, %d)", o.Result, o.Frame, o.Samples)
}

func (o *CaptureOp) isOp() {}

// ReturnOp terminates a sequence, yielding the captured bits (pulse.return).
type ReturnOp struct {
	Values []Value
}

// OpName implements Op.
func (o *ReturnOp) OpName() string { return "pulse.return" }

// Render implements Op.
func (o *ReturnOp) Render() string {
	if len(o.Values) == 0 {
		return "pulse.return"
	}
	vs := make([]string, len(o.Values))
	for i, v := range o.Values {
		vs[i] = v.String()
	}
	return "pulse.return " + strings.Join(vs, ", ")
}

func (o *ReturnOp) isOp() {}
