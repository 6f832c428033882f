package mlir

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"mqsspulse/internal/waveform"
)

// WaveformDef is a module-level waveform symbol (pulse.def @name in the
// paper's Listing 2): its samples, and for a def parsed from a `kind = …`
// line the envelope they were sampled from.
type WaveformDef struct {
	Name string
	// Waveform holds the samples. The verifier, the passes and the backend
	// share it: a pass that changes a def's samples replaces the waveform
	// (and clears Envelope) rather than writing into it.
	Waveform *waveform.Waveform
	// Envelope, when non-nil, is the parametric envelope Waveform was
	// sampled from, so the printer writes the def back as `kind = …`.
	Envelope waveform.Envelope
	// AmpExpr, when non-nil, marks the definition as an unbound template
	// slot: the stored samples are the base envelope, multiplied by the
	// expression's bound value at bind time. Legalization (padding) applies
	// to the base samples and preserves the slot.
	AmpExpr *ParamExpr
}

// Sequence is a pulse.sequence: the pulse-level analogue of a function. Its
// mixed-frame arguments carry a port-binding attribute (pulse.argPorts in
// the paper) that the backend uses to map frames onto hardware channels.
type Sequence struct {
	Name string
	Args []Arg
	// ArgPorts parallels Args: for mixed-frame args the bound port ID, ""
	// for scalar args (matching the paper's pulse.argPorts attribute).
	ArgPorts []string
	// Results are the sequence result types (i1 per measured bit).
	Results []Type
	Ops     []Op
}

// Module is a top-level MLIR module holding waveform defs and sequences.
type Module struct {
	WaveformDefs []*WaveformDef
	Sequences    []*Sequence
}

// FindWaveform returns the named waveform def.
func (m *Module) FindWaveform(name string) (*WaveformDef, bool) {
	for _, w := range m.WaveformDefs {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// FindSequence returns the named sequence.
func (m *Module) FindSequence(name string) (*Sequence, bool) {
	for _, s := range m.Sequences {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// OpCount returns the total op count across sequences (pass statistics).
func (m *Module) OpCount() int {
	n := 0
	for _, s := range m.Sequences {
		n += len(s.Ops)
	}
	return n
}

// Verify checks module-level and sequence-level structural invariants:
// unique symbols, defined value uses, type sanity, single terminator.
func (m *Module) Verify() error {
	seen := map[string]bool{}
	for _, w := range m.WaveformDefs {
		if w.Name == "" {
			return fmt.Errorf("mlir: waveform def with empty name")
		}
		if seen[w.Name] {
			return fmt.Errorf("mlir: duplicate waveform def @%s", w.Name)
		}
		seen[w.Name] = true
		if w.Waveform == nil {
			return fmt.Errorf("mlir: waveform def @%s: %w", w.Name, waveform.ErrEmpty)
		}
		if err := w.Waveform.Check(); err != nil {
			return fmt.Errorf("mlir: waveform def @%s: %w", w.Name, err)
		}
	}
	seqSeen := map[string]bool{}
	for _, s := range m.Sequences {
		if s.Name == "" {
			return fmt.Errorf("mlir: sequence with empty name")
		}
		if seqSeen[s.Name] {
			return fmt.Errorf("mlir: duplicate sequence @%s", s.Name)
		}
		seqSeen[s.Name] = true
		if err := m.verifySequence(s); err != nil {
			return fmt.Errorf("mlir: sequence @%s: %w", s.Name, err)
		}
	}
	return nil
}

func (m *Module) verifySequence(s *Sequence) error {
	if len(s.ArgPorts) != 0 && len(s.ArgPorts) != len(s.Args) {
		return fmt.Errorf("argPorts length %d != args length %d", len(s.ArgPorts), len(s.Args))
	}
	types := map[string]Type{}
	for i, a := range s.Args {
		if a.Name == "" {
			return fmt.Errorf("arg %d has empty name", i)
		}
		if _, dup := types[a.Name]; dup {
			return fmt.Errorf("duplicate arg %%%s", a.Name)
		}
		types[a.Name] = a.Type
		if len(s.ArgPorts) > 0 {
			if a.Type == TypeMixedFrame && s.ArgPorts[i] == "" {
				return fmt.Errorf("mixed-frame arg %%%s has no port binding", a.Name)
			}
			if a.Type != TypeMixedFrame && s.ArgPorts[i] != "" {
				return fmt.Errorf("scalar arg %%%s has a port binding", a.Name)
			}
		}
	}

	checkFrame := func(v Value) error {
		if v.Expr != nil {
			return fmt.Errorf("frame operand cannot be a parameter expression")
		}
		if !v.IsRef {
			return fmt.Errorf("frame operand must be a value reference, got literal %g", v.Lit)
		}
		ty, ok := types[v.Ref]
		if !ok {
			return fmt.Errorf("use of undefined value %%%s", v.Ref)
		}
		if ty != TypeMixedFrame {
			return fmt.Errorf("%%%s is %s, expected %s", v.Ref, ty, TypeMixedFrame)
		}
		return nil
	}
	checkF64 := func(v Value) error {
		if v.Expr != nil {
			if v.IsRef {
				return fmt.Errorf("operand is both a value reference and a parameter expression")
			}
			if v.Expr.Param == "" {
				return fmt.Errorf("parameter expression with empty parameter name")
			}
			return nil
		}
		if !v.IsRef {
			return nil
		}
		ty, ok := types[v.Ref]
		if !ok {
			return fmt.Errorf("use of undefined value %%%s", v.Ref)
		}
		if ty != TypeF64 {
			return fmt.Errorf("%%%s is %s, expected f64", v.Ref, ty)
		}
		return nil
	}

	waveformValues := map[string]bool{}
	sawReturn := false
	for oi, op := range s.Ops {
		if sawReturn {
			return fmt.Errorf("op %d (%s) after terminator", oi, op.OpName())
		}
		switch o := op.(type) {
		case *StandardGateOp:
			if len(o.Frames) == 0 {
				return fmt.Errorf("op %d: gate with no frames", oi)
			}
			if len(o.ParamExprs) > len(o.Params) {
				return fmt.Errorf("op %d: %d param exprs for %d params", oi, len(o.ParamExprs), len(o.Params))
			}
			for _, f := range o.Frames {
				if err := checkFrame(f); err != nil {
					return fmt.Errorf("op %d: %w", oi, err)
				}
			}
		case *WaveformRefOp:
			if o.Result == "" {
				return fmt.Errorf("op %d: waveform_ref with empty result", oi)
			}
			if _, dup := types[o.Result]; dup {
				return fmt.Errorf("op %d: redefinition of %%%s", oi, o.Result)
			}
			if _, ok := m.FindWaveform(o.Waveform); !ok {
				return fmt.Errorf("op %d: reference to undefined waveform @%s", oi, o.Waveform)
			}
			types[o.Result] = TypeWaveform
			waveformValues[o.Result] = true
		case *PlayOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if !o.Waveform.IsRef || !waveformValues[o.Waveform.Ref] {
				return fmt.Errorf("op %d: play operand %s is not a waveform value", oi, o.Waveform)
			}
		case *FrameChangeOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if err := checkF64(o.Freq); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if err := checkF64(o.Phase); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
		case *ShiftPhaseOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if err := checkF64(o.Phase); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
		case *SetPhaseOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if err := checkF64(o.Phase); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
		case *ShiftFrequencyOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if err := checkF64(o.Freq); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
		case *SetFrequencyOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if err := checkF64(o.Freq); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
		case *DelayOp:
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if o.SamplesExpr != nil {
				if o.SamplesExpr.Param == "" {
					return fmt.Errorf("op %d: delay parameter expression with empty name", oi)
				}
			} else if o.Samples < 0 {
				return fmt.Errorf("op %d: negative delay", oi)
			}
		case *BarrierOp:
			for _, f := range o.Frames {
				if err := checkFrame(f); err != nil {
					return fmt.Errorf("op %d: %w", oi, err)
				}
			}
		case *CaptureOp:
			if o.Result == "" {
				return fmt.Errorf("op %d: capture with empty result", oi)
			}
			if _, dup := types[o.Result]; dup {
				return fmt.Errorf("op %d: redefinition of %%%s", oi, o.Result)
			}
			if err := checkFrame(o.Frame); err != nil {
				return fmt.Errorf("op %d: %w", oi, err)
			}
			if o.Samples <= 0 {
				return fmt.Errorf("op %d: capture with non-positive window", oi)
			}
			types[o.Result] = TypeI1
		case *ReturnOp:
			if len(o.Values) != len(s.Results) {
				return fmt.Errorf("op %d: return of %d values, sequence declares %d results",
					oi, len(o.Values), len(s.Results))
			}
			for vi, v := range o.Values {
				if !v.IsRef {
					return fmt.Errorf("op %d: return operand %d must be a value reference", oi, vi)
				}
				ty, ok := types[v.Ref]
				if !ok {
					return fmt.Errorf("op %d: return of undefined %%%s", oi, v.Ref)
				}
				if ty != s.Results[vi] {
					return fmt.Errorf("op %d: return operand %d is %s, want %s", oi, vi, ty, s.Results[vi])
				}
			}
			sawReturn = true
		default:
			return fmt.Errorf("op %d: unknown op type %T", oi, op)
		}
	}
	if !sawReturn {
		return fmt.Errorf("missing pulse.return terminator")
	}
	return nil
}

// Print renders the module in its textual format.
func (m *Module) Print() string {
	var sb strings.Builder
	sb.WriteString("module {\n")
	for _, w := range m.WaveformDefs {
		sb.WriteString("  " + renderWaveformDef(w) + "\n")
	}
	for _, s := range m.Sequences {
		printSequence(&sb, s)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func renderWaveformDef(w *WaveformDef) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pulse.def @%s", w.Name)
	if w.AmpExpr != nil {
		fmt.Fprintf(&sb, " amp = %s", exprString(w.AmpExpr))
	}
	if w.Envelope != nil {
		params := w.Envelope.Params()
		fmt.Fprintf(&sb, " kind = %q length = %d params = {", w.Envelope.Kind(), w.Waveform.Len())
		for i, k := range slices.Sorted(maps.Keys(params)) {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s = %g", k, params[k])
		}
		sb.WriteString("}")
		return sb.String()
	}
	sb.WriteString(" samples = [")
	for i, s := range w.Waveform.Samples {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%g, %g)", real(s), imag(s))
	}
	sb.WriteString("]")
	return sb.String()
}

func printSequence(sb *strings.Builder, s *Sequence) {
	fmt.Fprintf(sb, "  pulse.sequence @%s(", s.Name)
	for i, a := range s.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%%%s: %s", a.Name, a.Type)
	}
	sb.WriteString(")")
	if len(s.Results) > 0 {
		sb.WriteString(" -> (")
		for i, r := range s.Results {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(r.String())
		}
		sb.WriteString(")")
	}
	if len(s.ArgPorts) > 0 {
		sb.WriteString(" ports = [")
		for i, p := range s.ArgPorts {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "%q", p)
		}
		sb.WriteString("]")
	}
	sb.WriteString(" {\n")
	for _, op := range s.Ops {
		fmt.Fprintf(sb, "    %s\n", op.Render())
	}
	sb.WriteString("  }\n")
}
