package qir

import (
	"fmt"
	"strings"
)

// EmitReference is the fmt-based emitter Emit replaced, kept as the
// definition of the exchange text: Emit must match it byte for byte. It is
// exported (from a _test.go file) so the external corpus test can use it.
func EmitReference(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; ModuleID = '%s'\n", m.ID)
	sb.WriteString("%Qubit = type opaque\n")
	sb.WriteString("%Result = type opaque\n")
	sb.WriteString("%Port = type opaque\n")
	sb.WriteString("%Waveform = type opaque\n")
	sb.WriteString("%Frame = type opaque\n")
	sb.WriteString("\n")

	for _, w := range m.Waveforms {
		if w.AmpExpr != nil {
			// An unbound waveform has no concrete sample image; emitting one
			// is a caller bug (Bind must run first). Fail loudly at parse.
			fmt.Fprintf(&sb, "@%s = <unbound param %q>\n", w.Name, w.AmpExpr.Param)
			continue
		}
		// Interleaved I/Q doubles, like an AWG memory image.
		fmt.Fprintf(&sb, "@%s = private constant [%d x double] [", w.Name, 2*len(w.Samples))
		for i, s := range w.Samples {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "double %g, double %g", real(s), imag(s))
		}
		sb.WriteString("]\n")
	}
	if len(m.Waveforms) > 0 {
		sb.WriteString("\n")
	}

	fmt.Fprintf(&sb, "define void @%s() #0 {\n", m.EntryName)
	sb.WriteString("entry:\n")
	for _, c := range m.Body {
		sb.WriteString("  call void @" + c.Callee + "(")
		for i, a := range c.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(refRenderArg(a))
		}
		sb.WriteString(")\n")
	}
	sb.WriteString("  ret void\n")
	sb.WriteString("}\n\n")

	// Declarations for every callee used.
	declared := map[string]bool{}
	for _, c := range m.Body {
		if declared[c.Callee] {
			continue
		}
		declared[c.Callee] = true
		fmt.Fprintf(&sb, "declare void @%s(%s)\n", c.Callee, refDeclArgs(c))
	}
	sb.WriteString("\n")

	fmt.Fprintf(&sb, "attributes #0 = { \"entry_point\" \"qir_profiles\"=\"%s\" "+
		"\"output_labeling_schema\"=\"labeled\" \"required_num_qubits\"=\"%d\" "+
		"\"required_num_results\"=\"%d\" \"required_num_ports\"=\"%d\" }\n",
		m.Profile, m.NumQubits, m.NumResults, m.NumPorts)

	if len(m.PortNames) > 0 {
		sb.WriteString("\n!ports = !{")
		for i, p := range m.PortNames {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "!\"%s\"", p)
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func refRenderArg(a Arg) string {
	if a.Expr != nil {
		// An unbound slot has no textual form; emitting one is a caller bug
		// (Bind must run first). The token fails loudly at parse time.
		return fmt.Sprintf("<unbound param %q>", a.Expr.Param)
	}
	switch a.Kind {
	case ArgQubit:
		return fmt.Sprintf("%%Qubit* inttoptr (i64 %d to %%Qubit*)", a.I)
	case ArgResult:
		return fmt.Sprintf("%%Result* inttoptr (i64 %d to %%Result*)", a.I)
	case ArgPort:
		return fmt.Sprintf("%%Port* inttoptr (i64 %d to %%Port*)", a.I)
	case ArgWaveform:
		return fmt.Sprintf("%%Waveform* @%s", a.Sym)
	case ArgF64:
		return fmt.Sprintf("double %g", a.F)
	case ArgI64:
		return fmt.Sprintf("i64 %d", a.I)
	default:
		return fmt.Sprintf("<bad arg kind %d>", int(a.Kind))
	}
}

func refDeclArgs(c Call) string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		switch a.Kind {
		case ArgQubit:
			parts[i] = "%Qubit*"
		case ArgResult:
			parts[i] = "%Result*"
		case ArgPort:
			parts[i] = "%Port*"
		case ArgWaveform:
			parts[i] = "%Waveform*"
		case ArgF64:
			parts[i] = "double"
		case ArgI64:
			parts[i] = "i64"
		}
	}
	return strings.Join(parts, ", ")
}
