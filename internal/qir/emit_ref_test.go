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

// refSlot renders an unbound template slot.
func refSlot(e *ParamExpr) string {
	return fmt.Sprintf("param(%q, %g, %g)", e.Param, e.Scale, e.Offset)
}

func refRenderArg(a Arg) string {
	switch {
	case a.Expr != nil && a.Kind == ArgF64:
		return "double " + refSlot(a.Expr)
	case a.Expr != nil && a.Kind == ArgI64:
		return "i64 " + refSlot(a.Expr)
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
