package qir

import (
	"slices"
	"strconv"
)

// emitter appends exchange-format text to one buffer. Emit sizes the buffer
// for the whole module up front, so the appends below do not allocate.
type emitter struct{ b []byte }

func (e *emitter) str(s string)  { e.b = append(e.b, s...) }
func (e *emitter) int(n int64)   { e.b = strconv.AppendInt(e.b, n, 10) }
func (e *emitter) f64(f float64) { e.b = strconv.AppendFloat(e.b, f, 'g', -1, 64) }

// slot writes an unbound template slot, param("name", scale, offset): the
// value scale·name + offset that Bind substitutes. The name is quoted, so
// any string survives the round trip through ParseModule.
func (e *emitter) slot(x *ParamExpr) {
	e.str("param(")
	e.b = strconv.AppendQuote(e.b, x.Param)
	e.str(", ")
	e.f64(x.Scale)
	e.str(", ")
	e.f64(x.Offset)
	e.str(")")
}

// slotTextBound is an upper estimate of one slot's text (a quoted byte
// takes at most four).
func slotTextBound(x *ParamExpr) int {
	if x == nil {
		return 0
	}
	return 16 + 4*len(x.Param) + 2*maxF64Text
}

// maxF64Text is the longest 'g' rendering of a float64
// ("-2.2250738585072014e-308").
const maxF64Text = 24

// textSizeBound is an upper estimate of the module's emitted size: exact
// for the fixed text, worst-case for every number.
func (m *Module) textSizeBound() int {
	n := 512 + len(m.ID) + len(m.EntryName) + len(m.Profile)
	for _, w := range m.Waveforms {
		n += 64 + len(w.Name) + 2*len(w.Samples)*(len(", double ")+maxF64Text)
	}
	for _, c := range m.Body {
		// Once in the body, at most once among the declarations.
		n += 32 + 2*len(c.Callee)
		for _, a := range c.Args {
			n += 64 + len(a.Sym) + slotTextBound(a.Expr)
		}
	}
	for _, p := range m.PortNames {
		n += 8 + len(p)
	}
	return n
}

// Emit renders the module as human-readable LLVM-flavored IR, matching the
// shape of the paper's Listing 3: opaque type declarations, waveform
// constants, one entry function of straight-line intrinsic calls, intrinsic
// declarations, and the attribute group carrying the profile. The result is
// the exchange-format payload as devices and the wire take it; a template's
// unbound slots are part of the text (see slot), so ParseModule(Emit(m))
// gives m back whether or not m is parametric.
func (m *Module) Emit() []byte {
	e := &emitter{b: make([]byte, 0, m.textSizeBound())}
	e.str("; ModuleID = '")
	e.str(m.ID)
	e.str("'\n" +
		"%Qubit = type opaque\n" +
		"%Result = type opaque\n" +
		"%Port = type opaque\n" +
		"%Waveform = type opaque\n" +
		"%Frame = type opaque\n" +
		"\n")

	for _, w := range m.Waveforms {
		// Interleaved I/Q doubles, like an AWG memory image.
		e.str("@")
		e.str(w.Name)
		e.str(" = private constant [")
		e.int(int64(2 * len(w.Samples)))
		e.str(" x double] [")
		e.samples(w.Samples)
		e.str("]\n")
	}
	if len(m.Waveforms) > 0 {
		e.str("\n")
	}

	e.str("define void @")
	e.str(m.EntryName)
	e.str("() #0 {\nentry:\n")
	for _, c := range m.Body {
		e.str("  call void @")
		e.str(c.Callee)
		e.str("(")
		for i, a := range c.Args {
			if i > 0 {
				e.str(", ")
			}
			e.arg(a)
		}
		e.str(")\n")
	}
	e.str("  ret void\n}\n\n")

	// Declarations for every callee used, in first-use order. The distinct
	// callees are a handful of intrinsics, so a scan beats a map.
	var declared [32]string
	seen := declared[:0]
	for _, c := range m.Body {
		if slices.Contains(seen, c.Callee) {
			continue
		}
		seen = append(seen, c.Callee)
		e.str("declare void @")
		e.str(c.Callee)
		e.str("(")
		for i, a := range c.Args {
			if i > 0 {
				e.str(", ")
			}
			e.str(declType(a.Kind))
		}
		e.str(")\n")
	}
	e.str("\n")

	e.str("attributes #0 = { \"entry_point\" \"qir_profiles\"=\"")
	e.str(m.Profile)
	e.str("\" \"output_labeling_schema\"=\"labeled\" \"required_num_qubits\"=\"")
	e.int(int64(m.NumQubits))
	e.str("\" \"required_num_results\"=\"")
	e.int(int64(m.NumResults))
	e.str("\" \"required_num_ports\"=\"")
	e.int(int64(m.NumPorts))
	e.str("\" }\n")

	if len(m.PortNames) > 0 {
		e.str("\n!ports = !{")
		for i, p := range m.PortNames {
			if i > 0 {
				e.str(", ")
			}
			e.str("!\"")
			e.str(p)
			e.str("\"")
		}
		e.str("}\n")
	}
	return e.b
}

// samples writes a waveform constant's interleaved I/Q image. Nearly all of
// a pulse payload's bytes come out of this loop.
//
//mqss:hotloop
func (e *emitter) samples(samples []complex128) {
	for i, s := range samples {
		if i > 0 {
			e.str(", ")
		}
		e.str("double ")
		e.f64(real(s))
		e.str(", double ")
		e.f64(imag(s))
	}
}

// arg writes one call argument. Only the two numeric kinds can carry a
// slot (Verify rejects one anywhere else).
func (e *emitter) arg(a Arg) {
	switch a.Kind {
	case ArgQubit:
		e.handle("%Qubit*", a.I)
	case ArgResult:
		e.handle("%Result*", a.I)
	case ArgPort:
		e.handle("%Port*", a.I)
	case ArgWaveform:
		e.str("%Waveform* @")
		e.str(a.Sym)
	case ArgF64:
		e.str("double ")
		if a.Expr != nil {
			e.slot(a.Expr)
		} else {
			e.f64(a.F)
		}
	case ArgI64:
		e.str("i64 ")
		if a.Expr != nil {
			e.slot(a.Expr)
		} else {
			e.int(a.I)
		}
	default:
		e.str("<bad arg kind ")
		e.int(int64(a.Kind))
		e.str(">")
	}
}

// handle writes an opaque-pointer handle: ty inttoptr (i64 n to ty).
func (e *emitter) handle(ty string, n int64) {
	e.str(ty)
	e.str(" inttoptr (i64 ")
	e.int(n)
	e.str(" to ")
	e.str(ty)
	e.str(")")
}

// declType is an argument kind's type in an intrinsic declaration.
func declType(k ArgKind) string {
	switch k {
	case ArgQubit:
		return "%Qubit*"
	case ArgResult:
		return "%Result*"
	case ArgPort:
		return "%Port*"
	case ArgWaveform:
		return "%Waveform*"
	case ArgF64:
		return "double"
	case ArgI64:
		return "i64"
	default:
		return ""
	}
}
