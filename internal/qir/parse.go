package qir

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseModule reads the textual form produced by Emit. The parser accepts
// the straight-line Base/Pulse-Profile subset: one entry function of call
// instructions, waveform constants, the #0 attribute group, and the !ports
// metadata line — with a template's unbound slots where Emit writes them,
// on double and i64 arguments.
func ParseModule(src string) (*Module, error) {
	m := &Module{Profile: ProfileBase}
	lines := strings.Split(src, "\n")
	inBody := false
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || strings.HasPrefix(line, "%"):
			// blank or opaque type decl
		case strings.HasPrefix(line, "; ModuleID"):
			if i := strings.Index(line, "'"); i >= 0 {
				rest := line[i+1:]
				if j := strings.Index(rest, "'"); j >= 0 {
					m.ID = rest[:j]
				}
			}
		case strings.HasPrefix(line, ";"):
			// comment
		case strings.HasPrefix(line, "@"):
			w, err := parseWaveformConst(line)
			if err != nil {
				return nil, fmt.Errorf("qir: line %d: %w", ln+1, err)
			}
			m.Waveforms = append(m.Waveforms, w)
		case strings.HasPrefix(line, "define void @"):
			name := strings.TrimPrefix(line, "define void @")
			if i := strings.Index(name, "("); i >= 0 {
				name = name[:i]
			}
			m.EntryName = name
			inBody = true
		case line == "entry:":
			// label
		case strings.HasPrefix(line, "call void @"):
			if !inBody {
				return nil, fmt.Errorf("qir: line %d: call outside function body", ln+1)
			}
			c, err := parseCall(line)
			if err != nil {
				return nil, fmt.Errorf("qir: line %d: %w", ln+1, err)
			}
			m.Body = append(m.Body, c)
		case line == "ret void":
			// terminator
		case line == "}":
			inBody = false
		case strings.HasPrefix(line, "declare"):
			// declarations are recomputed from the body
		case strings.HasPrefix(line, "attributes #0"):
			if err := parseAttributes(line, m); err != nil {
				return nil, fmt.Errorf("qir: line %d: %w", ln+1, err)
			}
		case strings.HasPrefix(line, "!ports"):
			m.PortNames = parsePortsMeta(line)
		default:
			return nil, fmt.Errorf("qir: line %d: unrecognized syntax %q", ln+1, line)
		}
	}
	if m.EntryName == "" {
		return nil, fmt.Errorf("qir: no entry function found")
	}
	return m, nil
}

func parseWaveformConst(line string) (WaveformConst, error) {
	// @name = private constant [N x double] [double a, double b, ...]
	var w WaveformConst
	eq := strings.Index(line, " =")
	if eq < 0 {
		return w, fmt.Errorf("malformed waveform constant")
	}
	w.Name = strings.TrimPrefix(line[:eq], "@")
	open := strings.Index(line, "] [")
	if open < 0 {
		return w, fmt.Errorf("malformed waveform data")
	}
	data, tail, closed := strings.Cut(line[open+3:], "]")
	if !closed {
		return w, fmt.Errorf("unterminated waveform data")
	}
	if tail != "" {
		return w, fmt.Errorf("unrecognized text %q after waveform data", tail)
	}
	fields := strings.Split(data, ",")
	vals := make([]float64, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(f), "double"))
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return w, fmt.Errorf("bad sample %q: %v", f, err)
		}
		vals = append(vals, v)
	}
	if len(vals)%2 != 0 {
		return w, fmt.Errorf("odd interleaved sample count %d", len(vals))
	}
	for i := 0; i < len(vals); i += 2 {
		w.Samples = append(w.Samples, complex(vals[i], vals[i+1]))
	}
	return w, nil
}

func parseCall(line string) (Call, error) {
	var c Call
	rest := strings.TrimPrefix(line, "call void @")
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return c, fmt.Errorf("malformed call")
	}
	c.Callee = rest[:open]
	argstr := rest[open+1 : len(rest)-1]
	if strings.TrimSpace(argstr) == "" {
		return c, nil
	}
	parts := splitTopLevel(argstr)
	c.Args = make([]Arg, 0, len(parts))
	for _, part := range parts {
		a, err := parseArg(strings.TrimSpace(part))
		if err != nil {
			return c, err
		}
		c.Args = append(c.Args, a)
	}
	return c, nil
}

// splitTopLevel splits on commas not inside parentheses (inttoptr args and
// slots contain nested parens) or inside a slot's quoted parameter name.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseArg(s string) (Arg, error) {
	switch {
	case strings.HasPrefix(s, "%Qubit* inttoptr"):
		i, err := extractHandle(s)
		return QubitArg(i), err
	case strings.HasPrefix(s, "%Result* inttoptr"):
		i, err := extractHandle(s)
		return ResultArg(i), err
	case strings.HasPrefix(s, "%Port* inttoptr"):
		i, err := extractHandle(s)
		return PortArg(i), err
	case strings.HasPrefix(s, "%Waveform* @"):
		return WaveformArg(strings.TrimPrefix(s, "%Waveform* @")), nil
	case strings.HasPrefix(s, "double param("):
		expr, err := parseSlot(strings.TrimPrefix(s, "double "))
		return Arg{Kind: ArgF64, Expr: expr}, err
	case strings.HasPrefix(s, "i64 param("):
		expr, err := parseSlot(strings.TrimPrefix(s, "i64 "))
		return Arg{Kind: ArgI64, Expr: expr}, err
	case strings.HasPrefix(s, "double "):
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(s, "double ")), 64)
		return F64Arg(v), err
	case strings.HasPrefix(s, "i64 "):
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(s, "i64 ")), 10, 64)
		return I64Arg(v), err
	default:
		return Arg{}, fmt.Errorf("unrecognized argument %q", s)
	}
}

// parseSlot reads an unbound template slot: param("name", scale, offset).
func parseSlot(s string) (*ParamExpr, error) {
	body, ok := strings.CutPrefix(s, "param(")
	if !ok || !strings.HasSuffix(body, ")") {
		return nil, fmt.Errorf("malformed slot %q", s)
	}
	body = body[:len(body)-1]
	quoted, err := strconv.QuotedPrefix(body)
	if err != nil {
		return nil, fmt.Errorf("slot %q: parameter name is not a quoted string", s)
	}
	name, err := strconv.Unquote(quoted)
	if err != nil {
		return nil, fmt.Errorf("slot %q: %v", s, err)
	}
	// What follows the name is ", scale, offset".
	fields := strings.Split(body[len(quoted):], ",")
	if len(fields) != 3 || strings.TrimSpace(fields[0]) != "" {
		return nil, fmt.Errorf("slot %q: want a name, a scale and an offset", s)
	}
	scale, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
	if err != nil {
		return nil, fmt.Errorf("slot %q: bad scale: %v", s, err)
	}
	offset, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
	if err != nil {
		return nil, fmt.Errorf("slot %q: bad offset: %v", s, err)
	}
	return &ParamExpr{Param: name, Scale: scale, Offset: offset}, nil
}

// extractHandle pulls N out of "%T* inttoptr (i64 N to %T*)".
func extractHandle(s string) (int64, error) {
	open := strings.Index(s, "(i64 ")
	if open < 0 {
		return 0, fmt.Errorf("malformed inttoptr %q", s)
	}
	rest := s[open+5:]
	end := strings.Index(rest, " to ")
	if end < 0 {
		return 0, fmt.Errorf("malformed inttoptr %q", s)
	}
	return strconv.ParseInt(rest[:end], 10, 64)
}

func parseAttributes(line string, m *Module) error {
	get := func(key string) (string, bool) {
		tag := "\"" + key + "\"=\""
		i := strings.Index(line, tag)
		if i < 0 {
			return "", false
		}
		rest := line[i+len(tag):]
		j := strings.Index(rest, "\"")
		if j < 0 {
			return "", false
		}
		return rest[:j], true
	}
	if v, ok := get("qir_profiles"); ok {
		m.Profile = v
	}
	for key, dst := range map[string]*int{
		"required_num_qubits":  &m.NumQubits,
		"required_num_results": &m.NumResults,
		"required_num_ports":   &m.NumPorts,
	} {
		if v, ok := get(key); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s=%q", key, v)
			}
			*dst = n
		}
	}
	return nil
}

func parsePortsMeta(line string) []string {
	var out []string
	rest := line
	for {
		i := strings.Index(rest, "!\"")
		if i < 0 {
			break
		}
		rest = rest[i+2:]
		j := strings.Index(rest, "\"")
		if j < 0 {
			break
		}
		out = append(out, rest[:j])
		rest = rest[j+1:]
	}
	return out
}
