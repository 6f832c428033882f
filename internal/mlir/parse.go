package mlir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"mqsspulse/internal/waveform"
)

// Parse reads the textual module format produced by Module.Print. The
// grammar is line-free: tokens may be separated by any whitespace.
func Parse(src string) (*Module, error) {
	p := &parser{toks: tokenize(src)}
	m, err := p.parseModule()
	if err != nil {
		return nil, fmt.Errorf("mlir: parse: %w", err)
	}
	return m, nil
}

// maxDefSamples bounds the length of a `kind = …` def, which the parser
// samples as it reads it: a few bytes of text may not ask for more samples
// than the longest waveform a modelled device plays.
const maxDefSamples = 1 << 20

type token struct {
	kind tokKind
	text string
}

type tokKind int

const (
	tokIdent  tokKind = iota // identifiers, keywords, op names (with dots)
	tokSymbol                // @name
	tokValue                 // %name
	tokNumber
	tokString
	tokPunct // ( ) { } [ ] , = : -> !type handled as ident with '!'
	tokEOF
)

func tokenize(src string) []token {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '@' || c == '%':
			j := i + 1
			for j < n && isIdentChar(src[j]) {
				j++
			}
			kind := tokSymbol
			if c == '%' {
				kind = tokValue
			}
			toks = append(toks, token{kind, src[i+1 : j]})
			i = j
		case c == '"':
			// A string is Go-quoted, as Print writes it; a quote that opens
			// none is a stray the grammar rejects.
			if q, err := strconv.QuotedPrefix(src[i:]); err == nil {
				text, _ := strconv.Unquote(q)
				toks = append(toks, token{tokString, text})
				i += len(q)
			} else {
				toks = append(toks, token{tokPunct, `"`})
				i++
			}
		case c == '-' && i+1 < n && src[i+1] == '>':
			toks = append(toks, token{tokPunct, "->"})
			i += 2
		case strings.ContainsRune("(){}[],=:", rune(c)):
			toks = append(toks, token{tokPunct, string(c)})
			i++
		case isDigit(c) || ((c == '-' || c == '+') && i+1 < n && (isDigit(src[i+1]) || src[i+1] == '.')):
			j := scanNumber(src, i)
			toks = append(toks, token{tokNumber, src[i:j]})
			i = j
		case c == '!' || c == '_' || isLetter(c):
			j := i
			if c == '!' {
				j++
			}
			for j < n && (isIdentChar(src[j]) || src[j] == '.') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j]})
			i = j
		default:
			toks = append(toks, token{tokPunct, string(c)})
			i++
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks
}

func isIdentChar(c byte) bool {
	return c == '_' || isLetter(c) || isDigit(c)
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }

// scanNumber consumes a float literal starting at i, including exponent
// forms like 5.1e+09 that %g emits.
func scanNumber(src string, i int) int {
	n := len(src)
	j := i
	if src[j] == '-' || src[j] == '+' {
		j++
	}
	for j < n && (isDigit(src[j]) || src[j] == '.') {
		j++
	}
	if j < n && (src[j] == 'e' || src[j] == 'E') {
		k := j + 1
		if k < n && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < n && isDigit(src[k]) {
			j = k
			for j < n && isDigit(src[j]) {
				j++
			}
		}
	}
	return j
}

type parser struct {
	toks []token
	pos  int
}

// peek returns the current token: past the end of input, the final EOF.
func (p *parser) peek() token { return p.toks[min(p.pos, len(p.toks)-1)] }
func (p *parser) next() token { t := p.peek(); p.pos++; return t }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf(format+" (near token %d %q)", append(args, p.pos, p.peek().text)...)
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		p.pos--
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) expectIdent(s string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != s {
		p.pos--
		return p.errf("expected keyword %q", s)
	}
	return nil
}

func (p *parser) parseModule() (*Module, error) {
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	m := &Module{}
	for {
		t := p.peek()
		if t.kind == tokPunct && t.text == "}" {
			p.next()
			break
		}
		if t.kind == tokEOF {
			return nil, p.errf("unterminated module")
		}
		if t.kind != tokIdent {
			return nil, p.errf("expected pulse.def or pulse.sequence")
		}
		switch t.text {
		case "pulse.def":
			w, err := p.parseWaveformDef()
			if err != nil {
				return nil, err
			}
			m.WaveformDefs = append(m.WaveformDefs, w)
		case "pulse.sequence":
			s, err := p.parseSequence()
			if err != nil {
				return nil, err
			}
			m.Sequences = append(m.Sequences, s)
		default:
			return nil, p.errf("unexpected top-level %q", t.text)
		}
	}
	return m, nil
}

func (p *parser) parseWaveformDef() (*WaveformDef, error) {
	p.next() // pulse.def
	sym := p.next()
	if sym.kind != tokSymbol {
		return nil, p.errf("expected @symbol after pulse.def")
	}
	w := &WaveformDef{Name: sym.text}
	switch p.peek().text {
	case "kind":
		p.next()
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		k := p.next()
		if k.kind != tokString {
			return nil, p.errf("expected string envelope kind")
		}
		if err := p.expectIdent("length"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		ln, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if ln > maxDefSamples {
			return nil, p.errf("pulse.def @%s: length %d above %d samples", sym.text, ln, maxDefSamples)
		}
		if err := p.expectIdent("params"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		params := map[string]float64{}
		for {
			if p.peek().text == "}" {
				p.next()
				break
			}
			key := p.next()
			if key.kind != tokIdent {
				return nil, p.errf("expected param name")
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			v, err := p.parseFloat()
			if err != nil {
				return nil, err
			}
			params[key.text] = v
			if p.peek().text == "," {
				p.next()
			}
		}
		env, err := waveform.EnvelopeFromSpec(k.text, params)
		if err == nil {
			w.Waveform, err = env.Materialize(sym.text, int(ln))
		}
		if err != nil {
			return nil, p.errf("pulse.def @%s: %w", sym.text, err)
		}
		w.Envelope = env
	case "samples":
		p.next()
		w.Waveform = &waveform.Waveform{Name: sym.text}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		for {
			if p.peek().text == "]" {
				p.next()
				break
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			re, err := p.parseFloat()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			im, err := p.parseFloat()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			w.Waveform.Samples = append(w.Waveform.Samples, complex(re, im))
			if p.peek().text == "," {
				p.next()
			}
		}
	default:
		return nil, p.errf("expected kind= or samples= in pulse.def")
	}
	return w, nil
}

func (p *parser) parseSequence() (*Sequence, error) {
	p.next() // pulse.sequence
	sym := p.next()
	if sym.kind != tokSymbol {
		return nil, p.errf("expected @symbol after pulse.sequence")
	}
	s := &Sequence{Name: sym.text}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.peek().text == ")" {
			p.next()
			break
		}
		v := p.next()
		if v.kind != tokValue {
			return nil, p.errf("expected %%arg name")
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		tt := p.next()
		ty, err := ParseType(tt.text)
		if err != nil {
			return nil, err
		}
		s.Args = append(s.Args, Arg{Name: v.text, Type: ty})
		if p.peek().text == "," {
			p.next()
		}
	}
	if p.peek().text == "->" {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			if p.peek().text == ")" {
				p.next()
				break
			}
			tt := p.next()
			ty, err := ParseType(tt.text)
			if err != nil {
				return nil, err
			}
			s.Results = append(s.Results, ty)
			if p.peek().text == "," {
				p.next()
			}
		}
	}
	if p.peek().text == "ports" {
		p.next()
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		for {
			if p.peek().text == "]" {
				p.next()
				break
			}
			t := p.next()
			if t.kind != tokString {
				return nil, p.errf("expected string port name")
			}
			s.ArgPorts = append(s.ArgPorts, t.text)
			if p.peek().text == "," {
				p.next()
			}
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		if p.peek().text == "}" {
			p.next()
			break
		}
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		s.Ops = append(s.Ops, op)
	}
	return s, nil
}

func (p *parser) parseOp() (Op, error) {
	t := p.next()
	// Result-producing form: %name = op ...
	if t.kind == tokValue {
		result := t.text
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		opTok := p.next()
		switch opTok.text {
		case "pulse.waveform_ref":
			sym := p.next()
			if sym.kind != tokSymbol {
				return nil, p.errf("expected @waveform symbol")
			}
			return &WaveformRefOp{Result: result, Waveform: sym.text}, nil
		case "pulse.capture":
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			frame, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &CaptureOp{Result: result, Frame: frame, Samples: n}, nil
		default:
			return nil, p.errf("unknown result-producing op %q", opTok.text)
		}
	}
	if t.kind != tokIdent {
		return nil, p.errf("expected op name")
	}
	switch {
	case t.text == "pulse.play":
		vals, err := p.parseValueList(2)
		if err != nil {
			return nil, err
		}
		return &PlayOp{Frame: vals[0], Waveform: vals[1]}, nil
	case t.text == "pulse.frame_change":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		frame, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectIdent("freq"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		freq, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectIdent("phase"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		phase, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &FrameChangeOp{Frame: frame, Freq: freq, Phase: phase}, nil
	case t.text == "pulse.shift_phase", t.text == "pulse.set_phase",
		t.text == "pulse.shift_frequency", t.text == "pulse.set_frequency":
		vals, err := p.parseValueList(2)
		if err != nil {
			return nil, err
		}
		switch t.text {
		case "pulse.shift_phase":
			return &ShiftPhaseOp{Frame: vals[0], Phase: vals[1]}, nil
		case "pulse.set_phase":
			return &SetPhaseOp{Frame: vals[0], Phase: vals[1]}, nil
		case "pulse.shift_frequency":
			return &ShiftFrequencyOp{Frame: vals[0], Freq: vals[1]}, nil
		default:
			return &SetFrequencyOp{Frame: vals[0], Freq: vals[1]}, nil
		}
	case t.text == "pulse.delay":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		frame, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &DelayOp{Frame: frame, Samples: n}, nil
	case t.text == "pulse.barrier":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var frames []Value
		for {
			if p.peek().text == ")" {
				p.next()
				break
			}
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			frames = append(frames, v)
			if p.peek().text == "," {
				p.next()
			}
		}
		return &BarrierOp{Frames: frames}, nil
	case t.text == "pulse.return":
		var vals []Value
		for p.peek().kind == tokValue {
			vals = append(vals, Ref(p.next().text))
			if p.peek().text == "," {
				p.next()
			}
		}
		return &ReturnOp{Values: vals}, nil
	case strings.HasPrefix(t.text, "pulse.standard_"):
		gate := strings.TrimPrefix(t.text, "pulse.standard_")
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var frames []Value
		for {
			if p.peek().text == ")" {
				p.next()
				break
			}
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			frames = append(frames, v)
			if p.peek().text == "," {
				p.next()
			}
		}
		op := &StandardGateOp{Gate: gate, Frames: frames}
		// Optional {params = [...]} attribute.
		if p.peek().text == "{" {
			p.next()
			if err := p.expectIdent("params"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			for {
				if p.peek().text == "]" {
					p.next()
					break
				}
				v, err := p.parseFloat()
				if err != nil {
					return nil, err
				}
				op.Params = append(op.Params, v)
				if p.peek().text == "," {
					p.next()
				}
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
		}
		return op, nil
	default:
		return nil, p.errf("unknown op %q", t.text)
	}
}

func (p *parser) parseValueList(n int) ([]Value, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	out := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if i < n-1 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseValue() (Value, error) {
	t := p.next()
	switch t.kind {
	case tokValue:
		return Ref(t.text), nil
	case tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Value{}, p.errf("bad number %q", t.text)
		}
		return Lit(f), nil
	default:
		p.pos--
		return Value{}, p.errf("expected value or literal")
	}
}

func (p *parser) parseFloat() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		p.pos--
		return 0, p.errf("expected number")
	}
	return strconv.ParseFloat(t.text, 64)
}

func (p *parser) parseInt() (int64, error) {
	t := p.next()
	if t.kind != tokNumber {
		p.pos--
		return 0, p.errf("expected integer")
	}
	return strconv.ParseInt(t.text, 10, 64)
}
