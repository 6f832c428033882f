package mlir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"mqsspulse/internal/pulse"
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

// isIdent reports whether s reads back as one identifier token.
func isIdent(s string) bool {
	if s == "" || !isLetter(s[0]) && s[0] != '_' {
		return false
	}
	for i := range len(s) {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return true
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
		params := map[string]float64{}
		err = p.list("{", "}", func() error {
			key := p.next()
			if key.kind != tokIdent {
				return p.errf("expected param name")
			}
			if err := p.expectPunct("="); err != nil {
				return err
			}
			v, err := p.parseFloat()
			params[key.text] = v
			return err
		})
		if err != nil {
			return nil, err
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
		err := p.list("[", "]", func() error {
			if err := p.expectPunct("("); err != nil {
				return err
			}
			re, err := p.parseFloat()
			if err != nil {
				return err
			}
			if err := p.expectPunct(","); err != nil {
				return err
			}
			im, err := p.parseFloat()
			if err != nil {
				return err
			}
			w.Waveform.Samples = append(w.Waveform.Samples, complex(re, im))
			return p.expectPunct(")")
		})
		if err != nil {
			return nil, err
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
	err := p.list("(", ")", func() error {
		v := p.next()
		if v.kind != tokValue {
			return p.errf("expected %%arg name")
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		ty, err := ParseType(p.next().text)
		s.Args = append(s.Args, Arg{Name: v.text, Type: ty})
		return err
	})
	if err != nil {
		return nil, err
	}
	if p.peek().text == "->" {
		p.next()
		err := p.list("(", ")", func() error {
			ty, err := ParseType(p.next().text)
			s.Results = append(s.Results, ty)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if p.peek().text == "ports" {
		p.next()
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		err := p.list("[", "]", func() error {
			t := p.next()
			if t.kind != tokString {
				return p.errf("expected string port name")
			}
			s.ArgPorts = append(s.ArgPorts, t.text)
			return nil
		})
		if err != nil {
			return nil, err
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
	name, dialect := strings.CutPrefix(t.text, "pulse.")
	kind, isFrame := pulse.FrameKindNamed(name)
	isFrame = isFrame && dialect
	switch {
	case t.text == "pulse.play":
		// The factor is 1 where the text leaves it out.
		vals, err := p.parseValueList(2, 3)
		if err != nil {
			return nil, err
		}
		op := &PlayOp{Frame: vals[0], Waveform: vals[1], Factor: Lit(1)}
		if len(vals) == 3 {
			op.Factor = vals[2]
		}
		return op, nil
	case isFrame:
		return p.parseFrameOp(kind)
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
		op := &DelayOp{Frame: frame}
		if p.atExpr() {
			op.SamplesExpr, err = p.parseExpr()
		} else {
			op.Samples, err = p.parseInt()
		}
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return op, nil
	case t.text == "pulse.barrier":
		frames, err := p.parseOperands()
		if err != nil {
			return nil, err
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
		frames, err := p.parseOperands()
		if err != nil {
			return nil, err
		}
		op := &StandardGateOp{Gate: strings.TrimPrefix(t.text, "pulse.standard_"), Frames: frames}
		// Optional {params = [...]} attribute.
		if p.peek().text == "{" {
			p.next()
			if err := p.expectIdent("params"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			var exprs []*ParamExpr
			err := p.list("[", "]", func() error {
				v, err := p.parseValue()
				if err == nil && v.IsRef {
					err = p.errf("gate parameter %s is not a number or a slot", v)
				}
				op.Params = append(op.Params, v.Lit)
				exprs = append(exprs, v.Expr)
				return err
			})
			if err != nil {
				return nil, err
			}
			if slices.ContainsFunc(exprs, func(e *ParamExpr) bool { return e != nil }) {
				op.ParamExprs = exprs
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

// parseFrameOp reads a frame op's operands after its mnemonic: (%frame, v),
// or for a frame change (%frame, freq = v, phase = v).
func (p *parser) parseFrameOp(k pulse.FrameKind) (Op, error) {
	op := &FrameOp{Kind: k}
	if k != pulse.FrameChange {
		vals, err := p.parseValueList(2, 2)
		if err != nil {
			return nil, err
		}
		op.Frame = vals[0]
		if hz, _ := k.Reads(); hz {
			op.Freq = vals[1]
		} else {
			op.Phase = vals[1]
		}
		return op, nil
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	frame, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	op.Frame = frame
	for _, kw := range []struct {
		name string
		v    *Value
	}{{"freq", &op.Freq}, {"phase", &op.Phase}} {
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectIdent(kw.name); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if *kw.v, err = p.parseValue(); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return op, nil
}

// list reads a list from open to close, calling item for each element;
// a comma may follow each.
func (p *parser) list(open, close string, item func() error) error {
	if err := p.expectPunct(open); err != nil {
		return err
	}
	for p.peek().text != close {
		if err := item(); err != nil {
			return err
		}
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next()
	return nil
}

// parseOperands reads a parenthesised list of values.
func (p *parser) parseOperands() (vals []Value, err error) {
	err = p.list("(", ")", func() error {
		v, err := p.parseValue()
		vals = append(vals, v)
		return err
	})
	return vals, err
}

// parseValueList reads a parenthesised list of lo to hi values.
func (p *parser) parseValueList(lo, hi int) ([]Value, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	out := make([]Value, 0, hi)
	for len(out) < lo || len(out) < hi && p.peek().text == "," {
		if len(out) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseValue() (Value, error) {
	if p.atExpr() {
		e, err := p.parseExpr()
		return Value{Expr: e}, err
	}
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

// atExpr reports whether a template slot starts at the current token.
func (p *parser) atExpr() bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == "param"
}

// parseExpr reads a template slot as exprString writes it.
func (p *parser) parseExpr() (*ParamExpr, error) {
	if err := p.expectIdent("param"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	scale, err := p.parseFloat()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("*"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.kind != tokIdent && name.kind != tokString {
		p.pos--
		return nil, p.errf("expected parameter name")
	}
	offset, err := p.parseFloat()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(">"); err != nil {
		return nil, err
	}
	return &ParamExpr{Param: name.text, Scale: scale, Offset: offset}, nil
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
