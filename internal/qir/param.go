package qir

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"mqsspulse/internal/waveform"
)

// ParamExpr is the exchange format's name for an unbound template slot (see
// waveform.ParamExpr). A QIR module carrying expressions is a parametric
// payload — the compile-once artifact of the template subsystem. Bind
// substitutes concrete values without touching the compiler, so a parameter
// sweep pays one compilation and N cheap binds.
type ParamExpr = waveform.ParamExpr

// IsParametric reports whether the module carries any unbound slot.
func (m *Module) IsParametric() bool {
	for i := range m.Waveforms {
		if m.Waveforms[i].AmpExpr != nil {
			return true
		}
	}
	for _, c := range m.Body {
		for _, a := range c.Args {
			if a.Expr != nil {
				return true
			}
		}
	}
	return false
}

// ParamNames returns the sorted, de-duplicated parameter names the module's
// unbound slots reference.
func (m *Module) ParamNames() []string {
	seen := map[string]bool{}
	for i := range m.Waveforms {
		if e := m.Waveforms[i].AmpExpr; e != nil {
			seen[e.Param] = true
		}
	}
	for _, c := range m.Body {
		for _, a := range c.Args {
			if a.Expr != nil {
				seen[a.Expr.Param] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// evalExpr evaluates an expression against a binding map, rejecting missing
// parameters and non-finite results.
func evalExpr(e *ParamExpr, vals map[string]float64) (float64, error) {
	p, ok := vals[e.Param]
	if !ok {
		return 0, fmt.Errorf("qir: bind: no value for parameter %q", e.Param)
	}
	v := e.Eval(p)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("qir: bind: parameter %q binds %g to non-finite %g", e.Param, p, v)
	}
	return v, nil
}

// Bind substitutes concrete parameter values into every unbound slot and
// returns a fully concrete module ready to emit or execute. The receiver is
// not modified; unchanged waveforms and calls are shared, not copied. Bound
// waveform samples are range-checked (|sample| ≤ full scale), and bound
// delay counts must round to a non-negative integer.
func (m *Module) Bind(vals map[string]float64) (*Module, error) {
	out := *m
	out.Waveforms = make([]WaveformConst, len(m.Waveforms))
	for i := range m.Waveforms {
		w := m.Waveforms[i]
		if w.AmpExpr == nil {
			out.Waveforms[i] = w
			continue
		}
		v, err := evalExpr(w.AmpExpr, vals)
		if err != nil {
			return nil, fmt.Errorf("qir: bind waveform @%s: %w", w.Name, err)
		}
		s := complex(v, 0)
		samples := make([]complex128, len(w.Samples))
		for j, x := range w.Samples {
			samples[j] = s * x
		}
		for j, x := range samples {
			if a := cmplx.Abs(x); math.IsNaN(a) || a > 1.0+1e-12 {
				return nil, fmt.Errorf("qir: bind waveform @%s: sample %d has magnitude %g", w.Name, j, a)
			}
		}
		out.Waveforms[i] = WaveformConst{Name: w.Name, Samples: samples}
	}
	out.Body = make([]Call, len(m.Body))
	for ci, c := range m.Body {
		bound := false
		for _, a := range c.Args {
			if a.Expr != nil {
				bound = true
				break
			}
		}
		if !bound {
			out.Body[ci] = c
			continue
		}
		args := make([]Arg, len(c.Args))
		copy(args, c.Args)
		for ai := range args {
			e := args[ai].Expr
			if e == nil {
				continue
			}
			v, err := evalExpr(e, vals)
			if err != nil {
				return nil, fmt.Errorf("qir: bind call %d (%s) arg %d: %w", ci, c.Callee, ai, err)
			}
			switch args[ai].Kind {
			case ArgF64:
				args[ai] = F64Arg(v)
			case ArgI64:
				r := math.Round(v)
				if r < 0 {
					return nil, fmt.Errorf("qir: bind call %d (%s) arg %d: %g rounds to a negative count",
						ci, c.Callee, ai, v)
				}
				args[ai] = I64Arg(int64(r))
			default:
				return nil, fmt.Errorf("qir: bind call %d (%s) arg %d: %s args cannot carry expressions",
					ci, c.Callee, ai, args[ai].Kind)
			}
		}
		out.Body[ci] = Call{Callee: c.Callee, Args: args}
	}
	return &out, nil
}
