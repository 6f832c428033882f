package qir

import (
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"slices"

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
	samples, values := m.slotCounts()
	return samples+values > 0
}

// slotCounts returns the lengths of a point's samples and values: the
// plays whose factor is a slot, and all argument slots.
func (m *Module) slotCounts() (samples, values int) {
	for _, c := range m.Body {
		if c.playSlot() {
			samples++
		}
		values += countSlots(c.Args)
	}
	return samples, values
}

// playSlot reports whether c is a play whose factor is a slot.
func (c Call) playSlot() bool {
	return c.Callee == IntrPlay && len(c.Args) == 3 && c.Args[2].Expr != nil
}

// countSlots returns how many of args are template slots.
func countSlots(args []Arg) (n int) {
	for _, a := range args {
		if a.Expr != nil {
			n++
		}
	}
	return n
}

// ParamNames returns the sorted, de-duplicated parameter names the module's
// unbound slots reference.
func (m *Module) ParamNames() []string {
	seen := map[string]bool{}
	for _, c := range m.Body {
		for _, a := range c.Args {
			if a.Expr != nil {
				seen[a.Expr.Param] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(seen))
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

// BindSlots evaluates every unbound slot of the module at vals — the one
// evaluation Bind is made of, checks included — and appends the results in
// slot order (in Body order, arguments left to right): to values, each slot's
// bound value, an i64 slot's rounded to its non-negative count; to samples,
// per play whose factor is a slot, its waveform constant's samples scaled by
// that factor, each within full scale. The pair is the template's point
// (pulse.Binding), which the link writes into the template (BuildSchedule)
// and a program prepared from that link takes in place.
func (m *Module) BindSlots(vals map[string]float64, samples [][]complex128, values []float64) ([][]complex128, []float64, error) {
	for ci, c := range m.Body {
		for ai, a := range c.Args {
			if a.Expr == nil {
				continue
			}
			v, err := evalExpr(a.Expr, vals)
			if err != nil {
				return nil, nil, fmt.Errorf("qir: bind call %d (%s) arg %d: %w", ci, c.Callee, ai, err)
			}
			switch a.Kind {
			case ArgF64:
			case ArgI64:
				r := math.Round(v)
				if r < 0 {
					return nil, nil, fmt.Errorf("qir: bind call %d (%s) arg %d: %g rounds to a negative count",
						ci, c.Callee, ai, v)
				}
				v = r
			default:
				return nil, nil, fmt.Errorf("qir: bind call %d (%s) arg %d: %s args cannot carry expressions",
					ci, c.Callee, ai, a.Kind)
			}
			values = append(values, v)
		}
		if c.playSlot() {
			w, ok := m.FindWaveform(c.Args[1].Sym)
			if !ok {
				return nil, nil, fmt.Errorf("qir: bind call %d: undefined waveform @%s", ci, c.Args[1].Sym)
			}
			bound, err := scaled(w, values[len(values)-1])
			if err != nil {
				return nil, nil, fmt.Errorf("qir: bind call %d: %w", ci, err)
			}
			samples = append(samples, bound)
		}
	}
	return samples, values, nil
}

// scaled returns w's samples times f, as waveform.Waveform.Scale multiplies
// them, each within full scale.
func scaled(w *WaveformConst, f float64) ([]complex128, error) {
	s := complex(f, 0)
	out := make([]complex128, len(w.Samples))
	for j, x := range w.Samples {
		out[j] = s * x
		if a := cmplx.Abs(out[j]); math.IsNaN(a) || a > 1.0+1e-12 {
			return nil, fmt.Errorf("waveform @%s times %g: sample %d has magnitude %g", w.Name, f, j, a)
		}
	}
	return out, nil
}

// Bind substitutes concrete parameter values into every unbound slot and
// returns a fully concrete module ready to emit or execute. The receiver is
// not modified; its waveforms and unchanged calls are shared, not copied.
// A play's factor must keep its samples within full scale, and bound delay
// counts must round to a non-negative integer (see BindSlots).
func (m *Module) Bind(vals map[string]float64) (*Module, error) {
	var sbuf [4][]complex128
	var vbuf [8]float64
	_, values, err := m.BindSlots(vals, sbuf[:0], vbuf[:0])
	if err != nil {
		return nil, err
	}
	out := *m
	out.Body = slices.Clone(m.Body)
	next := 0
	for ci := range out.Body {
		out.Body[ci], next = out.Body[ci].at(values, next)
	}
	return &out, nil
}

// at returns c with each slot argument replaced by its value, the slots
// numbered from values[next] on, and the number of the slot after c's last:
// the one substitution Bind and the link make.
func (c Call) at(values []float64, next int) (Call, int) {
	if countSlots(c.Args) == 0 {
		return c, next
	}
	c.Args = slices.Clone(c.Args)
	for ai, a := range c.Args {
		switch {
		case a.Expr == nil:
			continue
		case a.Kind == ArgF64:
			c.Args[ai] = F64Arg(values[next])
		default: // ArgI64
			c.Args[ai] = I64Arg(int64(values[next]))
		}
		next++
	}
	return c, next
}
