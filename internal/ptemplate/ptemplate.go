// Package ptemplate implements parametric pulse templates with deferred
// binding: a circuit carrying symbolic parameters (amplitudes, angles,
// phases, detunings, durations) is compiled ONCE into a parametric QIR
// payload with unbound slots, and each point of a parameter sweep is then
// produced by a cheap Bind step — pure arithmetic on the lowered artifact,
// no recompilation. This is the compile-once/bind-millions workflow
// calibration and characterization loops (Rabi, Ramsey, DRAG tune-ups)
// need: the gate→pulse lowering cost is paid per template, not per point.
//
// Templates declare a closed parameter space up front: every parameter
// carries an inclusive [Min, Max] range, and template compilation proves —
// per slot — that the whole range lowers legally (rotation angles stay
// inside [−π, π], amplitudes stay inside full scale, delays stay
// non-negative). Bind then only needs range and finiteness checks, so a
// malformed point fails with ErrBadParam before it reaches a scheduler or
// device.
//
// A lowered program has one serialised form, concrete or not: its QIR
// exchange text (Compiled.Text), in which an unbound slot is written
// param("name", scale, offset). FromText is the inverse, for the far side of
// a machine boundary.
package ptemplate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"

	"mqsspulse/internal/qpi"
)

// ErrBadParam reports a bind-time parameter violation: a missing value, a
// NaN or Inf, a value outside its declared range, or a value for an
// undeclared parameter. It fires before lowering or dispatch.
var ErrBadParam = errors.New("ptemplate: bad parameter value")

// Param declares one template parameter and its inclusive legal range.
// Template compilation proves the whole range lowers legally, so Bind can
// admit any in-range finite value without consulting the compiler. The JSON
// form is the remote wire's (a register frame's "params").
type Param struct {
	// Name identifies the parameter; expressions reference it by name.
	Name string `json:"name"`
	// Min is the smallest admissible value (inclusive).
	Min float64 `json:"min"`
	// Max is the largest admissible value (inclusive).
	Max float64 `json:"max"`
}

// Bindings assigns a concrete value to every template parameter for one
// sweep point.
type Bindings map[string]float64

// Template is a finished parametric circuit plus its declared parameter
// space, validated for range legality and ready to lower once per
// (device, calibration epoch).
type Template struct {
	// Circuit is the finished parametric kernel.
	Circuit *qpi.Circuit
	// Params are the declared parameters, sorted by name.
	Params []Param

	byName map[string]Param
}

// New validates a parametric circuit against its declared parameter space
// and returns a template. Every parameter the circuit references must be
// declared exactly once with a finite non-empty range, and every declared
// parameter must be referenced. Range legality is proven per slot:
//   - symbolic rx/ry angles must stay inside [−π, π] over the whole range —
//     where a concrete angle reduces to itself, so a bound payload is
//     byte-identical to a fresh compile at any nonzero angle but −π (at 0
//     it plays a zero-amplitude envelope, at −π the π envelope negated:
//     the same unitaries);
//   - symbolic delays must stay non-negative;
//   - symbolic waveform amplitudes must keep every sample inside full
//     scale (|amp| × envelope peak ≤ 1).
func New(c *qpi.Circuit, params ...Param) (*Template, error) {
	if c == nil {
		return nil, errors.New("ptemplate: nil circuit")
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ptemplate: circuit: %w", err)
	}
	if !c.Finished() {
		return nil, fmt.Errorf("ptemplate: circuit %q not finished", c.Name)
	}
	if !c.IsParametric() {
		return nil, fmt.Errorf("ptemplate: circuit %q has no parameter slots", c.Name)
	}
	byName := make(map[string]Param, len(params))
	for _, p := range params {
		if p.Name == "" {
			return nil, errors.New("ptemplate: parameter with empty name")
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("ptemplate: parameter %q declared twice", p.Name)
		}
		if math.IsNaN(p.Min) || math.IsInf(p.Min, 0) || math.IsNaN(p.Max) || math.IsInf(p.Max, 0) {
			return nil, fmt.Errorf("ptemplate: parameter %q has non-finite range [%g, %g]", p.Name, p.Min, p.Max)
		}
		if p.Min > p.Max {
			return nil, fmt.Errorf("ptemplate: parameter %q has empty range [%g, %g]", p.Name, p.Min, p.Max)
		}
		byName[p.Name] = p
	}
	used := c.ParamNames()
	for _, name := range used {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("ptemplate: circuit references undeclared parameter %q", name)
		}
	}
	if len(used) != len(byName) {
		usedSet := map[string]bool{}
		for _, name := range used {
			usedSet[name] = true
		}
		for name := range byName {
			if !usedSet[name] {
				return nil, fmt.Errorf("ptemplate: declared parameter %q is never referenced", name)
			}
		}
	}
	sorted := make([]Param, 0, len(byName))
	for _, name := range used { // used is already sorted
		sorted = append(sorted, byName[name])
	}
	t := &Template{Circuit: c, Params: sorted, byName: byName}
	if err := t.checkRangeLegality(); err != nil {
		return nil, err
	}
	return t, nil
}

// exprRange returns the inclusive interval an affine expression spans over
// its parameter's declared range.
func (t *Template) exprRange(e *qpi.ParamExpr) (lo, hi float64) {
	p := t.byName[e.Param]
	a, b := e.Eval(p.Min), e.Eval(p.Max)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// checkRangeLegality proves every slot lowers legally over its parameter's
// whole declared range, so Bind never has to consult the compiler.
func (t *Template) checkRangeLegality() error {
	for i := range t.Circuit.Ops {
		op := &t.Circuit.Ops[i]
		if e := op.AngleExpr; e != nil && (op.Gate == "rx" || op.Gate == "ry") {
			lo, hi := t.exprRange(e)
			if lo < -math.Pi || hi > math.Pi {
				return fmt.Errorf(
					"ptemplate: %s angle spans [%g, %g] over parameter %q's range; symbolic rotation angles must stay in [−π, π]",
					op.Gate, lo, hi, e.Param)
			}
		}
		if e := op.DelayExpr; e != nil {
			lo, _ := t.exprRange(e)
			if lo < 0 {
				return fmt.Errorf(
					"ptemplate: delay on port %q reaches %g samples over parameter %q's range; delays must stay non-negative",
					op.Port, lo, e.Param)
			}
		}
		if e := op.AmpExpr; e != nil {
			w, ok := t.Circuit.Waveforms[op.WaveformName]
			if !ok {
				return fmt.Errorf("ptemplate: waveform %q has an amplitude slot but no samples", op.WaveformName)
			}
			lo, hi := t.exprRange(e)
			maxAbs := math.Max(math.Abs(lo), math.Abs(hi))
			if peak := w.PeakAmplitude(); maxAbs*peak > 1.0+1e-12 {
				return fmt.Errorf(
					"ptemplate: waveform %q peaks at %g×%g = %g over parameter %q's range; scaled samples must stay within full scale",
					op.WaveformName, maxAbs, peak, maxAbs*peak, e.Param)
			}
		}
	}
	return nil
}

// validateBindings is the shared bind-time check used by Template and
// Compiled (which may have been rebuilt from text without a Template).
func validateBindings(params []Param, b Bindings) error {
	for _, p := range params {
		v, ok := b[p.Name]
		if !ok {
			return fmt.Errorf("%w: no value for parameter %q", ErrBadParam, p.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: parameter %q is %g", ErrBadParam, p.Name, v)
		}
		if v < p.Min || v > p.Max {
			return fmt.Errorf("%w: parameter %q = %g outside declared range [%g, %g]",
				ErrBadParam, p.Name, v, p.Min, p.Max)
		}
	}
	if len(b) != len(params) {
		declared := map[string]bool{}
		for _, p := range params {
			declared[p.Name] = true
		}
		extra := make([]string, 0, 1)
		for name := range b {
			if !declared[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("%w: bindings name undeclared parameters %v", ErrBadParam, extra)
	}
	return nil
}

// Descriptor renders (circuit structure, declared parameter space, device)
// as one string: the lowering-cache key. It is the only circuit descriptor
// in the stack and covers every field of qpi.Op, so two programs that lower
// differently never share a cache entry; bound values never appear in it,
// so every sweep point of a template shares one. A concrete kernel is the
// no-parameter case. Strings are quoted and floats rendered as exact bits,
// so neither a separator inside a name nor a difference below print
// precision can make two descriptors collide.
func Descriptor(k *qpi.Circuit, params []Param, device string) string {
	b := make([]byte, 0, 64+96*len(k.Ops))
	str := func(s string) { b = append(strconv.AppendQuote(b, s), ':') }
	num := func(n int64) { b = append(strconv.AppendInt(b, n, 10), ':') }
	f64 := func(f float64) { b = append(strconv.AppendUint(b, math.Float64bits(f), 16), ':') }
	str(device)
	str(k.Name)
	num(int64(k.Qubits))
	num(int64(k.Classical))
	num(int64(len(k.Ops)))
	for i := range k.Ops {
		op := &k.Ops[i]
		b = append(b, '|')
		num(int64(op.Kind))
		str(op.Gate)
		num(int64(len(op.Qubits)))
		for _, q := range op.Qubits {
			num(int64(q))
		}
		num(int64(len(op.Params)))
		for _, p := range op.Params {
			f64(p)
		}
		str(op.WaveformName)
		str(op.Port)
		f64(op.FrequencyHz)
		f64(op.PhaseRad)
		num(op.DelaySamples)
		num(int64(op.Qubit))
		num(int64(op.Cbit))
		num(op.WindowSamples)
		for _, e := range [...]*qpi.ParamExpr{op.AngleExpr, op.FreqExpr, op.PhaseExpr, op.DelayExpr, op.AmpExpr} {
			if e == nil {
				b = append(b, '-', ':')
				continue
			}
			str(e.Param)
			f64(e.Scale)
			f64(e.Offset)
		}
	}
	for _, p := range params {
		b = append(b, '|', 'p')
		str(p.Name)
		f64(p.Min)
		f64(p.Max)
	}
	if len(k.Waveforms) > 0 {
		b = append(b, '|', 'w')
		b = strconv.AppendUint(b, waveformDigest(k), 16)
	}
	return string(b)
}

// fingerprint collapses a descriptor to a fixed-width ID — with the
// calibration epoch, the wire protocol's program ID, small regardless of
// circuit size. The cache keys on the full descriptor, so a hash collision
// can at worst confuse two programs registered on one remote connection,
// never serve a wrong cached program.
func fingerprint(descriptor string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, descriptor)
	return fmt.Sprintf("tpl-%016x", h.Sum64())
}

// waveformDigest hashes every waveform's sample data in name order: two
// kernels that define different samples under one waveform name must not
// collide.
func waveformDigest(k *qpi.Circuit) uint64 {
	names := make([]string, 0, len(k.Waveforms))
	for name := range k.Waveforms {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [16]byte
	for _, name := range names {
		_, _ = io.WriteString(h, name)
		_, _ = h.Write([]byte{0})
		for _, s := range k.Waveforms[name].Samples {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(s)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(s)))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}
