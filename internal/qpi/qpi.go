// Package qpi is the native, compiled Quantum Programming Interface of the
// stack — the Go analogue of the paper's C-based MQSS QPI Adapter extension
// (Section 5.1, Listing 1). It provides gate-level circuit construction plus
// the three pulse primitives the paper introduces:
//
//	Waveform(...)      — the paper's qWaveform
//	PlayWaveform(...)  — the paper's qPlayWaveform
//	FrameChange(...)   — the paper's qFrameChange
//
// Programs mix gate- and pulse-level operations freely; the compiler lowers
// both through the MLIR pulse dialect into the QIR exchange format.
package qpi

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"mqsspulse/internal/readout"
	"mqsspulse/internal/waveform"
)

// Measurement-level aliases so QPI callers need not import the readout
// package directly.
type (
	// MeasLevel selects raw/kerneled/discriminated readout records.
	MeasLevel = readout.MeasLevel
	// MeasReturn selects per-shot or shot-averaged records.
	MeasReturn = readout.MeasReturn
	// Result is the outcome of executing a kernel (the paper's
	// QuantumResult, read via qRead).
	Result = readout.Result
)

// MeasKerneled selects one integrated IQ point per acquisition.
const MeasKerneled = readout.LevelKerneled

// OpKind discriminates circuit operations.
type OpKind int

// Operation kinds.
const (
	OpGate OpKind = iota
	OpWaveformDef
	OpPlayWaveform
	OpFrameChange
	OpDelay
	OpBarrier
	OpMeasure
	OpAcquire
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpGate:
		return "gate"
	case OpWaveformDef:
		return "waveform"
	case OpPlayWaveform:
		return "play_waveform"
	case OpFrameChange:
		return "frame_change"
	case OpDelay:
		return "delay"
	case OpBarrier:
		return "barrier"
	case OpMeasure:
		return "measure"
	case OpAcquire:
		return "acquire"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// GateSpec describes a supported gate: its qubit arity and parameter count.
type GateSpec struct {
	Arity  int
	Params int
}

// Gates is the native gate set of the QPI, read from the stack's one gate
// table. Backends may support a subset; the compiler queries QDMI and lowers
// or rejects accordingly.
var Gates = func() map[string]GateSpec {
	m := make(map[string]GateSpec, len(waveform.Gates))
	for _, g := range waveform.Gates {
		m[g.Name] = GateSpec{Arity: g.Arity, Params: g.Params}
	}
	return m
}()

// Op is one circuit operation. Fields are used according to Kind.
type Op struct {
	Kind OpKind
	// Gate fields.
	Gate   string
	Qubits []int
	Params []float64
	// Pulse fields.
	WaveformName string
	Port         string
	FrequencyHz  float64
	PhaseRad     float64
	DelaySamples int64
	// Measurement fields.
	Qubit int
	Cbit  int
	// WindowSamples is the acquisition window length (OpAcquire).
	WindowSamples int64

	// Parametric slots (deferred-binding templates); nil means the
	// corresponding concrete field above is authoritative.

	// AngleExpr replaces Params[0] for rx/ry/rz gates.
	AngleExpr *ParamExpr
	// FreqExpr replaces FrequencyHz for frame changes.
	FreqExpr *ParamExpr
	// PhaseExpr replaces PhaseRad for frame changes.
	PhaseExpr *ParamExpr
	// DelayExpr replaces DelaySamples (bound value rounds to the nearest
	// non-negative integer).
	DelayExpr *ParamExpr
	// AmpExpr scales the samples of a waveform definition at bind time.
	AmpExpr *ParamExpr
}

// Circuit is a mixed gate/pulse quantum kernel, built in the style of the
// paper's Listing 1 (qCircuitBegin ... qCircuitEnd). End freezes it — a
// builder call after it records an error and appends nothing — and renders
// its lowering-cache key (Key) once, so every consumer may treat a finished
// circuit as a value.
type Circuit struct {
	name      string
	qubits    int
	classical int
	ops       []Op
	waveforms map[string]*waveform.Waveform

	// key is rendered by End; empty until then.
	key      string
	finished bool
	err      error
}

// NewCircuit begins a kernel (the paper's qCircuitBegin +
// qInitClassicalRegisters). Checks run in argument order and the first
// failure is the one Err reports; later checks never overwrite it.
func NewCircuit(name string, qubits, classical int) *Circuit {
	c := &Circuit{name: name, qubits: qubits, classical: classical,
		waveforms: map[string]*waveform.Waveform{}}
	switch {
	case name == "":
		c.err = errors.New("qpi: circuit needs a name")
	case qubits <= 0:
		c.err = errors.New("qpi: circuit needs at least one qubit")
	case classical < 0:
		c.err = errors.New("qpi: negative classical register count")
	}
	return c
}

// Name returns the kernel's name.
func (c *Circuit) Name() string { return c.name }

// Ops returns the kernel's operations in program order. The slice, and
// every Op's slice fields, are the circuit's own and shared with every
// reader: callers must not modify them.
func (c *Circuit) Ops() []Op { return c.ops }

// LookupWaveform returns the waveform defined under name, if any. The
// waveform is the circuit's own and shared: callers must not modify it.
func (c *Circuit) LookupWaveform(name string) (*waveform.Waveform, bool) {
	w, ok := c.waveforms[name]
	return w, ok
}

// Err returns the first construction error; all builder methods are no-ops
// once an error is recorded, so call sites can chain without checking each
// step (the C API's return-code pattern, adapted to Go).
func (c *Circuit) Err() error { return c.err }

func (c *Circuit) fail(format string, args ...any) *Circuit {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return c
}

// appendable reports whether a builder call may append: End has not been
// called and no error recorded. A call after End records that as the error.
func (c *Circuit) appendable() bool {
	if c.err == nil && c.finished {
		c.fail("qpi: append to finished circuit")
	}
	return c.err == nil
}

func (c *Circuit) checkQubit(q int) bool { return q >= 0 && q < c.qubits }

// Gate appends a named gate.
func (c *Circuit) Gate(name string, qubits []int, params ...float64) *Circuit {
	if !c.appendable() {
		return c
	}
	spec, ok := Gates[name]
	if !ok {
		return c.fail("qpi: unknown gate %q", name)
	}
	if len(qubits) != spec.Arity {
		return c.fail("qpi: gate %s expects %d qubits, got %d", name, spec.Arity, len(qubits))
	}
	if len(params) != spec.Params {
		return c.fail("qpi: gate %s expects %d params, got %d", name, spec.Params, len(params))
	}
	for _, p := range params {
		if !finite(p) {
			return c.fail("qpi: gate %s has non-finite parameter %v", name, p)
		}
	}
	seen := map[int]bool{}
	for _, q := range qubits {
		if !c.checkQubit(q) {
			return c.fail("qpi: qubit %d out of range [0,%d)", q, c.qubits)
		}
		if seen[q] {
			return c.fail("qpi: gate %s repeats qubit %d", name, q)
		}
		seen[q] = true
	}
	c.ops = append(c.ops, Op{Kind: OpGate, Gate: name,
		Qubits: append([]int(nil), qubits...), Params: append([]float64(nil), params...)})
	return c
}

// X appends an X gate (the paper's qX).
func (c *Circuit) X(q int) *Circuit { return c.Gate("x", []int{q}) }

// Y appends a Y gate.
func (c *Circuit) Y(q int) *Circuit { return c.Gate("y", []int{q}) }

// Z appends a Z gate.
func (c *Circuit) Z(q int) *Circuit { return c.Gate("z", []int{q}) }

// H appends a Hadamard gate.
func (c *Circuit) H(q int) *Circuit { return c.Gate("h", []int{q}) }

// SX appends a √X gate.
func (c *Circuit) SX(q int) *Circuit { return c.Gate("sx", []int{q}) }

// RX appends a parametrized X rotation.
func (c *Circuit) RX(q int, theta float64) *Circuit { return c.Gate("rx", []int{q}, theta) }

// RY appends a parametrized Y rotation.
func (c *Circuit) RY(q int, theta float64) *Circuit { return c.Gate("ry", []int{q}, theta) }

// RZ appends a parametrized Z rotation.
func (c *Circuit) RZ(q int, theta float64) *Circuit { return c.Gate("rz", []int{q}, theta) }

// CZ appends a controlled-Z gate.
func (c *Circuit) CZ(a, b int) *Circuit { return c.Gate("cz", []int{a, b}) }

// CX appends a controlled-X gate.
func (c *Circuit) CX(a, b int) *Circuit { return c.Gate("cx", []int{a, b}) }

// Waveform defines a named waveform from explicit amplitudes — the paper's
// qWaveform(waveform, amps).
func (c *Circuit) Waveform(name string, amps []complex128) *Circuit {
	if !c.appendable() {
		return c
	}
	if _, dup := c.waveforms[name]; dup {
		return c.fail("qpi: duplicate waveform %q", name)
	}
	w, err := waveform.New(name, amps)
	if err != nil {
		return c.fail("qpi: waveform %q: %v", name, err)
	}
	c.waveforms[name] = w
	c.ops = append(c.ops, Op{Kind: OpWaveformDef, WaveformName: name})
	return c
}

// WaveformEnvelope defines a named waveform from a parametric envelope.
func (c *Circuit) WaveformEnvelope(name string, env waveform.Envelope, n int) *Circuit {
	if c.err != nil {
		return c
	}
	w, err := env.Materialize(name, n)
	if err != nil {
		return c.fail("qpi: waveform %q: %v", name, err)
	}
	return c.Waveform(name, w.Samples)
}

// PlayWaveform emits a previously defined waveform on a named hardware port
// — the paper's qPlayWaveform(port, waveform).
func (c *Circuit) PlayWaveform(port, waveformName string) *Circuit {
	if !c.appendable() {
		return c
	}
	if port == "" {
		return c.fail("qpi: play on empty port name")
	}
	if _, ok := c.waveforms[waveformName]; !ok {
		return c.fail("qpi: play of undefined waveform %q", waveformName)
	}
	c.ops = append(c.ops, Op{Kind: OpPlayWaveform, Port: port, WaveformName: waveformName})
	return c
}

// FrameChange adjusts the carrier frame of a port: sets drive frequency and
// shifts phase — the paper's qFrameChange(port, frequency, phase).
func (c *Circuit) FrameChange(port string, freqHz, phaseRad float64) *Circuit {
	if !c.appendable() {
		return c
	}
	if port == "" {
		return c.fail("qpi: frame change on empty port name")
	}
	if !finite(freqHz) || !finite(phaseRad) {
		return c.fail("qpi: frame change on %q: non-finite frequency %v or phase %v", port, freqHz, phaseRad)
	}
	c.ops = append(c.ops, Op{Kind: OpFrameChange, Port: port, FrequencyHz: freqHz, PhaseRad: phaseRad})
	return c
}

// Delay idles a port for the given number of samples.
func (c *Circuit) Delay(port string, samples int64) *Circuit {
	if !c.appendable() {
		return c
	}
	if samples < 0 {
		return c.fail("qpi: negative delay")
	}
	c.ops = append(c.ops, Op{Kind: OpDelay, Port: port, DelaySamples: samples})
	return c
}

// Barrier synchronizes all qubits/ports.
func (c *Circuit) Barrier() *Circuit {
	if !c.appendable() {
		return c
	}
	c.ops = append(c.ops, Op{Kind: OpBarrier})
	return c
}

// cbitWritten reports whether classical bit cb is already the target of a
// measure or acquire op.
func (c *Circuit) cbitWritten(cb int) bool {
	for _, op := range c.ops {
		if (op.Kind == OpMeasure || op.Kind == OpAcquire) && op.Cbit == cb {
			return true
		}
	}
	return false
}

// Measure reads qubit q into classical bit cb — the paper's qMeasure(q, cb).
func (c *Circuit) Measure(q, cb int) *Circuit {
	if !c.appendable() {
		return c
	}
	if !c.checkQubit(q) {
		return c.fail("qpi: measure qubit %d out of range", q)
	}
	if cb < 0 || cb >= c.classical {
		return c.fail("qpi: classical bit %d out of range [0,%d)", cb, c.classical)
	}
	if c.cbitWritten(cb) {
		return c.fail("qpi: classical bit %d written twice", cb)
	}
	c.ops = append(c.ops, Op{Kind: OpMeasure, Qubit: q, Cbit: cb})
	return c
}

// Acquire opens an explicit acquisition window of windowSamples on a named
// hardware port, capturing the readout signal into classical bit cb — the
// pulse-level counterpart of Measure, letting programs control their own
// capture timing (readout calibration, custom integration windows).
func (c *Circuit) Acquire(port string, cb int, windowSamples int64) *Circuit {
	if !c.appendable() {
		return c
	}
	if port == "" {
		return c.fail("qpi: acquire on empty port name")
	}
	if windowSamples <= 0 {
		return c.fail("qpi: acquire window must be positive, got %d", windowSamples)
	}
	if cb < 0 || cb >= c.classical {
		return c.fail("qpi: classical bit %d out of range [0,%d)", cb, c.classical)
	}
	if c.cbitWritten(cb) {
		return c.fail("qpi: classical bit %d written twice", cb)
	}
	c.ops = append(c.ops, Op{Kind: OpAcquire, Port: port, Cbit: cb, WindowSamples: windowSamples})
	return c
}

// End finalizes the kernel (the paper's qCircuitEnd) and returns any
// accumulated construction error. It freezes the circuit — a builder call
// after it records an error instead of appending — and renders its Key.
func (c *Circuit) End() error {
	if c.err != nil {
		return c.err
	}
	if !c.finished {
		c.finished = true
		c.key = c.renderKey()
	}
	return nil
}

// Finished reports whether End was called successfully.
func (c *Circuit) Finished() bool { return c.finished }

// Key returns the finished circuit's half of the lowering-cache key (empty
// before End): its name, register sizes, every field of every Op and a
// digest of every waveform's samples. Two circuits that lower differently
// never share a key; a template adds its declared parameter space and the
// cache the device.
func (c *Circuit) Key() string { return c.key }

// renderKey renders Key. Strings are quoted and floats rendered as exact
// bits, so neither a separator inside a name nor a difference below print
// precision can make two keys collide; the samples enter as each def's
// length plus one FNV-1a digest of them all, in definition order.
func (c *Circuit) renderKey() string {
	b := make([]byte, 0, 64+96*len(c.ops))
	str := func(s string) { b = append(strconv.AppendQuote(b, s), ':') }
	num := func(n int64) { b = append(strconv.AppendInt(b, n, 10), ':') }
	f64 := func(f float64) { b = append(strconv.AppendUint(b, math.Float64bits(f), 16), ':') }
	str(c.name)
	num(int64(c.qubits))
	num(int64(c.classical))
	num(int64(len(c.ops)))
	digest := uint64(14695981039346656037) // FNV-1a offset basis
	for i := range c.ops {
		op := &c.ops[i]
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
		for _, e := range op.exprs() {
			if e == nil {
				b = append(b, '-', ':')
				continue
			}
			str(e.Param)
			f64(e.Scale)
			f64(e.Offset)
		}
		if w := c.waveforms[op.WaveformName]; w != nil && op.Kind == OpWaveformDef {
			num(int64(len(w.Samples)))
			for _, s := range w.Samples {
				digest = fnv1a(fnv1a(digest, math.Float64bits(real(s))), math.Float64bits(imag(s)))
			}
		}
	}
	if len(c.waveforms) > 0 {
		b = append(b, '|', 'w')
		b = strconv.AppendUint(b, digest, 16)
	}
	return string(b)
}

// fnv1a folds the eight little-endian bytes of x into the FNV-1a hash h.
func fnv1a(h, x uint64) uint64 {
	for range 8 {
		h = (h ^ x&0xff) * 1099511628211
		x >>= 8
	}
	return h
}
