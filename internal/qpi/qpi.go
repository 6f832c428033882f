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

// Circuit is a mixed gate/pulse quantum kernel under construction, built in
// the style of the paper's Listing 1 (qCircuitBegin ... qCircuitEnd).
type Circuit struct {
	Name      string
	Qubits    int
	Classical int
	Ops       []Op
	Waveforms map[string]*waveform.Waveform

	finished bool
	err      error
}

// NewCircuit begins a kernel (the paper's qCircuitBegin +
// qInitClassicalRegisters). Checks run in argument order and the first
// failure is the one Err reports; later checks never overwrite it.
func NewCircuit(name string, qubits, classical int) *Circuit {
	c := &Circuit{Name: name, Qubits: qubits, Classical: classical,
		Waveforms: map[string]*waveform.Waveform{}}
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

func (c *Circuit) checkQubit(q int) bool { return q >= 0 && q < c.Qubits }

// Gate appends a named gate.
func (c *Circuit) Gate(name string, qubits []int, params ...float64) *Circuit {
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
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
	seen := map[int]bool{}
	for _, q := range qubits {
		if !c.checkQubit(q) {
			return c.fail("qpi: qubit %d out of range [0,%d)", q, c.Qubits)
		}
		if seen[q] {
			return c.fail("qpi: gate %s repeats qubit %d", name, q)
		}
		seen[q] = true
	}
	c.Ops = append(c.Ops, Op{Kind: OpGate, Gate: name,
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
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	if _, dup := c.Waveforms[name]; dup {
		return c.fail("qpi: duplicate waveform %q", name)
	}
	w, err := waveform.New(name, amps)
	if err != nil {
		return c.fail("qpi: waveform %q: %v", name, err)
	}
	c.Waveforms[name] = w
	c.Ops = append(c.Ops, Op{Kind: OpWaveformDef, WaveformName: name})
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
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	if port == "" {
		return c.fail("qpi: play on empty port name")
	}
	if _, ok := c.Waveforms[waveformName]; !ok {
		return c.fail("qpi: play of undefined waveform %q", waveformName)
	}
	c.Ops = append(c.Ops, Op{Kind: OpPlayWaveform, Port: port, WaveformName: waveformName})
	return c
}

// FrameChange adjusts the carrier frame of a port: sets drive frequency and
// shifts phase — the paper's qFrameChange(port, frequency, phase).
func (c *Circuit) FrameChange(port string, freqHz, phaseRad float64) *Circuit {
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	if port == "" {
		return c.fail("qpi: frame change on empty port name")
	}
	c.Ops = append(c.Ops, Op{Kind: OpFrameChange, Port: port, FrequencyHz: freqHz, PhaseRad: phaseRad})
	return c
}

// Delay idles a port for the given number of samples.
func (c *Circuit) Delay(port string, samples int64) *Circuit {
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	if samples < 0 {
		return c.fail("qpi: negative delay")
	}
	c.Ops = append(c.Ops, Op{Kind: OpDelay, Port: port, DelaySamples: samples})
	return c
}

// Barrier synchronizes all qubits/ports.
func (c *Circuit) Barrier() *Circuit {
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	c.Ops = append(c.Ops, Op{Kind: OpBarrier})
	return c
}

// cbitWritten reports whether classical bit cb is already the target of a
// measure or acquire op.
func (c *Circuit) cbitWritten(cb int) bool {
	for _, op := range c.Ops {
		if (op.Kind == OpMeasure || op.Kind == OpAcquire) && op.Cbit == cb {
			return true
		}
	}
	return false
}

// Measure reads qubit q into classical bit cb — the paper's qMeasure(q, cb).
func (c *Circuit) Measure(q, cb int) *Circuit {
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	if !c.checkQubit(q) {
		return c.fail("qpi: measure qubit %d out of range", q)
	}
	if cb < 0 || cb >= c.Classical {
		return c.fail("qpi: classical bit %d out of range [0,%d)", cb, c.Classical)
	}
	if c.cbitWritten(cb) {
		return c.fail("qpi: classical bit %d written twice", cb)
	}
	c.Ops = append(c.Ops, Op{Kind: OpMeasure, Qubit: q, Cbit: cb})
	return c
}

// Acquire opens an explicit acquisition window of windowSamples on a named
// hardware port, capturing the readout signal into classical bit cb — the
// pulse-level counterpart of Measure, letting programs control their own
// capture timing (readout calibration, custom integration windows).
func (c *Circuit) Acquire(port string, cb int, windowSamples int64) *Circuit {
	if c.err != nil {
		return c
	}
	if c.finished {
		return c.fail("qpi: append to finished circuit")
	}
	if port == "" {
		return c.fail("qpi: acquire on empty port name")
	}
	if windowSamples <= 0 {
		return c.fail("qpi: acquire window must be positive, got %d", windowSamples)
	}
	if cb < 0 || cb >= c.Classical {
		return c.fail("qpi: classical bit %d out of range [0,%d)", cb, c.Classical)
	}
	if c.cbitWritten(cb) {
		return c.fail("qpi: classical bit %d written twice", cb)
	}
	c.Ops = append(c.Ops, Op{Kind: OpAcquire, Port: port, Cbit: cb, WindowSamples: windowSamples})
	return c
}

// End finalizes the kernel (the paper's qCircuitEnd) and returns any
// accumulated construction error.
func (c *Circuit) End() error {
	if c.err != nil {
		return c.err
	}
	c.finished = true
	return nil
}

// Finished reports whether End was called successfully.
func (c *Circuit) Finished() bool { return c.finished }
