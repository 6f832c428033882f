package qpi

import (
	"context"
	"math"
	"strings"
	"testing"

	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
)

func TestBuilderGateCircuit(t *testing.T) {
	c := NewCircuit("bell", 2, 2).
		H(0).CX(0, 1).
		Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if c.CountKind(OpGate) != 2 || c.CountKind(OpMeasure) != 2 {
		t.Fatalf("op counts wrong: %+v", c.ops)
	}
	if c.HasPulseOps() {
		t.Fatal("gate circuit reported pulse ops")
	}
	bits := c.MeasuredBits()
	if len(bits) != 2 || bits[0] != 0 || bits[1] != 1 {
		t.Fatalf("measured bits = %v", bits)
	}
}

func TestBuilderPulseVQEKernel(t *testing.T) {
	// The paper's Listing 1 kernel, expressed through the Go QPI.
	amps := []complex128{0.1, 0.4, 0.8, 0.4, 0.1}
	c := NewCircuit("pulse_vqe_quantum_kernel", 2, 2).
		X(0).X(1).
		Waveform("waveform_1", amps).
		Waveform("waveform_2", amps).
		Waveform("waveform_3", amps).
		PlayWaveform("qb1_drive_port", "waveform_1").
		PlayWaveform("qb2_drive_port", "waveform_2").
		FrameChange("qb1_drive_port", 5.1e9, 0.3).
		FrameChange("qb2_drive_port", 5.3e9, -0.2).
		PlayWaveform("qb1_qb2_coupler_port", "waveform_3").
		Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if !c.HasPulseOps() {
		t.Fatal("pulse kernel not detected")
	}
	if c.CountKind(OpPlayWaveform) != 3 || c.CountKind(OpFrameChange) != 2 || c.CountKind(OpWaveformDef) != 3 {
		t.Fatalf("pulse op counts wrong")
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	c := NewCircuit("bad", 1, 1).X(5).H(0).Measure(0, 0)
	if err := c.End(); err == nil {
		t.Fatal("out-of-range qubit not reported")
	}
	// The first error wins; later ops are no-ops.
	if !strings.Contains(c.Err().Error(), "qubit 5") {
		t.Fatalf("unexpected error: %v", c.Err())
	}
	if len(c.ops) != 0 {
		t.Fatal("ops appended after error")
	}
}

func TestBuilderValidationCases(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Circuit
	}{
		{"zero qubits", func() *Circuit { return NewCircuit("c", 0, 0) }},
		{"negative classical", func() *Circuit { return NewCircuit("c", 1, -1) }},
		{"empty name", func() *Circuit { return NewCircuit("", 1, 0) }},
		{"unknown gate", func() *Circuit { return NewCircuit("c", 1, 0).Gate("frob", []int{0}) }},
		{"wrong arity", func() *Circuit { return NewCircuit("c", 2, 0).Gate("cz", []int{0}) }},
		{"wrong params", func() *Circuit { return NewCircuit("c", 1, 0).Gate("rx", []int{0}) }},
		{"repeated qubit", func() *Circuit { return NewCircuit("c", 2, 0).Gate("cz", []int{1, 1}) }},
		{"dup waveform", func() *Circuit {
			return NewCircuit("c", 1, 0).Waveform("w", []complex128{0.1}).Waveform("w", []complex128{0.1})
		}},
		{"bad waveform", func() *Circuit { return NewCircuit("c", 1, 0).Waveform("w", nil) }},
		{"undefined play", func() *Circuit { return NewCircuit("c", 1, 0).PlayWaveform("p", "nope") }},
		{"empty port", func() *Circuit {
			return NewCircuit("c", 1, 0).Waveform("w", []complex128{0.1}).PlayWaveform("", "w")
		}},
		{"empty fc port", func() *Circuit { return NewCircuit("c", 1, 0).FrameChange("", 1e9, 0) }},
		{"NaN angle", func() *Circuit { return NewCircuit("c", 1, 0).RX(0, math.NaN()) }},
		{"infinite angle", func() *Circuit { return NewCircuit("c", 1, 0).Gate("rz", []int{0}, math.Inf(-1)) }},
		{"NaN fc frequency", func() *Circuit { return NewCircuit("c", 1, 0).FrameChange("p", math.NaN(), 0) }},
		{"infinite fc phase", func() *Circuit { return NewCircuit("c", 1, 0).FrameChange("p", 0, math.Inf(1)) }},
		{"negative delay", func() *Circuit { return NewCircuit("c", 1, 0).Delay("p", -1) }},
		{"measure bad qubit", func() *Circuit { return NewCircuit("c", 1, 1).Measure(3, 0) }},
		{"measure bad cbit", func() *Circuit { return NewCircuit("c", 1, 1).Measure(0, 1) }},
		{"double cbit", func() *Circuit { return NewCircuit("c", 2, 1).Measure(0, 0).Measure(1, 0) }},
	}
	for _, tc := range cases {
		if err := tc.build().End(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestAppendAfterEnd(t *testing.T) {
	c := NewCircuit("c", 1, 1).X(0)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	c.X(0)
	if c.Err() == nil {
		t.Fatal("append after End accepted")
	}
}

func TestWaveformEnvelope(t *testing.T) {
	c := NewCircuit("c", 1, 0).
		WaveformEnvelope("g", waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 32).
		PlayWaveform("p", "g")
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if c.waveforms["g"].Len() != 32 {
		t.Fatal("envelope not materialized")
	}
	bad := NewCircuit("c", 1, 0).
		WaveformEnvelope("g", waveform.Gaussian{Amplitude: 2.0, SigmaFrac: 0.2}, 32)
	if bad.Err() == nil {
		t.Fatal("bad envelope accepted")
	}
}

type fakeBackend struct {
	lastCfg ExecConfig
	lastCtx context.Context
	ran     *Circuit
}

type fakeHandle struct {
	res       *Result
	cancelled bool
}

func (h *fakeHandle) ID() string                    { return "fake-1" }
func (h *fakeHandle) Status() ExecStatus            { return ExecDone }
func (h *fakeHandle) Cancel()                       { h.cancelled = true }
func (h *fakeHandle) Timeline() *telemetry.Timeline { return nil }
func (h *fakeHandle) Wait(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h.res, nil
}

func (f *fakeBackend) Name() string { return "fake" }
func (f *fakeBackend) Submit(ctx context.Context, c *Circuit, cfg ExecConfig) (Handle, error) {
	f.lastCfg = cfg
	f.lastCtx = ctx
	f.ran = c
	return &fakeHandle{res: &Result{Counts: map[uint64]int{0: cfg.Shots}, Shots: cfg.Shots}}, nil
}

func TestRunDispatch(t *testing.T) {
	c := NewCircuit("c", 1, 1).X(0).Measure(0, 0)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{}
	res, err := Run(context.Background(), b, c, WithShots(100), WithPriority(3), WithTag("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if b.lastCfg.Shots != 100 || res.Shots != 100 {
		t.Fatal("shot count not threaded")
	}
	if b.lastCfg.Priority != 3 || b.lastCfg.Tag != "t1" {
		t.Fatalf("options not threaded: %+v", b.lastCfg)
	}
	if b.lastCfg.TraceID == "" {
		t.Fatal("Start did not mint a trace ID")
	}
}

func TestRunTraceIDOverride(t *testing.T) {
	c := NewCircuit("c", 1, 1).X(0).Measure(0, 0)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{}
	if _, err := Run(context.Background(), b, c, WithTraceID("trace-ext")); err != nil {
		t.Fatal(err)
	}
	if b.lastCfg.TraceID != "trace-ext" {
		t.Fatalf("trace ID override lost: %q", b.lastCfg.TraceID)
	}
}

func TestRunDefaultShots(t *testing.T) {
	c := NewCircuit("c", 1, 1).X(0).Measure(0, 0)
	_ = c.End()
	b := &fakeBackend{}
	if _, err := Run(context.Background(), b, c); err != nil {
		t.Fatal(err)
	}
	if b.lastCfg.Shots != DefaultShots {
		t.Fatalf("default shots = %d", b.lastCfg.Shots)
	}
}

func TestRunCancelledContext(t *testing.T) {
	c := NewCircuit("c", 1, 1).X(0).Measure(0, 0)
	_ = c.End()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, &fakeBackend{}, c); err == nil {
		t.Fatal("cancelled context executed")
	}
}

func TestNewCircuitFirstErrorWins(t *testing.T) {
	// All three arguments are invalid; the name check comes first and must
	// be the error reported, not overwritten by later checks.
	c := NewCircuit("", 0, -1)
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "name") {
		t.Fatalf("first error not reported: %v", c.Err())
	}
	// Name valid, qubits and classical invalid: qubit error wins.
	c = NewCircuit("c", 0, -1)
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "qubit") {
		t.Fatalf("first error not reported: %v", c.Err())
	}
}

func TestExecStatusStrings(t *testing.T) {
	for _, s := range []ExecStatus{ExecQueued, ExecRunning, ExecDone, ExecFailed, ExecCancelled} {
		if strings.HasPrefix(s.String(), "ExecStatus(") {
			t.Errorf("status %d unnamed", int(s))
		}
	}
}

func TestExecuteRejections(t *testing.T) {
	b := &fakeBackend{}
	unfinished := NewCircuit("c", 1, 0).X(0)
	if _, err := Run(context.Background(), b, unfinished, WithShots(10)); err == nil {
		t.Fatal("unfinished circuit executed")
	}
	bad := NewCircuit("c", 1, 0).X(7)
	_ = bad.End()
	if _, err := Run(context.Background(), b, bad, WithShots(10)); err == nil {
		t.Fatal("erroneous circuit executed")
	}
	good := NewCircuit("c", 1, 0).X(0)
	_ = good.End()
	if _, err := Run(context.Background(), b, good, WithShots(0)); err == nil {
		t.Fatal("zero shots accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Counts: map[uint64]int{0b00: 600, 0b01: 400}, Shots: 1000}
	if p := r.Probability(0b01); p != 0.4 {
		t.Fatalf("P(01) = %g", p)
	}
	empty := &Result{Counts: map[uint64]int{}}
	if empty.Probability(0) != 0 {
		t.Fatal("empty result should have probability 0")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpGate; k <= OpMeasure; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "OpKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if !strings.HasPrefix(OpKind(42).String(), "OpKind(") {
		t.Error("unknown kind should fall back")
	}
}

func TestGateSpecTable(t *testing.T) {
	for name, spec := range Gates {
		if spec.Arity < 1 || spec.Arity > 2 {
			t.Errorf("gate %s has odd arity %d", name, spec.Arity)
		}
	}
	// All single-qubit rotations take one parameter.
	for _, g := range []string{"rx", "ry", "rz"} {
		if Gates[g].Params != 1 {
			t.Errorf("%s should take 1 param", g)
		}
	}
}

// HasPulseOps reports whether the kernel uses pulse-level primitives.
func (c *Circuit) HasPulseOps() bool {
	for _, op := range c.ops {
		switch op.Kind {
		case OpWaveformDef, OpPlayWaveform, OpFrameChange, OpAcquire:
			return true
		}
	}
	return false
}

// MeasuredBits returns the classical bits written by the kernel, in program
// order.
func (c *Circuit) MeasuredBits() []int {
	var out []int
	for _, op := range c.ops {
		if op.Kind == OpMeasure || op.Kind == OpAcquire {
			out = append(out, op.Cbit)
		}
	}
	return out
}

// CountKind returns the number of ops of the given kind.
func (c *Circuit) CountKind(k OpKind) int {
	n := 0
	for _, op := range c.ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}
