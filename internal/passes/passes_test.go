package passes

import (
	"errors"
	"math"
	"testing"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/waveform"
)

// pulseOnlyModule builds a small, valid pulse-only module for pass tests.
func pulseOnlyModule() *mlir.Module {
	m := &mlir.Module{
		WaveformDefs: []*mlir.WaveformDef{
			{Name: "w1", Waveform: &waveform.Waveform{Name: "w1", Samples: []complex128{0.1, 0.2}}},
			{Name: "w2", Waveform: &waveform.Waveform{Name: "w2", Samples: []complex128{0.3}}},
		},
	}
	seq := &mlir.Sequence{
		Name:     "s",
		Args:     []mlir.Arg{{Name: "f0", Type: mlir.TypeMixedFrame}},
		ArgPorts: []string{"q0-drive"},
	}
	seq.Ops = []mlir.Op{
		&mlir.WaveformRefOp{Result: "v1", Waveform: "w1"},
		&mlir.WaveformRefOp{Result: "v2", Waveform: "w2"}, // dead: never played
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Lit(0.3)},
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Lit(0.4)},
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Lit(0)},
		&mlir.DelayOp{Frame: mlir.Ref("f0"), Samples: 4},
		&mlir.DelayOp{Frame: mlir.Ref("f0"), Samples: 6},
		&mlir.DelayOp{Frame: mlir.Ref("f0"), Samples: 0},
		&mlir.PlayOp{Frame: mlir.Ref("f0"), Waveform: mlir.Ref("v1")},
		&mlir.BarrierOp{},
		&mlir.BarrierOp{},
		&mlir.ReturnOp{},
	}
	m.Sequences = []*mlir.Sequence{seq}
	return m
}

func TestCanonicalizeMerges(t *testing.T) {
	m := pulseOnlyModule()
	ctx := NewContext(nil)
	if err := (CanonicalizePass{}).Run(m, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	var shifts, delays, barriers int
	for _, op := range m.Sequences[0].Ops {
		switch o := op.(type) {
		case *mlir.ShiftPhaseOp:
			shifts++
			if math.Abs(o.Phase.Lit-0.7) > 1e-12 {
				t.Fatalf("merged phase %g, want 0.7", o.Phase.Lit)
			}
		case *mlir.DelayOp:
			delays++
			if o.Samples != 10 {
				t.Fatalf("merged delay %d, want 10", o.Samples)
			}
		case *mlir.BarrierOp:
			barriers++
		}
	}
	if shifts != 1 || delays != 1 || barriers != 1 {
		t.Fatalf("shifts=%d delays=%d barriers=%d", shifts, delays, barriers)
	}
	if ctx.Stats["canonicalize.removed"] == 0 {
		t.Fatal("stats empty")
	}
}

func TestCanonicalizeSkipsValueRefs(t *testing.T) {
	m := pulseOnlyModule()
	m.Sequences[0].Args = append(m.Sequences[0].Args, mlir.Arg{Name: "p", Type: mlir.TypeF64})
	m.Sequences[0].ArgPorts = append(m.Sequences[0].ArgPorts, "")
	// Two shifts where one is a runtime value: must not merge.
	m.Sequences[0].Ops = []mlir.Op{
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Ref("p")},
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Lit(0.4)},
		&mlir.ReturnOp{},
	}
	if err := (CanonicalizePass{}).Run(m, NewContext(nil)); err != nil {
		t.Fatal(err)
	}
	shifts := 0
	for _, op := range m.Sequences[0].Ops {
		if _, ok := op.(*mlir.ShiftPhaseOp); ok {
			shifts++
		}
	}
	if shifts != 2 {
		t.Fatalf("value-ref shift was merged: %d", shifts)
	}
}

func TestCanonicalizePhaseWraps(t *testing.T) {
	m := pulseOnlyModule()
	m.Sequences[0].Ops = []mlir.Op{
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Lit(3)},
		&mlir.ShiftPhaseOp{Frame: mlir.Ref("f0"), Phase: mlir.Lit(3.5)},
		&mlir.ReturnOp{},
	}
	if err := (CanonicalizePass{}).Run(m, NewContext(nil)); err != nil {
		t.Fatal(err)
	}
	sp := m.Sequences[0].Ops[0].(*mlir.ShiftPhaseOp)
	if sp.Phase.Lit > math.Pi || sp.Phase.Lit <= -math.Pi {
		t.Fatalf("phase %g not wrapped", sp.Phase.Lit)
	}
}

func TestDeadWaveformElim(t *testing.T) {
	m := pulseOnlyModule()
	ctx := NewContext(nil)
	if err := (DeadWaveformElimPass{}).Run(m, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(m.WaveformDefs) != 1 || m.WaveformDefs[0].Name != "w1" {
		t.Fatalf("defs after DCE: %v", m.WaveformDefs)
	}
	for _, op := range m.Sequences[0].Ops {
		if ref, ok := op.(*mlir.WaveformRefOp); ok && ref.Result == "v2" {
			t.Fatal("dead waveform_ref survived")
		}
	}
}

func TestManagerRecordsTimings(t *testing.T) {
	m := pulseOnlyModule()
	ctx := NewContext(nil)
	pm := NewManager(VerifyPass{}, CanonicalizePass{}, DeadWaveformElimPass{})
	if err := pm.Run(m, ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.Timings) != 3 {
		t.Fatalf("timings = %d", len(ctx.Timings))
	}
	if ctx.Timings[1].OpsIn <= ctx.Timings[1].OpsOut {
		t.Fatal("canonicalize should shrink op count")
	}
}

func TestManagerNilContext(t *testing.T) {
	m := pulseOnlyModule()
	if err := NewManager(VerifyPass{}).Run(m, nil); err != nil {
		t.Fatal(err)
	}
}

type breakingPass struct{}

func (breakingPass) Name() string { return "breaker" }
func (breakingPass) Run(m *mlir.Module, _ *Context) error {
	// Corrupt the module: dangling waveform reference.
	m.Sequences[0].Ops = append([]mlir.Op{&mlir.WaveformRefOp{Result: "zz", Waveform: "ghost"}},
		m.Sequences[0].Ops...)
	return nil
}

func TestManagerVerifyEachCatchesCorruption(t *testing.T) {
	m := pulseOnlyModule()
	pm := NewManager(breakingPass{})
	err := pm.Run(m, NewContext(nil))
	if err == nil {
		t.Fatal("corrupted module passed verification")
	}
}

type failingPass struct{}

func (failingPass) Name() string                     { return "fail" }
func (failingPass) Run(*mlir.Module, *Context) error { return errors.New("boom") }

func TestManagerPropagatesPassError(t *testing.T) {
	m := pulseOnlyModule()
	err := NewManager(failingPass{}).Run(m, NewContext(nil))
	if err == nil || !contains(err.Error(), "fail") {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestLegalizeWithoutDeviceIsNoop(t *testing.T) {
	m := pulseOnlyModule()
	before := m.WaveformDefs[0].Waveform.Len()
	if err := (LegalizePass{}).Run(m, NewContext(nil)); err != nil {
		t.Fatal(err)
	}
	if m.WaveformDefs[0].Waveform.Len() != before {
		t.Fatal("device-less legalize modified waveforms")
	}
}

func TestGateLoweringNoGatesIsNoop(t *testing.T) {
	m := pulseOnlyModule()
	if err := (GateLoweringPass{}).Run(m, NewContext(nil)); err != nil {
		t.Fatal(err)
	}
}
