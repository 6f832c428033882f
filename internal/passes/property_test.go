package passes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// phaseCases are the literals the phase properties must survive, with the
// ±π wrap boundary represented exactly and one ulp inside it.
var phaseCases = []float64{
	0, math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi,
	math.Pi - 1e-12, -math.Pi + 1e-12, 0.3, -1.7, 5.1,
}

// TestWrapBoundary pins wrap() to (-π, π] and phase equivalence mod 2π,
// including the exact ±π inputs.
func TestWrapBoundary(t *testing.T) {
	exact := map[float64]float64{
		math.Pi:      math.Pi,
		-math.Pi:     math.Pi, // boundary folds to the +π side
		2 * math.Pi:  0,
		-2 * math.Pi: 0,
		0:            0,
	}
	for in, want := range exact {
		if got := waveform.WrapPhase(in); got != want {
			t.Fatalf("wrap(%g) = %g, want %g", in, got, want)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		p := (rng.Float64() - 0.5) * 40
		w := waveform.WrapPhase(p)
		if w <= -math.Pi || w > math.Pi {
			t.Fatalf("wrap(%g) = %g outside (-π, π]", p, w)
		}
		if !(math.Abs(math.Cos(w)-math.Cos(p)) <= 1e-9) || !(math.Abs(math.Sin(w)-math.Sin(p)) <= 1e-9) {
			t.Fatalf("wrap(%g) = %g is not phase-equivalent", p, w)
		}
	}
}

// accumulatedPhase sums the literal phase each frame accumulates over a
// sequence (shift_phase and frame_change contributions).
func accumulatedPhase(ops []mlir.Op) map[string]float64 {
	sum := map[string]float64{}
	for _, op := range ops {
		if o, ok := op.(*mlir.FrameOp); ok && (o.Kind == pulse.ShiftPhase || o.Kind == pulse.FrameChange) && !o.Phase.IsRef {
			sum[o.Frame.Ref] += o.Phase.Lit
		}
	}
	return sum
}

// randomFrameOps builds a random op list over the given frames: phase
// shifts (boundary-heavy), frame changes, delays, and barriers.
func randomFrameOps(rng *rand.Rand, frames []mlir.Value, n int) []mlir.Op {
	randPhase := func() float64 {
		if rng.Intn(2) == 0 {
			return phaseCases[rng.Intn(len(phaseCases))]
		}
		return (rng.Float64() - 0.5) * 4 * math.Pi
	}
	var ops []mlir.Op
	for i := 0; i < n; i++ {
		f := frames[rng.Intn(len(frames))]
		switch rng.Intn(4) {
		case 0, 1:
			ops = append(ops, &mlir.FrameOp{Kind: pulse.ShiftPhase, Frame: f, Phase: mlir.Lit(randPhase())})
		case 2:
			ops = append(ops, &mlir.FrameOp{Kind: pulse.FrameChange,
				Frame: f, Freq: mlir.Lit(5e9 + rng.Float64()*1e6), Phase: mlir.Lit(randPhase())})
		case 3:
			if rng.Intn(2) == 0 {
				ops = append(ops, &mlir.DelayOp{Frame: f, Samples: int64(rng.Intn(32))})
			} else {
				ops = append(ops, &mlir.BarrierOp{})
			}
		}
	}
	return ops
}

// TestCanonicalizePreservesAccumulatedPhase: merging/folding frame ops may
// rewrap phases but must preserve each frame's accumulated phase modulo
// 2π, including sums that land exactly on the ±π boundary.
func TestCanonicalizePreservesAccumulatedPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	frames := []mlir.Value{mlir.Ref("f0"), mlir.Ref("f1")}
	for trial := 0; trial < 300; trial++ {
		ops := randomFrameOps(rng, frames, 1+rng.Intn(24))
		before := accumulatedPhase(ops)
		out := canonicalizeOps(ops, nil)
		after := accumulatedPhase(out)
		for _, f := range []string{"f0", "f1"} {
			// The sums may differ only by whole turns, so the wrapped
			// difference must vanish.
			if d := waveform.WrapPhase(before[f] - after[f]); !(math.Abs(d) <= 1e-9) {
				t.Fatalf("trial %d frame %s: accumulated phase %g → %g (Δwrap %g)",
					trial, f, before[f], after[f], d)
			}
		}
	}
}

// propertyModule assembles a module over the superconducting device's two
// drive ports and their coupler, with the given sequence ops.
func propertyModule(ops []mlir.Op, defs []*mlir.WaveformDef) *mlir.Module {
	seq := &mlir.Sequence{
		Name: "prop",
		Args: []mlir.Arg{
			{Name: "f0", Type: mlir.TypeMixedFrame},
			{Name: "f1", Type: mlir.TypeMixedFrame},
			{Name: "fc", Type: mlir.TypeMixedFrame},
		},
		ArgPorts: []string{"q0-drive", "q1-drive", "q0q1-coupler"},
		Ops:      append(ops, &mlir.ReturnOp{}),
	}
	return &mlir.Module{WaveformDefs: defs, Sequences: []*mlir.Sequence{seq}}
}

// randomGateOps is the property tests' program corpus: one to ten gates and
// phase shifts over the two drive frames of propertyModule.
func randomGateOps(rng *rand.Rand) []mlir.Op {
	oneQ := []string{"x", "y", "sx", "h", "z", "s", "t"}
	frames := []mlir.Value{mlir.Ref("f0"), mlir.Ref("f1")}
	var ops []mlir.Op
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, &mlir.StandardGateOp{
				Gate: oneQ[rng.Intn(len(oneQ))], Frames: []mlir.Value{frames[rng.Intn(2)]}})
		case 1:
			g := []string{"rx", "ry", "rz"}[rng.Intn(3)]
			ops = append(ops, &mlir.StandardGateOp{
				Gate: g, Frames: []mlir.Value{frames[rng.Intn(2)]},
				Params: []float64{(rng.Float64() - 0.5) * 6 * math.Pi}})
		case 2:
			ops = append(ops, &mlir.StandardGateOp{
				Gate: "cz", Frames: []mlir.Value{frames[0], frames[1]}})
		case 3:
			ops = append(ops, &mlir.FrameOp{Kind: pulse.ShiftPhase,
				Frame: frames[rng.Intn(2)], Phase: mlir.Lit(phaseCases[rng.Intn(len(phaseCases))])})
		}
	}
	return ops
}

// TestVerifyCalibrationPassCatchesOverAmplitude: a lowered play past the
// port's amplitude limit is a compile-time error, not a device-side one.
func TestVerifyCalibrationPassCatchesOverAmplitude(t *testing.T) {
	dev, err := devices.Superconducting("amp-sc", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	defs := []*mlir.WaveformDef{{Name: "hot", Waveform: &waveform.Waveform{
		Name: "hot", Samples: []complex128{1.5, 1.5, 1.5, 1.5},
	}}}
	ops := []mlir.Op{
		&mlir.WaveformRefOp{Result: "w", Waveform: "hot"},
		&mlir.PlayOp{Frame: mlir.Ref("f0"), Waveform: mlir.Ref("w"), Factor: mlir.Lit(1)},
	}
	m := propertyModule(ops, defs)
	err = VerifyCalibrationPass{}.Run(m, NewContext(dev))
	if err == nil {
		t.Fatal("over-amplitude play passed verification")
	}
	if got := fmt.Sprint(err); got == "" {
		t.Fatal("empty error")
	}
}
