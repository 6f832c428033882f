package passes

import (
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// CanonicalizePass simplifies pulse sequences without changing semantics:
//   - consecutive shift_phase ops on one frame merge into one,
//   - consecutive frame_change ops on one frame merge (last frequency wins,
//     phases add),
//   - consecutive delays on one frame merge,
//   - zero-phase shifts and zero-length delays are removed,
//   - adjacent identical barriers deduplicate.
//
// Only literal operands are folded; ops with value references are left
// untouched (their runtime values are unknown at compile time).
type CanonicalizePass struct{}

// Name implements Pass.
func (CanonicalizePass) Name() string { return "canonicalize" }

// Run implements Pass.
func (CanonicalizePass) Run(m *mlir.Module, ctx *Context) error {
	for _, seq := range m.Sequences {
		seq.Ops = canonicalizeOps(seq.Ops, ctx)
	}
	return nil
}

func canonicalizeOps(ops []mlir.Op, ctx *Context) []mlir.Op {
	out := make([]mlir.Op, 0, len(ops))
	removed := 0
	push := func(op mlir.Op) { out = append(out, op) }
	last := func() mlir.Op {
		if len(out) == 0 {
			return nil
		}
		return out[len(out)-1]
	}
	pop := func() { out = out[:len(out)-1] }

	for _, op := range ops {
		switch o := op.(type) {
		case *mlir.FrameOp:
			prev, _ := last().(*mlir.FrameOp)
			switch {
			case o.Kind == pulse.ShiftPhase && literal(o.Phase) && o.Phase.Lit == 0:
				removed++
			case (o.Kind == pulse.ShiftPhase || o.Kind == pulse.FrameChange) && prev != nil &&
				prev.Kind == o.Kind && prev.Frame == o.Frame && foldable(prev) && foldable(o):
				pop()
				removed++
				// The last frequency wins (a shift_phase has none); phases add.
				merged := &mlir.FrameOp{Kind: o.Kind, Frame: o.Frame, Freq: o.Freq,
					Phase: mlir.Lit(waveform.WrapPhase(prev.Phase.Lit + o.Phase.Lit))}
				if o.Kind == pulse.FrameChange || merged.Phase.Lit != 0 {
					push(merged)
				}
			default:
				push(op)
			}
		case *mlir.DelayOp:
			if o.SamplesExpr == nil && o.Samples == 0 {
				removed++
				continue
			}
			if prev, ok := last().(*mlir.DelayOp); ok && prev.Frame == o.Frame &&
				prev.SamplesExpr == nil && o.SamplesExpr == nil {
				pop()
				removed++
				push(&mlir.DelayOp{Frame: o.Frame, Samples: prev.Samples + o.Samples})
				continue
			}
			push(op)
		case *mlir.BarrierOp:
			if prev, ok := last().(*mlir.BarrierOp); ok && sameFrames(prev.Frames, o.Frames) {
				removed++
				continue
			}
			push(op)
		default:
			push(op)
		}
	}
	if ctx != nil {
		ctx.Stats["canonicalize.removed"] += removed
	}
	return out
}

// literal reports whether v is an f64 literal: neither a value reference nor
// a parameter expression.
func literal(v mlir.Value) bool { return !v.IsRef && v.Expr == nil }

// foldable reports whether every value o reads is a literal.
func foldable(o *mlir.FrameOp) bool {
	hz, phase := o.Kind.Reads()
	return (!hz || literal(o.Freq)) && (!phase || literal(o.Phase))
}

func sameFrames(a, b []mlir.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DeadWaveformElimPass removes waveform_ref ops whose results are never
// played and module-level waveform defs that are never referenced.
type DeadWaveformElimPass struct{}

// Name implements Pass.
func (DeadWaveformElimPass) Name() string { return "dead-waveform-elim" }

// Run implements Pass.
func (DeadWaveformElimPass) Run(m *mlir.Module, ctx *Context) error {
	removed := 0
	usedDefs := map[string]bool{}
	for _, seq := range m.Sequences {
		// First: which waveform values are played?
		played := map[string]bool{}
		for _, op := range seq.Ops {
			if p, ok := op.(*mlir.PlayOp); ok && p.Waveform.IsRef {
				played[p.Waveform.Ref] = true
			}
		}
		out := make([]mlir.Op, 0, len(seq.Ops))
		for _, op := range seq.Ops {
			if ref, ok := op.(*mlir.WaveformRefOp); ok {
				if !played[ref.Result] {
					removed++
					continue
				}
				usedDefs[ref.Waveform] = true
			}
			out = append(out, op)
		}
		seq.Ops = out
	}
	defs := make([]*mlir.WaveformDef, 0, len(m.WaveformDefs))
	for _, d := range m.WaveformDefs {
		if usedDefs[d.Name] {
			defs = append(defs, d)
		} else {
			removed++
		}
	}
	m.WaveformDefs = defs
	if ctx != nil {
		ctx.Stats["dce.removed"] += removed
	}
	return nil
}
