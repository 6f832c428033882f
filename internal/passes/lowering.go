package passes

import (
	"errors"
	"fmt"
	"sort"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/waveform"
)

// GateLoweringPass replaces gate-level pulse.standard_* ops with calibrated
// pulse sequences — the MLIR-level gate→pulse lowering the paper describes
// for the MQSS compiler (Section 5.2). What a gate means in pulses is the gate
// table's (waveform.Gates); this pass writes the table's three primitives as
// dialect ops: a frame shift is a shift_phase, a drive is a play of the
// site's calibrated π envelope scaled, a cz is the coupler pulse the device
// answers with, bracketed by barriers.
type GateLoweringPass struct{}

// Name implements Pass.
func (GateLoweringPass) Name() string { return "gate-to-pulse-lowering" }

// Run implements Pass.
func (GateLoweringPass) Run(m *mlir.Module, ctx *Context) error {
	hasGates := false
	for _, seq := range m.Sequences {
		for _, op := range seq.Ops {
			if _, ok := op.(*mlir.StandardGateOp); ok {
				hasGates = true
			}
		}
	}
	if !hasGates {
		return nil
	}
	if ctx == nil || ctx.Target == nil {
		return errors.New("gate lowering requires a target device")
	}
	l := &lowerer{m: m, target: ctx.Target}
	for _, seq := range m.Sequences {
		if err := l.lowerSequence(seq); err != nil {
			return err
		}
	}
	if ctx.Stats != nil {
		ctx.Stats["lowering.gates"] += l.lowered
	}
	return nil
}

type lowerer struct {
	m       *mlir.Module
	target  *qdmi.Target
	lowered int
	nextWf  int
	// Of the sequence being lowered: frame argument name → port ID, and the
	// names sorted. Candidate frames are scanned in that order: when several
	// args bind one port the choice must be byte-stable run to run — the
	// lowering cache, the determinism contract and the calibration-epoch
	// check all assume identical payloads for identical inputs, and Go map
	// iteration order would break that.
	framePort  map[string]string
	frameNames []string
}

// freshWaveform installs a waveform def and returns a ref op + value. A
// non-nil amp marks the def as a deferred-binding slot: the stored samples
// are the base envelope, multiplied by the bound expression value.
func (l *lowerer) freshWaveform(w *waveform.Waveform, amp *mlir.ParamExpr) (*mlir.WaveformRefOp, mlir.Value) {
	l.nextWf++
	defName := fmt.Sprintf("lowered_wf_%d", l.nextWf)
	valName := fmt.Sprintf("lw%d", l.nextWf)
	spec := w.ToSpec()
	spec.Name = defName
	l.m.WaveformDefs = append(l.m.WaveformDefs, &mlir.WaveformDef{Name: defName, Spec: spec, AmpExpr: amp})
	return &mlir.WaveformRefOp{Result: valName, Waveform: defName}, mlir.Ref(valName)
}

// framePorts maps a sequence's frame argument names to the port IDs they
// bind.
func framePorts(seq *mlir.Sequence) map[string]string {
	framePort := map[string]string{}
	for i, a := range seq.Args {
		if a.Type == mlir.TypeMixedFrame && i < len(seq.ArgPorts) {
			framePort[a.Name] = seq.ArgPorts[i]
		}
	}
	return framePort
}

func (l *lowerer) lowerSequence(seq *mlir.Sequence) error {
	l.framePort = framePorts(seq)
	l.frameNames = sortedKeys(l.framePort)
	var out []mlir.Op
	for _, op := range seq.Ops {
		g, ok := op.(*mlir.StandardGateOp)
		if !ok {
			out = append(out, op)
			continue
		}
		ops, err := l.lowerGate(g)
		if err != nil {
			return fmt.Errorf("lowering %s: %w", g.OpName(), err)
		}
		out = append(out, ops...)
		l.lowered++
	}
	seq.Ops = out
	return nil
}

// sortedKeys returns a map's keys in sorted order, for deterministic scans.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lowerGate expands one gate op through its row of the gate table.
func (l *lowerer) lowerGate(g *mlir.StandardGateOp) ([]mlir.Op, error) {
	row := waveform.GateByName(g.Gate)
	if row == nil || !row.HasLowering() {
		return nil, fmt.Errorf("%w: gate %q has no calibrated lowering", qdmi.ErrNotSupported, g.Gate)
	}
	if len(g.Frames) != row.Arity {
		return nil, fmt.Errorf("gate %s arity mismatch", g.Gate)
	}
	sites := make([]int, len(g.Frames))
	for i, fv := range g.Frames {
		port, ok := l.framePort[fv.Ref]
		if !ok {
			return nil, fmt.Errorf("frame %%%s has no port binding", fv.Ref)
		}
		p := l.target.Port(port)
		if p == nil || len(p.Sites) != 1 {
			return nil, fmt.Errorf("port %s has no single site", port)
		}
		sites[i] = p.Sites[0]
	}
	theta := 0.0
	if len(g.Params) > 0 {
		theta = g.Params[0]
	}
	var thetaExpr *mlir.ParamExpr
	if len(g.ParamExprs) > 0 {
		thetaExpr = g.ParamExprs[0]
	}
	if thetaExpr != nil && row.Params == 0 {
		return nil, fmt.Errorf("gate %q does not accept a symbolic angle", g.Gate)
	}

	// A two-qubit gate's cz is built before the gate is walked, so its
	// waveform takes the gate's first lowered_wf_ name even where single-qubit
	// pulses precede it (cx's H): names are payload bytes, and these are the
	// ones every payload compiled so far carries.
	var czOps []mlir.Op
	if row.Arity == 2 {
		var err error
		if czOps, err = l.cz(g.Frames, sites); err != nil {
			return nil, err
		}
	}
	var ops []mlir.Op
	err := row.Lower(theta, thetaExpr, func(p waveform.GatePulse) error {
		switch p.Kind {
		case waveform.PulseShiftPhase:
			phase := mlir.Lit(p.Value)
			if p.Expr != nil {
				phase = mlir.ExprVal(p.Expr)
			}
			ops = append(ops, &mlir.ShiftPhaseOp{Frame: g.Frames[p.Qubit], Phase: phase})
		case waveform.PulseDrive:
			w, err := l.target.Envelope("x", sites[p.Qubit])
			if err == nil && p.Expr == nil {
				w, err = w.Scale(complex(p.Value, 0))
			}
			if err != nil {
				return err
			}
			// A symbolic drive keeps the π envelope whole: its scale is the
			// def's unbound amplitude slot.
			refOp, val := l.freshWaveform(w, p.Expr)
			ops = append(ops, refOp, &mlir.PlayOp{Frame: g.Frames[p.Qubit], Waveform: val})
		case waveform.PulseCZ:
			ops = append(ops, czOps...)
		}
		return nil
	})
	return ops, err
}

// cz plays the pair's calibrated cz on the coupler frame, its barriers
// spanning the two drive frames and the coupler.
func (l *lowerer) cz(frames []mlir.Value, sites []int) ([]mlir.Op, error) {
	coupler := l.target.Coupler(sites[0], sites[1])
	if coupler == nil {
		return nil, fmt.Errorf("no coupler between sites %d and %d", sites[0], sites[1])
	}
	var couplerFrame mlir.Value
	found := false
	for _, name := range l.frameNames {
		if l.framePort[name] == coupler.ID {
			couplerFrame, found = mlir.Ref(name), true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("sequence has no frame arg for coupler port %s", coupler.ID)
	}
	impl, err := l.target.Pulse("cz", min(sites[0], sites[1]), max(sites[0], sites[1]))
	if err != nil {
		return nil, err
	}
	var ops []mlir.Op
	barrier := &mlir.BarrierOp{Frames: []mlir.Value{frames[0], frames[1], couplerFrame}}
	for _, st := range impl.Steps {
		switch st.Kind {
		case "barrier":
			ops = append(ops, barrier)
		case "play":
			w, err := st.Waveform.Materialize()
			if err != nil {
				return nil, err
			}
			refOp, val := l.freshWaveform(w, nil)
			ops = append(ops, refOp, &mlir.PlayOp{Frame: couplerFrame, Waveform: val})
		case "shift_phase":
			ops = append(ops, &mlir.ShiftPhaseOp{Frame: couplerFrame, Phase: mlir.Lit(st.PhaseRad)})
		default:
			return nil, fmt.Errorf("cz impl step %q unsupported at IR level", st.Kind)
		}
	}
	return ops, nil
}

// LegalizePass enforces the target's waveform constraints: every waveform
// def is materialized, padded to the device granularity and minimum length,
// and rejected if it exceeds the maximum — the JIT-time constraint check
// the paper routes through QDMI queries (Section 5.3).
type LegalizePass struct{}

// Name implements Pass.
func (LegalizePass) Name() string { return "legalize-hardware-constraints" }

// Run implements Pass.
func (LegalizePass) Run(m *mlir.Module, ctx *Context) error {
	if ctx == nil || ctx.Target == nil {
		return nil // target-independent compilation skips legalization
	}
	gran, minS, maxS := ctx.Target.Granularity, ctx.Target.MinSamples, ctx.Target.MaxSamples
	padded := 0
	for _, def := range m.WaveformDefs {
		w, err := def.Materialize()
		if err != nil {
			return err
		}
		orig := w.Len()
		if maxS > 0 && orig > maxS {
			return fmt.Errorf("waveform %s has %d samples, device maximum is %d", def.Name, orig, maxS)
		}
		if w.Len() < minS {
			w = w.Concat(mustZero(minS - w.Len()))
		}
		if gran > 1 && w.Len()%gran != 0 {
			w = w.PadTo(gran)
		}
		if w.Len() != orig {
			spec := w.ToSpec()
			spec.Name = def.Name
			def.SetSpec(spec)
			padded++
		}
	}
	if ctx.Stats != nil {
		ctx.Stats["legalize.padded"] += padded
	}
	return nil
}

func mustZero(n int) *waveform.Waveform {
	w, err := waveform.New("pad", make([]complex128, n))
	if err != nil {
		panic(err)
	}
	return w
}
