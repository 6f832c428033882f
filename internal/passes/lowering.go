package passes

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/waveform"
)

// GateLoweringPass replaces gate-level pulse.standard_* ops with calibrated
// pulse sequences — the MLIR-level gate→pulse lowering the paper describes
// for the MQSS compiler (Section 5.2). What a gate means in pulses is the gate
// table's (waveform.Gates); this pass writes the table's three primitives as
// dialect ops: a frame shift is a shift_phase, a drive is a play of the
// site's calibrated π envelope scaled, a cz is the pair's calibrated
// implementation, played (Player.Play).
type GateLoweringPass struct{}

// Name implements Pass.
func (GateLoweringPass) Name() string { return "gate-to-pulse-lowering" }

// Run implements Pass.
func (GateLoweringPass) Run(m *mlir.Module, ctx *Context) error {
	for _, seq := range m.Sequences {
		if !slices.ContainsFunc(seq.Ops, func(op mlir.Op) bool { _, ok := op.(*mlir.StandardGateOp); return ok }) {
			continue
		}
		if ctx == nil || ctx.Target == nil {
			return errors.New("gate lowering requires a target device")
		}
		p := NewPlayer(m, seq, ctx.Target)
		if err := p.lowerSequence(); err != nil {
			return err
		}
		if ctx.Stats != nil {
			ctx.Stats["lowering.gates"] += p.lowered
		}
	}
	return nil
}

// Player writes calibrated pulses into one sequence of a module: a gate's
// primitives, and through Play an operation's calibrated implementation.
type Player struct {
	m       *mlir.Module
	seq     *mlir.Sequence
	target  *qdmi.Target
	lowered int
	nextWf  int
}

// NewPlayer returns the player for seq, a sequence of m, against target. The
// waveform defs it adds are numbered after those an earlier player added.
func NewPlayer(m *mlir.Module, seq *mlir.Sequence, target *qdmi.Target) *Player {
	p := &Player{m: m, seq: seq, target: target}
	for _, def := range m.WaveformDefs {
		if strings.HasPrefix(def.Name, "lowered_wf_") {
			p.nextWf++
		}
	}
	return p
}

// freshWaveform installs a waveform def holding w and returns a ref op +
// value. A non-nil amp marks the def as a deferred-binding slot: the stored
// samples are the base envelope, multiplied by the bound expression value.
func (pl *Player) freshWaveform(w *waveform.Waveform, amp *mlir.ParamExpr) (*mlir.WaveformRefOp, mlir.Value) {
	pl.nextWf++
	defName := fmt.Sprintf("lowered_wf_%d", pl.nextWf)
	valName := fmt.Sprintf("lw%d", pl.nextWf)
	pl.m.WaveformDefs = append(pl.m.WaveformDefs, &mlir.WaveformDef{Name: defName, Waveform: w, AmpExpr: amp})
	return &mlir.WaveformRefOp{Result: valName, Waveform: defName}, mlir.Ref(valName)
}

func (pl *Player) lowerSequence() error {
	var out []mlir.Op
	for _, op := range pl.seq.Ops {
		g, ok := op.(*mlir.StandardGateOp)
		if !ok {
			out = append(out, op)
			continue
		}
		ops, err := pl.lowerGate(g)
		if err != nil {
			return fmt.Errorf("lowering %s: %w", g.OpName(), err)
		}
		out = append(out, ops...)
		pl.lowered++
	}
	pl.seq.Ops = out
	return nil
}

// lowerGate expands one gate op through its row of the gate table.
func (pl *Player) lowerGate(g *mlir.StandardGateOp) ([]mlir.Op, error) {
	row := waveform.GateByName(g.Gate)
	if row == nil || !row.HasLowering() {
		return nil, fmt.Errorf("%w: gate %q has no calibrated lowering", qdmi.ErrNotSupported, g.Gate)
	}
	if len(g.Frames) != row.Arity {
		return nil, fmt.Errorf("gate %s arity mismatch", g.Gate)
	}
	sites := make([]int, len(g.Frames))
	for i, fv := range g.Frames {
		port, ok := argPort(pl.seq, fv.Ref)
		if !ok {
			return nil, fmt.Errorf("frame %%%s has no port binding", fv.Ref)
		}
		p := pl.target.Port(port)
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

	// A two-qubit gate's cz is played before the gate is walked, so its
	// waveform takes the gate's first lowered_wf_ name even where single-qubit
	// pulses precede it (cx's H): names are payload bytes, and these are the
	// ones every payload compiled so far carries.
	var czOps []mlir.Op
	if row.PlaysCZ() {
		var err error
		if czOps, err = pl.Play(nil, "cz", sites, ""); err != nil {
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
			ops = append(ops, &mlir.FrameOp{Kind: pulse.ShiftPhase, Frame: g.Frames[p.Qubit], Phase: phase})
		case waveform.PulseDrive:
			w, err := pl.target.Envelope("x", sites[p.Qubit])
			if err == nil && p.Expr == nil {
				w, err = w.Scale(complex(p.Value, 0))
			}
			if err != nil {
				return err
			}
			// A symbolic drive keeps the π envelope whole: its scale is the
			// def's unbound amplitude slot.
			refOp, val := pl.freshWaveform(w, p.Expr)
			ops = append(ops, refOp, &mlir.PlayOp{Frame: g.Frames[p.Qubit], Waveform: val})
		case waveform.PulseCZ:
			ops = append(ops, czOps...)
		}
		return nil
	})
	return ops, err
}

// Play appends to ops the calibrated implementation of op on sites, in the
// order the operation names them, its capture defining result ("" for an
// operation without one): the one way a cz or a measurement becomes dialect
// ops, as the device's play is the one way it becomes schedule instructions.
func (pl *Player) Play(ops []mlir.Op, op string, sites []int, result string) ([]mlir.Op, error) {
	impl, err := pl.target.Pulse(op, sites...)
	if err != nil {
		return nil, err
	}
	ports, span, err := pl.target.Resolve(impl, sites, result != "")
	if err != nil {
		return nil, err
	}
	// Every barrier step of the implementation is this one op.
	barrier := &mlir.BarrierOp{Frames: make([]mlir.Value, len(span))}
	for i, port := range span {
		if barrier.Frames[i], err = pl.frame(port); err != nil {
			return nil, err
		}
	}
	for i, st := range impl.Steps {
		if st.Kind == "barrier" {
			ops = append(ops, barrier)
			continue
		}
		f, err := pl.frame(ports[i])
		if err != nil {
			return nil, err
		}
		switch st.Kind {
		case "play":
			refOp, val := pl.freshWaveform(st.Waveform, nil)
			ops = append(ops, refOp, &mlir.PlayOp{Frame: f, Waveform: val})
		case "shift_phase":
			ops = append(ops, &mlir.FrameOp{Kind: pulse.ShiftPhase, Frame: f, Phase: mlir.Lit(st.PhaseRad)})
		default: // capture
			ops = append(ops, &mlir.CaptureOp{Result: result, Frame: f, Samples: st.Samples})
		}
	}
	return ops, nil
}

// argPort returns the port seq's frame argument named frame binds.
func argPort(seq *mlir.Sequence, frame string) (string, bool) {
	for i, a := range seq.Args {
		if a.Name == frame && a.Type == mlir.TypeMixedFrame && i < len(seq.ArgPorts) {
			return seq.ArgPorts[i], true
		}
	}
	return "", false
}

// frame returns the sequence's frame argument bound to port; of several, the
// first by name, so identical inputs lower to identical payloads.
func (pl *Player) frame(port string) (mlir.Value, error) {
	name, found := "", false
	for i, a := range pl.seq.Args {
		if a.Type == mlir.TypeMixedFrame && i < len(pl.seq.ArgPorts) && pl.seq.ArgPorts[i] == port && (!found || a.Name < name) {
			name, found = a.Name, true
		}
	}
	if !found {
		return mlir.Value{}, fmt.Errorf("sequence has no frame arg for port %s", port)
	}
	return mlir.Ref(name), nil
}

// LegalizePass enforces the target's waveform constraints: every waveform
// def is padded to the device granularity and minimum length, and rejected
// if it exceeds the maximum — the JIT-time constraint check the paper routes
// through QDMI queries (Section 5.3).
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
		w := def.Waveform
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
			def.Waveform, def.Envelope = w, nil
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
