package passes

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

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
// site's calibrated π envelope by a factor, a cz is the pair's calibrated
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
// Each calibrated pulse is one waveform def per module, installed at its
// first play, and every play of it scales it by the play's own factor.
type Player struct {
	m       *mlir.Module
	seq     *mlir.Sequence
	target  *qdmi.Target
	lowered int
	// played are the calibrated pulses this player has given a def, each
	// with the sequence value its ref op defines.
	played []calibratedDef
}

// calibratedDef is a calibrated pulse's def: the pulse is the step-th play
// of operation op's implementation on sites a and b (b = -1 for one site,
// a < b for a pair).
type calibratedDef struct {
	op         string
	a, b, step int
	val        mlir.Value
}

// NewPlayer returns the player for seq, a sequence of m, against target.
func NewPlayer(m *mlir.Module, seq *mlir.Sequence, target *qdmi.Target) *Player {
	return &Player{m: m, seq: seq, target: target}
}

// play appends to ops a play of w — the step-th play of op's calibrated
// implementation on sites — on frame f, scaled by factor. The first play of
// a pulse installs its def, named after the pulse (x_q0, cz_q0_q1,
// measure_q2_1 for a second play) and never after a def or value the
// module already has, and the ref op that binds it to a value of the same
// name; later plays reuse both.
func (pl *Player) play(ops []mlir.Op, op string, sites []int, step int, w *waveform.Waveform, f, factor mlir.Value) []mlir.Op {
	a, b := sites[0], -1
	if len(sites) == 2 {
		a, b = min(sites[0], sites[1]), max(sites[0], sites[1])
	}
	i := slices.IndexFunc(pl.played, func(d calibratedDef) bool {
		return d.op == op && d.a == a && d.b == b && d.step == step
	})
	if i < 0 {
		name := append([]byte(op), "_q"...)
		name = strconv.AppendInt(name, int64(a), 10)
		if b >= 0 {
			name = strconv.AppendInt(append(name, "_q"...), int64(b), 10)
		}
		if step > 0 {
			name = strconv.AppendInt(append(name, '_'), int64(step), 10)
		}
		def := pl.freeName(string(name))
		pl.m.WaveformDefs = append(pl.m.WaveformDefs, &mlir.WaveformDef{Name: def, Waveform: w})
		ops = append(ops, &mlir.WaveformRefOp{Result: def, Waveform: def})
		i = len(pl.played)
		pl.played = append(pl.played, calibratedDef{op: op, a: a, b: b, step: step, val: mlir.Ref(def)})
	}
	return append(ops, &mlir.PlayOp{Frame: f, Waveform: pl.played[i].val, Factor: factor})
}

// freeName returns base, or of base_2, base_3, … the first, that names
// neither a def of the module nor a value of the sequence, so a pulse's def
// and the value that binds it can share it.
func (pl *Player) freeName(base string) string {
	taken := func(n string) bool {
		return slices.ContainsFunc(pl.m.WaveformDefs, func(d *mlir.WaveformDef) bool { return d.Name == n }) ||
			slices.ContainsFunc(pl.seq.Args, func(a mlir.Arg) bool { return a.Name == n }) ||
			slices.ContainsFunc(pl.seq.Ops, func(op mlir.Op) bool { return defines(op, n) })
	}
	name := base
	for k := 2; taken(name); k++ {
		name = base + "_" + strconv.Itoa(k)
	}
	return name
}

// defines reports whether op defines the value name.
func defines(op mlir.Op, name string) bool {
	switch o := op.(type) {
	case *mlir.WaveformRefOp:
		return o.Result == name
	case *mlir.CaptureOp:
		return o.Result == name
	}
	return false
}

func (pl *Player) lowerSequence() error {
	var out []mlir.Op
	for _, op := range pl.seq.Ops {
		g, ok := op.(*mlir.StandardGateOp)
		if !ok {
			out = append(out, op)
			continue
		}
		var err error
		if out, err = pl.lowerGate(out, g); err != nil {
			return fmt.Errorf("lowering %s: %w", g.OpName(), err)
		}
		pl.lowered++
	}
	pl.seq.Ops = out
	return nil
}

// lowerGate appends to ops one gate op expanded through its row of the gate
// table.
func (pl *Player) lowerGate(ops []mlir.Op, g *mlir.StandardGateOp) ([]mlir.Op, error) {
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
			if err != nil {
				return err
			}
			// A symbolic drive's factor is the slot the template binds.
			factor := mlir.Lit(p.Value)
			if p.Expr != nil {
				factor = mlir.ExprVal(p.Expr)
			}
			ops = pl.play(ops, "x", sites[p.Qubit:p.Qubit+1], 0, w, g.Frames[p.Qubit], factor)
		case waveform.PulseCZ:
			var err error
			ops, err = pl.Play(ops, "cz", sites, "")
			return err
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
	plays := 0
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
			ops = pl.play(ops, op, sites, plays, st.Waveform, f, mlir.Lit(1))
			plays++
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
