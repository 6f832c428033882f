package passes

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/waveform"
)

// GateLoweringPass replaces gate-level pulse.standard_* ops with calibrated
// pulse sequences obtained through QDMI DefaultPulse queries — the
// MLIR-level gate→pulse lowering the paper describes for the MQSS compiler
// (Section 5.2). Virtual-Z gates become shift_phase ops; physical rotations
// become plays of amplitude-scaled calibrated envelopes; two-qubit gates
// become coupler pulses bracketed by barriers.
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
	if ctx == nil || ctx.Device == nil {
		return errors.New("gate lowering requires a target device")
	}
	l := &lowerer{m: m, dev: ctx.Device}
	if err := l.indexPorts(); err != nil {
		return err
	}
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
	dev     qdmi.Device
	lowered int
	nextWf  int
	// portSite maps single-site port IDs to their site.
	portSite map[string]int
	// pairPort maps sorted site pairs to coupler port IDs.
	pairPort map[[2]int]string
}

func (l *lowerer) indexPorts() error {
	l.portSite = map[string]int{}
	l.pairPort = map[[2]int]string{}
	for _, p := range l.dev.Ports() {
		switch len(p.Sites) {
		case 1:
			l.portSite[p.ID] = p.Sites[0]
		case 2:
			a, b := p.Sites[0], p.Sites[1]
			if a > b {
				a, b = b, a
			}
			l.pairPort[[2]int{a, b}] = p.ID
		}
	}
	return nil
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

func (l *lowerer) lowerSequence(seq *mlir.Sequence) error {
	// frame value name → port ID
	framePort := map[string]string{}
	for i, a := range seq.Args {
		if a.Type == mlir.TypeMixedFrame && i < len(seq.ArgPorts) {
			framePort[a.Name] = seq.ArgPorts[i]
		}
	}
	// Candidate scans walk frame args in sorted-name order: when several
	// args qualify (two frames on one port) the choice must be byte-stable
	// run to run — the lowering cache, the 50×-determinism contract, and
	// the remote calibration-epoch check all assume identical payloads for
	// identical inputs, and Go map iteration order would break that.
	frameNames := sortedKeys(framePort)
	frameForSite := func(site int) (mlir.Value, error) {
		for _, name := range frameNames {
			port := framePort[name]
			if s, ok := l.portSite[port]; ok && s == site {
				if kindOfPort(l.dev, port) == "drive" {
					return mlir.Ref(name), nil
				}
			}
		}
		return mlir.Value{}, fmt.Errorf("no drive frame arg for site %d", site)
	}

	var out []mlir.Op
	for _, op := range seq.Ops {
		g, ok := op.(*mlir.StandardGateOp)
		if !ok {
			out = append(out, op)
			continue
		}
		ops, err := l.lowerGate(seq, framePort, frameNames, frameForSite, g)
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

func kindOfPort(dev qdmi.Device, portID string) string {
	v, err := dev.QueryPortProperty(portID, qdmi.PortPropKind)
	if err != nil {
		return ""
	}
	if s, ok := v.(fmt.Stringer); ok {
		return s.String()
	}
	return ""
}

// xEnvelope fetches the calibrated π-pulse envelope for a site.
func (l *lowerer) xEnvelope(site int) (*waveform.Waveform, error) {
	impl, err := l.dev.DefaultPulse("x", []int{site})
	if err != nil {
		return nil, err
	}
	return impl.Envelope()
}

// rotation emits the ops for a rotation of `angle` about the equatorial
// axis at `axisPhase` on the frame of `site`.
func (l *lowerer) rotation(frame mlir.Value, site int, angle, axisPhase float64) ([]mlir.Op, error) {
	if angle < 0 {
		angle, axisPhase = -angle, axisPhase+math.Pi
	}
	// Normalize before the no-op test: rx(2π) is a full rotation, not a
	// zero-amplitude play that still consumes schedule time.
	angle = math.Mod(angle, 2*math.Pi)
	if angle == 0 {
		return nil, nil
	}
	if angle > math.Pi {
		angle, axisPhase = 2*math.Pi-angle, axisPhase+math.Pi
	}
	env, err := l.xEnvelope(site)
	if err != nil {
		return nil, err
	}
	// angle*(1/π), not angle/π: the symbolic path folds 1/π into the
	// expression's Scale coefficient, and x*(1/π) is the bit-exact product
	// that path reproduces at bind time — keeping bound payloads
	// byte-identical to per-point-compiled ones.
	scaled, err := env.Scale(complex(angle*(1/math.Pi), 0))
	if err != nil {
		return nil, err
	}
	refOp, val := l.freshWaveform(scaled, nil)
	var ops []mlir.Op
	if axisPhase != 0 {
		ops = append(ops, &mlir.ShiftPhaseOp{Frame: frame, Phase: mlir.Lit(wrap(axisPhase))})
	}
	ops = append(ops, refOp, &mlir.PlayOp{Frame: frame, Waveform: val})
	if axisPhase != 0 {
		ops = append(ops, &mlir.ShiftPhaseOp{Frame: frame, Phase: mlir.Lit(wrap(-axisPhase))})
	}
	return ops, nil
}

// rotationSym is the deferred-binding analogue of rotation: the drive
// amplitude becomes an unbound slot scaling the calibrated π envelope. The
// symbolic angle carries no normalization (sign flip, mod 2π, >π fold), so
// template compilation restricts symbolic rx/ry angles to (0, π] — the
// interval on which the concrete path applies no normalization either,
// keeping bind(θ) byte-identical to a fresh compile at θ.
func (l *lowerer) rotationSym(frame mlir.Value, site int, angle *mlir.ParamExpr, axisPhase float64) ([]mlir.Op, error) {
	env, err := l.xEnvelope(site)
	if err != nil {
		return nil, err
	}
	amp := &mlir.ParamExpr{
		Param:  angle.Param,
		Scale:  angle.Scale * (1 / math.Pi),
		Offset: angle.Offset * (1 / math.Pi),
	}
	refOp, val := l.freshWaveform(env, amp)
	var ops []mlir.Op
	if axisPhase != 0 {
		ops = append(ops, &mlir.ShiftPhaseOp{Frame: frame, Phase: mlir.Lit(wrap(axisPhase))})
	}
	ops = append(ops, refOp, &mlir.PlayOp{Frame: frame, Waveform: val})
	if axisPhase != 0 {
		ops = append(ops, &mlir.ShiftPhaseOp{Frame: frame, Phase: mlir.Lit(wrap(-axisPhase))})
	}
	return ops, nil
}

func (l *lowerer) lowerGate(seq *mlir.Sequence, framePort map[string]string, frameNames []string,
	frameForSite func(int) (mlir.Value, error), g *mlir.StandardGateOp) ([]mlir.Op, error) {

	siteOf := func(fv mlir.Value) (int, error) {
		port, ok := framePort[fv.Ref]
		if !ok {
			return 0, fmt.Errorf("frame %%%s has no port binding", fv.Ref)
		}
		site, ok := l.portSite[port]
		if !ok {
			return 0, fmt.Errorf("port %s has no single site", port)
		}
		return site, nil
	}
	theta := 0.0
	if len(g.Params) > 0 {
		theta = g.Params[0]
	}
	var thetaExpr *mlir.ParamExpr
	if len(g.ParamExprs) > 0 {
		thetaExpr = g.ParamExprs[0]
	}
	if thetaExpr != nil {
		switch g.Gate {
		case "rx", "ry", "rz":
		default:
			return nil, fmt.Errorf("gate %q does not accept a symbolic angle", g.Gate)
		}
	}
	oneQubit := func() (mlir.Value, int, error) {
		if len(g.Frames) != 1 {
			return mlir.Value{}, 0, fmt.Errorf("gate %s arity mismatch", g.Gate)
		}
		site, err := siteOf(g.Frames[0])
		return g.Frames[0], site, err
	}

	switch g.Gate {
	case "x":
		f, site, err := oneQubit()
		if err != nil {
			return nil, err
		}
		return l.rotation(f, site, math.Pi, 0)
	case "y":
		f, site, err := oneQubit()
		if err != nil {
			return nil, err
		}
		return l.rotation(f, site, math.Pi, math.Pi/2)
	case "sx":
		f, site, err := oneQubit()
		if err != nil {
			return nil, err
		}
		return l.rotation(f, site, math.Pi/2, 0)
	case "rx":
		f, site, err := oneQubit()
		if err != nil {
			return nil, err
		}
		if thetaExpr != nil {
			return l.rotationSym(f, site, thetaExpr, 0)
		}
		return l.rotation(f, site, theta, 0)
	case "ry":
		f, site, err := oneQubit()
		if err != nil {
			return nil, err
		}
		if thetaExpr != nil {
			return l.rotationSym(f, site, thetaExpr, math.Pi/2)
		}
		return l.rotation(f, site, theta, math.Pi/2)
	case "z", "s", "t", "rz":
		f, _, err := oneQubit()
		if err != nil {
			return nil, err
		}
		if thetaExpr != nil {
			// Virtual Z with a symbolic angle: the phase slot stays unbound
			// (negated, unwrapped — phase accumulation is mod 2π downstream).
			return []mlir.Op{&mlir.ShiftPhaseOp{Frame: f, Phase: mlir.ExprVal(thetaExpr.Neg())}}, nil
		}
		phase := map[string]float64{"z": math.Pi, "s": math.Pi / 2, "t": math.Pi / 4, "rz": theta}[g.Gate]
		if phase == 0 {
			return nil, nil
		}
		// Virtual Z: RZ(θ) commutes past later pulses as a −θ phase shift.
		return []mlir.Op{&mlir.ShiftPhaseOp{Frame: f, Phase: mlir.Lit(wrap(-phase))}}, nil
	case "cz", "cx":
		if len(g.Frames) != 2 {
			return nil, fmt.Errorf("gate %s arity mismatch", g.Gate)
		}
		sa, err := siteOf(g.Frames[0])
		if err != nil {
			return nil, err
		}
		sb, err := siteOf(g.Frames[1])
		if err != nil {
			return nil, err
		}
		a, b := sa, sb
		if a > b {
			a, b = b, a
		}
		couplerPort, ok := l.pairPort[[2]int{a, b}]
		if !ok {
			return nil, fmt.Errorf("no coupler between sites %d and %d", sa, sb)
		}
		// Find the coupler frame arg (sorted scan: deterministic when
		// several frame args bind the coupler port).
		var couplerFrame mlir.Value
		found := false
		for _, name := range frameNames {
			if framePort[name] == couplerPort {
				couplerFrame = mlir.Ref(name)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sequence has no frame arg for coupler port %s", couplerPort)
		}
		impl, err := l.dev.DefaultPulse("cz", []int{a, b})
		if err != nil {
			return nil, err
		}
		var czOps []mlir.Op
		barrier := &mlir.BarrierOp{Frames: []mlir.Value{g.Frames[0], g.Frames[1], couplerFrame}}
		for _, st := range impl.Steps {
			switch st.Kind {
			case "barrier":
				czOps = append(czOps, barrier)
			case "play":
				w, err := st.Waveform.Materialize()
				if err != nil {
					return nil, err
				}
				refOp, val := l.freshWaveform(w, nil)
				czOps = append(czOps, refOp, &mlir.PlayOp{Frame: couplerFrame, Waveform: val})
			case "shift_phase":
				czOps = append(czOps, &mlir.ShiftPhaseOp{Frame: couplerFrame, Phase: mlir.Lit(st.PhaseRad)})
			default:
				return nil, fmt.Errorf("cz impl step %q unsupported at IR level", st.Kind)
			}
		}
		if g.Gate == "cz" {
			return czOps, nil
		}
		// cx = (I⊗H)·CZ·(I⊗H): lower the H sandwich on the target frame.
		hPre, err := l.lowerGate(seq, framePort, frameNames, frameForSite, &mlir.StandardGateOp{Gate: "h", Frames: []mlir.Value{g.Frames[1]}})
		if err != nil {
			return nil, err
		}
		hPost, err := l.lowerGate(seq, framePort, frameNames, frameForSite, &mlir.StandardGateOp{Gate: "h", Frames: []mlir.Value{g.Frames[1]}})
		if err != nil {
			return nil, err
		}
		var all []mlir.Op
		all = append(all, hPre...)
		all = append(all, czOps...)
		all = append(all, hPost...)
		return all, nil
	case "h":
		f, site, err := oneQubit()
		if err != nil {
			return nil, err
		}
		// H ∝ RZ(π/2)·RX(π/2)·RZ(π/2), each RZ realized as a −π/2 virtual-Z
		// frame shift.
		sxOps, err := l.rotation(f, site, math.Pi/2, 0)
		if err != nil {
			return nil, err
		}
		out := []mlir.Op{&mlir.ShiftPhaseOp{Frame: f, Phase: mlir.Lit(-math.Pi / 2)}}
		out = append(out, sxOps...)
		out = append(out, &mlir.ShiftPhaseOp{Frame: f, Phase: mlir.Lit(-math.Pi / 2)})
		return out, nil
	default:
		return nil, fmt.Errorf("no lowering for gate %q", g.Gate)
	}
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
	if ctx == nil || ctx.Device == nil {
		return nil // target-independent compilation skips legalization
	}
	gran, err := qdmi.QueryInt(ctx.Device, qdmi.DevicePropGranularity)
	if err != nil {
		gran = 1
	}
	minS, err := qdmi.QueryInt(ctx.Device, qdmi.DevicePropMinPulseSamples)
	if err != nil {
		minS = 0
	}
	maxS, err := qdmi.QueryInt(ctx.Device, qdmi.DevicePropMaxPulseSamples)
	if err != nil {
		maxS = 0
	}
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
