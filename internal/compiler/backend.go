package compiler

import (
	"fmt"
	"time"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// Backend lowers a (fully pulse-level) MLIR module into a QIR Pulse-Profile
// exchange module. Remaining gate-level ops are emitted as QIS intrinsic
// calls so hybrid modules stay representable (paper Listing 3 mixes both).
func Backend(m *mlir.Module, dev qdmi.Device) (*qir.Module, error) {
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return backend(m, qdmi.NewTarget(dev))
}

// backend is Backend for a module the caller has just verified, against the
// compile's view of the device.
func backend(m *mlir.Module, target *qdmi.Target) (*qir.Module, error) {
	if len(m.Sequences) != 1 {
		return nil, fmt.Errorf("compiler: backend expects one sequence, got %d", len(m.Sequences))
	}
	seq := m.Sequences[0]
	out := &qir.Module{
		ID:        seq.Name,
		Profile:   qir.ProfileBase,
		EntryName: seq.Name,
	}
	// Port handle table from the sequence's frame arguments.
	frameHandle := map[string]int64{}
	for i, a := range seq.Args {
		if a.Type != mlir.TypeMixedFrame {
			continue
		}
		if i >= len(seq.ArgPorts) || seq.ArgPorts[i] == "" {
			return nil, fmt.Errorf("compiler: frame arg %%%s has no port binding", a.Name)
		}
		frameHandle[a.Name] = int64(len(out.PortNames))
		out.PortNames = append(out.PortNames, seq.ArgPorts[i])
	}
	out.NumPorts = len(out.PortNames)

	// Waveform constants. Parametric defs keep their amplitude slot: the
	// stored samples are the base envelope until Bind scales them.
	wfOfValue := map[string]string{}
	for _, def := range m.WaveformDefs {
		out.Waveforms = append(out.Waveforms, qir.WaveformConst{
			Name: def.Name, Samples: def.Waveform.Samples, AmpExpr: def.AmpExpr})
	}

	// Site lookup for residual gate ops.
	qubitOfFrame := func(v mlir.Value) (int64, error) {
		h, ok := frameHandle[v.Ref]
		if !ok {
			return 0, fmt.Errorf("compiler: unknown frame %%%s", v.Ref)
		}
		port := target.Port(out.PortNames[h])
		if port == nil || len(port.Sites) != 1 {
			return 0, fmt.Errorf("compiler: port %s has no site for gate emission", out.PortNames[h])
		}
		return int64(port.Sites[0]), nil
	}
	lit := func(v mlir.Value) (float64, error) {
		if v.IsRef {
			return 0, fmt.Errorf("compiler: value reference %%%s not resolvable at emission time", v.Ref)
		}
		return v.Lit, nil
	}
	// f64Arg lowers an f64 operand: unbound expression slots become
	// expression-carrying QIR args for Bind to evaluate.
	f64Arg := func(v mlir.Value) (qir.Arg, error) {
		if v.Expr != nil {
			return qir.Arg{Kind: qir.ArgF64, Expr: v.Expr}, nil
		}
		f, err := lit(v)
		if err != nil {
			return qir.Arg{}, err
		}
		return qir.F64Arg(f), nil
	}

	maxQubit := int64(-1)
	nextResult := int64(0)
	resultOf := map[string]int64{}
	for _, op := range seq.Ops {
		switch o := op.(type) {
		case *mlir.WaveformRefOp:
			wfOfValue[o.Result] = o.Waveform
		case *mlir.PlayOp:
			sym, ok := wfOfValue[o.Waveform.Ref]
			if !ok {
				return nil, fmt.Errorf("compiler: play of unbound waveform value %%%s", o.Waveform.Ref)
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrPlay,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), qir.WaveformArg(sym)}})
		case *mlir.FrameChangeOp:
			f, err := f64Arg(o.Freq)
			if err != nil {
				return nil, err
			}
			p, err := f64Arg(o.Phase)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrFrameChange,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), f, p}})
		case *mlir.ShiftPhaseOp:
			p, err := f64Arg(o.Phase)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrShiftPhase,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), p}})
		case *mlir.SetPhaseOp:
			p, err := f64Arg(o.Phase)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrSetPhase,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), p}})
		case *mlir.ShiftFrequencyOp:
			f, err := f64Arg(o.Freq)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrShiftFrequency,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), f}})
		case *mlir.SetFrequencyOp:
			f, err := f64Arg(o.Freq)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrSetFrequency,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), f}})
		case *mlir.DelayOp:
			samples := qir.I64Arg(o.Samples)
			if o.SamplesExpr != nil {
				samples = qir.Arg{Kind: qir.ArgI64, Expr: o.SamplesExpr}
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrDelay,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), samples}})
		case *mlir.BarrierOp:
			var args []qir.Arg
			for _, f := range o.Frames {
				args = append(args, qir.PortArg(frameHandle[f.Ref]))
			}
			if len(o.Frames) == 0 {
				for _, h := range frameHandle {
					args = append(args, qir.PortArg(h))
				}
				sortPortArgs(args)
			}
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrBarrier, Args: args})
		case *mlir.CaptureOp:
			r := nextResult
			nextResult++
			resultOf[o.Result] = r
			out.Body = append(out.Body, qir.Call{Callee: qir.IntrCapture,
				Args: []qir.Arg{qir.PortArg(frameHandle[o.Frame.Ref]), qir.ResultArg(r), qir.I64Arg(o.Samples)}})
		case *mlir.StandardGateOp:
			for _, e := range o.ParamExprs {
				if e != nil {
					return nil, fmt.Errorf("compiler: gate %q still carries symbolic parameter %q at emission time (lowering did not run?)",
						o.Gate, e.Param)
				}
			}
			callee, ok := qir.GateIntrinsics[o.Gate]
			if !ok {
				return nil, fmt.Errorf("compiler: gate %q has no QIS intrinsic", o.Gate)
			}
			var args []qir.Arg
			for _, p := range o.Params {
				args = append(args, qir.F64Arg(p))
			}
			for _, f := range o.Frames {
				q, err := qubitOfFrame(f)
				if err != nil {
					return nil, err
				}
				if q > maxQubit {
					maxQubit = q
				}
				args = append(args, qir.QubitArg(q))
			}
			out.Body = append(out.Body, qir.Call{Callee: callee, Args: args})
		case *mlir.ReturnOp:
			// Terminator; result count already tracked.
		default:
			return nil, fmt.Errorf("compiler: backend cannot emit %T", op)
		}
	}
	out.NumResults = int(nextResult)
	out.NumQubits = int(maxQubit + 1)
	if out.UsesPulse() {
		out.Profile = qir.ProfilePulse
	}
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("compiler: backend produced invalid QIR: %w", err)
	}
	return out, nil
}

func sortPortArgs(args []qir.Arg) {
	for i := 1; i < len(args); i++ {
		for j := i; j > 0 && args[j].I < args[j-1].I; j-- {
			args[j], args[j-1] = args[j-1], args[j]
		}
	}
}

// StageTimings reports where compilation time went.
type StageTimings struct {
	Frontend time.Duration
	Midend   time.Duration
	Backend  time.Duration
	Passes   []passes.PassTiming
}

// Result bundles the artifacts of one JIT compilation.
type Result struct {
	MLIR *mlir.Module
	QIR  *qir.Module
	// Payload is QIR's exchange-format text; nil from Lower and for a
	// parametric module.
	Payload []byte
	// Epoch is the calibration epoch the device was at before the compile
	// read anything else from it: the epoch the result is valid for. Zero
	// for an epoch-unaware device.
	Epoch   int64
	Timings StageTimings
	Stats   map[string]int
}

// Compile is the end-to-end JIT path: QPI kernel → MLIR → pass pipeline
// (with QDMI queries against the target) → QIR Pulse Profile payload.
func Compile(c *qpi.Circuit, dev qdmi.Device) (*Result, error) {
	res, err := Lower(c, dev)
	if err != nil {
		return nil, err
	}
	res.emit()
	return res, nil
}

// Lower is Compile up to the QIR module, for a caller that hands the module
// itself to the device and wants text only if someone asks: Result.Payload
// stays nil.
func Lower(c *qpi.Circuit, dev qdmi.Device) (*Result, error) {
	// The one reading of the device this compile makes: the frontend, every
	// pass and the backend see the same ports, constraints and pulses.
	target := qdmi.NewTarget(dev)
	res := &Result{}
	//lint:mqssvet disable=nodrift stage-timing telemetry only; never reaches payload bytes
	t0 := time.Now()
	m, err := frontend(c, target)
	if err != nil {
		return nil, err
	}
	res.Timings.Frontend = time.Since(t0)
	if err := res.lowerModule(m, target); err != nil {
		return nil, err
	}
	return res, nil
}

// CompileMLIRText is the adapter path for jobs arriving as MLIR text (the
// paper's Qiskit/CUDAQ adapters produce IR rather than QPI calls): parse,
// run the pipeline, emit QIR.
func CompileMLIRText(src string, dev qdmi.Device) (*Result, error) {
	m, err := mlir.Parse(src)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if err := res.lowerModule(m, qdmi.NewTarget(dev)); err != nil {
		return nil, err
	}
	res.emit()
	return res, nil
}

// lowerModule runs the midend and the backend over m, filling in
// everything of the result but the frontend timing and the payload.
func (res *Result) lowerModule(m *mlir.Module, target *qdmi.Target) error {
	epoch, err := target.Epoch()
	if err != nil {
		return err
	}
	res.Epoch = epoch
	//lint:mqssvet disable=nodrift stage-timing telemetry only; never reaches payload bytes
	t1 := time.Now()
	ctx := &passes.Context{Target: target, Stats: map[string]int{}}
	if err := passes.DefaultPipeline().Run(m, ctx); err != nil {
		return err
	}
	res.Timings.Midend = time.Since(t1)
	res.Timings.Passes = ctx.Timings
	res.Stats = ctx.Stats
	res.MLIR = m

	//lint:mqssvet disable=nodrift stage-timing telemetry only; never reaches payload bytes
	t2 := time.Now()
	// The pipeline verified m after its last pass that writes to it, so
	// Backend's entry check would re-check the same module.
	q, err := backend(m, target)
	if err != nil {
		return err
	}
	res.Timings.Backend = time.Since(t2)
	res.QIR = q
	return nil
}

// emit renders the payload. A parametric module has no concrete payload
// until Bind; leaving Payload nil forces callers through the template bind
// path.
func (res *Result) emit() {
	if !res.QIR.IsParametric() {
		res.Payload = res.QIR.Emit()
	}
}

// FormatFor returns the QDMI submission format for a compiled module.
func FormatFor(q *qir.Module) qdmi.ProgramFormat {
	if q.UsesPulse() {
		return qdmi.FormatQIRPulse
	}
	return qdmi.FormatQIRBase
}
