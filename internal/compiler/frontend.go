// Package compiler is the MQSS compiler driver (paper Fig. 2, "QRM &
// Compiler Infrastructure"): it turns QPI kernels into MLIR pulse-dialect
// modules (frontend), runs the dialect pass pipeline with QDMI-informed
// lowering (midend), and emits QIR Pulse-Profile exchange modules
// (backend). Compile is the JIT entry point the client invokes per job.
package compiler

import (
	"fmt"
	"math"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/waveform"
)

// portPlan resolves which hardware ports a kernel touches and assigns the
// sequence's mixed-frame arguments.
type portPlan struct {
	// ordered port IDs; arg i of the sequence binds ports[i].
	ports []string
	// argName[i] is the SSA name of the frame argument for ports[i].
	argNames []string
	index    map[string]int
}

func (pp *portPlan) add(port string) {
	if _, ok := pp.index[port]; ok {
		return
	}
	pp.index[port] = len(pp.ports)
	pp.ports = append(pp.ports, port)
	pp.argNames = append(pp.argNames, fmt.Sprintf("f%d", len(pp.ports)-1))
}

func (pp *portPlan) frame(port string) mlir.Value {
	return mlir.Ref(pp.argNames[pp.index[port]])
}

// Frontend converts a finished QPI kernel into an MLIR pulse-dialect module
// targeting the given device's port layout. Gate operations become
// pulse.standard_* ops for the pass pipeline to lower; pulse operations map
// 1:1 onto dialect ops.
func Frontend(c *qpi.Circuit, dev qdmi.Device) (*mlir.Module, error) {
	return frontend(c, qdmi.NewTarget(dev))
}

// frontend is Frontend against the compile's view of the device.
func frontend(c *qpi.Circuit, target *qdmi.Target) (*mlir.Module, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	if !c.Finished() {
		return nil, fmt.Errorf("compiler: circuit %q not finished", c.Name)
	}
	plan := &portPlan{index: map[string]int{}}
	// span adds the ports op's calibrated implementation spans on sites.
	span := func(op string, sites ...int) error {
		impl, err := target.Pulse(op, sites...)
		if err != nil {
			return fmt.Errorf("compiler: %s: %w", op, err)
		}
		_, ports, err := target.Resolve(impl, sites, op == "measure")
		for _, port := range ports {
			plan.add(port)
		}
		return err
	}
	// Pass 1: collect every port the kernel touches, in first-use order.
	for _, op := range c.Ops {
		var err error
		switch op.Kind {
		case qpi.OpGate:
			for _, q := range op.Qubits {
				port := target.Drive(q)
				if port == nil {
					return nil, fmt.Errorf("compiler: device has no drive port for qubit %d", q)
				}
				plan.add(port.ID)
			}
			if waveform.GateByName(op.Gate).PlaysCZ() {
				err = span("cz", op.Qubits...)
			}
		case qpi.OpPlayWaveform, qpi.OpFrameChange, qpi.OpDelay, qpi.OpAcquire:
			if op.Port != "" {
				plan.add(op.Port)
			}
		case qpi.OpMeasure:
			err = span("measure", op.Qubit)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(plan.ports) == 0 {
		return nil, fmt.Errorf("compiler: kernel %q touches no hardware ports", c.Name)
	}

	m := &mlir.Module{}
	seq := &mlir.Sequence{Name: c.Name}
	for i, port := range plan.ports {
		seq.Args = append(seq.Args, mlir.Arg{Name: plan.argNames[i], Type: mlir.TypeMixedFrame})
		seq.ArgPorts = append(seq.ArgPorts, port)
	}

	// Waveform defs from the kernel. A WaveformEnvelopeP definition carries
	// an amplitude slot on its defining op; attach it to the def.
	ampOf := map[string]*qpi.ParamExpr{}
	for _, op := range c.Ops {
		if op.Kind == qpi.OpWaveformDef && op.AmpExpr != nil {
			ampOf[op.WaveformName] = op.AmpExpr
		}
	}
	// Each is cloned once: the caller may still write to c.Waveforms, and
	// from here on the passes, the backend and the link share the copy.
	for name, w := range c.Waveforms {
		cw := w.Clone()
		cw.Name = name
		m.WaveformDefs = append(m.WaveformDefs, &mlir.WaveformDef{
			Name: name, Waveform: cw, AmpExpr: ampOf[name]})
	}
	// Deterministic def order (map iteration is random).
	sortWaveformDefs(m.WaveformDefs)

	// Pass 2: emit ops; a measurement is played from its implementation.
	wfValue := map[string]mlir.Value{}
	nextVal := 0
	var captureNames []string
	player := passes.NewPlayer(m, seq, target)
	for _, op := range c.Ops {
		switch op.Kind {
		case qpi.OpGate:
			for _, p := range op.Params {
				if !angleOK(p) {
					return nil, fmt.Errorf("compiler: gate %s has non-finite parameter %v", op.Gate, p)
				}
			}
			frames := make([]mlir.Value, len(op.Qubits))
			for i, q := range op.Qubits {
				frames[i] = plan.frame(target.Drive(q).ID)
			}
			sg := &mlir.StandardGateOp{
				Gate: op.Gate, Frames: frames, Params: append([]float64(nil), op.Params...)}
			if op.AngleExpr != nil {
				sg.ParamExprs = []*mlir.ParamExpr{op.AngleExpr}
			}
			seq.Ops = append(seq.Ops, sg)
		case qpi.OpWaveformDef:
			nextVal++
			val := fmt.Sprintf("w%d", nextVal)
			seq.Ops = append(seq.Ops, &mlir.WaveformRefOp{Result: val, Waveform: op.WaveformName})
			wfValue[op.WaveformName] = mlir.Ref(val)
		case qpi.OpPlayWaveform:
			v, ok := wfValue[op.WaveformName]
			if !ok {
				return nil, fmt.Errorf("compiler: play of unmaterialized waveform %q", op.WaveformName)
			}
			seq.Ops = append(seq.Ops, &mlir.PlayOp{Frame: plan.frame(op.Port), Waveform: v})
		case qpi.OpFrameChange:
			fc := &mlir.FrameChangeOp{
				Frame: plan.frame(op.Port),
				Freq:  mlir.Lit(op.FrequencyHz),
				Phase: mlir.Lit(op.PhaseRad),
			}
			if op.FreqExpr != nil {
				fc.Freq = mlir.ExprVal(op.FreqExpr)
			}
			if op.PhaseExpr != nil {
				fc.Phase = mlir.ExprVal(op.PhaseExpr)
			}
			seq.Ops = append(seq.Ops, fc)
		case qpi.OpDelay:
			seq.Ops = append(seq.Ops, &mlir.DelayOp{
				Frame: plan.frame(op.Port), Samples: op.DelaySamples,
				SamplesExpr: op.DelayExpr})
		case qpi.OpBarrier:
			seq.Ops = append(seq.Ops, &mlir.BarrierOp{}) // all frames
		case qpi.OpMeasure:
			name := fmt.Sprintf("m%d", op.Cbit)
			var err error
			if seq.Ops, err = player.Play(seq.Ops, "measure", []int{op.Qubit}, name); err != nil {
				return nil, fmt.Errorf("compiler: measure of qubit %d: %w", op.Qubit, err)
			}
			captureNames = append(captureNames, name)
			seq.Results = append(seq.Results, mlir.TypeI1)
		case qpi.OpAcquire:
			// Explicit acquisition window: the program controls its own
			// capture timing, so no implicit barrier is inserted.
			name := fmt.Sprintf("m%d", op.Cbit)
			seq.Ops = append(seq.Ops, &mlir.CaptureOp{
				Result: name, Frame: plan.frame(op.Port), Samples: op.WindowSamples})
			captureNames = append(captureNames, name)
			seq.Results = append(seq.Results, mlir.TypeI1)
		default:
			return nil, fmt.Errorf("compiler: unsupported QPI op kind %v", op.Kind)
		}
	}
	ret := &mlir.ReturnOp{}
	for _, n := range captureNames {
		ret.Values = append(ret.Values, mlir.Ref(n))
	}
	seq.Ops = append(seq.Ops, ret)
	m.Sequences = append(m.Sequences, seq)
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("compiler: frontend produced invalid module: %w", err)
	}
	return m, nil
}

func sortWaveformDefs(defs []*mlir.WaveformDef) {
	for i := 1; i < len(defs); i++ {
		for j := i; j > 0 && defs[j].Name < defs[j-1].Name; j-- {
			defs[j], defs[j-1] = defs[j-1], defs[j]
		}
	}
}

// angleOK rejects non-finite gate parameters early.
func angleOK(p float64) bool { return !math.IsNaN(p) && !math.IsInf(p, 0) }
