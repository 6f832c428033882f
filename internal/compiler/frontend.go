// Package compiler is the MQSS compiler driver (paper Fig. 2, "QRM &
// Compiler Infrastructure"): it turns QPI kernels into MLIR pulse-dialect
// modules (frontend), runs the dialect pass pipeline with QDMI-informed
// lowering (midend), and emits QIR Pulse-Profile exchange modules
// (backend). Compile is the JIT entry point the client invokes per job.
package compiler

import (
	"fmt"
	"slices"
	"strings"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/pulse"
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
	m, err := frontend(c, qdmi.NewTarget(dev))
	if err != nil {
		return nil, err
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("compiler: frontend produced invalid module: %w", err)
	}
	return m, nil
}

// frontend is Frontend against the compile's view of the device, without
// the closing check: Lower hands the module straight to the pipeline, whose
// first pass verifies it.
func frontend(c *qpi.Circuit, target *qdmi.Target) (*mlir.Module, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	if !c.Finished() {
		return nil, fmt.Errorf("compiler: circuit %q not finished", c.Name())
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
	ops := c.Ops()
	// Pass 1: collect every port the kernel touches, in first-use order.
	for _, op := range ops {
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
		return nil, fmt.Errorf("compiler: kernel %q touches no hardware ports", c.Name())
	}

	m := &mlir.Module{}
	seq := &mlir.Sequence{Name: c.Name()}
	for i, port := range plan.ports {
		seq.Args = append(seq.Args, mlir.Arg{Name: plan.argNames[i], Type: mlir.TypeMixedFrame})
		seq.ArgPorts = append(seq.ArgPorts, port)
	}

	// One def per defining op. The def shares the kernel's waveform:
	// nothing downstream writes samples.
	for _, op := range ops {
		if op.Kind == qpi.OpWaveformDef {
			w, _ := c.LookupWaveform(op.WaveformName)
			m.WaveformDefs = append(m.WaveformDefs, &mlir.WaveformDef{Name: op.WaveformName, Waveform: w})
		}
	}
	// The module lists defs by name, whatever order the kernel defined them in.
	slices.SortStableFunc(m.WaveformDefs, func(a, b *mlir.WaveformDef) int { return strings.Compare(a.Name, b.Name) })

	// Pass 2: emit ops; a measurement is played from its implementation,
	// and a waveform's amplitude slot is the factor of each of its plays.
	type played struct{ val, factor mlir.Value }
	wfValue := map[string]played{}
	nextVal := 0
	var captureNames []string
	player := passes.NewPlayer(m, seq, target)
	for _, op := range ops {
		switch op.Kind {
		case qpi.OpGate:
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
			p := played{val: mlir.Ref(val), factor: mlir.Lit(1)}
			if op.AmpExpr != nil {
				p.factor = mlir.ExprVal(op.AmpExpr)
			}
			wfValue[op.WaveformName] = p
		case qpi.OpPlayWaveform:
			p, ok := wfValue[op.WaveformName]
			if !ok {
				return nil, fmt.Errorf("compiler: play of unmaterialized waveform %q", op.WaveformName)
			}
			seq.Ops = append(seq.Ops, &mlir.PlayOp{Frame: plan.frame(op.Port), Waveform: p.val, Factor: p.factor})
		case qpi.OpFrameChange:
			fc := &mlir.FrameOp{
				Kind:  pulse.FrameChange,
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
	return m, nil
}
