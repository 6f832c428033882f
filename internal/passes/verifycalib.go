package passes

import (
	"fmt"
	"math"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
)

// VerifyCalibrationPass re-checks a lowered module against the target's
// calibrated limits, catching miscompiles at compile time instead of on
// hardware: every played waveform must respect its port's amplitude limit
// (a stale or corrupt calibration table can scale envelopes past it), and
// the module's timing — replayed through the same ASAP resolution the
// device runtime uses — must satisfy pulse.CheckNoOverlap and the ports'
// sample-length constraints. It runs after legalization, so a violation
// here is a pipeline bug or a calibration-table inconsistency, never user
// error.
type VerifyCalibrationPass struct{}

// Name implements Pass.
func (VerifyCalibrationPass) Name() string { return "verify-calibration" }

// Run implements Pass.
func (VerifyCalibrationPass) Run(m *mlir.Module, ctx *Context) error {
	if ctx == nil || ctx.Target == nil {
		return nil // target-independent compilation has no limits to check
	}
	plays := 0
	for _, seq := range m.Sequences {
		n, err := verifyLoweredSequence(m, seq, ctx.Target)
		if err != nil {
			return fmt.Errorf("sequence %s: %w", seq.Name, err)
		}
		plays += n
	}
	if ctx.Stats != nil {
		ctx.Stats["verifycal.plays"] += plays
	}
	return nil
}

// ReadOnly implements ReadOnlyPass.
func (VerifyCalibrationPass) ReadOnly() {}

// verifyLoweredSequence checks one sequence and returns how many plays it
// verified.
func verifyLoweredSequence(m *mlir.Module, seq *mlir.Sequence, target *qdmi.Target) (int, error) {
	defByName := map[string]*mlir.WaveformDef{}
	for _, d := range m.WaveformDefs {
		defByName[d.Name] = d
	}

	// Mirror the device-side schedule: all bound ports exist up front so
	// unqualified barriers synchronize the same port set the runtime sees.
	sched := pulse.NewSchedule()
	added := map[string]bool{}
	for i, a := range seq.Args {
		if a.Type != mlir.TypeMixedFrame || i >= len(seq.ArgPorts) {
			continue
		}
		pid := seq.ArgPorts[i]
		p := target.Port(pid)
		if p == nil {
			return 0, fmt.Errorf("frame %%%s binds port %q unknown to target device", a.Name, pid)
		}
		if added[pid] {
			continue
		}
		added[pid] = true
		if err := sched.AddPort(p); err != nil {
			return 0, err
		}
		if err := sched.AddFrame(pulse.NewFrame(pid+"-vframe", 0)); err != nil {
			return 0, err
		}
	}
	portOf := func(frame mlir.Value) (string, error) {
		pid, ok := argPort(seq, frame.Ref)
		if !ok {
			return "", fmt.Errorf("frame %%%s has no port binding", frame.Ref)
		}
		return pid, nil
	}

	wfOfValue := map[string]string{}
	plays, captures := 0, 0
	schedulable := true
	for _, op := range seq.Ops {
		switch o := op.(type) {
		case *mlir.WaveformRefOp:
			wfOfValue[o.Result] = o.Waveform
		case *mlir.PlayOp:
			name, ok := wfOfValue[o.Waveform.Ref]
			if !ok {
				return plays, fmt.Errorf("play of unbound waveform value %%%s", o.Waveform.Ref)
			}
			def, found := defByName[name]
			if !found {
				return plays, fmt.Errorf("play references undefined waveform @%s", name)
			}
			w, err := def.Materialize()
			if err != nil {
				return plays, err
			}
			pid, err := portOf(o.Frame)
			if err != nil {
				return plays, err
			}
			// A port without a positive amplitude limit is unconstrained.
			maxAmp := target.Port(pid).MaxAmplitude
			if maxAmp <= 0 {
				maxAmp = math.Inf(1)
			}
			// For parametric defs (AmpExpr set) the materialized samples are
			// the base envelope — the |scale|=1 worst case; template
			// compilation bounds |scale| ≤ 1 over the declared range, so the
			// base peak dominates every bound peak.
			if peak := w.PeakAmplitude(); peak > maxAmp+1e-12 {
				return plays, fmt.Errorf("lowered waveform @%s peak %.6g exceeds port %s amplitude limit %g",
					name, peak, pid, maxAmp)
			}
			if err := sched.Append(&pulse.Play{Port: pid, Frame: pid + "-vframe", Waveform: w}); err != nil {
				return plays, err
			}
			plays++
		case *mlir.DelayOp:
			pid, err := portOf(o.Frame)
			if err != nil {
				return plays, err
			}
			if o.SamplesExpr != nil {
				// Unbound delay length: timing is unknown until bind, so the
				// overlap replay below would be meaningless for this sequence.
				schedulable = false
				continue
			}
			if err := sched.Append(&pulse.Delay{Port: pid, Samples: o.Samples}); err != nil {
				return plays, err
			}
		case *mlir.CaptureOp:
			pid, err := portOf(o.Frame)
			if err != nil {
				return plays, err
			}
			err = sched.Append(&pulse.Capture{
				Port: pid, Frame: pid + "-vframe", Bit: captures, DurationSamples: o.Samples,
			})
			if err != nil {
				return plays, err
			}
			captures++
		case *mlir.BarrierOp:
			b := &pulse.Barrier{}
			for _, f := range o.Frames {
				pid, err := portOf(f)
				if err != nil {
					return plays, err
				}
				b.Ports = append(b.Ports, pid)
			}
			if err := sched.Append(b); err != nil {
				return plays, err
			}
		case *mlir.ShiftPhaseOp, *mlir.SetPhaseOp, *mlir.FrameChangeOp,
			*mlir.ShiftFrequencyOp, *mlir.SetFrequencyOp, *mlir.ReturnOp:
			// Zero-duration frame bookkeeping: irrelevant to timing.
		case *mlir.StandardGateOp:
			// Hybrid module: residual gates lower device-side, so their
			// durations are unknown at this level — skip the timing check
			// but keep verifying the pulse-level plays above.
			schedulable = false
		default:
			schedulable = false
		}
	}
	if !schedulable {
		return plays, nil
	}
	sp, err := sched.Resolve()
	if err != nil {
		return plays, err
	}
	if err := sp.CheckNoOverlap(); err != nil {
		return plays, err
	}
	return plays, nil
}
