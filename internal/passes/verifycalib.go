package passes

import (
	"fmt"

	"mqsspulse/internal/mlir"
)

// VerifyCalibrationPass checks a lowered module for the one port limit no
// other layer checks at compile time: every play's frame is bound to a port of
// the target, and the play's peak is within that port's MaxAmplitude, so a
// user waveform on a port whose limit is below full scale is refused here, not
// on the device. The rest is checked where it is owned: the device's
// calibration writer refuses a pulse its ports cannot play, and the device's
// link verifies, builds and resolves the program once per prepared entry. A
// violation here is a user waveform the target cannot play or a pipeline bug.
type VerifyCalibrationPass struct{}

// Name implements Pass.
func (VerifyCalibrationPass) Name() string { return "verify-calibration" }

// Run implements Pass.
func (VerifyCalibrationPass) Run(m *mlir.Module, ctx *Context) error {
	if ctx == nil || ctx.Target == nil {
		return nil // target-independent compilation has no limits to check
	}
	defs := make(map[string]*mlir.WaveformDef, len(m.WaveformDefs))
	for _, d := range m.WaveformDefs {
		defs[d.Name] = d
	}
	plays := 0
	for _, seq := range m.Sequences {
		wfOfValue := map[string]string{}
		for _, op := range seq.Ops {
			switch o := op.(type) {
			case *mlir.WaveformRefOp:
				wfOfValue[o.Result] = o.Waveform
			case *mlir.PlayOp:
				def := defs[wfOfValue[o.Waveform.Ref]]
				if def == nil {
					return fmt.Errorf("sequence %s: play of unbound waveform value %%%s", seq.Name, o.Waveform.Ref)
				}
				pid, _ := argPort(seq, o.Frame.Ref)
				p := ctx.Target.Port(pid)
				if p == nil {
					return fmt.Errorf("sequence %s: frame %%%s binds no port of the target device", seq.Name, o.Frame.Ref)
				}
				// For a parametric def (AmpExpr set) the samples are the base
				// envelope, the |scale| = 1 worst case: template compilation
				// bounds |scale| ≤ 1 over the declared range. A port without a
				// positive limit is unconstrained.
				if peak := def.Waveform.PeakAmplitude(); p.MaxAmplitude > 0 && peak > p.MaxAmplitude+1e-12 {
					return fmt.Errorf("sequence %s: lowered waveform @%s peak %.6g exceeds port %s amplitude limit %g",
						seq.Name, def.Name, peak, pid, p.MaxAmplitude)
				}
				plays++
			}
		}
	}
	if ctx.Stats != nil {
		ctx.Stats["verifycal.plays"] += plays
	}
	return nil
}

// ReadOnly implements ReadOnlyPass.
func (VerifyCalibrationPass) ReadOnly() {}
