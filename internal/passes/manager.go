// Package passes implements the dialect-aware pass infrastructure of the
// MQSS compiler (paper Section 5.2): a pass manager that runs registered
// transformations over MLIR pulse modules, with canonicalization, dead-code
// elimination, QDMI-informed gate→pulse lowering, and hardware-constraint
// legalization passes.
package passes

import (
	"fmt"
	"time"

	"mqsspulse/internal/mlir"
	"mqsspulse/internal/qdmi"
)

// Context carries shared state across a pipeline run: the compile's one
// reading of the target device (ports, constraints and calibrated pulses for
// lowering, legalization and the calibration check), statistics, and a log
// of per-pass timings.
type Context struct {
	// Target is the view of the compilation target; nil for
	// target-independent passes.
	Target *qdmi.Target
	// Stats accumulates named counters (ops removed, gates lowered, ...).
	Stats map[string]int
	// Timings records per-pass wall-clock durations.
	Timings []PassTiming
}

// PassTiming is one pipeline log entry.
type PassTiming struct {
	Pass     string
	Duration time.Duration
	OpsIn    int
	OpsOut   int
}

// NewContext creates an empty pass context for a target device, reading the
// device into a view of its own; a compile that already holds the view
// builds the Context around it instead.
func NewContext(dev qdmi.Device) *Context {
	return &Context{Target: qdmi.NewTarget(dev), Stats: map[string]int{}}
}

// Pass is one module transformation.
type Pass interface {
	// Name identifies the pass in logs.
	Name() string
	// Run transforms the module in place.
	Run(m *mlir.Module, ctx *Context) error
}

// ReadOnlyPass is a Pass that declares it never writes to the module: it
// inspects it and returns a verdict. The module it leaves behind is the one
// it was handed, so the manager does not verify again after it.
type ReadOnlyPass interface {
	Pass
	ReadOnly()
}

// Manager executes a pass pipeline, recording timings and re-verifying the
// module after every pass that is not a ReadOnlyPass, before the next pass
// sees it (the dialect-agnostic orchestration the paper attributes to the
// LLVM pass manager).
type Manager struct {
	passes []Pass
}

// NewManager builds a pipeline.
func NewManager(passes ...Pass) *Manager {
	return &Manager{passes: passes}
}

// Add appends a pass.
func (pm *Manager) Add(p Pass) { pm.passes = append(pm.passes, p) }

// Passes lists the registered pass names.
func (pm *Manager) Passes() []string {
	out := make([]string, len(pm.passes))
	for i, p := range pm.passes {
		out[i] = p.Name()
	}
	return out
}

// Run executes the pipeline.
func (pm *Manager) Run(m *mlir.Module, ctx *Context) error {
	if ctx == nil {
		ctx = NewContext(nil)
	}
	for _, p := range pm.passes {
		in := m.OpCount()
		start := time.Now()
		if err := p.Run(m, ctx); err != nil {
			return fmt.Errorf("passes: %s: %w", p.Name(), err)
		}
		ctx.Timings = append(ctx.Timings, PassTiming{
			Pass: p.Name(), Duration: time.Since(start), OpsIn: in, OpsOut: m.OpCount(),
		})
		if _, readOnly := p.(ReadOnlyPass); !readOnly {
			if err := m.Verify(); err != nil {
				return fmt.Errorf("passes: module invalid after %s: %w", p.Name(), err)
			}
		}
	}
	return nil
}

// DefaultPipeline assembles the standard MQSS pulse pipeline: verify,
// lower gates using the target's calibration, canonicalize frame ops,
// eliminate dead waveforms, legalize against hardware constraints, and
// re-verify the lowered program against the target's calibrated limits.
func DefaultPipeline() *Manager {
	return NewManager(
		VerifyPass{},
		GateLoweringPass{},
		CanonicalizePass{},
		DeadWaveformElimPass{},
		LegalizePass{},
		VerifyCalibrationPass{},
	)
}

// VerifyPass re-runs the module verifier (useful as a pipeline anchor).
type VerifyPass struct{}

// Name implements Pass.
func (VerifyPass) Name() string { return "verify" }

// Run implements Pass.
func (VerifyPass) Run(m *mlir.Module, _ *Context) error { return m.Verify() }

// ReadOnly implements ReadOnlyPass.
func (VerifyPass) ReadOnly() {}
