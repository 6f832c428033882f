package ptemplate

import (
	"errors"
	"fmt"
	"sync"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// Compiled is a lowered program: a QIR module plus the metadata needed to
// bind, dispatch, and invalidate it — the one artifact the client's
// lowering cache holds. A template's module carries unbound slots; a
// concrete kernel is the same thing with no parameters, its module ready to
// run as is. Either is valid for exactly one (device, calibration epoch)
// pair — the epoch is the one the compile's reading of the device began
// with (qdmi.Target), so a recalibration landing mid-compile can only make
// the artifact look stale, never silently fresh.
// A Compiled is shared by every job that uses it and must not be modified
// or copied.
type Compiled struct {
	// Epoch is the device's calibration epoch at lowering time; zero means
	// the device is epoch-unaware and staleness checks are skipped.
	Epoch int64
	// Format is the QDMI submission format of the (bound) payload.
	Format qdmi.ProgramFormat
	// Params is the declared parameter space, carried along so a Compiled
	// rebuilt from its text (FromText) can validate bindings without the
	// Template. Empty for a concrete kernel.
	Params []Param
	// Module is the QIR payload, parametric iff Params is non-empty.
	Module *qir.Module

	// text is Module's exchange-format text, emitted by the first Text call.
	textOnce sync.Once
	text     []byte
}

// Text returns the program's exchange-format text, for the consumers whose
// interface is text: Client.Compile callers and the remote wire. A job that
// runs in this process hands the device Module and never asks, so the text
// is emitted by the first call and shared by every later one; callers must
// not modify it. A template's text carries its slots (FromText reads it
// back); only a bound point's text (Bind, then Emit) is something a device
// can run.
func (c *Compiled) Text() []byte {
	c.textOnce.Do(func() { c.text = c.Module.Emit() })
	return c.text
}

// FromText rebuilds a program from what crosses a machine boundary: its
// exchange text, the declared parameter space and the calibration epoch it
// was lowered at. The text is parsed
// and verified here, once, and params must declare every parameter the
// text's slots name, each once, so a program that arrives malformed fails at
// the boundary (wrapping qdmi.ErrInvalidArgument) and not at bind or
// dispatch. A declared parameter with no slot is legal: lowering drops a
// waveform that is defined and never played, amplitude slot and all.
func FromText(text string, params []Param, epoch int64) (*Compiled, error) {
	mod, err := qir.ParseModule(text)
	if err == nil {
		err = mod.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: ptemplate: program text: %v", qdmi.ErrInvalidArgument, err)
	}
	declared := make(map[string]bool, len(params))
	for _, p := range params {
		if declared[p.Name] {
			return nil, fmt.Errorf("%w: ptemplate: parameter %q declared twice", qdmi.ErrInvalidArgument, p.Name)
		}
		declared[p.Name] = true
	}
	for _, name := range mod.ParamNames() {
		if !declared[name] {
			return nil, fmt.Errorf("%w: ptemplate: program text has a slot for undeclared parameter %q",
				qdmi.ErrInvalidArgument, name)
		}
	}
	return &Compiled{
		Epoch:  epoch,
		Format: compiler.FormatFor(mod),
		Params: params,
		Module: mod,
	}, nil
}

// Lower compiles the template against a device exactly once, producing the
// parametric payload every subsequent Bind reuses. The program names no
// device: the caller's cache key does, so deviceName is unused and kept
// only because the benchmark compiles against it.
func Lower(t *Template, dev qdmi.Device, deviceName string) (*Compiled, error) {
	if t == nil {
		return nil, errors.New("ptemplate: nil template")
	}
	return LowerCircuit(t.circuit, t.params, dev)
}

// LowerCircuit is the step Lower shares with concrete kernels: it compiles
// a finished circuit whose slots, if any, are declared by params. New stays
// the only way to build a Template and keeps rejecting a circuit with no
// slots; a circuit with slots and no declared parameters is rejected here.
func LowerCircuit(k *qpi.Circuit, params []Param, dev qdmi.Device) (*Compiled, error) {
	if dev == nil {
		return nil, errors.New("ptemplate: nil device")
	}
	if len(params) == 0 && k.IsParametric() {
		return nil, fmt.Errorf(
			"ptemplate: kernel %q carries unbound parameters %v; wrap it in a Template and use SubmitSweepCtx/RunSweep",
			k.Name(), k.ParamNames())
	}
	res, err := compiler.Lower(k, dev)
	if err != nil {
		return nil, fmt.Errorf("ptemplate: lowering %q: %w", k.Name(), err)
	}
	return &Compiled{
		Epoch:  res.Epoch,
		Format: compiler.FormatFor(res.QIR),
		Params: append([]Param(nil), params...),
		Module: res.QIR,
	}, nil
}

// Validate checks one sweep point against the compiled template's declared
// parameter space; violations wrap ErrBadParam.
func (c *Compiled) Validate(b Bindings) error {
	return validateBindings(c.Params, b)
}

// Bind validates the bindings and substitutes them into the parametric
// module, returning a fully concrete module. No compiler stage runs.
func (c *Compiled) Bind(b Bindings) (*qir.Module, error) {
	if err := c.Validate(b); err != nil {
		return nil, err
	}
	mod, err := c.Module.Bind(b)
	if err != nil {
		// Range legality was proven at template-compile time, so a bind
		// failure past validation is a template bug, not user input.
		return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
	}
	return mod, nil
}
