// Package qdmi implements the Quantum Device Management Interface — the
// hardware abstraction layer of the stack (paper Section 5.3, Fig. 3). It
// defines the three QDMI entities (clients, driver, devices), opaque
// property-query interfaces over devices, sites, operations, and — the
// pulse extension this paper proposes — ports, plus a job interface whose
// payload formats include the QIR Pulse Profile exchange format.
package qdmi

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
)

// Status codes, mirroring the C specification's error enumeration.
var (
	// ErrNotSupported signals a property or operation the device does not
	// implement (QDMI_ERROR_NOTSUPPORTED).
	ErrNotSupported = errors.New("qdmi: not supported")
	// ErrInvalidArgument signals a malformed query (QDMI_ERROR_INVALIDARGUMENT).
	ErrInvalidArgument = errors.New("qdmi: invalid argument")
	// ErrFatal signals device-side failure (QDMI_ERROR_FATAL).
	ErrFatal = errors.New("qdmi: fatal device error")
	// ErrCancelled signals a job that was cancelled before producing a
	// result; errors.Is lets callers distinguish cancellation from device
	// failure.
	ErrCancelled = errors.New("qdmi: job cancelled")
)

// DeviceProperty enumerates device-level queries. New properties can be
// added without breaking devices: unknown properties answer ErrNotSupported.
type DeviceProperty int

// Device properties.
const (
	DevicePropName DeviceProperty = iota
	DevicePropVersion
	DevicePropTechnology      // "superconducting", "trapped-ion", "neutral-atom", "simulator"
	DevicePropNumSites        // int
	DevicePropSampleRateHz    // float64
	DevicePropPulseSupport    // PulseSupport — the pulse extension
	DevicePropWaveformKinds   // []string — supported parametric envelopes
	DevicePropNativeGates     // []string
	DevicePropProgramFormats  // []ProgramFormat
	DevicePropMaxShots        // int
	DevicePropGranularity     // int, device-global waveform granularity
	DevicePropMinPulseSamples // int
	DevicePropMaxPulseSamples // int
	// DevicePropCalibrationEpoch is an int64 counter identifying the
	// device's current calibration state. The bump contract: every
	// calibration mutation — frequency, amplitude, or readout-fidelity
	// writebacks, and installed or overridden pulse implementations —
	// increments it, so two equal epochs read from one device guarantee
	// identical answers to every calibration-dependent query (DefaultPulse,
	// SitePropFrequencyHz, ...) in between. Compilers key lowering caches
	// on it and schedulers verify it at dispatch; devices predating the
	// property answer ErrNotSupported and opt out of staleness checking.
	DevicePropCalibrationEpoch // int64
)

// SiteProperty enumerates per-site queries (a site is a physical or logical
// qubit location: a transmon, an ion, an atom trap).
type SiteProperty int

// Site properties.
const (
	SitePropFrequencyHz SiteProperty = iota
	SitePropT1Seconds
	SitePropT2Seconds
	SitePropAnharmonicityHz
	SitePropReadoutFidelity
	SitePropConnectivity // []int — coupled site indices
)

// OperationProperty enumerates per-operation queries.
type OperationProperty int

// Operation properties.
const (
	OpPropDurationSeconds OperationProperty = iota
	OpPropFidelity
	OpPropArity
	OpPropParamCount
	OpPropHasPulseImpl // bool — pulse extension: calibrated implementation available
)

// PortProperty enumerates per-port queries — the port-level pulse extension.
type PortProperty int

// Port properties.
const (
	PortPropKind PortProperty = iota
	PortPropSites
	PortPropSampleRateHz
	PortPropGranularity
	PortPropMinSamples
	PortPropMaxSamples
	PortPropMaxAmplitude
)

// PulseSupport is the level of pulse access a device advertises: none, at
// site granularity (site-attached default pulses only), or full port-level
// control (arbitrary waveforms on named ports).
type PulseSupport int

// Pulse support levels.
const (
	PulseNone PulseSupport = iota
	PulseSiteLevel
	PulsePortLevel
)

// String implements fmt.Stringer.
func (p PulseSupport) String() string {
	switch p {
	case PulseNone:
		return "none"
	case PulseSiteLevel:
		return "site"
	case PulsePortLevel:
		return "port"
	default:
		return fmt.Sprintf("PulseSupport(%d)", int(p))
	}
}

// ProgramFormat identifies a job payload encoding. Adding pulse payloads to
// QDMI required "only adding a single enumeration value" (paper, Fig. 3
// caption) — here that value is FormatQIRPulse.
type ProgramFormat string

// Program formats.
const (
	FormatQIRBase  ProgramFormat = "qir-base"
	FormatQIRPulse ProgramFormat = "qir-pulse" // the pulse extension
)

// JobStatus is the lifecycle state of a submitted job.
type JobStatus int

// Job statuses.
const (
	JobQueued JobStatus = iota
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

// Terminal reports whether the status is final (done, failed, or
// cancelled): a terminal job never transitions again.
func (s JobStatus) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled:
		return true
	default:
		return false
	}
}

// String implements fmt.Stringer.
func (s JobStatus) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Result is a completed job's measurement data.
type Result = readout.Result

// JobOptions extends plain (payload, format, shots) submission with the
// acquisition parameters of the pulse extension.
type JobOptions struct {
	Shots int
	// MeasLevel selects raw/kerneled/discriminated readout records.
	MeasLevel readout.MeasLevel
	// MeasReturn selects per-shot or shot-averaged records.
	MeasReturn readout.MeasReturn
	// Telemetry, when non-nil, receives the device-side execution spans
	// (device-execute, readout-post) of the submitting job's trace; nil
	// submissions run uninstrumented. A device records onto it only before
	// its job is terminal and only inside the job's Wait, on the waiter's
	// goroutine (a NewRunOnWaitJob body), so the waiter stays its one
	// writer. A job running on a goroutine of its own can outlive a
	// cancelled waiter, so it records no spans (Registry() is atomic).
	Telemetry *telemetry.Timeline
	// TelemetryParent is the span the device-side spans nest under
	// (the scheduler's dispatch span); zero attaches them at top level.
	TelemetryParent telemetry.SpanID
	// Bindings is the job's sweep point when the module submitted with it
	// (ModuleSubmitter) is a template: one value per parameter its slots
	// name. The device binds them in; a module with slots and no Bindings is
	// refused. Nil for a concrete module.
	Bindings map[string]float64
}

// AcquisitionSubmitter is an optional Device capability: devices whose
// runtimes can return sub-discriminated measurement records implement it.
// Callers type-assert; devices without it only serve discriminated counts
// through SubmitJob.
type AcquisitionSubmitter interface {
	// SubmitJobOpts enqueues a payload with acquisition options.
	SubmitJobOpts(payload []byte, format ProgramFormat, opts JobOptions) (Job, error)
}

// ModuleSubmitter is an optional Device capability: devices that accept an
// in-memory QIR module implement it, so a job skips the emit-text/parse-text
// round trip a byte payload costs. The module is either concrete or a
// template with the job's point in JobOptions.Bindings, which the device
// binds itself — a device may prepare the template once and bind every
// point into that. A device keeps the module and must not modify it; the
// caller must not modify it either. Callers type-assert; the QRM fails a
// compiled program's job on a device without it (ErrNotSupported).
type ModuleSubmitter interface {
	// SubmitModule enqueues a QIR module with acquisition options and, for
	// a template, the point to bind.
	SubmitModule(mod *qir.Module, opts JobOptions) (Job, error)
}

// Job is a handle on an asynchronous device execution.
type Job interface {
	// ID returns the device-unique job identifier.
	ID() string
	// Status returns the current lifecycle state.
	Status() JobStatus
	// Wait blocks until the job leaves the queue/running states or ctx is
	// cancelled, whichever comes first, and returns the status observed at
	// return. A cancelled ctx abandons only the wait, not the job — with one
	// exception: a device may run a job on the goroutine of its first Wait
	// (SimDevice does, see NewRunOnWaitJob), and that wait's ctx then aborts
	// the job, which ends JobCancelled. A job nobody waits for may never run.
	Wait(ctx context.Context) JobStatus
	// Result returns the measurement data of a JobDone job.
	Result() (*Result, error)
	// Cancel requests cancellation of a queued job.
	Cancel() error
}

// RunningCanceller is an optional Job capability: devices whose runtimes
// can abort an execution that has already started implement it. Callers
// type-assert; jobs without the capability can only be cancelled while
// queued.
type RunningCanceller interface {
	// CancelRunning aborts a queued or running job, transitioning it to
	// JobCancelled.
	CancelRunning() error
}

// PulseStep is one element of a calibrated pulse implementation. PortRole
// names a port of the operation's sites, in the order it names them:
// "driveK"/"readoutK" the drive/readout port of the K-th ("drive0"),
// "coupler" the pair's coupler. A barrier names none: it spans the sites'
// drive ports and every port the other steps name (PortTable.Resolve). A
// play's Waveform is the samples themselves, shared by the compile and the
// link that read the implementation: a device hands out and installs copies
// (PulseImpl.Clone), and nobody writes into a waveform it did not build.
type PulseStep struct {
	Kind     string // "play", "shift_phase", "barrier" or "capture"
	PortRole string
	Waveform *waveform.Waveform // for play
	PhaseRad float64
	Samples  int64 // for capture
}

// playedKinds are the step kinds both players play (PortTable.Resolve), and
// so the kinds an implementation may be written with.
var playedKinds = []string{"play", "shift_phase", "barrier", "capture"}

// PulseImpl is a calibrated, device-independent description of an
// operation's pulse sequence — what DefaultPulse queries return and what
// SetPulseImpl installs for custom operations (paper Section 5.3:
// "mechanisms to query and set default pulse implementations ... as well as
// to add pulse implementations for custom operations").
type PulseImpl struct {
	Operation string
	Steps     []PulseStep
}

// Envelope returns the envelope of a single-pulse operation (x, sx) on a
// site, checked, as the implementation holds it: the one place the stack
// takes a calibrated drive envelope from an implementation. Rotations scale
// that envelope, so an implementation that is anything but exactly one play
// on drive0 — a phase step before the play, a second pulse — has no scaled
// form, and is refused by name (ErrNotSupported) rather than played in part.
func (pi *PulseImpl) Envelope(site int) (*waveform.Waveform, error) {
	if len(pi.Steps) != 1 || pi.Steps[0].Kind != "play" || pi.Steps[0].PortRole != "drive0" || pi.Steps[0].Waveform == nil {
		return nil, fmt.Errorf("%w: %s on site %d is not a single play on drive0, so it has no envelope to scale",
			ErrNotSupported, pi.Operation, site)
	}
	w := pi.Steps[0].Waveform
	if err := w.Check(); err != nil {
		return nil, err
	}
	return w, nil
}

// Clone returns a deep copy of the implementation: its steps and each play's
// waveform, samples included.
func (pi *PulseImpl) Clone() *PulseImpl {
	c := &PulseImpl{Operation: pi.Operation, Steps: slices.Clone(pi.Steps)}
	for i, st := range c.Steps {
		if st.Waveform != nil {
			c.Steps[i].Waveform = st.Waveform.Clone()
		}
	}
	return c
}

// Validate checks structural sanity of a pulse implementation.
func (pi *PulseImpl) Validate() error {
	if pi.Operation == "" {
		return fmt.Errorf("%w: pulse impl without operation name", ErrInvalidArgument)
	}
	if len(pi.Steps) == 0 {
		return fmt.Errorf("%w: pulse impl %s has no steps", ErrInvalidArgument, pi.Operation)
	}
	for i, st := range pi.Steps {
		switch st.Kind {
		case "play":
			if st.Waveform == nil {
				return fmt.Errorf("%w: step %d: play without waveform", ErrInvalidArgument, i)
			}
			if err := st.Waveform.Check(); err != nil {
				return fmt.Errorf("%w: step %d: %v", ErrInvalidArgument, i, err)
			}
		case "capture":
			if st.Samples <= 0 {
				return fmt.Errorf("%w: step %d: capture with non-positive samples", ErrInvalidArgument, i)
			}
		}
		if !slices.Contains(playedKinds, st.Kind) {
			return fmt.Errorf("%w: step %d: kind %q is not one of %q", ErrInvalidArgument, i, st.Kind, playedKinds)
		}
		if st.Kind != "barrier" && st.PortRole == "" {
			return fmt.Errorf("%w: step %d: missing port role", ErrInvalidArgument, i)
		}
	}
	return nil
}

// Device is the QDMI device interface: property queries over the device,
// its sites, operations, and ports, the pulse-calibration extension, and
// job submission.
type Device interface {
	// Name returns the device identifier used by the driver registry.
	Name() string

	// QueryDeviceProperty answers a device-level property query.
	QueryDeviceProperty(p DeviceProperty) (any, error)
	// NumSites returns the number of addressable sites.
	NumSites() int
	// QuerySiteProperty answers a site-level property query.
	QuerySiteProperty(site int, p SiteProperty) (any, error)
	// Operations lists the device's supported operation names.
	Operations() []string
	// QueryOperationProperty answers an operation-level property query for
	// a concrete site tuple (nil sites = device-wide aggregate).
	QueryOperationProperty(op string, sites []int, p OperationProperty) (any, error)

	// Ports lists the pulse-accessible hardware channels (pulse extension;
	// empty for PulseNone devices).
	Ports() []*pulse.Port
	// QueryPortProperty answers a port-level property query.
	QueryPortProperty(portID string, p PortProperty) (any, error)
	// DefaultPulse returns the calibrated pulse implementation of an
	// operation on a site tuple.
	DefaultPulse(op string, sites []int) (*PulseImpl, error)
	// SetPulseImpl installs (or overrides) the pulse implementation of an
	// operation on a site tuple, enabling custom gates defined by experts.
	SetPulseImpl(op string, sites []int, impl *PulseImpl) error

	// SubmitJob enqueues a payload for execution.
	SubmitJob(payload []byte, format ProgramFormat, shots int) (Job, error)
}

// QueryString is a typed convenience wrapper over property queries.
func QueryString(dev Device, p DeviceProperty) (string, error) {
	v, err := dev.QueryDeviceProperty(p)
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("%w: property %d is %T, not string", ErrInvalidArgument, p, v)
	}
	return s, nil
}

// QueryInt is a typed convenience wrapper over property queries.
func QueryInt(dev Device, p DeviceProperty) (int, error) {
	v, err := dev.QueryDeviceProperty(p)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int)
	if !ok {
		return 0, fmt.Errorf("%w: property %d is %T, not int", ErrInvalidArgument, p, v)
	}
	return n, nil
}

// QueryFloat is a typed convenience wrapper over property queries.
func QueryFloat(dev Device, p DeviceProperty) (float64, error) {
	v, err := dev.QueryDeviceProperty(p)
	if err != nil {
		return 0, err
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("%w: property %d is %T, not float64", ErrInvalidArgument, p, v)
	}
	return f, nil
}

// QueryCalibrationEpoch returns the device's calibration epoch (see
// DevicePropCalibrationEpoch). Devices without the property answer
// ErrNotSupported; callers should then skip staleness checks rather than
// assume an epoch of zero matches anything.
func QueryCalibrationEpoch(dev Device) (int64, error) {
	v, err := dev.QueryDeviceProperty(DevicePropCalibrationEpoch)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("%w: calibration epoch property is %T, not int64", ErrInvalidArgument, v)
	}
	return n, nil
}

// QueryPulseSupport returns the device's advertised pulse access level.
func QueryPulseSupport(dev Device) (PulseSupport, error) {
	v, err := dev.QueryDeviceProperty(DevicePropPulseSupport)
	if err != nil {
		return PulseNone, err
	}
	ps, ok := v.(PulseSupport)
	if !ok {
		return PulseNone, fmt.Errorf("%w: pulse support property is %T", ErrInvalidArgument, v)
	}
	return ps, nil
}

// SupportsFormat reports whether the device accepts a payload format.
func SupportsFormat(dev Device, f ProgramFormat) bool {
	v, err := dev.QueryDeviceProperty(DevicePropProgramFormats)
	if err != nil {
		return false
	}
	formats, ok := v.([]ProgramFormat)
	if !ok {
		return false
	}
	for _, g := range formats {
		if g == f {
			return true
		}
	}
	return false
}
