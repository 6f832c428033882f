// Package mqsspulse is a Go implementation of the pulse-enabled
// heterogeneous HPCQC software stack described in "Tackling the Challenges
// of Adding Pulse-level Support to a Heterogeneous HPCQC Software Stack:
// MQSS Pulse" (SC Workshops '25).
//
// The stack spans all four layers the paper extends:
//
//   - Programming interface: a compiled QPI with the paper's three pulse
//     primitives (Waveform, PlayWaveform, FrameChange) next to gates.
//   - Intermediate representation: an MLIR-style pulse dialect with a pass
//     pipeline (gate→pulse lowering, canonicalization, DCE, hardware
//     legalization).
//   - Backend interface: QDMI — property queries over devices, sites,
//     operations and ports, pulse-calibration management, job submission.
//   - Exchange format: QIR with a Pulse Profile, linked against device
//     runtimes at submission time.
//
// Three simulated quantum devices (superconducting transmons, trapped
// ions, neutral atoms) execute payloads through a Lindblad-level dynamics
// engine, with parameter drift for the paper's calibration use case.
//
// This facade re-exports the stable public surface; examples/ and cmd/
// build exclusively against it.
package mqsspulse

import (
	"context"
	"time"

	"mqsspulse/internal/calib"
	"mqsspulse/internal/client"
	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/optctl"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/vqe"
	"mqsspulse/internal/waveform"
)

// Programming interface (paper Section 5.1).
type (
	// Circuit is a mixed gate/pulse kernel under construction.
	Circuit = qpi.Circuit
	// Result carries measured counts.
	Result = qpi.Result
	// Backend executes finished kernels asynchronously.
	Backend = qpi.Backend
	// Handle is a future tracking one asynchronous execution.
	Handle = qpi.Handle
	// ExecStatus is the lifecycle state of an execution.
	ExecStatus = qpi.ExecStatus
	// ExecConfig is the resolved submission configuration backends receive.
	ExecConfig = qpi.ExecConfig
	// ExecOption tunes one submission (shots, priority, deadline, ...).
	ExecOption = qpi.ExecOption
)

// Execution states.
const (
	ExecQueued    = qpi.ExecQueued
	ExecRunning   = qpi.ExecRunning
	ExecDone      = qpi.ExecDone
	ExecFailed    = qpi.ExecFailed
	ExecCancelled = qpi.ExecCancelled
)

// DefaultShots is the shot count used when no WithShots option is given.
const DefaultShots = qpi.DefaultShots

// ErrCancelled is the sentinel wrapped into the error of a cancelled job;
// test with errors.Is.
var ErrCancelled = qdmi.ErrCancelled

// ErrOverloaded is the sentinel wrapped into submissions rejected by the
// scheduler's admission control (the target queue is at its depth limit);
// callers should back off and retry. It crosses the remote wire protocol,
// so errors.Is works against remote submissions too.
var ErrOverloaded = qrm.ErrOverloaded

// ErrNoSuchTarget is the sentinel wrapped into submissions naming an
// unknown device or pool; test with errors.Is.
var ErrNoSuchTarget = qrm.ErrNoSuchTarget

// ErrStaleCalibration is the sentinel wrapped into the failure of a job
// whose payload was compiled against a calibration epoch the target device
// has since left; recompile and resubmit. It crosses the remote wire
// protocol, so errors.Is works against remote submissions too.
var ErrStaleCalibration = qrm.ErrStaleCalibration

// ErrTooLarge is the sentinel wrapped into the failure of a remote
// submission whose request or response line passed the wire's 16 MiB frame
// bound; test with errors.Is.
var ErrTooLarge = client.ErrTooLarge

// WithShots sets the number of measurement shots.
func WithShots(n int) ExecOption { return qpi.WithShots(n) }

// WithPriority sets the scheduler priority (higher dispatches first).
func WithPriority(p int) ExecOption { return qpi.WithPriority(p) }

// WithPool targets a named device pool instead of the backend's default
// device: the scheduler places the job on the least-loaded compatible pool
// member (see Scheduler.RegisterPool).
func WithPool(name string) ExecOption { return qpi.WithPool(name) }

// WithDeadline bounds the execution; past it the job is cancelled.
func WithDeadline(t time.Time) ExecOption { return qpi.WithDeadline(t) }

// WithTimeout is WithDeadline relative to now.
func WithTimeout(d time.Duration) ExecOption { return qpi.WithTimeout(d) }

// WithTraceID sets the telemetry trace identifier instead of letting the
// stack mint one — the hook for correlating a submission with an external
// tracing system.
func WithTraceID(id string) ExecOption { return qpi.WithTraceID(id) }

// Telemetry: per-job lifecycle traces and fleet-wide latency metrics.
// Every submission carries a trace ID from qpi.Run down to the device (and
// across the remote wire); its spans come back through Handle.Timeline,
// and stage/queue-wait histograms aggregate in the client's registry
// (Stack.Telemetry, Client.Telemetry).
type (
	// Timeline is one job's ordered lifecycle spans.
	Timeline = telemetry.Timeline
	// Span is one recorded lifecycle stage of a job.
	Span = telemetry.Span
	// SpanID identifies a span within its timeline.
	SpanID = telemetry.SpanID
	// Stage labels a lifecycle span (compile, queue-wait, dispatch, ...).
	Stage = telemetry.Stage
	// TelemetryRegistry aggregates fleet-wide counters and histograms.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry's metrics.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryHistogram is one latency histogram's snapshot (count, mean,
	// p50/p95/p99, max, log2 buckets).
	TelemetryHistogram = telemetry.HistogramSnapshot
)

// Lifecycle stages recorded on job timelines.
const (
	StageCompile       = telemetry.StageCompile
	StageCacheHit      = telemetry.StageCacheHit
	StageCacheMiss     = telemetry.StageCacheMiss
	StageBind          = telemetry.StageBind
	StageQueueWait     = telemetry.StageQueueWait
	StageDispatch      = telemetry.StageDispatch
	StageDeviceExecute = telemetry.StageDeviceExecute
	StageReadoutPost   = telemetry.StageReadoutPost
)

// Acquisition and readout (measurement levels, discriminators, error
// mitigation).
type (
	// MeasLevel selects raw/kerneled/discriminated readout records.
	MeasLevel = readout.MeasLevel
	// MeasReturn selects per-shot or shot-averaged records.
	MeasReturn = readout.MeasReturn
	// IQ is one point in the in-phase/quadrature plane.
	IQ = readout.IQ
	// ReadoutKernel integrates a raw capture trace into an IQ point.
	ReadoutKernel = readout.Kernel
	// Discriminator classifies an IQ point into a bit.
	Discriminator = readout.Discriminator
	// ReadoutConfusion is a per-qubit 2×2 assignment matrix.
	ReadoutConfusion = readout.Confusion
	// ReadoutMitigator undoes per-qubit assignment errors in counts.
	ReadoutMitigator = readout.Mitigator
	// ReadoutCalibResult reports a readout calibration.
	ReadoutCalibResult = calib.ReadoutCalibResult
)

// Measurement levels and return modes.
const (
	MeasDiscriminated = readout.LevelDiscriminated
	MeasKerneled      = readout.LevelKerneled
	MeasRaw           = readout.LevelRaw
	MeasReturnSingle  = readout.ReturnSingle
	MeasReturnAverage = readout.ReturnAverage
)

// WithMeasLevel selects the measurement level of the returned data.
func WithMeasLevel(l MeasLevel) ExecOption { return qpi.WithMeasLevel(l) }

// WithMeasReturn selects per-shot or shot-averaged acquisition records.
func WithMeasReturn(r MeasReturn) ExecOption { return qpi.WithMeasReturn(r) }

// TrainLinearDiscriminator fits a Fisher/LDA discriminator from labeled
// prep-0/prep-1 IQ shots.
func TrainLinearDiscriminator(zeros, ones []IQ) (Discriminator, error) {
	return readout.TrainLinear(zeros, ones)
}

// TrainCentroidDiscriminator fits a nearest-mean discriminator.
func TrainCentroidDiscriminator(zeros, ones []IQ) (Discriminator, error) {
	return readout.TrainCentroid(zeros, ones)
}

// EncodeDiscriminator serializes a trained model to JSON.
func EncodeDiscriminator(d Discriminator) ([]byte, error) {
	return readout.EncodeDiscriminator(d)
}

// DecodeDiscriminator is the inverse of EncodeDiscriminator.
func DecodeDiscriminator(data []byte) (Discriminator, error) {
	return readout.DecodeDiscriminator(data)
}

// NewReadoutMitigator builds a confusion-matrix mitigator; bits[i] is the
// classical-bit position matrix mats[i] corrects.
func NewReadoutMitigator(bits []int, mats []ReadoutConfusion) (*ReadoutMitigator, error) {
	return readout.NewMitigator(bits, mats)
}

// ReadoutCalibrate trains a discriminator from prep-0/prep-1 experiments
// and writes the measured assignment fidelity back into the device's
// calibration table. Like every calibration routine it runs its jobs
// through c, the client dev is registered on.
func ReadoutCalibrate(ctx context.Context, c *Client, dev *SimDevice, site, shots int) (*ReadoutCalibResult, error) {
	return calib.ReadoutCalibrate(ctx, c, dev, site, shots)
}

// MeasureReadoutMitigator measures per-site assignment matrices through
// prep experiments and builds the mitigator for kernels measuring
// sites[i] into classical bit i.
func MeasureReadoutMitigator(ctx context.Context, c *Client, dev Device, sites []int, shots int) (*ReadoutMitigator, error) {
	return calib.ReadoutMitigator(ctx, c, dev, sites, shots)
}

// NewCircuit begins a kernel (the paper's qCircuitBegin).
func NewCircuit(name string, qubits, classical int) *Circuit {
	return qpi.NewCircuit(name, qubits, classical)
}

// Run executes a finished kernel on a backend under ctx — the
// context-aware form of the paper's qExecute. Cancelling ctx (or passing
// WithDeadline/WithTimeout) cancels the job wherever it is: queued work
// never reaches the device and running work is aborted where the device
// supports it.
func Run(ctx context.Context, b Backend, c *Circuit, opts ...ExecOption) (*Result, error) {
	return qpi.Run(ctx, b, c, opts...)
}

// Start submits a kernel asynchronously and returns its Handle future.
func Start(ctx context.Context, b Backend, c *Circuit, opts ...ExecOption) (Handle, error) {
	return qpi.Start(ctx, b, c, opts...)
}

// Port kinds (used to locate drive/readout channels by inspection).
const (
	PortDrive   = pulse.PortDrive
	PortCoupler = pulse.PortCoupler
	PortReadout = pulse.PortReadout
)

// Pulse abstractions (paper Section 4).
type (
	// Port is a hardware I/O channel.
	Port = pulse.Port
	// Frame is the stateful carrier abstraction.
	Frame = pulse.Frame
	// Waveform is a sampled pulse envelope.
	Waveform = waveform.Waveform
	// Envelope is a parametric pulse shape.
	Envelope = waveform.Envelope
	// Gaussian, DRAG, GaussianSquare, Constant are common envelopes.
	Gaussian       = waveform.Gaussian
	DRAG           = waveform.DRAG
	GaussianSquare = waveform.GaussianSquare
	Constant       = waveform.Constant
)

// Devices and QDMI (paper Section 5.3).
type (
	// Device is the QDMI device interface.
	Device = qdmi.Device
	// SimDevice is a simulated quantum accelerator.
	SimDevice = devices.SimDevice
	// DeviceConfig assembles a custom simulated device.
	DeviceConfig = devices.Config
	// SiteConfig describes one qubit site of a custom device.
	SiteConfig = devices.SiteConfig
	// CouplingConfig describes a coupler between adjacent sites.
	CouplingConfig = devices.CouplingConfig
	// PulseImpl is a calibrated pulse implementation of an operation.
	PulseImpl = qdmi.PulseImpl
	// PulseStep is one element of a PulseImpl.
	PulseStep = qdmi.PulseStep
	// Driver is the QDMI device registry.
	Driver = qdmi.Driver
	// Session is a client's handle on the driver.
	Session = qdmi.Session
	// Job is an asynchronous device execution.
	Job = qdmi.Job
)

// Program formats accepted by SubmitJob.
const (
	FormatQIRBase  = qdmi.FormatQIRBase
	FormatQIRPulse = qdmi.FormatQIRPulse
)

// NewSuperconductingDevice builds the transmon preset.
func NewSuperconductingDevice(name string, sites int, seed int64) (*SimDevice, error) {
	return devices.Superconducting(name, sites, seed)
}

// NewTrappedIonDevice builds the ion-trap preset.
func NewTrappedIonDevice(name string, sites int, seed int64) (*SimDevice, error) {
	return devices.TrappedIon(name, sites, seed)
}

// NewNeutralAtomDevice builds the neutral-atom preset.
func NewNeutralAtomDevice(name string, sites int, seed int64) (*SimDevice, error) {
	return devices.NeutralAtom(name, sites, seed)
}

// NewDevice builds a simulated device from a custom configuration.
func NewDevice(cfg DeviceConfig) (*SimDevice, error) { return devices.New(cfg) }

// NewDriver creates an empty QDMI device registry.
func NewDriver() *Driver { return qdmi.NewDriver() }

// Client and adapters (paper Fig. 2).
type (
	// Client is the MQSS client: compile → schedule → execute.
	Client = client.Client
	// NativeAdapter is the compiled QPI adapter.
	NativeAdapter = client.NativeAdapter
	// InterpretedAdapter parses textual programs per submission.
	InterpretedAdapter = client.InterpretedAdapter
	// RemoteAdapter submits payloads over TCP.
	RemoteAdapter = client.RemoteAdapter
	// Server exposes a client's devices over TCP.
	Server = client.Server
	// SubmitOptions tunes a submission.
	SubmitOptions = client.SubmitOptions
	// BatchResult pairs one batch entry's outcome with its error.
	BatchResult = client.BatchResult
	// CacheStats snapshots the client's lowering-cache counters (hits,
	// misses, LRU evictions, calibration-epoch invalidations).
	CacheStats = client.CacheStats
	// Ticket tracks a queued job.
	Ticket = qrm.Ticket
	// Scheduler is the Quantum Resource Manager: the fleet scheduler
	// reachable through Client.QRM (pools, concurrency, admission
	// control, fleet stats).
	Scheduler = qrm.Scheduler
	// SchedulerStats is a fleet-wide scheduler counter snapshot.
	SchedulerStats = qrm.Stats
	// DeviceStats is the per-device slice of a SchedulerStats snapshot.
	DeviceStats = qrm.DeviceStats
	// PoolStats is the per-pool slice of a SchedulerStats snapshot.
	PoolStats = qrm.PoolStats
	// ServerOption tunes a Server (base context, job time caps).
	ServerOption = client.ServerOption
	// RemoteOption tunes a RemoteAdapter (dial timeouts).
	RemoteOption = client.RemoteOption
)

// WithServerBaseContext bounds every job the server runs.
func WithServerBaseContext(ctx context.Context) ServerOption {
	return client.WithServerBaseContext(ctx)
}

// WithServerMaxJobTime caps each remote job's wall-clock time.
func WithServerMaxJobTime(d time.Duration) ServerOption {
	return client.WithServerMaxJobTime(d)
}

// WithDialTimeout bounds remote connection establishment.
func WithDialTimeout(d time.Duration) RemoteOption {
	return client.WithDialTimeout(d)
}

// Stack bundles driver, session, and client over a set of devices — the
// one-call setup used by the examples.
type Stack struct {
	Driver  *Driver
	Session *Session
	Client  *Client
}

// NewStack registers the devices and wires up the client.
func NewStack(devs ...Device) (*Stack, error) {
	drv := qdmi.NewDriver()
	for _, d := range devs {
		if err := drv.RegisterDevice(d); err != nil {
			return nil, err
		}
	}
	ses := drv.OpenSession()
	return &Stack{Driver: drv, Session: ses, Client: client.New(ses)}, nil
}

// Close releases the stack.
func (s *Stack) Close() {
	s.Client.Close()
	s.Session.Close()
}

// Telemetry snapshots the stack's fleet metrics: every counter and latency
// histogram (stage durations, per-device and per-pool queue-wait,
// scheduler and cache counters) accumulated since the stack was built.
func (s *Stack) Telemetry() TelemetrySnapshot { return s.Client.Telemetry() }

// NewServer exposes a client over TCP.
func NewServer(c *Client, addr string, opts ...ServerOption) (*Server, error) {
	return client.NewServer(c, addr, opts...)
}

// NewRemoteAdapter dials a remote MQSS client, detached from any context.
func NewRemoteAdapter(addr string, opts ...RemoteOption) (*RemoteAdapter, error) {
	return client.NewRemoteAdapter(addr, opts...)
}

// NewRemoteAdapterCtx dials a remote MQSS client under ctx.
func NewRemoteAdapterCtx(ctx context.Context, addr string, opts ...RemoteOption) (*RemoteAdapter, error) {
	return client.NewRemoteAdapterCtx(ctx, addr, opts...)
}

// Parametric templates: compile once, bind millions of times. A Template
// wraps a kernel with unbound parameters (built via the Circuit's RXP,
// RYP, RZP, FrameChangeP, DelayP, WaveformEnvelopeP methods); the client
// lowers it once per (template, device, calibration epoch) and every sweep
// point afterwards is a cheap bind — no recompilation.
type (
	// Template is a parametric kernel with declared parameter ranges.
	Template = ptemplate.Template
	// TemplateParam declares one symbolic parameter and its legal range.
	TemplateParam = ptemplate.Param
	// Bindings maps parameter names to concrete values for one sweep point.
	Bindings = ptemplate.Bindings
	// CompiledTemplate is a lowered parametric payload with unbound slots.
	CompiledTemplate = ptemplate.Compiled
	// ParamExpr is an affine symbolic parameter expression (scale·p+offset).
	ParamExpr = qpi.ParamExpr
)

// ErrBadParam is the sentinel wrapped into bind-time parameter rejections
// (missing, undeclared, non-finite, or out-of-range values); test with
// errors.Is. It crosses the remote wire protocol.
var ErrBadParam = ptemplate.ErrBadParam

// Sym references a named template parameter directly (scale 1, offset 0).
func Sym(name string) *ParamExpr { return qpi.Sym(name) }

// SymAffine references a named template parameter through an affine map:
// the bound value is scale·p + offset.
func SymAffine(name string, scale, offset float64) *ParamExpr {
	return qpi.SymAffine(name, scale, offset)
}

// NewTemplate validates and wraps a finished parametric kernel; params
// must declare exactly the parameters the kernel references, and the
// declared ranges must keep every symbolic angle, delay, and amplitude
// inside hardware limits (proven here, once, rather than per point).
func NewTemplate(c *Circuit, params ...TemplateParam) (*Template, error) {
	return ptemplate.New(c, params...)
}

// CompileTemplate lowers a template for a device through the client's
// lowering cache: one compilation per (template, device,
// calibration epoch), served cache-hot afterwards (see CacheStats.Binds).
func (s *Stack) CompileTemplate(t *Template, device string) (*CompiledTemplate, error) {
	return s.Client.CompileTemplate(t, device)
}

// RunSweep executes one job per bindings entry and waits for all of them:
// the template compiles at most once and every point dispatches as a
// (compiled template, bindings) pair bound after the calibration-epoch
// check. Results are parallel to bindings, with per-point failures
// (including ErrBadParam rejections) reported in place.
func (s *Stack) RunSweep(ctx context.Context, t *Template, device string, bindings []Bindings, opts SubmitOptions) ([]BatchResult, error) {
	return s.Client.RunSweep(ctx, t, device, bindings, opts)
}

// SubmitSweep enqueues one job per bindings entry without waiting; the
// returned ticket and error slices are parallel to bindings.
func (s *Stack) SubmitSweep(ctx context.Context, t *Template, device string, bindings []Bindings, opts SubmitOptions) ([]*Ticket, []error) {
	return s.Client.SubmitSweepCtx(ctx, t, device, bindings, opts)
}

// Compiler and exchange format (paper Sections 5.2, 5.4).
type (
	// CompileResult bundles MLIR, QIR, payload and timings.
	CompileResult = compiler.Result
	// MLIRModule is a pulse-dialect module.
	MLIRModule = mlir.Module
	// QIRModule is a QIR exchange module.
	QIRModule = qir.Module
)

// Compile JIT-compiles a kernel for a device (QPI → MLIR → passes → QIR).
func Compile(c *Circuit, dev Device) (*CompileResult, error) { return compiler.Compile(c, dev) }

// CompileMLIR compiles MLIR text for a device.
func CompileMLIR(src string, dev Device) (*CompileResult, error) {
	return compiler.CompileMLIRText(src, dev)
}

// ParseMLIR parses pulse-dialect text.
func ParseMLIR(src string) (*MLIRModule, error) { return mlir.Parse(src) }

// ParseQIR parses QIR exchange text.
func ParseQIR(src string) (*QIRModule, error) { return qir.ParseModule(src) }

// Calibration (paper Section 2.1, use case 1). Routines are clients of the
// stack: each takes the Client its device is registered on and runs its
// kernels through it as tagged, prioritised jobs.
type (
	// CalibrationTarget is the device surface calibration routines need.
	CalibrationTarget = calib.Target
	// CalibrationPolicy sets a device's calibration cadence.
	CalibrationPolicy = calib.Policy
	// CalibrationScheduler plans and executes routines.
	CalibrationScheduler = calib.Scheduler
	// RabiResult reports an amplitude calibration.
	RabiResult = calib.RabiResult
	// RamseyResult reports a frequency calibration.
	RamseyResult = calib.RamseyResult
)

// RabiCalibrate re-fits the π-pulse amplitude of a site.
func RabiCalibrate(ctx context.Context, c *Client, dev CalibrationTarget, site, points, shots int) (*RabiResult, error) {
	return calib.RabiCalibrate(ctx, c, dev, site, points, shots)
}

// RamseyCalibrate re-fits the qubit frequency of a site.
func RamseyCalibrate(ctx context.Context, c *Client, dev CalibrationTarget, site int, probeHz float64, points, shots int) (*RamseyResult, error) {
	return calib.RamseyCalibrate(ctx, c, dev, site, probeHz, points, shots)
}

// CalibrationPolicyFor derives a technology-appropriate cadence via QDMI.
func CalibrationPolicyFor(dev Device) (CalibrationPolicy, error) { return calib.PolicyFor(dev) }

// CalibrationEpoch queries a device's calibration epoch through QDMI: a
// counter every calibration mutation increments, keying lowering-cache
// invalidation and dispatch-time staleness checks. Devices predating the
// property answer qdmi.ErrNotSupported.
func CalibrationEpoch(dev Device) (int64, error) { return qdmi.QueryCalibrationEpoch(dev) }

// RamseyErrorBenchmark measures frequency-drift-induced error: a resonant
// sx–idle–sx sequence that lands in |1⟩ when calibration is fresh.
func RamseyErrorBenchmark(ctx context.Context, c *Client, dev CalibrationTarget, site int, tauSeconds float64, shots int) (float64, error) {
	return calib.RamseyErrorBenchmark(ctx, c, dev, site, tauSeconds, shots)
}

// PulseTrainBenchmark measures amplitude-drift-induced error via an odd
// π-pulse train.
func PulseTrainBenchmark(ctx context.Context, c *Client, dev CalibrationTarget, site, n, shots int) (float64, error) {
	return calib.PulseTrainBenchmark(ctx, c, dev, site, n, shots)
}

// NewCalibrationScheduler builds the cadence tracker.
func NewCalibrationScheduler(c *Client, dev CalibrationTarget, p CalibrationPolicy) *CalibrationScheduler {
	return calib.NewScheduler(c, dev, p)
}

// Optimal control (paper Section 2.1, use case 2).
type (
	// ControlSystem is a piecewise-constant control problem.
	ControlSystem = optctl.ControlSystem
	// ControlPulse is a control amplitude table.
	ControlPulse = optctl.Pulse
	// GrapeOptions tunes gradient ascent.
	GrapeOptions = optctl.GrapeOptions
	// GrapeResult reports an optimization.
	GrapeResult = optctl.GrapeResult
	// TransmonXProblem is GRAPE's model of a transmon X gate.
	TransmonXProblem = optctl.TransmonXProblem
	// MismatchStudyResult compares open/closed/hybrid control on a device.
	MismatchStudyResult = calib.MismatchStudyResult
)

// Grape runs gradient-ascent pulse engineering toward a target unitary.
var Grape = optctl.GrapeUnitary

// RunMismatchStudy compares open/closed/hybrid control of a site's X gate
// through client jobs on a device, then installs the hybrid pulse as "x".
var RunMismatchStudy = calib.RunMismatchStudy

// TargetX returns the qubit-subspace X gate and the 3-level projector used
// by the transmon control problems.
var TargetX = optctl.TargetX

// VQE (paper Section 2.1, use case 3).
type (
	// PauliHamiltonian is a sum of Pauli terms.
	PauliHamiltonian = vqe.Hamiltonian
	// GateAnsatz is the hardware-efficient gate ansatz.
	GateAnsatz = vqe.GateAnsatz
	// PulseAnsatz is the ctrl-VQE waveform ansatz.
	PulseAnsatz = vqe.PulseAnsatz
	// VQEOptions tunes a run.
	VQEOptions = vqe.Options
	// VQEResult summarizes a run.
	VQEResult = vqe.RunResult
)

// H2Hamiltonian returns the 2-qubit minimal-basis H₂ benchmark.
func H2Hamiltonian() *PauliHamiltonian { return vqe.H2Minimal() }

// NewPulseAnsatz discovers ports/constraints for ctrl-VQE via QDMI.
func NewPulseAnsatz(dev Device, qubits int) (*PulseAnsatz, error) {
	return vqe.NewPulseAnsatz(dev, qubits)
}

// RunVQE minimizes the measured energy over ansatz parameters; every
// evaluation is a client job on the named device, the ansatz's template
// bound at the parameters. The first failed evaluation ends the run with
// its error.
func RunVQE(ctx context.Context, c *Client, device string, h *PauliHamiltonian, a vqe.Ansatz, x0 []float64, opts VQEOptions) (*VQEResult, error) {
	return vqe.Run(ctx, c, device, h, a, x0, opts)
}
