package qdmitest

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/telemetry"
)

// New returns a test device around a fake called name with sites sites: one
// drive port each, no calibrated pulse until SetPulseImpl installs one, a
// calibration epoch that starts at 1, and jobs that, run on their first
// Wait, read 0 on every shot.
func New(name string, sites int) *Device {
	f := &fake{name: name, epoch: 1, impls: map[string]*qdmi.PulseImpl{}}
	for s := range sites {
		f.ports = append(f.ports, &pulse.Port{ID: fmt.Sprintf("q%d-drive", s), Kind: pulse.PortDrive,
			Sites: []int{s}, SampleRateHz: 1e9, MaxAmplitude: 1})
	}
	f.table = qdmi.NewPortTable(f.ports)
	return Wrap(f)
}

type fake struct {
	name  string
	ports []*pulse.Port
	table qdmi.PortTable

	mu    sync.Mutex
	epoch int64
	impls map[string]*qdmi.PulseImpl // by op@sites
	jobs  int
}

func (f *fake) Name() string         { return f.name }
func (f *fake) NumSites() int        { return len(f.ports) }
func (f *fake) Ports() []*pulse.Port { return f.ports }

func (f *fake) QueryDeviceProperty(p qdmi.DeviceProperty) (any, error) {
	switch p {
	case qdmi.DevicePropName:
		return f.name, nil
	case qdmi.DevicePropNumSites:
		return len(f.ports), nil
	case qdmi.DevicePropSampleRateHz:
		return 1e9, nil
	case qdmi.DevicePropPulseSupport:
		return qdmi.PulsePortLevel, nil
	case qdmi.DevicePropProgramFormats:
		return []qdmi.ProgramFormat{qdmi.FormatQIRBase, qdmi.FormatQIRPulse}, nil
	case qdmi.DevicePropCalibrationEpoch:
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.epoch, nil
	}
	return nil, qdmi.ErrNotSupported
}

func (f *fake) QuerySiteProperty(site int, _ qdmi.SiteProperty) (any, error) {
	if err := f.check([]int{site}); err != nil {
		return nil, err
	}
	return nil, qdmi.ErrNotSupported
}

func (f *fake) Operations() []string {
	ops := []string{"cz", "measure", "rz", "sx", "x"}
	f.mu.Lock()
	for _, impl := range f.impls {
		ops = append(ops, impl.Operation)
	}
	f.mu.Unlock()
	slices.Sort(ops)
	return slices.Compact(ops)
}

func (f *fake) QueryOperationProperty(op string, sites []int, p qdmi.OperationProperty) (any, error) {
	if !slices.Contains(f.Operations(), op) {
		return nil, fmt.Errorf("%w: no operation %q", qdmi.ErrNotSupported, op)
	}
	if err := f.check(sites); err != nil || p != qdmi.OpPropHasPulseImpl {
		return nil, cmp.Or(err, qdmi.ErrNotSupported)
	}
	_, err := f.DefaultPulse(op, sites)
	return err == nil, nil
}

func (f *fake) QueryPortProperty(portID string, p qdmi.PortProperty) (any, error) {
	port := f.table.Port(portID)
	if port == nil {
		return nil, fmt.Errorf("%w: no port %q", qdmi.ErrInvalidArgument, portID)
	}
	if p != qdmi.PortPropKind {
		return nil, qdmi.ErrNotSupported
	}
	return port.Kind, nil
}

// DefaultPulse hands out a copy of the installed implementation.
func (f *fake) DefaultPulse(op string, sites []int) (*qdmi.PulseImpl, error) {
	if err := f.check(sites); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if impl, ok := f.impls[fmt.Sprint(op, sites)]; ok {
		return impl.Clone(), nil
	}
	return nil, fmt.Errorf("%w: no pulse for %s on %v", qdmi.ErrNotSupported, op, sites)
}

// SetPulseImpl installs a copy of a valid implementation whose roles name
// ports of sites, and bumps the epoch.
func (f *fake) SetPulseImpl(op string, sites []int, impl *qdmi.PulseImpl) error {
	if err := cmp.Or(f.check(sites), impl.Validate()); err != nil {
		return err
	}
	for i, st := range impl.Steps {
		if st.Kind != "barrier" && f.table.RolePort(st.PortRole, sites) == nil {
			return fmt.Errorf("%w: %s step %d: no %q port on sites %v", qdmi.ErrInvalidArgument, op, i, st.PortRole, sites)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.impls[fmt.Sprint(op, sites)] = impl.Clone()
	f.epoch++
	return nil
}

// check refuses an empty site tuple or a site the fake lacks.
func (f *fake) check(sites []int) error {
	if len(sites) == 0 || slices.ContainsFunc(sites, func(s int) bool { return s < 0 || s >= len(f.ports) }) {
		return fmt.Errorf("%w: sites %v", qdmi.ErrInvalidArgument, sites)
	}
	return nil
}

func (f *fake) SubmitJob(_ []byte, format qdmi.ProgramFormat, shots int) (qdmi.Job, error) {
	return f.SubmitJobOpts(nil, format, qdmi.JobOptions{Shots: shots})
}

func (f *fake) SubmitJobOpts(_ []byte, format qdmi.ProgramFormat, opts qdmi.JobOptions) (qdmi.Job, error) {
	if !qdmi.SupportsFormat(f, format) {
		return nil, fmt.Errorf("%w: format %q", qdmi.ErrNotSupported, format)
	}
	return f.SubmitModule(nil, opts)
}

// SubmitModule takes any module: the fake runs nothing but the count.
func (f *fake) SubmitModule(_ *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	if opts.Shots <= 0 {
		return nil, fmt.Errorf("%w: shots %d", qdmi.ErrInvalidArgument, opts.Shots)
	}
	f.mu.Lock()
	f.jobs++
	id := fmt.Sprintf("%s-%d", f.name, f.jobs)
	f.mu.Unlock()
	return qdmi.NewRunOnWaitJob(id, func(ctx context.Context, j *qdmi.AsyncJob) {
		if ctx.Err() != nil {
			return
		}
		start := time.Now()
		opts.Telemetry.Record(telemetry.StageDeviceExecute, f.name, start, time.Since(start), opts.TelemetryParent)
		j.Finish(&qdmi.Result{Counts: map[uint64]int{0: opts.Shots}, Shots: opts.Shots})
	}), nil
}
