package qdmi

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// mockDevice is a minimal in-memory Device for interface-level tests.
type mockDevice struct {
	name    string
	mu      sync.Mutex
	impls   map[string]*PulseImpl
	nextJob int
}

func newMockDevice(name string) *mockDevice {
	return &mockDevice{name: name, impls: map[string]*PulseImpl{}}
}

func (m *mockDevice) Name() string { return m.name }

func (m *mockDevice) QueryDeviceProperty(p DeviceProperty) (any, error) {
	switch p {
	case DevicePropName:
		return m.name, nil
	case DevicePropVersion:
		return "1.0-mock", nil
	case DevicePropTechnology:
		return "simulator", nil
	case DevicePropNumSites:
		return 2, nil
	case DevicePropSampleRateHz:
		return 1e9, nil
	case DevicePropPulseSupport:
		return PulsePortLevel, nil
	case DevicePropWaveformKinds:
		return waveform.Kinds(), nil
	case DevicePropNativeGates:
		return []string{"x", "sx", "rz", "cz"}, nil
	case DevicePropProgramFormats:
		return []ProgramFormat{FormatQIRBase, FormatQIRPulse}, nil
	default:
		return nil, ErrNotSupported
	}
}

func (m *mockDevice) NumSites() int { return 2 }

func (m *mockDevice) QuerySiteProperty(site int, p SiteProperty) (any, error) {
	if site < 0 || site >= 2 {
		return nil, ErrInvalidArgument
	}
	switch p {
	case SitePropFrequencyHz:
		return 5.0e9 + float64(site)*0.2e9, nil
	case SitePropT1Seconds:
		return 50e-6, nil
	case SitePropT2Seconds:
		return 30e-6, nil
	case SitePropConnectivity:
		return []int{1 - site}, nil
	default:
		return nil, ErrNotSupported
	}
}

func (m *mockDevice) Operations() []string { return []string{"x", "sx", "rz", "cz", "measure"} }

func (m *mockDevice) QueryOperationProperty(op string, sites []int, p OperationProperty) (any, error) {
	switch p {
	case OpPropFidelity:
		return 0.999, nil
	case OpPropDurationSeconds:
		return 50e-9, nil
	case OpPropHasPulseImpl:
		m.mu.Lock()
		defer m.mu.Unlock()
		_, ok := m.impls[implKey(op, sites)]
		return ok, nil
	default:
		return nil, ErrNotSupported
	}
}

func (m *mockDevice) Ports() []*pulse.Port {
	return []*pulse.Port{
		{ID: "q0-drive", Kind: pulse.PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1},
		{ID: "q1-drive", Kind: pulse.PortDrive, Sites: []int{1}, SampleRateHz: 1e9, MaxAmplitude: 1},
	}
}

func (m *mockDevice) QueryPortProperty(portID string, p PortProperty) (any, error) {
	for _, port := range m.Ports() {
		if port.ID == portID {
			switch p {
			case PortPropKind:
				return port.Kind, nil
			case PortPropSampleRateHz:
				return port.SampleRateHz, nil
			default:
				return nil, ErrNotSupported
			}
		}
	}
	return nil, ErrInvalidArgument
}

func implKey(op string, sites []int) string { return fmt.Sprintf("%s@%v", op, sites) }

func (m *mockDevice) DefaultPulse(op string, sites []int) (*PulseImpl, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	impl, ok := m.impls[implKey(op, sites)]
	if !ok {
		return nil, ErrNotSupported
	}
	return impl, nil
}

func (m *mockDevice) SetPulseImpl(op string, sites []int, impl *PulseImpl) error {
	if err := impl.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.impls[implKey(op, sites)] = impl
	return nil
}

func (m *mockDevice) SubmitJob(payload []byte, format ProgramFormat, shots int) (Job, error) {
	if !SupportsFormat(m, format) {
		return nil, fmt.Errorf("%w: format %s", ErrNotSupported, format)
	}
	m.mu.Lock()
	m.nextJob++
	id := fmt.Sprintf("%s-job-%d", m.name, m.nextJob)
	m.mu.Unlock()
	j := NewAsyncJob(id)
	go func() {
		if !j.Start() {
			return
		}
		if strings.Contains(string(payload), "poison") {
			j.Fail(errors.New("poisoned payload"))
			return
		}
		j.Finish(&Result{Counts: map[uint64]int{0: shots}, Shots: shots})
	}()
	return j, nil
}

func TestDriverRegistry(t *testing.T) {
	d := NewDriver()
	if err := d.RegisterDevice(newMockDevice("sim-a")); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterDevice(newMockDevice("sim-b")); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterDevice(newMockDevice("sim-a")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := d.RegisterDevice(newMockDevice("")); err == nil {
		t.Fatal("empty name accepted")
	}
	ses := d.OpenSession()
	names, err := ses.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "sim-a" || names[1] != "sim-b" {
		t.Fatalf("devices = %v", names)
	}
	if err := d.UnregisterDevice("sim-b"); err != nil {
		t.Fatal(err)
	}
	if err := d.UnregisterDevice("sim-b"); err == nil {
		t.Fatal("double unregister accepted")
	}
}

func TestSessionLifecycle(t *testing.T) {
	d := NewDriver()
	_ = d.RegisterDevice(newMockDevice("sim"))
	ses := d.OpenSession()
	if ses.ID() == 0 {
		t.Fatal("session ID not assigned")
	}
	dev, err := ses.Device("sim")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name() != "sim" {
		t.Fatal("wrong device")
	}
	if _, err := ses.Device("ghost"); err == nil {
		t.Fatal("ghost device resolved")
	}
	ses.Close()
	if _, err := ses.Devices(); err == nil {
		t.Fatal("closed session still lists devices")
	}
	if _, err := ses.Device("sim"); err == nil {
		t.Fatal("closed session still resolves devices")
	}
}

func TestTypedQueryHelpers(t *testing.T) {
	dev := newMockDevice("sim")
	name, err := QueryString(dev, DevicePropName)
	if err != nil || name != "sim" {
		t.Fatalf("QueryString: %v %q", err, name)
	}
	n, err := QueryInt(dev, DevicePropNumSites)
	if err != nil || n != 2 {
		t.Fatalf("QueryInt: %v %d", err, n)
	}
	f, err := QueryFloat(dev, DevicePropSampleRateHz)
	if err != nil || f != 1e9 {
		t.Fatalf("QueryFloat: %v %g", err, f)
	}
	ps, err := QueryPulseSupport(dev)
	if err != nil || ps != PulsePortLevel {
		t.Fatalf("QueryPulseSupport: %v %v", err, ps)
	}
	// Type mismatches.
	if _, err := QueryString(dev, DevicePropNumSites); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := QueryInt(dev, DevicePropName); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := QueryFloat(dev, DevicePropName); err == nil {
		t.Fatal("type mismatch accepted")
	}
	// Unsupported property.
	if _, err := dev.QueryDeviceProperty(DevicePropMaxWaveformMemory); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("want ErrNotSupported, got %v", err)
	}
}

func TestSupportsFormat(t *testing.T) {
	dev := newMockDevice("sim")
	if !SupportsFormat(dev, FormatQIRPulse) {
		t.Fatal("qir-pulse should be supported")
	}
	if SupportsFormat(dev, FormatMLIRPulse) {
		t.Fatal("mlir-pulse should not be supported")
	}
}

func TestPulseImplValidate(t *testing.T) {
	spec := waveform.SpecFromEnvelope("w", waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 32)
	good := &PulseImpl{Operation: "x", Steps: []PulseStep{
		{Kind: "play", PortRole: "drive0", Waveform: &spec},
		{Kind: "shift_phase", PortRole: "drive0", PhaseRad: 0.5},
		{Kind: "barrier"},
		{Kind: "delay", PortRole: "drive0", Samples: 16},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []*PulseImpl{
		{Operation: "", Steps: good.Steps},
		{Operation: "x"},
		{Operation: "x", Steps: []PulseStep{{Kind: "play", PortRole: "d"}}},
		{Operation: "x", Steps: []PulseStep{{Kind: "warp", PortRole: "d"}}},
		{Operation: "x", Steps: []PulseStep{{Kind: "delay", PortRole: "d", Samples: 0}}},
		{Operation: "x", Steps: []PulseStep{{Kind: "shift_phase"}}},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad impl %d accepted", i)
		}
	}
}

func TestSetAndQueryPulseImpl(t *testing.T) {
	dev := newMockDevice("sim")
	spec := waveform.SpecFromEnvelope("w", waveform.DRAG{Amplitude: 0.4, SigmaFrac: 0.2, Beta: 0.8}, 40)
	impl := &PulseImpl{Operation: "x", Steps: []PulseStep{{Kind: "play", PortRole: "drive0", Waveform: &spec}}}
	if _, err := dev.DefaultPulse("x", []int{0}); !errors.Is(err, ErrNotSupported) {
		t.Fatal("uncalibrated op should be ErrNotSupported")
	}
	has, err := dev.QueryOperationProperty("x", []int{0}, OpPropHasPulseImpl)
	if err != nil || has.(bool) {
		t.Fatal("HasPulseImpl should be false before SetPulseImpl")
	}
	if err := dev.SetPulseImpl("x", []int{0}, impl); err != nil {
		t.Fatal(err)
	}
	got, err := dev.DefaultPulse("x", []int{0})
	if err != nil || got.Operation != "x" {
		t.Fatalf("DefaultPulse after set: %v %+v", err, got)
	}
	has, _ = dev.QueryOperationProperty("x", []int{0}, OpPropHasPulseImpl)
	if !has.(bool) {
		t.Fatal("HasPulseImpl should be true after SetPulseImpl")
	}
}

func TestJobLifecycle(t *testing.T) {
	dev := newMockDevice("sim")
	j, err := dev.SubmitJob([]byte("payload"), FormatQIRPulse, 100)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == "" {
		t.Fatal("job without ID")
	}
	if st := j.Wait(context.Background()); st != JobDone {
		t.Fatalf("status = %v", st)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 100 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

func TestJobFailure(t *testing.T) {
	dev := newMockDevice("sim")
	j, err := dev.SubmitJob([]byte("poison"), FormatQIRPulse, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(context.Background()); st != JobFailed {
		t.Fatalf("status = %v", st)
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("failed job returned result")
	}
}

func TestJobUnsupportedFormat(t *testing.T) {
	dev := newMockDevice("sim")
	if _, err := dev.SubmitJob([]byte("x"), FormatMLIRPulse, 10); err == nil {
		t.Fatal("unsupported format accepted")
	}
}

func TestJobCancel(t *testing.T) {
	j := NewAsyncJob("j1")
	if err := j.Cancel(); err != nil {
		t.Fatal(err)
	}
	if j.Status() != JobCancelled {
		t.Fatal("not cancelled")
	}
	if j.Start() {
		t.Fatal("cancelled job started")
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("cancelled job returned result")
	}
	// Cancel after completion fails.
	j2 := NewAsyncJob("j2")
	j2.Start()
	j2.Finish(&Result{Shots: 1})
	if err := j2.Cancel(); err == nil {
		t.Fatal("cancel of done job accepted")
	}
}

func TestJobResultBeforeDone(t *testing.T) {
	j := NewAsyncJob("j")
	if _, err := j.Result(); err == nil {
		t.Fatal("queued job returned result")
	}
}

func TestJobWaitConcurrent(t *testing.T) {
	j := NewAsyncJob("j")
	j.Start()
	done := make(chan JobStatus, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- j.Wait(context.Background()) }()
	}
	time.Sleep(5 * time.Millisecond)
	j.Finish(&Result{Shots: 1})
	for i := 0; i < 4; i++ {
		if st := <-done; st != JobDone {
			t.Fatalf("waiter %d got %v", i, st)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	for _, s := range []JobStatus{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled} {
		if strings.HasPrefix(s.String(), "JobStatus(") {
			t.Errorf("status %d unnamed", int(s))
		}
	}
	for _, p := range []PulseSupport{PulseNone, PulseSiteLevel, PulsePortLevel} {
		if strings.HasPrefix(p.String(), "PulseSupport(") {
			t.Errorf("support %d unnamed", int(p))
		}
	}
}

// mistypedEpoch advertises the calibration epoch and answers it as a string.
type mistypedEpoch struct{ *mockDevice }

func (d mistypedEpoch) QueryDeviceProperty(p DeviceProperty) (any, error) {
	if p == DevicePropCalibrationEpoch {
		return "seven", nil
	}
	return d.mockDevice.QueryDeviceProperty(p)
}

// TestTargetEpochAndIndices: an epoch-unaware device reads as epoch zero, one
// that answers the property wrongly as an error (never as "unaware"); ports
// are found by site and ID, absent ones are nil, and a pulse is asked of the
// device once per (operation, site tuple) of at most two sites.
func TestTargetEpochAndIndices(t *testing.T) {
	dev := newMockDevice("sim")
	tg := NewTarget(dev)
	if e, err := tg.Epoch(); e != 0 || err != nil {
		t.Fatalf("epoch-unaware device: epoch %d, %v", e, err)
	}
	if _, err := NewTarget(mistypedEpoch{dev}).Epoch(); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("mistyped epoch: %v, want ErrInvalidArgument", err)
	}
	if p := tg.Drive(1); p == nil || p.ID != "q1-drive" || tg.Port("q1-drive") != p {
		t.Fatalf("drive of site 1 = %v", p)
	}
	if tg.Drive(2) != nil || tg.Drive(-1) != nil || tg.Readout(0) != nil || tg.Coupler(0, 1) != nil || tg.Port("nope") != nil {
		t.Fatal("a port the device does not have was found")
	}
	if tg.Granularity != 1 || tg.MinSamples != 0 || tg.MaxSamples != 0 {
		t.Fatalf("unanswered constraints read as %d/%d/%d, want 1/0/0", tg.Granularity, tg.MinSamples, tg.MaxSamples)
	}

	spec := waveform.SpecFromEnvelope("w", waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 32)
	x := &PulseImpl{Operation: "x", Steps: []PulseStep{{Kind: "play", PortRole: "drive0", Waveform: &spec}}}
	if err := dev.SetPulseImpl("x", []int{0}, x); err != nil {
		t.Fatal(err)
	}
	first, err := tg.Envelope("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The view is not refreshed: what it answered once it answers again.
	if err := dev.SetPulseImpl("x", []int{0}, &PulseImpl{Operation: "x", Steps: []PulseStep{{Kind: "barrier"}}}); err != nil {
		t.Fatal(err)
	}
	if again, err := tg.Envelope("x", 0); err != nil || again != first {
		t.Fatalf("second ask: %v, %v", again, err)
	}
	if impl, err := tg.Pulse("x", 0); err != nil || impl != x {
		t.Fatalf("Pulse after Envelope: %v, %v", impl, err)
	}
	if _, err := tg.Pulse("ccz", 0, 1, 2); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("three-site tuple: %v", err)
	}
}

// TestResolvePlacesRolesAndBarrier: roles resolve against the operation's
// sites in the order it names them, and a barrier spans the drive ports of
// those sites, then every other port a step names, once each, in step order.
// What neither player plays, a role the sites have no port for, and a
// capture count that does not match the operation's result are refused by
// name (ErrNotSupported).
func TestResolvePlacesRolesAndBarrier(t *testing.T) {
	port := func(id string, kind pulse.PortKind, sites ...int) *pulse.Port {
		return &pulse.Port{ID: id, Kind: kind, Sites: sites}
	}
	ports := NewPortTable([]*pulse.Port{
		port("d0", pulse.PortDrive, 0), port("r0", pulse.PortReadout, 0),
		port("d1", pulse.PortDrive, 1), port("r1", pulse.PortReadout, 1),
		port("c01", pulse.PortCoupler, 0, 1), port("d2", pulse.PortDrive, 2),
	})
	spec := waveform.SpecFromEnvelope("w", waveform.Constant{Amplitude: 0.1}, 8)
	step := func(kind, role string) PulseStep {
		st := PulseStep{Kind: kind, PortRole: role, Samples: 8}
		if kind == "play" {
			st.Waveform = &spec
		}
		return st
	}
	impl := func(steps ...PulseStep) *PulseImpl { return &PulseImpl{Operation: "op", Steps: steps} }

	cz := impl(step("barrier", ""), step("play", "coupler"), step("shift_phase", "drive0"), step("barrier", ""))
	for _, tc := range []struct {
		sites          []int
		steps, barrier []string
	}{
		{[]int{0, 1}, []string{"", "c01", "d0", ""}, []string{"d0", "d1", "c01"}},
		{[]int{1, 0}, []string{"", "c01", "d1", ""}, []string{"d1", "d0", "c01"}},
	} {
		steps, barrier, err := ports.Resolve(cz, tc.sites, false)
		if err != nil || !slices.Equal(steps, tc.steps) || !slices.Equal(barrier, tc.barrier) {
			t.Errorf("cz on %v: steps %q, barrier %q, %v; want %q, %q", tc.sites, steps, barrier, err, tc.steps, tc.barrier)
		}
	}
	measure := impl(step("barrier", ""), step("play", "readout0"), step("capture", "readout0"))
	if steps, barrier, err := ports.Resolve(measure, []int{1}, true); err != nil ||
		!slices.Equal(steps, []string{"", "r1", "r1"}) || !slices.Equal(barrier, []string{"d1", "r1"}) {
		t.Errorf("measure on 1: steps %q, barrier %q, %v", steps, barrier, err)
	}
	for name, tc := range map[string]struct {
		impl   *PulseImpl
		sites  []int
		result bool
	}{
		"unplayed kind":        {impl(step("delay", "drive0")), []int{0}, false},
		"drive1 of one site":   {impl(step("play", "drive1")), []int{0}, false},
		"coupler of one site":  {impl(step("play", "coupler")), []int{0}, false},
		"uncoupled pair":       {impl(step("play", "coupler")), []int{1, 2}, false},
		"no readout port":      {impl(step("capture", "readout0")), []int{2}, true},
		"unknown role":         {impl(step("play", "flux0")), []int{0}, false},
		"capture, no result":   {impl(step("capture", "readout0")), []int{0}, false},
		"result, no capture":   {impl(step("barrier", "")), []int{0}, true},
		"result, two captures": {impl(step("capture", "readout0"), step("capture", "readout0")), []int{0}, true},
	} {
		if _, _, err := ports.Resolve(tc.impl, tc.sites, tc.result); !errors.Is(err, ErrNotSupported) {
			t.Errorf("%s: %v, want ErrNotSupported", name, err)
		}
	}
}
