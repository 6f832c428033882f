package devices

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/waveform"
)

// SimDevice is a simulated quantum accelerator implementing qdmi.Device.
// It owns the true (drifting) physics, a calibration table of believed
// parameters, and executes QIR pulse-profile jobs by linking them against
// its port/frame tables and integrating the dynamics.
type SimDevice struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand // drift noise stream
	// jobRng seeds per-job shot sampling; kept separate from the drift
	// stream so identically-seeded devices drift identically regardless of
	// how many jobs each runs.
	jobRng *rand.Rand
	// Simulated wall clock in seconds; drift advances with it.
	nowSeconds float64
	drift      *driftState
	// engine is the execution engine of the current true physics — system
	// model, sparse operators, collapse precompute, propagator cache —
	// built by the first job that needs it and kept for every later one.
	// It is a function of drift alone, so whatever writes drift drops it.
	engine *simq.Executor
	// programs is the prepared-program store, a ring written at nextProgram;
	// see preparedProgram for what makes an entry current.
	programs    [preparedCap]preparedProgram
	nextProgram int
	calib       atomic.Pointer[calibration] // what the control electronics believe
	nextJob     int
	// jobOverhead models fixed control-electronics wall-clock per job
	// (arming, waveform upload, readout transfer); zero disables it.
	jobOverhead time.Duration

	ports []*pulse.Port
	table qdmi.PortTable // ports by ID and by (kind, sites)

	// Per-job values that are functions of the config alone.
	names        deviceNames
	readoutSites map[int]simq.ReadoutSite // IQ synthesis model, from the true physics
	// siteError is the discriminated-level flip model: a site's true
	// assignment error, symmetric in 0 and 1.
	siteError func(site int) (p01, p10 float64)
}

// New builds a simulated device from a config. The device starts perfectly
// calibrated: believed parameters equal true nominal parameters.
func New(cfg Config) (*SimDevice, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("devices: config %q has no sites", cfg.Name)
	}
	if cfg.SampleRateHz <= 0 || cfg.DriveRabiHz <= 0 || cfg.GateSamples <= 0 {
		return nil, fmt.Errorf("devices: config %q missing rates", cfg.Name)
	}
	if cfg.MaxShots == 0 {
		cfg.MaxShots = 1 << 20
	}
	if cfg.ReadoutSamples == 0 {
		cfg.ReadoutSamples = 128
	}
	if cfg.ReadoutFidelity == 0 {
		cfg.ReadoutFidelity = 1.0
	}
	// Fidelity below 0.5 is nonphysical (relabel the states instead) and
	// unrepresentable by the IQ cloud model, which would silently disagree
	// with the discriminated-level flip model.
	if cfg.ReadoutFidelity < 0.5 || cfg.ReadoutFidelity > 1 {
		return nil, fmt.Errorf("devices: config %q readout fidelity %g outside [0.5, 1]",
			cfg.Name, cfg.ReadoutFidelity)
	}
	d := &SimDevice{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		jobRng:       rand.New(rand.NewSource(cfg.Seed + 2)),
		drift:        newDriftState(&cfg),
		names:        newDeviceNames(cfg.Name),
		readoutSites: make(map[int]simq.ReadoutSite, len(cfg.Sites)),
	}
	d.siteError = func(site int) (float64, float64) {
		p := 1 - d.trueReadoutFidelity(site)
		return p, p
	}
	first := calibration{pulses: map[string]*qdmi.PulseImpl{}} // believed = true nominal
	for i, s := range cfg.Sites {
		if s.Dim < 2 {
			return nil, fmt.Errorf("devices: site %d has dim %d", i, s.Dim)
		}
		if s.ReadoutFidelity != 0 && (s.ReadoutFidelity < 0.5 || s.ReadoutFidelity > 1) {
			return nil, fmt.Errorf("devices: site %d readout fidelity %g outside [0.5, 1]", i, s.ReadoutFidelity)
		}
		first.freqHz = append(first.freqHz, s.FreqHz)
		first.readoutFid = append(first.readoutFid, d.trueReadoutFidelity(i))
		// Drifting fidelity is not modeled, so the readout model never moves.
		d.readoutSites[i] = simq.ReadoutSite{Fidelity: d.trueReadoutFidelity(i), T1Seconds: s.T1Seconds}
	}
	// Calibrated π amplitude from the nominal Rabi rate and gate envelope.
	unitArea := d.unitGateArea()
	dt := 1 / cfg.SampleRateHz
	ampPi := 1 / (2 * cfg.DriveRabiHz * unitArea * dt)
	if ampPi > 1 {
		return nil, fmt.Errorf("devices: config %q cannot reach a π pulse (need amp %.3g)", cfg.Name, ampPi)
	}
	first.piAmp = slices.Repeat([]float64{ampPi}, len(cfg.Sites))
	d.recalibrate(func(c *calibration) { *c = first }) // epoch 0 → 1
	d.buildPorts()
	return d, nil
}

// unitGateArea returns the sample-area of the unit-amplitude single-qubit
// gate envelope.
func (d *SimDevice) unitGateArea() float64 {
	w, err := d.gateEnvelope(1.0)
	if err != nil {
		panic(fmt.Sprintf("devices: gate envelope: %v", err))
	}
	return w.Area()
}

// gateEnvelope materializes the device's standard single-qubit pulse shape
// at the given amplitude.
func (d *SimDevice) gateEnvelope(amp float64) (*waveform.Waveform, error) {
	n := d.cfg.GateSamples
	if d.cfg.DragBeta != 0 {
		return waveform.DRAG{Amplitude: amp, SigmaFrac: 0.2, Beta: d.cfg.DragBeta}.Materialize("xpulse", n)
	}
	return waveform.Gaussian{Amplitude: amp, SigmaFrac: 0.2}.Materialize("xpulse", n)
}

func (d *SimDevice) buildPorts() {
	gran := d.cfg.Granularity
	if gran == 0 {
		gran = 1
	}
	add := func(id string, kind pulse.PortKind, sites ...int) {
		d.ports = append(d.ports, &pulse.Port{
			ID: id, Kind: kind, Sites: sites, SampleRateHz: d.cfg.SampleRateHz, Granularity: gran,
			MinSamples: d.cfg.MinSamples, MaxSamples: d.cfg.MaxSamples, MaxAmplitude: 1.0,
		})
	}
	for i := range d.cfg.Sites {
		add(fmt.Sprintf("q%d-drive", i), pulse.PortDrive, i)
		add(fmt.Sprintf("q%d-readout", i), pulse.PortReadout, i)
	}
	for _, c := range d.cfg.Couplings {
		add(fmt.Sprintf("q%dq%d-coupler", c.A, c.A+1), pulse.PortCoupler, c.A, c.A+1)
	}
	d.table = qdmi.NewPortTable(d.ports)
}

// Name implements qdmi.Device.
func (d *SimDevice) Name() string { return d.cfg.Name }

// SetJobOverhead models the fixed control-electronics wall-clock cost per
// job (arming, waveform upload, readout transfer): every job holds the
// device for t in addition to simulating its schedule. Zero (the default)
// disables the model. Cancelling a job interrupts the overhead wait.
func (d *SimDevice) SetJobOverhead(t time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.jobOverhead = t
}

// AdvanceTime moves the simulated wall clock forward, evolving the drift
// processes. Calibration experiments call this to emulate hours of
// operation.
func (d *SimDevice) AdvanceTime(seconds float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.engine = nil // the true physics is about to move
	// Subdivide long advances so OU statistics stay faithful.
	remaining := seconds
	for remaining > 0 {
		step := math.Min(remaining, math.Max(1, d.cfg.Drift.FreqTauSeconds/50))
		d.drift.advance(step, d.rng)
		d.nowSeconds += step
		remaining -= step
	}
}

// Now returns the simulated wall-clock time in seconds.
func (d *SimDevice) Now() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nowSeconds
}

// TrueFrequency returns the current drifted transition frequency of a site.
// It exists for experiment reporting; calibration routines must not use it.
func (d *SimDevice) TrueFrequency(site int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.Sites[site].FreqHz + d.drift.freqOffsetHz[site].x
}

// TrueAmpScale returns the current drifted drive-amplitude scale (≈1).
func (d *SimDevice) TrueAmpScale() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return 1 + d.drift.ampScale.x
}

// calibration is what the control electronics believe at one epoch: per-site
// frequency, π amplitude and assignment fidelity, and the installed pulse
// implementations by implKey. Nothing writes a published value, so a reader
// that loads the pointer once sees one epoch, and the pointer names it.
type calibration struct {
	epoch                     int64
	freqHz, piAmp, readoutFid []float64
	pulses                    map[string]*qdmi.PulseImpl
}

// recalibrate is the one writer of a device's calibration — the whole
// qdmi.DevicePropCalibrationEpoch bump contract: it publishes a copy of the
// current value with edit applied, one epoch later.
func (d *SimDevice) recalibrate(edit func(c *calibration)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var next calibration
	if cur := d.calib.Load(); cur != nil {
		next = calibration{cur.epoch, slices.Clone(cur.freqHz), slices.Clone(cur.piAmp),
			slices.Clone(cur.readoutFid), maps.Clone(cur.pulses)}
	}
	edit(&next)
	next.epoch++
	d.calib.Store(&next)
}

// pulse returns the implementation SetPulseImpl installed for op on sites,
// or nil — the look-up DefaultPulse and link-time gate lowering both make
// first, so a payload lowered on the device and one lowered by the compiler
// play the same pulse.
func (c *calibration) pulse(op string, sites []int) *qdmi.PulseImpl {
	var buf [32]byte
	return c.pulses[string(implKey(buf[:0], op, sites))]
}

// CalibratedFrequency returns the believed transition frequency of a site.
func (d *SimDevice) CalibratedFrequency(site int) float64 { return d.calib.Load().freqHz[site] }

// CalibrationEpoch returns the device's current calibration epoch (the
// value QDMI reports through DevicePropCalibrationEpoch).
func (d *SimDevice) CalibrationEpoch() int64 { return d.calib.Load().epoch }

// SetCalibratedFrequency updates the calibration table (what Ramsey-style
// routines write back).
func (d *SimDevice) SetCalibratedFrequency(site int, hz float64) {
	d.recalibrate(func(c *calibration) { c.freqHz[site] = hz })
}

// trueReadoutFidelity returns the physical per-site assignment fidelity:
// the site's own value, or the device-wide fallback.
func (d *SimDevice) trueReadoutFidelity(site int) float64 {
	if f := d.cfg.Sites[site].ReadoutFidelity; f > 0 {
		return f
	}
	return d.cfg.ReadoutFidelity
}

// CalibratedReadoutFidelity returns the believed assignment fidelity of a
// site — what QDMI site queries report.
func (d *SimDevice) CalibratedReadoutFidelity(site int) float64 {
	return d.calib.Load().readoutFid[site]
}

// SetCalibratedReadoutFidelity updates the calibration table (what the
// readout-calibration routine writes back after training a discriminator).
func (d *SimDevice) SetCalibratedReadoutFidelity(site int, f float64) {
	d.recalibrate(func(c *calibration) { c.readoutFid[site] = f })
}

// CalibratedPiAmplitude returns the believed full-π pulse amplitude.
func (d *SimDevice) CalibratedPiAmplitude(site int) float64 { return d.calib.Load().piAmp[site] }

// SetCalibratedPiAmplitude updates the calibration table (what Rabi-style
// routines write back).
func (d *SimDevice) SetCalibratedPiAmplitude(site int, amp float64) {
	d.recalibrate(func(c *calibration) { c.piAmp[site] = amp })
}

// QueryDeviceProperty implements qdmi.Device.
func (d *SimDevice) QueryDeviceProperty(p qdmi.DeviceProperty) (any, error) {
	switch p {
	case qdmi.DevicePropName:
		return d.cfg.Name, nil
	case qdmi.DevicePropVersion:
		return d.cfg.Version, nil
	case qdmi.DevicePropTechnology:
		return d.cfg.Technology, nil
	case qdmi.DevicePropNumSites:
		return len(d.cfg.Sites), nil
	case qdmi.DevicePropSampleRateHz:
		return d.cfg.SampleRateHz, nil
	case qdmi.DevicePropPulseSupport:
		return qdmi.PulsePortLevel, nil
	case qdmi.DevicePropWaveformKinds:
		return waveform.Kinds(), nil
	case qdmi.DevicePropNativeGates:
		return nativeGates(), nil
	case qdmi.DevicePropProgramFormats:
		return []qdmi.ProgramFormat{qdmi.FormatQIRBase, qdmi.FormatQIRPulse}, nil
	case qdmi.DevicePropMaxShots:
		return d.cfg.MaxShots, nil
	case qdmi.DevicePropGranularity:
		if d.cfg.Granularity == 0 {
			return 1, nil
		}
		return d.cfg.Granularity, nil
	case qdmi.DevicePropMinPulseSamples:
		return d.cfg.MinSamples, nil
	case qdmi.DevicePropMaxPulseSamples:
		return d.cfg.MaxSamples, nil
	case qdmi.DevicePropCalibrationEpoch:
		return d.CalibrationEpoch(), nil
	default:
		return nil, qdmi.ErrNotSupported
	}
}

// NumSites implements qdmi.Device.
func (d *SimDevice) NumSites() int { return len(d.cfg.Sites) }

// QuerySiteProperty implements qdmi.Device.
func (d *SimDevice) QuerySiteProperty(site int, p qdmi.SiteProperty) (any, error) {
	if site < 0 || site >= len(d.cfg.Sites) {
		return nil, fmt.Errorf("%w: site %d", qdmi.ErrInvalidArgument, site)
	}
	s := d.cfg.Sites[site]
	switch p {
	case qdmi.SitePropFrequencyHz:
		return d.CalibratedFrequency(site), nil
	case qdmi.SitePropT1Seconds:
		return s.T1Seconds, nil
	case qdmi.SitePropT2Seconds:
		return s.T2Seconds, nil
	case qdmi.SitePropAnharmonicityHz:
		return s.AnharmHz, nil
	case qdmi.SitePropReadoutFidelity:
		return d.CalibratedReadoutFidelity(site), nil
	case qdmi.SitePropConnectivity:
		var out []int
		for _, c := range d.cfg.Couplings {
			if c.A == site {
				out = append(out, c.A+1)
			}
			if c.A+1 == site {
				out = append(out, c.A)
			}
		}
		slices.Sort(out)
		return out, nil
	default:
		return nil, qdmi.ErrNotSupported
	}
}

// nativeGates lists the gate table's rows this device can play: every gate
// with a pulse lowering, in table order.
func nativeGates() []string {
	var names []string
	for i := range waveform.Gates {
		if g := &waveform.Gates[i]; g.HasLowering() {
			names = append(names, g.Name)
		}
	}
	return names
}

// Operations implements qdmi.Device: each name once, however many site
// tuples carry it and whether or not it is also a native gate.
func (d *SimDevice) Operations() []string {
	ops := append(nativeGates(), "measure")
	for key := range d.calib.Load().pulses {
		op, _, _ := strings.Cut(key, "@") // an implKey
		ops = append(ops, op)
	}
	slices.Sort(ops)
	return slices.Compact(ops)
}

// QueryOperationProperty implements qdmi.Device; a gate's duration follows
// from its row of the gate table. Nil sites ask for the device-wide answer.
func (d *SimDevice) QueryOperationProperty(op string, sites []int, p qdmi.OperationProperty) (any, error) {
	if err := d.checkOperation(op, sites); err != nil {
		return nil, err
	}
	switch p {
	case qdmi.OpPropDurationSeconds:
		n, g := int64(d.cfg.GateSamples), waveform.GateByName(op)
		if _, virtual := g.Virtual(); virtual {
			n = 0
		} else if g.PlaysCZ() {
			n = int64(d.czSamples())
		} else if op == "measure" {
			n = d.cfg.ReadoutSamples
		}
		return float64(n) * (1 / d.cfg.SampleRateHz), nil
	case qdmi.OpPropFidelity:
		return d.estimateGateFidelity(op, sites), nil
	case qdmi.OpPropArity:
		return d.arity(op), nil
	case qdmi.OpPropParamCount:
		if g := waveform.GateByName(op); g != nil {
			return g.Params, nil
		}
		return 0, nil
	case qdmi.OpPropHasPulseImpl:
		_, err := d.DefaultPulse(op, sites)
		return err == nil, nil
	default:
		return nil, qdmi.ErrNotSupported
	}
}

// checkOperation refuses a query about an operation the device does not
// list or a pair with no coupler (ErrNotSupported), and a site tuple of the
// wrong length or out of range (ErrInvalidArgument). Nil sites pass.
func (d *SimDevice) checkOperation(op string, sites []int) error {
	switch {
	case !slices.Contains(d.Operations(), op):
		return fmt.Errorf("%w: no operation %q", qdmi.ErrNotSupported, op)
	case sites == nil:
		return nil
	case len(sites) != d.arity(op):
		return fmt.Errorf("%w: %s acts on %d sites, got %v", qdmi.ErrInvalidArgument, op, d.arity(op), sites)
	case slices.ContainsFunc(sites, func(s int) bool { return s < 0 || s >= len(d.cfg.Sites) }):
		return fmt.Errorf("%w: sites %v out of range", qdmi.ErrInvalidArgument, sites)
	case len(sites) == 2 && d.table.Coupler(sites[0], sites[1]) == nil:
		return fmt.Errorf("%w: no coupler between sites %v", qdmi.ErrNotSupported, sites)
	}
	return nil
}

// arity returns how many sites op acts on: its gate-table row's count, or
// the count it was installed with (measure: one).
func (d *SimDevice) arity(op string) int {
	if g := waveform.GateByName(op); g != nil {
		return g.Arity
	}
	for key := range d.calib.Load().pulses {
		if name, sites, _ := strings.Cut(key, "@"); name == op { // an implKey
			return strings.Count(sites, ",")
		}
	}
	return 1
}

// estimateGateFidelity gives the control-error estimate exposed through
// QDMI: the coherent infidelity from frequency miscalibration and amplitude
// drift. (Decoherence contributions are visible in job results instead.)
func (d *SimDevice) estimateGateFidelity(op string, sites []int) float64 {
	site := 0
	if len(sites) > 0 {
		site = sites[0]
	}
	if _, virtual := waveform.GateByName(op).Virtual(); virtual {
		return 1.0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Detuning error relative to effective Rabi frequency during the gate.
	detune := d.CalibratedFrequency(site) - (d.cfg.Sites[site].FreqHz + d.drift.freqOffsetHz[site].x)
	gateT := float64(d.cfg.GateSamples) / d.cfg.SampleRateHz
	omega := math.Pi / gateT // average angular speed of a π pulse
	off := 2 * math.Pi * detune / (2 * omega)
	infidDetune := off * off
	ampErr := d.drift.ampScale.x
	infidAmp := (math.Pi * math.Pi / 4) * ampErr * ampErr
	return max(0, 1-infidDetune-infidAmp)
}

// Ports implements qdmi.Device.
func (d *SimDevice) Ports() []*pulse.Port { return d.ports }

// QueryPortProperty implements qdmi.Device.
func (d *SimDevice) QueryPortProperty(portID string, p qdmi.PortProperty) (any, error) {
	port := d.table.Port(portID)
	if port == nil {
		return nil, fmt.Errorf("%w: unknown port %q", qdmi.ErrInvalidArgument, portID)
	}
	switch p {
	case qdmi.PortPropKind:
		return port.Kind, nil
	case qdmi.PortPropSites:
		return append([]int(nil), port.Sites...), nil
	case qdmi.PortPropSampleRateHz:
		return port.SampleRateHz, nil
	case qdmi.PortPropGranularity:
		return port.Granularity, nil
	case qdmi.PortPropMinSamples:
		return port.MinSamples, nil
	case qdmi.PortPropMaxSamples:
		return port.MaxSamples, nil
	case qdmi.PortPropMaxAmplitude:
		return port.MaxAmplitude, nil
	default:
		return nil, qdmi.ErrNotSupported
	}
}

// implKey spells (op, site tuple) as a map key — "cz@0,1," — without fmt,
// so the look-up every DefaultPulse and every link-time drive starts with
// allocates nothing. A pair is unordered, as qdmi.Target keys it: (1, 0) is
// spelled as (0, 1).
func implKey(buf []byte, op string, sites []int) []byte {
	buf = append(append(buf, op...), '@')
	if len(sites) == 2 && sites[0] > sites[1] {
		sites = []int{sites[1], sites[0]}
	}
	for _, s := range sites {
		buf = append(strconv.AppendInt(buf, int64(s), 10), ',')
	}
	return buf
}

// DefaultPulse implements qdmi.Device: it returns the calibrated pulse
// implementation of an operation — the installed one, as a copy the caller
// may edit, or one synthesized from the current calibration table.
func (d *SimDevice) DefaultPulse(op string, sites []int) (*qdmi.PulseImpl, error) {
	cal := d.calib.Load()
	if impl := cal.pulse(op, sites); impl != nil {
		return impl.Clone(), nil
	}
	return d.synthesizePulse(cal, op, sites)
}

// synthesizePulse builds the device's own implementation of op from the
// calibration cal.
func (d *SimDevice) synthesizePulse(cal *calibration, op string, sites []int) (*qdmi.PulseImpl, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("%w: DefaultPulse needs a site tuple", qdmi.ErrInvalidArgument)
	}
	site := sites[0]
	if site < 0 || site >= len(d.cfg.Sites) {
		return nil, fmt.Errorf("%w: site %d", qdmi.ErrInvalidArgument, site)
	}
	if theta, virtual := waveform.GateByName(op).Virtual(); virtual {
		return &qdmi.PulseImpl{Operation: op, Steps: []qdmi.PulseStep{
			{Kind: "shift_phase", PortRole: "drive0", PhaseRad: theta},
		}}, nil
	}
	switch op {
	case "x", "sx":
		amp := cal.piAmp[site]
		if op == "sx" {
			amp /= 2
		}
		w, err := d.gateEnvelope(amp)
		if err != nil {
			return nil, err
		}
		return &qdmi.PulseImpl{Operation: op, Steps: []qdmi.PulseStep{
			{Kind: "play", PortRole: "drive0", Waveform: w},
		}}, nil
	case "cz":
		if len(sites) != 2 {
			return nil, fmt.Errorf("%w: cz needs two sites", qdmi.ErrInvalidArgument)
		}
		w, err := d.czWaveform(sites[0], sites[1])
		if err != nil {
			return nil, err
		}
		return &qdmi.PulseImpl{Operation: op, Steps: []qdmi.PulseStep{
			{Kind: "barrier"},
			{Kind: "play", PortRole: "coupler", Waveform: w},
			{Kind: "barrier"},
		}}, nil
	case "measure":
		return &qdmi.PulseImpl{Operation: op, Steps: []qdmi.PulseStep{
			{Kind: "barrier"},
			{Kind: "capture", PortRole: "readout0", Samples: d.cfg.ReadoutSamples},
		}}, nil
	default:
		return nil, fmt.Errorf("%w: no default pulse for %q", qdmi.ErrNotSupported, op)
	}
}

// SetPulseImpl implements qdmi.Device: experts can install custom
// operations defined by their pulse waveforms (paper Section 5.2 footnote:
// extending a device's native gate set). Installing is a recalibration, of a
// copy: the caller's later edits to impl reach no pulse. It is also where the
// ports' limits are checked, once: an implementation with a step whose role
// names no port of sites, or a play its port cannot play — a length outside
// the port's bounds or granularity, a peak above its full scale — is refused
// with qdmi.ErrInvalidArgument, and the calibration and its epoch stay as
// they were. A device's ports of one kind share their limits, so a pair's
// implementation checked in one order holds in the other.
func (d *SimDevice) SetPulseImpl(op string, sites []int, impl *qdmi.PulseImpl) error {
	if err := impl.Validate(); err != nil {
		return err
	}
	for i, st := range impl.Steps {
		if st.Kind == "barrier" {
			continue
		}
		p := d.table.RolePort(st.PortRole, sites)
		if p == nil {
			return fmt.Errorf("%w: %s step %d: no %q port among sites %v", qdmi.ErrInvalidArgument, op, i, st.PortRole, sites)
		}
		if st.Kind != "play" {
			continue
		}
		w := st.Waveform
		err := p.CheckWaveformLen(w.Len())
		if err == nil && w.PeakAmplitude() > p.MaxAmplitude+1e-12 {
			err = fmt.Errorf("peak %g above port %s limit %g", w.PeakAmplitude(), p.ID, p.MaxAmplitude)
		}
		if err != nil {
			return fmt.Errorf("%w: %s step %d: %v", qdmi.ErrInvalidArgument, op, i, err)
		}
	}
	key, kept := string(implKey(nil, op, sites)), impl.Clone()
	d.recalibrate(func(c *calibration) { c.pulses[key] = kept })
	return nil
}

// czSamples returns the coupler pulse length implementing a CZ.
func (d *SimDevice) czSamples() int {
	if len(d.cfg.Couplings) == 0 {
		return 0
	}
	c := d.cfg.Couplings[0]
	dt := 1 / d.cfg.SampleRateHz
	// With a GaussianSquare of amplitude a and rise fraction 0.1 the area is
	// ≈ 0.9·a·n; target area·dt = 1/Rabi at a = 0.5.
	n := int(math.Ceil(1/(c.RabiHz*dt*0.5*0.85))) + 1
	g := d.cfg.Granularity
	if g > 1 {
		n = ((n + g - 1) / g) * g
	}
	return n
}

// czWaveform synthesizes the coupler pulse whose area implements phase π on
// |11⟩ for the pair's coupling strength; the pair is unordered.
func (d *SimDevice) czWaveform(a, b int) (*waveform.Waveform, error) {
	i := slices.IndexFunc(d.cfg.Couplings, func(c CouplingConfig) bool { return c.A == min(a, b) && c.A+1 == max(a, b) })
	if i < 0 {
		return nil, fmt.Errorf("%w: no coupler between sites %d,%d", qdmi.ErrNotSupported, a, b)
	}
	cc := d.cfg.Couplings[i]
	n := d.czSamples()
	base, err := waveform.GaussianSquare{Amplitude: 1.0, RiseFrac: 0.1}.Materialize("czpulse", n)
	if err != nil {
		return nil, err
	}
	dt := 1 / d.cfg.SampleRateHz
	// Required area (in samples): phase π ⇒ π·Rabi·area·dt = π.
	needArea := 1 / (cc.RabiHz * dt)
	amp := needArea / base.Area()
	if amp > 1 {
		return nil, fmt.Errorf("devices: cz pulse needs amplitude %.3g > 1", amp)
	}
	return base.Scale(complex(amp, 0))
}
