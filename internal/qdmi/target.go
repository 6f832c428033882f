package qdmi

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// DeviceEpoch reads a device's calibration epoch. Epoch-unaware devices
// (ErrNotSupported) report zero, which disables downstream staleness
// checks; any other failure — a device advertising the property but
// answering it with the wrong type — propagates, because treating it as
// epoch-unaware would silently drop every staleness protection.
func DeviceEpoch(dev Device) (int64, error) {
	epoch, err := QueryCalibrationEpoch(dev)
	if err != nil && !errors.Is(err, ErrNotSupported) {
		return 0, fmt.Errorf("qdmi: reading calibration epoch: %w", err)
	}
	return epoch, nil
}

// PortTable indexes a device's ports by ID and by (kind, sites).
type PortTable struct {
	byID   map[string]*pulse.Port
	bySite map[portKey]*pulse.Port
}

// NewPortTable indexes ports.
func NewPortTable(ports []*pulse.Port) PortTable {
	t := PortTable{byID: make(map[string]*pulse.Port, len(ports)), bySite: make(map[portKey]*pulse.Port, len(ports))}
	for _, p := range ports {
		t.byID[p.ID] = p
		switch len(p.Sites) {
		case 1:
			t.bySite[portKey{kind: p.Kind, a: p.Sites[0], b: -1}] = p
		case 2:
			t.bySite[portKey{kind: p.Kind, a: min(p.Sites[0], p.Sites[1]), b: max(p.Sites[0], p.Sites[1])}] = p
		}
	}
	return t
}

// Port returns the port with the given ID, or nil.
func (t *PortTable) Port(id string) *pulse.Port { return t.byID[id] }

// Drive returns the drive port of a site, or nil.
func (t *PortTable) Drive(site int) *pulse.Port {
	return t.bySite[portKey{kind: pulse.PortDrive, a: site, b: -1}]
}

// Readout returns the readout port of a site, or nil.
func (t *PortTable) Readout(site int) *pulse.Port {
	return t.bySite[portKey{kind: pulse.PortReadout, a: site, b: -1}]
}

// Coupler returns the coupler port between two sites, in either order, or
// nil.
func (t *PortTable) Coupler(a, b int) *pulse.Port {
	return t.bySite[portKey{kind: pulse.PortCoupler, a: min(a, b), b: max(a, b)}]
}

// Resolve places impl, an operation's calibrated implementation, on its sites
// as both players play it: each step's port ("" for a barrier), and the ports
// a barrier spans — the sites' drive ports, then every port a step names.
// Kinds not in playedKinds, roles with no port here, and other than one
// capture when result (none when not) fail ErrNotSupported.
func (t *PortTable) Resolve(impl *PulseImpl, sites []int, result bool) (steps, barrier []string, err error) {
	n, captures := len(impl.Steps), 0
	ids := make([]string, n, n+len(sites)+2)
	for _, s := range sites {
		p := t.Drive(s)
		if p == nil {
			return nil, nil, fmt.Errorf("%w: %s: site %d has no drive port", ErrNotSupported, impl.Operation, s)
		}
		ids = append(ids, p.ID)
	}
	for i, st := range impl.Steps {
		if !slices.Contains(playedKinds, st.Kind) {
			return nil, nil, fmt.Errorf("%w: %s step %d: %q is not played", ErrNotSupported, impl.Operation, i, st.Kind)
		}
		switch st.Kind {
		case "barrier":
			continue
		case "capture":
			captures++
		}
		p := t.RolePort(st.PortRole, sites)
		if p == nil {
			return nil, nil, fmt.Errorf("%w: %s step %d: no %q port among the operation's %d sites", ErrNotSupported, impl.Operation, i, st.PortRole, len(sites))
		}
		ids[i] = p.ID
		if !slices.Contains(ids[n:], p.ID) {
			ids = append(ids, p.ID)
		}
	}
	if captures > 1 || (captures == 1) != result {
		return nil, nil, fmt.Errorf("%w: %s captures %d times", ErrNotSupported, impl.Operation, captures)
	}
	return ids[:n:n], ids[n:], nil
}

// RolePort is the port a role names on sites, as PulseStep says, or nil.
func (t *PortTable) RolePort(role string, sites []int) *pulse.Port {
	if role == "coupler" && len(sites) == 2 {
		return t.Coupler(sites[0], sites[1])
	}
	for k, s := range sites {
		switch role {
		case "drive" + strconv.Itoa(k):
			return t.Drive(s)
		case "readout" + strconv.Itoa(k):
			return t.Readout(s)
		}
	}
	return nil
}

// Target is one reading of a device, shared by everything in one compile
// (frontend, passes, backend) or one pulse-building client, so they cannot
// disagree about it. NewTarget reads the calibration epoch first, then the
// port table and the waveform constraints; calibrated pulses are asked for
// on first use, once per (operation, site tuple). The epoch recorded with a
// compile's result is therefore the one its tables were read under: a
// recalibration landing mid-compile can only make the artifact look stale,
// never silently fresh. A Target lives for one compile on one goroutine; it
// is not a cache and nothing refreshes it.
type Target struct {
	PortTable
	dev      Device
	epoch    int64
	epochErr error
	// Granularity, MinSamples and MaxSamples are the device-global waveform
	// constraints: 1, 0 and 0 (unconstrained) where the device does not say.
	Granularity, MinSamples, MaxSamples int

	pulses map[pulseKey]*calibratedPulse
}

// portKey is a port kind, pulseKey an operation, on one site (b = -1) or two.
type portKey struct {
	kind pulse.PortKind
	a, b int
}

type pulseKey struct {
	op   string
	a, b int
}

type calibratedPulse struct {
	impl *PulseImpl
	err  error
	env  *waveform.Waveform
}

// NewTarget reads dev. No device reads as the nil view: epoch zero, and
// nothing else to ask (target-independent compilation checks for nil).
func NewTarget(dev Device) *Target {
	if dev == nil {
		return nil
	}
	t := &Target{dev: dev, Granularity: 1}
	t.epoch, t.epochErr = DeviceEpoch(dev)
	t.PortTable = NewPortTable(dev.Ports())
	if g, err := QueryInt(dev, DevicePropGranularity); err == nil && g > 1 {
		t.Granularity = g
	}
	t.MinSamples, _ = QueryInt(dev, DevicePropMinPulseSamples)
	t.MaxSamples, _ = QueryInt(dev, DevicePropMaxPulseSamples)
	return t
}

// Epoch returns the calibration epoch the device was at before any table
// was read (zero for an epoch-unaware device), or the error of a device
// that advertises the property and answers it wrongly.
func (t *Target) Epoch() (int64, error) {
	if t == nil {
		return 0, nil
	}
	return t.epoch, t.epochErr
}

// Pulse returns the calibrated implementation of op on one site or on a
// pair, which is unordered: what DefaultPulse answers for it, asked once.
func (t *Target) Pulse(op string, sites ...int) (*PulseImpl, error) {
	c := t.calibrated(op, sites)
	return c.impl, c.err
}

func (t *Target) calibrated(op string, sites []int) *calibratedPulse {
	key := pulseKey{op: op, b: -1}
	switch len(sites) {
	case 1:
		key.a = sites[0]
	case 2:
		key.a, key.b = min(sites[0], sites[1]), max(sites[0], sites[1])
	default:
		return &calibratedPulse{err: fmt.Errorf("%w: %s on %d sites", ErrInvalidArgument, op, len(sites))}
	}
	c, ok := t.pulses[key]
	if !ok {
		c = &calibratedPulse{}
		// The device gets a tuple of its own, so the caller's variadic sites
		// do not escape and a look-up that hits allocates nothing.
		tuple := []int{key.a, key.b}[:len(sites)]
		c.impl, c.err = t.dev.DefaultPulse(op, tuple)
		if t.pulses == nil {
			t.pulses = map[pulseKey]*calibratedPulse{}
		}
		t.pulses[key] = c
	}
	return c
}

// Envelope returns the sampled envelope of a single-pulse operation ("x",
// "sx") on a site, materialised once; callers must not write to it.
func (t *Target) Envelope(op string, site int) (*waveform.Waveform, error) {
	c := t.calibrated(op, []int{site})
	if c.err == nil && c.env == nil {
		c.env, c.err = c.impl.Envelope(site)
	}
	return c.env, c.err
}
