package calib

import (
	"context"
	"fmt"

	"mqsspulse/internal/client"
	"mqsspulse/internal/qdmi"
)

// Policy sets a device's calibration cadence: how often each routine runs
// and the estimated-fidelity floor that triggers an unscheduled
// recalibration. Intervals are in (simulated) seconds.
type Policy struct {
	// RamseyEverySeconds is the frequency-tracking cadence.
	RamseyEverySeconds float64
	// RabiEverySeconds is the amplitude-tracking cadence.
	RabiEverySeconds float64
	// ProbeHz is the Ramsey probe detuning (must exceed expected drift).
	ProbeHz float64
	// FidelityFloor, when > 0, triggers an immediate Ramsey+Rabi cycle
	// whenever the device's own gate-fidelity estimate drops below it.
	FidelityFloor float64
	// Shots per calibration point.
	Shots int
}

// PolicyFor derives a technology-appropriate policy from QDMI queries,
// encoding the calibration timescales the paper cites: neutral-atom lasers
// need minute-scale attention, superconducting qubit frequencies drift over
// minutes-to-hours, and trapped-ion (motional) parameters drift over hours.
func PolicyFor(dev qdmi.Device) (Policy, error) {
	tech, err := qdmi.QueryString(dev, qdmi.DevicePropTechnology)
	if err != nil {
		return Policy{}, err
	}
	switch tech {
	case "neutral-atom":
		return Policy{RamseyEverySeconds: 120, RabiEverySeconds: 300, ProbeHz: 100e3, Shots: 300}, nil
	case "superconducting":
		return Policy{RamseyEverySeconds: 1800, RabiEverySeconds: 7200, ProbeHz: 1e6, Shots: 300}, nil
	case "trapped-ion":
		return Policy{RamseyEverySeconds: 3600, RabiEverySeconds: 3600, ProbeHz: 2e3, Shots: 300}, nil
	default:
		return Policy{}, fmt.Errorf("calib: no policy for technology %q", tech)
	}
}

// Event records one executed calibration routine.
type Event struct {
	AtSeconds float64
	Routine   string // "ramsey" or "rabi"
	Site      int
	// OffsetHz is the measured frequency error (ramsey events).
	OffsetHz float64
	// AmpDelta is the relative amplitude correction (rabi events).
	AmpDelta float64
}

// Scheduler plans calibration routines for a device according to a policy
// and runs them through the client the device is registered on — the
// resource-aware calibration management layer the paper assigns to HPC
// centers (Section 2.1).
type Scheduler struct {
	Client *client.Client
	Dev    Target
	Policy Policy

	lastRamsey map[int]float64
	lastRabi   map[int]float64
	Events     []Event
}

// NewScheduler initializes the cadence tracker; routines are considered
// fresh at construction time (the device starts calibrated).
func NewScheduler(cl *client.Client, dev Target, p Policy) *Scheduler {
	s := &Scheduler{Client: cl, Dev: dev, Policy: p,
		lastRamsey: map[int]float64{}, lastRabi: map[int]float64{}}
	now := dev.Now()
	for site := 0; site < dev.NumSites(); site++ {
		s.lastRamsey[site] = now
		s.lastRabi[site] = now
	}
	return s
}

// Due lists the routines due at the device's current clock, as
// (site, routine) pairs.
func (s *Scheduler) Due() []Event {
	now := s.Dev.Now()
	var due []Event
	for site := 0; site < s.Dev.NumSites(); site++ {
		needRamsey := s.Policy.RamseyEverySeconds > 0 && now-s.lastRamsey[site] >= s.Policy.RamseyEverySeconds
		needRabi := s.Policy.RabiEverySeconds > 0 && now-s.lastRabi[site] >= s.Policy.RabiEverySeconds
		if !needRamsey && s.Policy.FidelityFloor > 0 {
			if fid, err := s.Dev.QueryOperationProperty("x", []int{site}, qdmi.OpPropFidelity); err == nil {
				if f, ok := fid.(float64); ok && f < s.Policy.FidelityFloor {
					needRamsey, needRabi = true, true
				}
			}
		}
		if needRamsey {
			due = append(due, Event{AtSeconds: now, Routine: "ramsey", Site: site})
		}
		if needRabi {
			due = append(due, Event{AtSeconds: now, Routine: "rabi", Site: site})
		}
	}
	return due
}

// Tick runs every due routine and records events. It returns the number of
// routines executed.
func (s *Scheduler) Tick(ctx context.Context) (int, error) {
	due := s.Due()
	for _, ev := range due {
		switch ev.Routine {
		case "ramsey":
			r, err := RamseyCalibrate(ctx, s.Client, s.Dev, ev.Site, s.Policy.ProbeHz, 0, s.Policy.Shots)
			if err != nil {
				return len(s.Events), fmt.Errorf("calib: ramsey on site %d: %w", ev.Site, err)
			}
			ev.OffsetHz = r.MeasuredOffsetHz
			s.lastRamsey[ev.Site] = s.Dev.Now()
		case "rabi":
			// Fine (error-amplified) calibration tracks the small drifts a
			// running system sees; the coarse Rabi sweep is the fallback
			// when the amplitude is too far off for the train fit.
			r, err := FineAmplitudeCalibrate(ctx, s.Client, s.Dev, ev.Site, s.Policy.Shots)
			if err != nil {
				r, err = RabiCalibrate(ctx, s.Client, s.Dev, ev.Site, 0, s.Policy.Shots)
			}
			if err != nil {
				return len(s.Events), fmt.Errorf("calib: rabi on site %d: %w", ev.Site, err)
			}
			if r.OldAmp != 0 {
				ev.AmpDelta = (r.NewAmp - r.OldAmp) / r.OldAmp
			}
			s.lastRabi[ev.Site] = s.Dev.Now()
		}
		s.Events = append(s.Events, ev)
	}
	return len(due), nil
}
