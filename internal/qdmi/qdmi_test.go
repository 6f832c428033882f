package qdmi

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

func TestPulseImplValidate(t *testing.T) {
	w, _ := waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}.Materialize("w", 32)
	good := &PulseImpl{Operation: "x", Steps: []PulseStep{
		{Kind: "play", PortRole: "drive0", Waveform: w},
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
		{Operation: "x", Steps: []PulseStep{{Kind: "play", PortRole: "d", Waveform: &waveform.Waveform{}}}},
		{Operation: "x", Steps: []PulseStep{{Kind: "play", PortRole: "d", Waveform: &waveform.Waveform{Samples: []complex128{0.5, 1.5}}}}},
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
	w, _ := waveform.Constant{Amplitude: 0.1}.Materialize("w", 8)
	step := func(kind, role string) PulseStep {
		st := PulseStep{Kind: kind, PortRole: role, Samples: 8}
		if kind == "play" {
			st.Waveform = w
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
