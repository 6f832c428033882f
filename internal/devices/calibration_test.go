package devices

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/testutil"
	"mqsspulse/internal/waveform"
)

// TestLinkReadsOneCalibration: a writer raises site 0's and then site 1's
// believed frequency by 1 Hz per round while a reader links one module over
// and over. Each schedule's two drive frames must come from one calibration
// epoch — offsets (k, k) after a whole round or (k+1, k) inside one — never
// from two, which a link reading the table once per frame can mix.
func TestLinkReadsOneCalibration(t *testing.T) {
	testutil.AssertNoLeaks(t)
	const links = 300
	d, err := Superconducting("link", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{d.CalibratedFrequency(0), d.CalibratedFrequency(1)}
	m := gateModule("xx", 2, 0, []qir.Call{g1(qir.GateIntrinsics["x"], 0), g1(qir.GateIntrinsics["x"], 1)})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1.0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			d.SetCalibratedFrequency(0, base[0]+k)
			d.SetCalibratedFrequency(1, base[1]+k)
		}
	}()
	defer wg.Wait()
	defer close(stop)

	offset := func(s *pulse.Schedule, site int) float64 {
		for _, f := range s.Frames() {
			if f.ID == d.table.Drive(site).ID+"-frame" {
				return f.FrequencyHz - base[site]
			}
		}
		t.Fatalf("schedule has no drive frame for site %d", site)
		return 0
	}
	for i := 0; i < links; i++ {
		s, err := d.BuildScheduleForPayload(m)
		if err != nil {
			t.Fatal(err)
		}
		if o0, o1 := offset(s, 0), offset(s, 1); o0-o1 != 0 && o0-o1 != 1 {
			t.Fatalf("link %d: drive frames at +%g Hz and +%g Hz belong to no one calibration", i, o0, o1)
		}
	}
}

// keptImpl is a custom implementation with every part a caller could edit
// after installing it: a sampled envelope, an explicit waveform and a phase.
func keptImpl() *qdmi.PulseImpl {
	shaped, _ := waveform.Gaussian{Amplitude: 0.3, SigmaFrac: 0.2}.Materialize("g", 32)
	explicit := &waveform.Waveform{Name: "e", Samples: []complex128{0.1, complex(0.2, 0.05), 0.1, 0, 0, 0, 0, 0}}
	return &qdmi.PulseImpl{Operation: "mygate", Steps: []qdmi.PulseStep{
		{Kind: "play", PortRole: "drive0", Waveform: shaped},
		{Kind: "play", PortRole: "drive0", Waveform: explicit},
		{Kind: "shift_phase", PortRole: "drive0", PhaseRad: 0.1},
	}}
}

// edit writes to every part of an implementation keptImpl built.
func edit(impl *qdmi.PulseImpl) {
	impl.Steps[0].Waveform.Samples[16] = 0.9
	impl.Steps[1].Waveform.Samples[0] = 0.9
	impl.Steps[2].PhaseRad = 1
}

// TestSetPulseImplKeepsACopy: what SetPulseImpl installed is what the device
// plays until the next recalibration, whatever the caller does afterwards to
// the implementation it passed in or to one DefaultPulse handed out.
func TestSetPulseImplKeepsACopy(t *testing.T) {
	d := newSC(t)
	impl := keptImpl()
	if err := d.SetPulseImpl("mygate", []int{0}, impl); err != nil {
		t.Fatal(err)
	}
	epoch := d.CalibrationEpoch()
	edit(impl)
	got, err := d.DefaultPulse("mygate", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, keptImpl()) {
		t.Fatalf("editing the installed implementation changed the device's: %+v", got.Steps)
	}
	edit(got)
	if again, _ := d.DefaultPulse("mygate", []int{0}); !reflect.DeepEqual(again, keptImpl()) {
		t.Fatalf("editing what DefaultPulse returned changed the device's: %+v", again.Steps)
	}
	if e := d.CalibrationEpoch(); e != epoch {
		t.Fatalf("epoch moved from %d to %d without a calibration write", epoch, e)
	}

	// Link time plays the samples installed, not the caller's later ones.
	x := &qdmi.PulseImpl{Operation: "x", Steps: []qdmi.PulseStep{
		{Kind: "play", PortRole: "drive0", Waveform: &waveform.Waveform{Name: "myx", Samples: slices.Repeat([]complex128{0.5}, 8)}},
	}}
	if err := d.SetPulseImpl("x", []int{0}, x); err != nil {
		t.Fatal(err)
	}
	x.Steps[0].Waveform.Samples[0] = 0.1
	s, err := d.BuildScheduleForPayload(gateModule("x", 1, 0, []qir.Call{g1(qir.GateIntrinsics["x"], 0)}))
	if err != nil {
		t.Fatal(err)
	}
	play := s.Instructions()[0].(*pulse.Play)
	if want := slices.Repeat([]complex128{0.5}, 8); !reflect.DeepEqual(play.Waveform.Samples, want) {
		t.Fatalf("link played %v, installed %v", play.Waveform.Samples, want)
	}
}

// TestSetPulseImplRefusesWhatAPortCannotPlay: the calibration writer checks
// the ports' limits. A play too short, too long, off the port's granularity or
// above its full scale, or a step whose role names no port of the sites, is
// refused with qdmi.ErrInvalidArgument, and the device keeps the pulse and the
// epoch it had.
func TestSetPulseImplRefusesWhatAPortCannotPlay(t *testing.T) {
	d := newSC(t) // drive ports: 8 to 65,536 samples, in multiples of 8
	d.table.Drive(0).MaxAmplitude = 0.5
	play := func(n int, amp float64) qdmi.PulseStep {
		w, _ := waveform.Constant{Amplitude: amp}.Materialize("w", n)
		return qdmi.PulseStep{Kind: "play", PortRole: "drive0", Waveform: w}
	}
	write := func(st qdmi.PulseStep) error {
		return d.SetPulseImpl("x", []int{0}, &qdmi.PulseImpl{Operation: "x", Steps: []qdmi.PulseStep{st}})
	}
	before, err := d.DefaultPulse("x", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	epoch := d.CalibrationEpoch()
	for _, tc := range []struct {
		name string
		step qdmi.PulseStep
	}{
		{"too short", play(4, 0.1)},
		{"too long", play(1<<16+8, 0.1)},
		{"off granularity", play(12, 0.1)},
		{"above full scale", play(16, 0.8)},
		{"not a waveform", qdmi.PulseStep{Kind: "play", PortRole: "drive0",
			Waveform: &waveform.Waveform{Name: "w", Samples: slices.Repeat([]complex128{1.5}, 16)}}},
		{"role with no port", qdmi.PulseStep{Kind: "shift_phase", PortRole: "drive1", PhaseRad: 0.1}},
	} {
		if err := write(tc.step); !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Errorf("%s: err = %v, want qdmi.ErrInvalidArgument", tc.name, err)
		}
		if e := d.CalibrationEpoch(); e != epoch {
			t.Errorf("%s: a refused write moved the epoch from %d to %d", tc.name, epoch, e)
		}
		if got, _ := d.DefaultPulse("x", []int{0}); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: a refused write changed the pulse", tc.name)
		}
	}
	if err := write(play(16, 0.4)); err != nil || d.CalibrationEpoch() != epoch+1 {
		t.Fatalf("a legal write: err %v, epoch %d → %d", err, epoch, d.CalibrationEpoch())
	}
}

// TestSetPulseImplRefusesStepsNoPlayerPlays: a measurement written with a
// step kind that neither player plays (a leading delay, a frequency set, a
// frame change) is refused with qdmi.ErrInvalidArgument where it is written,
// not at its first link, and the device keeps the measurement and the epoch
// it had.
func TestSetPulseImplRefusesStepsNoPlayerPlays(t *testing.T) {
	d := newSC(t)
	before, err := d.DefaultPulse("measure", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	epoch := d.CalibrationEpoch()
	for _, kind := range []string{"delay", "set_frequency", "frame_change"} {
		impl := before.Clone()
		impl.Steps = append([]qdmi.PulseStep{{Kind: kind, PortRole: "readout0", Samples: 16}}, impl.Steps...)
		if err := d.SetPulseImpl("measure", []int{0}, impl); !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Errorf("%s: err = %v, want qdmi.ErrInvalidArgument", kind, err)
		}
		if e := d.CalibrationEpoch(); e != epoch {
			t.Errorf("%s: a refused write moved the epoch from %d to %d", kind, epoch, e)
		}
		if got, _ := d.DefaultPulse("measure", []int{0}); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: a refused write changed the measurement", kind)
		}
	}
}

// TestOperationsListsEachNameOnce: a custom operation under a native gate's
// name, and one installed on two site tuples, are each one operation.
func TestOperationsListsEachNameOnce(t *testing.T) {
	d := newSC(t)
	impl := keptImpl()
	for _, in := range []struct {
		op    string
		sites []int
	}{{"x", []int{0}}, {"mygate", []int{0}}, {"mygate", []int{1}}} {
		if err := d.SetPulseImpl(in.op, in.sites, impl); err != nil {
			t.Fatal(err)
		}
	}
	ops := d.Operations()
	if !slices.IsSorted(ops) {
		t.Fatalf("operations not sorted: %v", ops)
	}
	if len(slices.Compact(slices.Clone(ops))) != len(ops) {
		t.Fatalf("an operation is listed twice: %v", ops)
	}
	for _, want := range append(nativeGates(), "measure", "mygate") {
		if !slices.Contains(ops, want) {
			t.Fatalf("%q missing from %v", want, ops)
		}
	}
}

// TestOperationAnswersFollowTheGateTable pins what the device answers for
// every gate-table row, measure and an unknown operation — duration, whether
// its fidelity estimate is exact, whether it has a pulse (an operation the
// device does not list has no answers: ErrNotSupported), and the pulse —
// now that which gates are virtual (only frame shifts), which take a cz's
// time (they play one) and the phase a virtual one shifts by are read from
// the table rather than listed.
func TestOperationAnswersFollowTheGateTable(t *testing.T) {
	cfg := newSC(t).cfg
	cfg.ReadoutSamples = 64 // so a readout window cannot pass for a cz
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Miscalibrated, so only a virtual gate's fidelity is exactly 1.
	d.SetCalibratedFrequency(0, d.CalibratedFrequency(0)+2e6)
	samples := map[string]int64{"gate": int64(cfg.GateSamples), "cz": int64(d.czSamples()), "readout": 64, "none": 0}
	for _, tc := range []struct {
		op, duration string
		exact, has   bool
		pulse        string // steps as kind:role@phase, or the error kind
	}{
		{"x", "gate", false, true, "play:drive0"},
		{"y", "gate", false, false, "not_supported"},
		{"z", "none", true, true, "shift_phase:drive0@3.141592653589793"},
		{"h", "gate", false, false, "not_supported"},
		{"s", "none", true, true, "shift_phase:drive0@1.5707963267948966"},
		{"t", "none", true, true, "shift_phase:drive0@0.7853981633974483"},
		{"sx", "gate", false, true, "play:drive0"},
		{"rx", "gate", false, false, "not_supported"},
		{"ry", "gate", false, false, "not_supported"},
		{"rz", "none", true, true, "shift_phase:drive0@0"},
		{"cz", "cz", false, true, "barrier: play:coupler barrier:"},
		{"cx", "cz", false, false, "not_supported"},
		{"iswap", "unlisted", false, false, "not_supported"},
		{"measure", "readout", false, true, "barrier: capture:readout0"},
		{"frobnicate", "unlisted", false, false, "not_supported"},
	} {
		sites := []int{0}
		if g := waveform.GateByName(tc.op); g != nil && g.Arity == 2 {
			sites = []int{0, 1}
		}
		if tc.duration == "unlisted" {
			for _, p := range []qdmi.OperationProperty{qdmi.OpPropDurationSeconds, qdmi.OpPropFidelity, qdmi.OpPropHasPulseImpl, qdmi.OpPropArity} {
				if v, err := d.QueryOperationProperty(tc.op, sites, p); !errors.Is(err, qdmi.ErrNotSupported) {
					t.Errorf("%s: property %v = %v, %v; want ErrNotSupported", tc.op, p, v, err)
				}
			}
		} else {
			dur, _ := d.QueryOperationProperty(tc.op, sites, qdmi.OpPropDurationSeconds)
			if want := float64(samples[tc.duration]) * (1 / cfg.SampleRateHz); dur != want {
				t.Errorf("%s: duration %v, want %v (%s)", tc.op, dur, want, tc.duration)
			}
			if fid, _ := d.QueryOperationProperty(tc.op, sites, qdmi.OpPropFidelity); (fid == 1.0) != tc.exact {
				t.Errorf("%s: fidelity %v, exact want %v", tc.op, fid, tc.exact)
			}
			if has, _ := d.QueryOperationProperty(tc.op, sites, qdmi.OpPropHasPulseImpl); has != tc.has {
				t.Errorf("%s: has pulse %v, want %v", tc.op, has, tc.has)
			}
		}
		impl, err := d.DefaultPulse(tc.op, sites)
		var got string
		switch {
		case errors.Is(err, qdmi.ErrNotSupported):
			got = "not_supported"
		case err != nil:
			got = err.Error()
		default:
			var steps []string
			for _, st := range impl.Steps {
				s := st.Kind + ":" + st.PortRole
				if st.Kind == "shift_phase" {
					s += "@" + strconv.FormatFloat(st.PhaseRad, 'g', -1, 64)
				}
				steps = append(steps, s)
			}
			got = strings.Join(steps, " ")
		}
		if got != tc.pulse {
			t.Errorf("%s: pulse %q, want %q", tc.op, got, tc.pulse)
		}
	}
	if math.Abs(d.estimateGateFidelity("x", []int{0})-1) < 1e-9 {
		t.Fatal("the miscalibration did not reach the fidelity estimate: the exact column tests nothing")
	}
}
